"""Pixel-space fixations to token-level trajectories, plus augmentation.

Tokens are modeled as axis-aligned glyph boxes on a monospace grid. A
fixation maps to the token whose box contains it, falling back to the
nearest box center within a radius. Trajectories are the merged index
sequences; fixation-uncertainty augmentation resamples each step from
nearby same-line tokens under a Gaussian kernel over token-index distance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .lexer import (DataError, LabelKind, Snippet, TaskLabel, check_json_object, field_types,
                    finite_floats, read_csv_rows, read_text, write_jsonl)


class EmptyTrajectoryError(DataError):
    """Raised when no usable steps survive filtering and mapping."""


class StepRangeError(DataError, IndexError):
    """Raised when a trajectory step is not a token index of its snippet, or
    its task label is out of range for the task head."""


class GazeFileError(DataError):
    """Raised on a malformed fixation CSV, layout or trajectory file."""


# Bound on the fixation x token pairs `map_fixations` compares at once.
MAP_BLOCK_CELLS = 1 << 16
# Bound on the trajectory positions x candidate slots whose tables `augment`
# holds at once.
AUGMENT_BLOCK_CELLS = 1 << 16


@dataclass
class Fixation:
    t_ms: float
    x_px: float
    y_px: float
    dur_ms: float


@dataclass
class LayoutSpec:
    origin_x_px: float = 20.0
    origin_y_px: float = 20.0
    char_width_px: float = 9.0
    line_height_px: float = 18.0
    tab_width: int = 4


@dataclass
class Trajectory:
    snippet_id: str
    steps: list[int]
    weight: float = 1.0
    task: TaskLabel | None = None


def token_boxes(layout: LayoutSpec, tokens) -> tuple[np.ndarray, ...]:
    """(x0, y0, x1, y1) arrays of the tokens' glyph boxes in pixels."""
    spans = np.array([(t.col_start, t.col_end, t.line) for t in tokens],
                     dtype=np.float64).reshape(-1, 3)
    x0 = layout.origin_x_px + spans[:, 0] * layout.char_width_px
    x1 = layout.origin_x_px + spans[:, 1] * layout.char_width_px
    y0 = layout.origin_y_px + spans[:, 2] * layout.line_height_px
    y1 = y0 + layout.line_height_px
    return x0, y0, x1, y1


def token_box(layout: LayoutSpec, tok) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) of a token's glyph box in pixels."""
    return tuple(float(v[0]) for v in token_boxes(layout, [tok]))


def map_fixations(fixations: list[Fixation], layout: LayoutSpec, snippet: Snippet,
                  radius_px: float) -> list[int | None]:
    """Per fixation, the first token whose box contains it, else the nearest
    box centre within radius (the lowest index on a tie), else None.

    Works on blocks of at most MAP_BLOCK_CELLS fixation x token pairs.
    """
    if radius_px < 0:
        raise ValueError("radius_px must be non-negative")
    n = len(snippet.tokens)
    if n == 0:
        return [None] * len(fixations)
    x0, y0, x1, y1 = token_boxes(layout, snippet.tokens)
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    xy = np.array([(f.x_px, f.y_px) for f in fixations], dtype=np.float64).reshape(-1, 2)
    idx = np.full(len(xy), -1)
    block = max(1, MAP_BLOCK_CELLS // n)
    for start in range(0, len(xy), block):
        x, y = xy[start:start + block, :1], xy[start:start + block, 1:]
        inside = (x0 <= x) & (x < x1) & (y0 <= y) & (y < y1)
        hit = inside.any(axis=1)
        out = idx[start:start + block]
        out[hit] = inside[hit].argmax(axis=1)
        far = ~hit
        if far.any():
            out[far] = _nearest_within(x[far, 0], y[far, 0], cx, cy, radius_px)
    return [None if i < 0 else i for i in idx.tolist()]


def _nearest_within(x, y, cx, cy, radius_px: float) -> np.ndarray:
    """Index of the nearest centre within radius of each point, else -1."""
    dist = np.hypot(x[:, None] - cx, y[:, None] - cy)
    dist[np.isnan(dist)] = np.inf  # a NaN distance is never the nearest
    nearest = dist.argmin(axis=1)
    best = dist[np.arange(len(x)), nearest]
    # np.hypot and math.hypot can differ in the last bit. So a point whose
    # minimum is nearly tied, or nearly the radius, gets math.hypot's
    # distances, which decide ties and the radius exactly as a scalar scan.
    slack = 1e-12 * best
    with np.errstate(invalid="ignore"):  # inf - inf: no centre at a finite distance
        unsure = np.isfinite(best) & (
            ((dist <= (best + slack)[:, None]).sum(axis=1) > 1)
            | (np.abs(best - radius_px) <= slack))
    for r in np.flatnonzero(unsure).tolist():
        exact = [math.hypot(x[r] - a, y[r] - b) for a, b in zip(cx.tolist(), cy.tolist())]
        best[r], nearest[r] = min((d, i) for i, d in enumerate(exact) if not math.isnan(d))
    return np.where((best < math.inf) & (best <= radius_px), nearest, -1)


def map_fixation(fix: Fixation, layout: LayoutSpec, snippet: Snippet,
                 radius_px: float) -> int | None:
    """Token index under a fixation, or the nearest within radius, else None."""
    return map_fixations([fix], layout, snippet, radius_px)[0]


def merge_consecutive(steps: list[int]) -> list[int]:
    out: list[int] = []
    for s in steps:
        if not out or out[-1] != s:
            out.append(s)
    return out


def check_steps(steps: list[int], n_tokens: int, what: str) -> None:
    """Rejects no steps or a step outside [0, n_tokens); `what` names the trajectory."""
    if not steps:
        raise EmptyTrajectoryError(f"{what} has no steps")
    for s in steps:
        if not 0 <= s < n_tokens:
            raise StepRangeError(f"{what}: step {s} out of range for {n_tokens} tokens")


def build_trajectory(fixations: list[Fixation], layout: LayoutSpec, snippet: Snippet,
                     min_dur_ms: float = 50.0, radius_px: float = 30.0) -> Trajectory:
    """Filter short fixations, map to tokens, merge repeats."""
    kept = [fix for fix in fixations if not fix.dur_ms < min_dur_ms]
    mapped = [i for i in map_fixations(kept, layout, snippet, radius_px) if i is not None]
    steps = merge_consecutive(mapped)
    if not steps:
        raise EmptyTrajectoryError(f"empty trajectory for snippet {snippet.id!r}")
    return Trajectory(snippet_id=snippet.id, steps=steps, weight=1.0, task=snippet.task)


def augment(traj: Trajectory, snippet: Snippet, sigma_tokens: float, m: int,
            seed: int) -> list[Trajectory]:
    """Original plus m jittered copies; weights sum to 1, original keeps half.

    Each copy resamples every step from same-line tokens within index
    distance ceil(2*sigma), p ~ exp(-d^2 / (2 sigma^2)). The m copies split
    half the total weight in proportion to their joint sampling probability,
    computed from summed log-probabilities so long trajectories cannot
    underflow it.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if not math.isfinite(sigma_tokens):
        raise ValueError("sigma_tokens must be finite")
    check_steps(traj.steps, len(snippet.tokens), f"trajectory for snippet {traj.snippet_id!r}")
    if m == 0:
        return [replace(traj, steps=list(traj.steps), weight=1.0)]
    if sigma_tokens <= 0:
        raise ValueError("sigma_tokens must be positive when m > 0")
    rng = np.random.default_rng(seed)
    # No same-line candidate lies further from a step than the widest index
    # span of one line (a line's token count minus one in reading order), so
    # the window stops there: the candidates are the same, and the table no
    # longer grows with sigma.
    first, last = {}, {}
    for i, tok in enumerate(snippet.tokens):
        first.setdefault(tok.line, i)
        last[tok.line] = i
    span = max(last[line] - first[line] for line in last)
    window = span if 2.0 * sigma_tokens >= span else math.ceil(2.0 * sigma_tokens)
    try:
        two_var = 2.0 * sigma_tokens ** 2
    except OverflowError:  # sigma past ~1.3e154: every candidate weighs the same
        two_var = math.inf

    # One (m, steps) draw is the same stream as m draws of one row each. The
    # trajectory's positions are taken in consecutive chunks of at most
    # AUGMENT_BLOCK_CELLS positions x candidate slots; each chunk's table
    # holds the distinct steps in it, and a table row depends only on its
    # step, so chunking changes no draw, and the log-joints are summed once.
    lines = np.array([tok.line for tok in snippet.tokens])
    u = rng.random((m, len(traj.steps)))
    drawn = np.empty(u.shape, dtype=np.int64)
    log_p_drawn = np.empty(u.shape)
    chunk = max(1, AUGMENT_BLOCK_CELLS // (2 * window + 1))
    for start in range(0, len(traj.steps), chunk):
        part = slice(start, start + chunk)
        steps = traj.steps[part]
        distinct = np.array(sorted(set(steps)))  # np.unique would import numpy.ma
        cands, cdf, log_p = _candidate_table(distinct, lines, window, two_var)
        rows = np.searchsorted(distinct, steps)
        k = np.count_nonzero(cdf[rows] <= u[:, part, None], axis=2)
        drawn[:, part] = cands[rows, k]
        log_p_drawn[:, part] = log_p[rows, k]
    log_joints = log_p_drawn.sum(axis=1)
    moved = np.ones(drawn.shape, dtype=bool)  # merge_consecutive of each copy
    moved[:, 1:] = drawn[:, 1:] != drawn[:, :-1]
    copies = [row[keep].tolist() for row, keep in zip(drawn, moved)]

    joints = np.exp(log_joints - log_joints.max())
    weights = 0.5 * joints / joints.sum()
    out = [replace(traj, steps=list(traj.steps), weight=0.5)]
    for copy_steps, weight in zip(copies, weights.tolist()):
        out.append(replace(traj, steps=copy_steps, weight=weight))
    return out


def _candidate_table(distinct: np.ndarray, lines: np.ndarray, window: int,
                     two_var: float) -> tuple[np.ndarray, ...]:
    """(candidates, cdf, log p), one row per distinct step, for `augment`.

    A row holds the step's same-line tokens within the window, left-aligned
    and padded to the window. A padded cdf entry of inf is never <= a
    uniform draw, so counting the entries <= u is searchsorted(cdf, u,
    side="right"), which is how numpy's `choice` turns one draw into an
    index. Each row is computed from its own step alone.
    """
    n = len(lines)
    near = distinct[:, None] + np.arange(-window, window + 1)
    ok = (near >= 0) & (near < n)
    ok &= lines[near.clip(0, n - 1)] == lines[distinct][:, None]
    order = np.argsort(~ok, axis=1, kind="stable")
    cands = np.take_along_axis(np.where(ok, near, 0), order, axis=1)
    ok = np.take_along_axis(ok, order, axis=1)
    count = ok.sum(axis=1)
    d = (cands - distinct[:, None]).astype(np.float64)
    # The step itself weighs exp(0) = 1 even where a tiny sigma leaves two_var
    # 0 or subnormal, which sends every other candidate's exponent to -inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(ok, np.where(d == 0, 1.0, np.exp(-(d * d) / two_var)), 0.0)
    # numpy's pairwise summation groups terms by a vector's length, so each
    # row is summed over its own candidates only: its total is then the
    # same float as that of the step's candidates summed alone.
    total = np.empty(len(distinct))
    for size in set(count.tolist()):
        total[count == size] = w[count == size, :size].sum(axis=1)
    p = w / total[:, None]
    c = p.cumsum(axis=1)
    cdf = np.where(ok, c / c[np.arange(len(distinct)), count - 1][:, None], np.inf)
    with np.errstate(divide="ignore"):  # a zero-probability slot is never drawn
        log_p = np.where(ok, np.log(p), 0.0)
    return cands, cdf, log_p


# ---------------------------------------------------------------------------
# File formats

FIXATION_COLUMNS = ("t_ms", "x_px", "y_px", "dur_ms")


def read_fixations_csv(path: str | os.PathLike) -> list[Fixation]:
    """Fixations sorted by onset; blank lines are skipped.

    Raises GazeFileError, naming `path:line`, on a row whose field count
    differs from the header's or whose fixation field is not a finite number.
    """
    fixations = [Fixation(*finite_floats(fields, FIXATION_COLUMNS, GazeFileError, path, line))
                 for line, fields in read_csv_rows(path, FIXATION_COLUMNS, "fixation file",
                                                   GazeFileError)]
    fixations.sort(key=lambda fx: fx.t_ms)
    return fixations


def write_fixations_csv(fixations: list[Fixation], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(FIXATION_COLUMNS) + "\n")
        for fx in fixations:
            f.write(f"{fx.t_ms},{fx.x_px},{fx.y_px},{fx.dur_ms}\n")


LAYOUT_REQUIRED = ("origin_x_px", "origin_y_px", "char_width_px", "line_height_px")


def load_layout(path: str | os.PathLike) -> LayoutSpec:
    """A JSON object of LayoutSpec's fields; all but `tab_width` are required."""
    types = field_types(LayoutSpec)
    text = read_text(path, GazeFileError)  # not in the try: its error names the file
    try:
        obj = json.loads(text)
        check_json_object(obj, types, "layout")
    except json.JSONDecodeError as e:
        raise GazeFileError(f"layout {path}: invalid JSON: {e}") from e
    except ValueError as e:
        raise GazeFileError(f"layout {path}: {e}") from e
    missing = [key for key in LAYOUT_REQUIRED if key not in obj]
    if missing:
        raise GazeFileError(f"layout {path}: missing keys {missing}")
    return LayoutSpec(**{key: types[key](value) for key, value in obj.items()})


def trajectory_to_obj(traj: Trajectory) -> dict:
    task = None
    if traj.task is not None:
        task = {"kind": traj.task.kind.value, "value": traj.task.value}
    return {"snippet_id": traj.snippet_id, "steps": list(traj.steps),
            "weight": traj.weight, "task": task}


TRAJECTORY_KEYS = {"snippet_id": str, "steps": list, "weight": float, "task": dict}


def trajectory_from_obj(obj) -> Trajectory:
    """A trajectory from its JSON object; `weight` and `task` may be left out.

    Raises ValueError on an unknown, missing or mistyped key, a step that
    is not an int, a weight that is not a finite number >= 0, or a task
    that is not {"kind": "class" or "bug", "value": int}.
    """
    if isinstance(obj, dict) and "task" in obj and obj["task"] is None:
        obj = {key: value for key, value in obj.items() if key != "task"}
    check_json_object(obj, TRAJECTORY_KEYS, "trajectory")
    missing = [key for key in ("snippet_id", "steps") if key not in obj]
    if missing:
        raise ValueError(f"trajectory missing keys {missing}")
    if not all(type(step) is int for step in obj["steps"]):
        raise ValueError("trajectory steps must be ints")
    weight = float(obj.get("weight", 1.0))
    if not (math.isfinite(weight) and weight >= 0):
        raise ValueError(f"trajectory weight {weight!r} is not a finite number >= 0")
    task = obj.get("task")
    if task is not None:
        check_json_object(task, {"kind": str, "value": int}, "trajectory task")
        kinds = [kind.value for kind in LabelKind]
        if set(task) != {"kind", "value"} or task["kind"] not in kinds:
            raise ValueError(f"trajectory task must have a kind ({', '.join(kinds)}) and a value")
        task = TaskLabel(LabelKind(task["kind"]), task["value"])
    return Trajectory(snippet_id=obj["snippet_id"], steps=list(obj["steps"]), weight=weight,
                      task=task)


def write_trajectories_jsonl(trajectories: list[Trajectory], path: str | os.PathLike) -> None:
    write_jsonl(path, map(trajectory_to_obj, trajectories))


def read_trajectories_jsonl(path: str | os.PathLike) -> list[Trajectory]:
    """One trajectory object a line; blank lines are skipped.

    Raises GazeFileError, naming `path:line`, on a line that is not valid
    JSON or not a trajectory (see `trajectory_from_obj`), and on a file
    whose weights sum to 0, which leaves no loss to average.
    """
    trajectories = []
    for line_no, line in enumerate(read_text(path, GazeFileError).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise GazeFileError(f"{path}:{line_no}: invalid JSON: {e.msg} "
                                f"at column {e.colno}") from e
        try:
            trajectories.append(trajectory_from_obj(obj))
        except ValueError as e:
            raise GazeFileError(f"{path}:{line_no}: {e}") from e
    if trajectories and sum(traj.weight for traj in trajectories) == 0:
        raise GazeFileError(f"trajectory file {path}: the weights sum to 0")
    return trajectories
