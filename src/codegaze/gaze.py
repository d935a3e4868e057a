"""Pixel-space fixations to token-level trajectories, plus augmentation.

Tokens are modeled as axis-aligned glyph boxes on a monospace grid. A
fixation maps to the token whose box contains it, falling back to the
nearest box center within a radius. Trajectories are the merged index
sequences; fixation-uncertainty augmentation resamples each step from
nearby same-line tokens under a Gaussian kernel over token-index distance.

Both steps work a whole file at a time: `build_trajectories` maps the
fixations of every recording in one pass, and `augment_all` builds the
candidate tables of every trajectory of a file together.
`build_trajectory` and `augment` are their one-record cases.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

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


# Bound on the (fixation x own-snippet token) pairs that `map_points`
# compares at once. A block spans files, so it is kept small enough to stay
# in cache: about 50 bytes a pair.
MAP_BLOCK_CELLS = 1 << 13
# Bound on the (trajectory position x candidate slot) cells whose tables
# `augment_all` holds at once.
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
    spans = map(attrgetter("col_start", "col_end", "line"), tokens)
    spans = np.fromiter(chain.from_iterable(spans), dtype=np.float64,
                        count=3 * len(tokens)).reshape(-1, 3)
    x0 = layout.origin_x_px + spans[:, 0] * layout.char_width_px
    x1 = layout.origin_x_px + spans[:, 1] * layout.char_width_px
    y0 = layout.origin_y_px + spans[:, 2] * layout.line_height_px
    y1 = y0 + layout.line_height_px
    return x0, y0, x1, y1


def token_box(layout: LayoutSpec, tok) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) of a token's glyph box in pixels."""
    return tuple(float(v[0]) for v in token_boxes(layout, [tok]))


def map_points(x: np.ndarray, y: np.ndarray, owner: np.ndarray, layout: LayoutSpec,
               snippets: list[Snippet], radius_px: float) -> np.ndarray:
    """Per point (x[i], y[i]) on snippet `snippets[owner[i]]`, the index in
    that snippet of the first token whose box contains it, else of the
    nearest box centre within radius (the lowest index on a tie), else -1.

    The points of every snippet are mapped together, in blocks of at most
    MAP_BLOCK_CELLS (point x own-snippet token) pairs: a point is compared
    with its own snippet's tokens only.
    """
    if radius_px < 0:
        raise ValueError("radius_px must be non-negative")
    counts = np.array([len(sn.tokens) for sn in snippets], dtype=np.int64)
    first = (np.cumsum(counts) - counts)[owner]  # each point's first token
    n = counts[owner]                            # and its snippet's token count
    x0, y0, x1, y1 = token_boxes(layout, [tok for sn in snippets for tok in sn.tokens])
    boxes, centres = (x0, y0, x1, y1), ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    out = np.full(len(x), -1, dtype=np.int64)
    ends = np.cumsum(n)
    start = 0
    while start < len(x):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + MAP_BLOCK_CELLS, side="right")))
        part = slice(start, stop)
        out[part] = _map_block(x[part], y[part], first[part], n[part], boxes, centres,
                               radius_px)
        start = stop
    return out


def _map_block(x, y, first, n, boxes, centres, radius_px: float) -> np.ndarray:
    """`map_points` of a block of points whose snippets' tokens are the `n`
    tokens from `first` on, compared as one flat run of cells per point."""
    start = np.cumsum(n) - n  # each point's first cell
    tok = np.arange(int(n.sum())) + np.repeat(first - start, n)
    px, py = np.repeat(x, n), np.repeat(y, n)
    x0, y0, x1, y1 = boxes
    inside = x0[tok] <= px
    inside &= px < x1[tok]
    inside &= y0[tok] <= py
    inside &= py < y1[tok]
    out = np.full(len(x), -1, dtype=np.int64)
    hit, cell = _first_in_runs(start, inside)
    out[hit] = cell - start[hit]
    far = n > 0
    far[hit] = False
    if far.any():
        near = _nearest_within(x[far], y[far], n[far], tok[np.repeat(far, n)], *centres,
                               radius_px)
        out[far] = np.where(near < 0, -1, near - first[far])
    return out


def _first_in_runs(start: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run, cell) of the first True of `mask` in each run that has one; run
    i is the cells from `start[i]` to the next run's start."""
    cell = np.flatnonzero(mask)
    run = np.searchsorted(start, cell, side="right") - 1
    first = np.ones(len(cell), dtype=bool)
    first[1:] = run[1:] != run[:-1]
    return run[first], cell[first]


def _nearest_within(x, y, n, tok, cx, cy, radius_px: float) -> np.ndarray:
    """Token of the nearest centre within radius of each point, else -1.

    Point i is compared with `n[i]` >= 1 tokens, a run of `tok`."""
    start = np.cumsum(n) - n
    dist = np.hypot(np.repeat(x, n) - cx[tok], np.repeat(y, n) - cy[tok])
    dist[np.isnan(dist)] = np.inf  # a NaN distance is never the nearest
    best = np.minimum.reduceat(dist, start)
    nearest = tok[_first_in_runs(start, dist == np.repeat(best, n))[1]]
    # np.hypot and math.hypot can differ in the last bit. So a point whose
    # minimum is nearly tied, or nearly the radius, gets math.hypot's
    # distances, which decide ties and the radius exactly as a scalar scan.
    slack = 1e-12 * best
    with np.errstate(invalid="ignore"):  # inf - inf: no centre at a finite distance
        ties = np.add.reduceat((dist <= np.repeat(best + slack, n)).astype(np.int64), start)
        unsure = np.isfinite(best) & ((ties > 1) | (np.abs(best - radius_px) <= slack))
    for r in np.flatnonzero(unsure).tolist():
        toks = tok[start[r]:start[r] + n[r]]
        xr, yr = float(x[r]), float(y[r])
        exact = [math.hypot(xr - a, yr - b) for a, b in zip(cx[toks].tolist(), cy[toks].tolist())]
        best[r], i = min((d, i) for i, d in enumerate(exact) if not math.isnan(d))
        nearest[r] = toks[i]
    return np.where((best < math.inf) & (best <= radius_px), nearest, -1)


def map_fixations(fixations: list[Fixation], layout: LayoutSpec, snippet: Snippet,
                  radius_px: float) -> list[int | None]:
    """`map_points` of one snippet's fixations, with None for -1."""
    xy = np.array([(f.x_px, f.y_px) for f in fixations], dtype=np.float64).reshape(-1, 2)
    idx = map_points(xy[:, 0], xy[:, 1], np.zeros(len(xy), dtype=np.int64), layout, [snippet],
                     radius_px)
    return [None if i < 0 else i for i in idx.tolist()]


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


def build_trajectories(recordings: list[tuple[np.ndarray, Snippet]], layout: LayoutSpec,
                       min_dur_ms: float = 50.0, radius_px: float = 30.0) -> list[Trajectory]:
    """The trajectory of each (fixation table, snippet) recording: drop the
    fixations shorter than `min_dur_ms`, map the rest to tokens (all
    recordings' fixations in one `map_points` pass) and merge repeats.

    A fixation table is an (n, 4) array of FIXATION_COLUMNS, as
    `read_fixation_table` returns it. Raises EmptyTrajectoryError, naming
    the snippet, for the first recording that is left with no steps.
    """
    sizes = [len(table) for table, _ in recordings]
    fixations = np.concatenate([table for table, _ in recordings] + [np.empty((0, 4))])
    owner = np.repeat(np.arange(len(recordings)), sizes)
    kept = ~(fixations[:, 3] < min_dur_ms)
    owner = owner[kept]
    snippets = [snippet for _, snippet in recordings]
    idx = map_points(fixations[kept, 1], fixations[kept, 2], owner, layout, snippets, radius_px)
    owner, idx = owner[idx >= 0], idx[idx >= 0]
    step = np.ones(len(idx), dtype=bool)  # merge_consecutive within each recording
    step[1:] = (idx[1:] != idx[:-1]) | (owner[1:] != owner[:-1])
    counts = np.bincount(owner[step], minlength=len(recordings))
    if not counts.all():
        empty = snippets[int(np.argmin(counts))]
        raise EmptyTrajectoryError(f"empty trajectory for snippet {empty.id!r}")
    steps = idx[step].tolist()
    ends = np.cumsum(counts).tolist()
    return [Trajectory(snippet_id=sn.id, steps=steps[end - k:end], weight=1.0, task=sn.task)
            for sn, k, end in zip(snippets, counts.tolist(), ends)]


def build_trajectory(fixations: list[Fixation], layout: LayoutSpec, snippet: Snippet,
                     min_dur_ms: float = 50.0, radius_px: float = 30.0) -> Trajectory:
    """`build_trajectories` of one recording given as fixations."""
    table = np.array([(f.t_ms, f.x_px, f.y_px, f.dur_ms) for f in fixations],
                     dtype=np.float64).reshape(-1, 4)
    return build_trajectories([(table, snippet)], layout, min_dur_ms, radius_px)[0]


def augment_all(trajectories: list[Trajectory], snippets: list[Snippet], sigma_tokens: float,
                m: int, seed: int) -> list[list[Trajectory]]:
    """Per trajectory, on `snippets[i]` and drawn from default_rng(seed + i),
    the original plus m jittered copies; weights sum to 1, original keeps half.

    Each copy resamples every step from same-line tokens within index
    distance ceil(2*sigma), p ~ exp(-d^2 / (2 sigma^2)). The m copies split
    half the total weight in proportion to their joint sampling probability,
    computed from summed log-probabilities so long trajectories cannot
    underflow it.

    The trajectories whose snippets give the same window share their
    candidate tables: their positions are taken in order, in chunks of at
    most AUGMENT_BLOCK_CELLS positions x candidate slots that run across
    trajectory boundaries, and each trajectory's log-joints are summed over
    its own positions.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if not math.isfinite(sigma_tokens):
        raise ValueError("sigma_tokens must be finite")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    for traj, snippet in zip(trajectories, snippets):
        check_steps(traj.steps, len(snippet.tokens), f"trajectory for snippet {traj.snippet_id!r}")
    if m == 0:
        return [[Trajectory(t.snippet_id, list(t.steps), 1.0, t.task)] for t in trajectories]
    if sigma_tokens <= 0:
        raise ValueError("sigma_tokens must be positive when m > 0")
    try:
        two_var = 2.0 * sigma_tokens ** 2
    except OverflowError:  # sigma past ~1.3e154: every candidate weighs the same
        two_var = math.inf

    if not trajectories:
        return []
    unique = list({id(snippet): snippet for snippet in snippets}.values())
    slot = {id(snippet): k for k, snippet in enumerate(unique)}
    lines, first_token, span = _line_numbers(unique)
    # No same-line candidate lies further from a step than the widest index
    # span of one line (a line's token count minus one in reading order), so
    # a snippet's window stops there: the candidates are the same, and the
    # table no longer grows with sigma.
    windows = np.minimum(span, math.ceil(min(2.0 * sigma_tokens, float(span.max())))).tolist()

    groups: dict[int, list[int]] = {}
    for i, snippet in enumerate(snippets):
        groups.setdefault(windows[slot[id(snippet)]], []).append(i)
    first_token = first_token.tolist()
    out: list[list[Trajectory]] = [[] for _ in trajectories]
    for window, members in groups.items():
        _augment_group(trajectories, members, [first_token[slot[id(snippets[i])]] for i in members],
                       lines, window, two_var, m, seed, out)
    return out


def _line_numbers(snippets: list[Snippet]) -> tuple[np.ndarray, ...]:
    """The line of every token of `snippets`, numbered so that no two
    snippets share a line; each snippet's first token in that list; and each
    snippet's widest index span of one line."""
    counts = np.array([len(snippet.tokens) for snippet in snippets])
    starts = np.cumsum(counts) - counts
    line = np.array([tok.line for snippet in snippets for tok in snippet.tokens])
    low, high = np.minimum.reduceat(line, starts), np.maximum.reduceat(line, starts)
    lines = line + np.repeat(np.cumsum(high - low + 1) - (high + 1), counts)
    # A stable sort by line keeps each line's tokens in index order, and
    # each snippet's where they were.
    order = np.argsort(lines, kind="stable")
    firsts = np.flatnonzero(np.diff(lines[order], prepend=-1))
    from_first = order - np.repeat(order[firsts], np.diff(firsts, append=len(order)))
    return lines, starts, np.maximum.reduceat(from_first, starts)


def _augment_group(trajectories, members, offsets, lines, window: int, two_var: float, m: int,
                   seed: int, out) -> None:
    """`augment_all` of the trajectories `members`, whose snippets start at
    token `offsets` of `lines` and share `window`; fills their entries of
    `out`."""
    lengths = [len(trajectories[i].steps) for i in members]
    bounds = np.cumsum([0] + lengths)
    offset = np.repeat(offsets, lengths)
    steps = np.array([s for i in members for s in trajectories[i].steps]) + offset
    # Each trajectory takes its (m, steps) uniforms from its own stream, as
    # `augment` of it alone does. A table row depends only on its step, so
    # neither the chunks nor the other trajectories change a draw.
    u = np.empty((m, len(steps)))
    for i, a, b in zip(members, bounds[:-1], bounds[1:]):
        u[:, a:b] = np.random.default_rng(seed + i).random((m, b - a))
    drawn = np.empty(u.shape, dtype=np.int64)
    log_p_drawn = np.empty(u.shape)
    chunk = max(1, AUGMENT_BLOCK_CELLS // (2 * window + 1))
    for start in range(0, len(steps), chunk):
        part = slice(start, start + chunk)
        distinct = np.array(sorted(set(steps[part].tolist())))  # np.unique would import numpy.ma
        cands, cdf, log_p = _candidate_table(distinct, lines, window, two_var)
        rows = np.searchsorted(distinct, steps[part])
        k = np.count_nonzero(cdf[rows] <= u[:, part, None], axis=2)
        drawn[:, part] = cands[rows, k]
        log_p_drawn[:, part] = log_p[rows, k]
    drawn -= offset
    log_joints = np.array([log_p_drawn[:, a:b].sum(axis=1)
                           for a, b in zip(bounds[:-1], bounds[1:])]).reshape(-1, m)
    joints = np.exp(log_joints - log_joints.max(axis=1, keepdims=True))
    weights = (0.5 * joints / joints.sum(axis=1, keepdims=True)).tolist()

    moved = np.ones(drawn.shape, dtype=bool)  # merge_consecutive of each copy
    moved[:, 1:] = drawn[:, 1:] != drawn[:, :-1]
    moved[:, bounds[:-1]] = True
    copies = [row[keep].tolist() for row, keep in zip(drawn, moved)]
    ends = np.zeros((m, len(members) + 1), dtype=np.int64)
    ends[:, 1:] = np.cumsum(moved, axis=1)[:, bounds[1:] - 1]
    ends = ends.tolist()
    for q, i in enumerate(members):
        traj = trajectories[i]
        out[i] = [Trajectory(traj.snippet_id, list(traj.steps), 0.5, traj.task)] + [
            Trajectory(traj.snippet_id, copy[e[q]:e[q + 1]], w, traj.task)
            for copy, e, w in zip(copies, ends, weights[q])]


def augment(traj: Trajectory, snippet: Snippet, sigma_tokens: float, m: int,
            seed: int) -> list[Trajectory]:
    """`augment_all` of one trajectory."""
    return augment_all([traj], [snippet], sigma_tokens, m, seed)[0]


def _candidate_table(distinct: np.ndarray, lines: np.ndarray, window: int,
                     two_var: float) -> tuple[np.ndarray, ...]:
    """(candidates, cdf, log p), one row per distinct step, for `augment_all`.

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
    near[~ok] = 0
    cands = np.take_along_axis(near, order, axis=1)
    ok = np.take_along_axis(ok, order, axis=1)
    del near, order  # the tables of a file's steps are its largest arrays
    count = ok.sum(axis=1)
    d = (cands - distinct[:, None]).astype(np.float64)
    # The step itself weighs exp(0) = 1 even where a tiny sigma leaves two_var
    # 0 or subnormal, which sends every other candidate's exponent to -inf.
    # Each line below works in place: w = where(ok, where(d == 0, 1,
    # exp(-(d * d) / two_var)), 0), and the same for cdf and log p.
    w = np.multiply(d, d)
    np.negative(w, out=w)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w /= two_var
        np.exp(w, out=w)
    w[d == 0] = 1.0
    w[~ok] = 0.0
    del d
    # numpy's pairwise summation groups terms by a vector's length, so each
    # row is summed over its own candidates only: its total is then the
    # same float as that of the step's candidates summed alone.
    total = np.empty(len(distinct))
    for size in set(count.tolist()):
        total[count == size] = w[count == size, :size].sum(axis=1)
    p = w
    p /= total[:, None]
    cdf = p.cumsum(axis=1)
    cdf /= cdf[np.arange(len(distinct)), count - 1][:, None]
    cdf[~ok] = np.inf
    with np.errstate(divide="ignore"):  # a zero-probability slot is never drawn
        log_p = np.log(p)
    log_p[~ok] = 0.0
    return cands, cdf, log_p


# ---------------------------------------------------------------------------
# File formats

FIXATION_COLUMNS = ("t_ms", "x_px", "y_px", "dur_ms")


def read_fixation_table(path: str | os.PathLike) -> np.ndarray:
    """A fixation CSV file as an (n, 4) array of FIXATION_COLUMNS, rows
    sorted by onset; blank lines are skipped.

    Raises GazeFileError, naming `path:line`, on a row whose field count
    differs from the header's or whose fixation field is not a finite number.
    """
    table = np.array([finite_floats(fields, FIXATION_COLUMNS, GazeFileError, path, line)
                      for line, fields in read_csv_rows(path, FIXATION_COLUMNS, "fixation file",
                                                        GazeFileError)],
                     dtype=np.float64).reshape(-1, 4)
    return table[np.argsort(table[:, 0], kind="stable")]


def read_fixations_csv(path: str | os.PathLike) -> list[Fixation]:
    """`read_fixation_table` as Fixations."""
    return [Fixation(*row) for row in read_fixation_table(path).tolist()]


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
