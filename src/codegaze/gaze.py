"""Pixel-space fixations to token-level trajectories, plus augmentation.

Tokens are modeled as axis-aligned glyph boxes on a monospace grid. A
fixation maps to the token whose box contains it, falling back to the
nearest box center within a radius. Trajectories are the merged index
sequences; fixation-uncertainty augmentation resamples each step from
nearby same-line tokens under a Gaussian kernel over token-index distance.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .lexer import LabelKind, Snippet, TaskLabel


class EmptyTrajectoryError(ValueError):
    """Raised when no usable steps survive filtering and mapping."""


class StepRangeError(IndexError):
    """Raised when a trajectory step is not a token index of its snippet."""


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


def token_box(layout: LayoutSpec, tok) -> tuple[float, float, float, float]:
    """(x0, y0, x1, y1) of a token's glyph box in pixels."""
    x0 = layout.origin_x_px + tok.col_start * layout.char_width_px
    x1 = layout.origin_x_px + tok.col_end * layout.char_width_px
    y0 = layout.origin_y_px + tok.line * layout.line_height_px
    y1 = y0 + layout.line_height_px
    return x0, y0, x1, y1


def map_fixation(fix: Fixation, layout: LayoutSpec, snippet: Snippet,
                 radius_px: float) -> int | None:
    """Token index under a fixation, or the nearest within radius, else None."""
    if radius_px < 0:
        raise ValueError("radius_px must be non-negative")
    best_idx = None
    best_dist = math.inf
    for i, tok in enumerate(snippet.tokens):
        x0, y0, x1, y1 = token_box(layout, tok)
        if x0 <= fix.x_px < x1 and y0 <= fix.y_px < y1:
            return i
        cx = (x0 + x1) / 2.0
        cy = (y0 + y1) / 2.0
        d = math.hypot(fix.x_px - cx, fix.y_px - cy)
        if d < best_dist:
            best_dist = d
            best_idx = i
    if best_idx is not None and best_dist <= radius_px:
        return best_idx
    return None


def merge_consecutive(steps: list[int]) -> list[int]:
    out: list[int] = []
    for s in steps:
        if not out or out[-1] != s:
            out.append(s)
    return out


def check_steps(traj: Trajectory, snippet: Snippet) -> None:
    n = len(snippet.tokens)
    for s in traj.steps:
        if not 0 <= s < n:
            raise StepRangeError(f"trajectory for snippet {traj.snippet_id!r}: "
                                 f"step {s} out of range for {n} tokens")


def build_trajectory(fixations: list[Fixation], layout: LayoutSpec, snippet: Snippet,
                     min_dur_ms: float = 50.0, radius_px: float = 30.0) -> Trajectory:
    """Filter short fixations, map to tokens, merge repeats."""
    mapped = []
    for fix in fixations:
        if fix.dur_ms < min_dur_ms:
            continue
        idx = map_fixation(fix, layout, snippet, radius_px)
        if idx is not None:
            mapped.append(idx)
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
    check_steps(traj, snippet)
    if m == 0:
        return [replace(traj, steps=list(traj.steps), weight=1.0)]
    if sigma_tokens <= 0:
        raise ValueError("sigma_tokens must be positive when m > 0")
    rng = np.random.default_rng(seed)
    window = math.ceil(2.0 * sigma_tokens)
    n = len(snippet.tokens)

    # Candidate sets and kernel probabilities are step-dependent but fixed
    # across copies; one table row per distinct step, padded to the window.
    # A padded cdf entry of inf is never <= a uniform draw, so counting the
    # entries <= u is searchsorted(cdf, u, side="right"), which is how
    # numpy's `choice` turns one draw into an index.
    distinct = sorted(set(traj.steps))
    width = 2 * window + 1
    cands = np.zeros((len(distinct), width), dtype=np.int64)
    log_p = np.zeros((len(distinct), width))
    cdf = np.full((len(distinct), width), np.inf)
    for row, s in enumerate(distinct):
        line = snippet.tokens[s].line
        cs = [i for i in range(max(0, s - window), min(n, s + window + 1))
              if snippet.tokens[i].line == line]
        d = np.array([i - s for i in cs], dtype=np.float64)
        w = np.exp(-(d * d) / (2.0 * sigma_tokens ** 2))
        p = w / w.sum()
        c = p.cumsum()
        cands[row, :len(cs)] = cs
        with np.errstate(divide="ignore"):  # a zero-probability slot is never drawn
            log_p[row, :len(cs)] = np.log(p)
        cdf[row, :len(cs)] = c / c[-1]
    rows = np.searchsorted(distinct, traj.steps)

    copies: list[list[int]] = []
    log_joints = np.empty(m)
    for i in range(m):
        u = rng.random(len(rows))
        k = np.count_nonzero(cdf[rows] <= u[:, None], axis=1)
        copies.append(merge_consecutive(cands[rows, k].tolist()))
        log_joints[i] = log_p[rows, k].sum()

    joints = np.exp(log_joints - log_joints.max())
    weights = 0.5 * joints / joints.sum()
    out = [replace(traj, steps=list(traj.steps), weight=0.5)]
    for steps, weight in zip(copies, weights.tolist()):
        out.append(replace(traj, steps=steps, weight=weight))
    return out


# ---------------------------------------------------------------------------
# File formats

def read_fixations_csv(path: str | os.PathLike) -> list[Fixation]:
    fixations = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        required = {"t_ms", "x_px", "y_px", "dur_ms"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"fixation file {path}: header must contain t_ms,x_px,y_px,dur_ms")
        for row in reader:
            fixations.append(Fixation(float(row["t_ms"]), float(row["x_px"]),
                                      float(row["y_px"]), float(row["dur_ms"])))
    fixations.sort(key=lambda fx: fx.t_ms)
    return fixations


def load_layout(path: str | os.PathLike) -> LayoutSpec:
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    return LayoutSpec(
        origin_x_px=float(obj["origin_x_px"]),
        origin_y_px=float(obj["origin_y_px"]),
        char_width_px=float(obj["char_width_px"]),
        line_height_px=float(obj["line_height_px"]),
        tab_width=int(obj.get("tab_width", 4)),
    )


def trajectory_to_obj(traj: Trajectory) -> dict:
    task = None
    if traj.task is not None:
        task = {"kind": traj.task.kind.value, "value": traj.task.value}
    return {"snippet_id": traj.snippet_id, "steps": list(traj.steps),
            "weight": traj.weight, "task": task}


def trajectory_from_obj(obj: dict) -> Trajectory:
    task = None
    if obj.get("task") is not None:
        task = TaskLabel(LabelKind(obj["task"]["kind"]), int(obj["task"]["value"]))
    return Trajectory(snippet_id=obj["snippet_id"], steps=[int(s) for s in obj["steps"]],
                      weight=float(obj.get("weight", 1.0)), task=task)


def write_trajectories_jsonl(trajectories: list[Trajectory], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for traj in trajectories:
            f.write(json.dumps(trajectory_to_obj(traj), sort_keys=True) + "\n")


def read_trajectories_jsonl(path: str | os.PathLike) -> list[Trajectory]:
    trajectories = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                trajectories.append(trajectory_from_obj(json.loads(line)))
    return trajectories
