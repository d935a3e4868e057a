"""Synthetic corpus generation and scripted expert readers.

Each snippet is a small pseudo-program whose class is realized by a
signature keyword pair planted on one line; optionally one identifier is
replaced by the lexical anomaly "BUGTOK" to give a ground-truth bug
location. The scripted experts (linear reader, keyword skimmer, bug
seeker) are deterministic, so imitation quality is exactly measurable.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gaze import EmptyTrajectoryError, Fixation, LayoutSpec, Trajectory, merge_consecutive
from .lexer import LabelKind, Snippet, TaskLabel, tokenize

BUG_TOKEN = "BUGTOK"

DEFAULT_KEYWORD_POOL = [
    "for", "swap", "while", "merge", "if", "sort", "loop", "scan",
    "case", "probe", "try", "fold", "else", "map", "do", "zip",
]
DEFAULT_IDENT_POOL = [
    "i", "j", "k", "n", "tmp", "acc", "buf", "idx", "val", "cur", "lo", "hi",
]


@dataclass
class GeneratorConfig:
    seed: int = 0
    n_snippets: int = 200
    n_classes: int = 3
    lines_min: int = 3
    lines_max: int = 5
    bug_rate: float = 0.0
    keyword_pool: list[str] = field(default_factory=lambda: list(DEFAULT_KEYWORD_POOL))
    ident_pool: list[str] = field(default_factory=lambda: list(DEFAULT_IDENT_POOL))

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if self.lines_min < 1 or self.lines_max < self.lines_min:
            raise ValueError("invalid lines_per_snippet range")
        if 2 * self.n_classes > len(self.keyword_pool):
            raise ValueError("keyword pool too small for the class count")

    def signature_pair(self, cls: int) -> tuple[str, str]:
        return self.keyword_pool[2 * cls], self.keyword_pool[2 * cls + 1]

    def keyword_set(self) -> set[str]:
        return set(self.keyword_pool[: 2 * self.n_classes])


def snippet_id(index: int) -> str:
    return f"snip{index:04d}"


def gen_source(cfg: GeneratorConfig, index: int) -> tuple[str, int, int | None]:
    """Deterministic pseudo-program text; returns (source, class, bug index)."""
    if index >= cfg.n_snippets:
        raise ValueError(f"index {index} out of range for {cfg.n_snippets} snippets")
    rng = np.random.default_rng([cfg.seed, index])
    cls = index % cfg.n_classes
    kw_a, kw_b = cfg.signature_pair(cls)
    n_lines = int(rng.integers(cfg.lines_min, cfg.lines_max + 1))
    sig_line = int(rng.integers(0, n_lines))
    idents = cfg.ident_pool
    ops = ["+", "-", "*"]

    lines: list[list[str]] = []
    for ln in range(n_lines):
        if ln == sig_line:
            a, b = rng.choice(len(idents), size=2, replace=False)
            lines.append([kw_a, "(", idents[a], "<", idents[b], ")", kw_b])
        else:
            a, b = rng.choice(len(idents), size=2, replace=False)
            op = ops[int(rng.integers(0, len(ops)))]
            num = str(int(rng.integers(0, 10)))
            lines.append([idents[a], "=", idents[b], op, num, ";"])

    bug_index = None
    if rng.random() < cfg.bug_rate:
        flat = [w for line in lines for w in line]
        ident_positions = [i for i, w in enumerate(flat)
                           if w in idents and w not in (kw_a, kw_b)]
        pos = ident_positions[int(rng.integers(0, len(ident_positions)))]
        flat[pos] = BUG_TOKEN
        bug_index = pos
        it = iter(flat)
        lines = [[next(it) for _ in line] for line in lines]

    source = "\n".join(" ".join(line) for line in lines)
    return source, cls, bug_index


def lex_snippet(cfg: GeneratorConfig, index: int, source: str, cls: int,
                bug_index: int | None) -> Snippet:
    """The snippet of `gen_source(cfg, index)`'s results: its tokens and task label."""
    snippet = tokenize(source, cfg.keyword_set(), snippet_id=snippet_id(index))
    if bug_index is not None:
        snippet.task = TaskLabel(LabelKind.BUG, bug_index)
    else:
        snippet.task = TaskLabel(LabelKind.CLASS, cls)
    return snippet


def gen_snippet(cfg: GeneratorConfig, index: int) -> Snippet:
    return lex_snippet(cfg, index, *gen_source(cfg, index))


def write_source(corpus_dir: Path, index: int, source: str) -> None:
    (corpus_dir / f"{snippet_id(index)}.txt").write_text(source + "\n", encoding="utf-8")


def label_rows(index: int, cls: int, bug_index: int | None) -> list[tuple[str, str, int]]:
    """The labels CSV rows of one snippet: its class, then its bug if it has one."""
    rows = [(snippet_id(index), "class", cls)]
    if bug_index is not None:
        rows.append((snippet_id(index), "bug", bug_index))
    return rows


def write_labels(labels_path: str | os.PathLike, rows: list[tuple[str, str, int]]) -> None:
    with open(labels_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["snippet_id", "kind", "value"])
        writer.writerows(rows)


def write_corpus(cfg: GeneratorConfig, corpus_dir: str | os.PathLike,
                 labels_path: str | os.PathLike) -> None:
    """Emit one source file per snippet plus the labels CSV."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for index in range(cfg.n_snippets):
        source, cls, bug_index = gen_source(cfg, index)
        write_source(corpus_dir, index, source)
        rows += label_rows(index, cls, bug_index)
    write_labels(labels_path, rows)


# ---------------------------------------------------------------------------
# Scripted experts

def linear_reader(snippet: Snippet) -> Trajectory:
    """Reads every token once, in document order."""
    if not snippet.tokens:
        raise EmptyTrajectoryError(f"empty trajectory for snippet {snippet.id!r}")
    return Trajectory(snippet_id=snippet.id, steps=list(range(len(snippet.tokens))),
                      weight=1.0, task=snippet.task)


def keyword_skimmer(snippet: Snippet, salient: set[str]) -> Trajectory:
    """Visits only tokens whose text is in the salient set."""
    steps = [i for i, tok in enumerate(snippet.tokens) if tok.text in salient]
    if not steps:
        raise EmptyTrajectoryError(f"empty trajectory for snippet {snippet.id!r}")
    return Trajectory(snippet_id=snippet.id, steps=steps, weight=1.0, task=snippet.task)


def bug_seeker(snippet: Snippet, window: int) -> Trajectory:
    """Skims toward the bug, oscillates around it, and lands on it."""
    if snippet.task is None or snippet.task.kind is not LabelKind.BUG:
        raise ValueError(f"snippet {snippet.id!r} has no bug label")
    if window < 0:
        raise ValueError("window must be non-negative")
    n = len(snippet.tokens)
    b = snippet.task.value
    prefix = list(range(0, b - window, 2))
    osc = list(range(b - window, b + window + 1)) + list(range(b - window + 1, b + 1))
    clipped = [min(max(s, 0), n - 1) for s in prefix + osc]
    steps = merge_consecutive(clipped)
    return Trajectory(snippet_id=snippet.id, steps=steps, weight=1.0,
                      task=TaskLabel(LabelKind.BUG, b))


def fixations_for_trajectory(traj: Trajectory, snippet: Snippet,
                             layout: LayoutSpec, dwell_ms: float = 180.0,
                             step_ms: float = 200.0) -> list[Fixation]:
    """Synthesize one fixation per step at each token's glyph-box center."""
    fixations = []
    for i, s in enumerate(traj.steps):
        tok = snippet.tokens[s]
        cx = layout.origin_x_px + (tok.col_start + tok.col_end) / 2.0 * layout.char_width_px
        cy = layout.origin_y_px + (tok.line + 0.5) * layout.line_height_px
        fixations.append(Fixation(t_ms=i * step_ms, x_px=cx, y_px=cy, dur_ms=dwell_ms))
    return fixations
