"""Out-of-program tracing for the benchmark.

Nothing inside the library changes. A `Tracer` replaces a library function
under the name its caller looks it up by (a module attribute such as
`policy.gru_step`, or the `cli.COMMANDS` dispatch table) with a wrapper
that records a span (name, start, end, parent span, run id), and puts the
original back on exit. The autodiff ops are wrapped to count calls only:
one span per tape node would cost more than the work it measures.

Spans stay in memory until the benchmark ends. A layer's self time is the
sum of its spans' durations minus the time their child spans cover; the
`other` bucket is the traced wall time that no top-level span covers, so
self times plus `other` add up to the wall time exactly.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

from codegaze import autodiff, cli, gaze, lexer, policy, synth, training

# Public autodiff ops; each call records one node on the tape.
TAPE_OPS = ("constant", "matmul", "add", "sub", "mul", "scale", "tanh", "sigmoid",
            "row_gather", "concat_rows", "stack_rows", "softmax_cross_entropy")

# Self-time buckets, in report order. Each is reported as `<name>_s`.
LAYERS = (
    "lexer.tokenize", "synth.gen", "features.featurize",
    "gaze.map_fixation", "gaze.augment",
    "cli.synth", "cli.ingest", "cli.augment",
    "policy.encode", "policy.gru_enc", "policy.gru_dec", "policy.pointer",
    "policy.bc_loss", "autodiff.backward", "autodiff.adam_step",
    "training.train", "training.evaluate", "training.predict",
    "training.load_checkpoint", "training.save_checkpoint",
)

# Counts recorded at the same boundaries; each must repeat exactly between
# two traced passes of one seed.
COUNTS = (
    "lexer.tokens", "features.rows", "gaze.fixations", "gaze.mapped",
    "gaze.augment_copies", "policy.gru_enc_calls", "policy.gru_dec_calls",
    "autodiff.tape_nodes", "autodiff.adam_steps", "training.checkpoint_bytes",
    "rollout.steps", "rollout.stops",
)


def _gru_name(args, kwargs):
    prefix = args[1] if len(args) > 1 else kwargs["prefix"]
    return "policy.gru_enc" if prefix == "enc" else "policy.gru_dec"


def _count_gru(counts, args, kwargs, result):
    counts[_gru_name(args, kwargs) + "_calls"] += 1


def _count_tokens(counts, args, kwargs, result):
    counts["lexer.tokens"] += len(result.tokens)


def _count_rows(counts, args, kwargs, result):
    counts["features.rows"] += result.shape[0]


def _count_fixation(counts, args, kwargs, result):
    counts["gaze.fixations"] += 1
    counts["gaze.mapped"] += result is not None


def _count_copies(counts, args, kwargs, result):
    counts["gaze.augment_copies"] += len(result) - 1


def _count_adam(counts, args, kwargs, result):
    counts["autodiff.adam_steps"] += 1


def _count_rollout(counts, args, kwargs, result):
    steps, max_steps = result[0], args[2] if len(args) > 2 else kwargs["max_steps"]
    stopped = len(steps) < max_steps
    counts["rollout.steps"] += len(steps) + 1 if stopped else max_steps
    counts["rollout.stops"] += stopped


def _count_ckpt_bytes(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["training.checkpoint_bytes"] += os.path.getsize(path)


# (owner, attribute, span name, counter). The owner is where the caller
# looks the function up; a name given as a function is chosen per call.
SPAN_SITES = (
    (lexer, "tokenize", "lexer.tokenize", _count_tokens),    # load_corpus
    (synth, "tokenize", "lexer.tokenize", _count_tokens),    # gen_snippet
    (synth, "gen_source", "synth.gen", None),
    (synth, "gen_snippet", "synth.gen", None),
    (synth, "write_corpus", "synth.gen", None),
    (synth, "linear_reader", "synth.gen", None),
    (synth, "keyword_skimmer", "synth.gen", None),
    (synth, "fixations_for_trajectory", "synth.gen", None),
    (training, "featurize", "features.featurize", _count_rows),
    (gaze, "map_fixation", "gaze.map_fixation", _count_fixation),
    (cli, "augment", "gaze.augment", _count_copies),
    (cli.COMMANDS, "synth", "cli.synth", None),
    (cli.COMMANDS, "ingest", "cli.ingest", None),
    (cli.COMMANDS, "augment", "cli.augment", None),
    (policy, "encode", "policy.encode", None),
    (policy, "gru_step", _gru_name, _count_gru),
    (policy, "forward_teacher", "policy.pointer", None),
    (policy, "rollout", "policy.pointer", _count_rollout),
    (policy, "bc_loss", "policy.bc_loss", None),
    (autodiff, "backward", "autodiff.backward", None),
    (autodiff, "adam_step", "autodiff.adam_step", _count_adam),
    (training, "train", "training.train", None),
    (training, "evaluate", "training.evaluate", None),
    (training, "predict", "training.predict", None),
    (training, "load_checkpoint", "training.load_checkpoint", None),
    (training, "save_checkpoint", "training.save_checkpoint", _count_ckpt_bytes),
)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Spans and counts of one traced pass; use as a context manager."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (name, start, end, parent index, run id)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span_wrapper(self, name, fn, count):
        spans, stack, counts, run_id = self.spans, self._stack, self.counts, self.run_id

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, run_id)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["autodiff.tape_nodes"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for owner, attr, name, count in SPAN_SITES:
            original = _get(owner, attr)
            self._undo.append((owner, attr, original))
            _set(owner, attr, self._span_wrapper(name, original, count))
        for op in TAPE_OPS:
            original = getattr(autodiff, op)
            self._undo.append((autodiff, op, original))
            setattr(autodiff, op, self._count_wrapper(original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            _set(*self._undo.pop())
        return False

    def self_times(self) -> tuple[dict[str, float], float]:
        """Per-name self time, and the total time of top-level spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
            if parent < 0:
                top += end - start
        return totals, top
