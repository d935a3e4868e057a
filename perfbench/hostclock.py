"""A host-speed reference, sampled while the benchmark runs.

On a shared machine the same single-threaded work can run 1.5x slower for
seconds to minutes while neighbours load the shared caches and memory. To
keep runs comparable, a `HostClock` runs a small reference kernel from a
SIGALRM handler a hundred times a second. The kernel does the same kind of
work as the library (a tape of small numpy ops held together by closures,
walked backward) but shares no code with it, so no change to the library
can speed it up.

An operation's normalized time is its measured time, minus the time the
handler spent inside it, scaled by NOMINAL_REF_S over the median kernel
time sampled while it ran: the time it would have taken while the kernel
ran in NOMINAL_REF_S. The host's slow stretches can be shorter than a
second, so the kernel samples inside the operation track it best; for an
operation too short to hold MIN_SAMPLES of them, the nearest samples
before and after it make up the number.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time

import numpy as np

NOMINAL_REF_S = 0.0003  # about the kernel's time, sampled in a run, on a 2.0 GHz Xeon VM
PERIOD_S = 0.01
MIN_SAMPLES = 9
KERNEL_STEPS = 4

_W = np.linspace(-0.1, 0.1, 48 * 48).reshape(48, 48)
_U = _W.T.copy()
_X = np.linspace(-1.0, 1.0, 48)


class _Node:
    __slots__ = ("value", "grad", "parents", "back")

    def __init__(self, value, parents=(), back=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.back = back


def _acc(node, g):
    node.grad = g.copy() if node.grad is None else node.grad + g


def _matvec(w, x):
    out = _Node(x.value @ w.value, (w, x))

    def back(g):
        _acc(w, np.outer(x.value, g))
        _acc(x, w.value @ g)

    out.back = back
    return out


def _add(a, b):
    out = _Node(a.value + b.value, (a, b))

    def back(g):
        _acc(a, g)
        _acc(b, g)

    out.back = back
    return out


def _tanh(a):
    y = np.tanh(a.value)
    out = _Node(y, (a,))
    out.back = lambda g: _acc(a, g * (1.0 - y * y))
    return out


def _kernel() -> None:
    """A small recurrent net's forward and backward pass on a fresh tape."""
    w, u, x, h = _Node(_W), _Node(_U), _Node(_X[::-1].copy()), _Node(_X)
    for _ in range(KERNEL_STEPS):
        h = _tanh(_add(_matvec(w, h), _matvec(u, x)))
    _acc(h, np.ones_like(_X))
    seen, stack, order = set(), [h], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            order.append(node)
            stack.extend(node.parents)
    for node in order:
        if node.back is not None and node.grad is not None:
            node.back(node.grad)


class HostClock:
    """Times operations and normalizes them by the sampled reference.

    Use as a context manager to sample; outside one, normalized equals measured.
    """

    def __init__(self):
        self.starts: list[float] = []  # kernel start times, increasing
        self.secs: list[float] = []    # kernel durations
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        # No collection inside the kernel: it would time the library's garbage.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            _kernel()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.secs.append(time.perf_counter() - start)

    def timed(self, fn, *args):
        """Run fn(*args): (result, (start, end)) on the perf_counter clock.

        A full garbage collection first, untimed, so that the collections
        inside the operation depend on what it allocates, not on what ran
        before it.
        """
        gc.collect()
        start = time.perf_counter()
        result = fn(*args)
        return result, (start, time.perf_counter())

    def seconds(self, span: tuple[float, float]) -> tuple[float, float]:
        """(measured, normalized) seconds of an operation that ran over `span`."""
        start, end = span
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        measured = end - start - sum(self.secs[lo:hi])
        if not self.secs:
            return measured, measured
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            before = start - self.starts[lo - 1] if lo > 0 else math.inf
            after = self.starts[hi] - end if hi < len(self.starts) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return measured, measured * NOMINAL_REF_S / statistics.median(self.secs[lo:hi])
