"""Minimal reverse-mode autodiff on dense float64 arrays, plus Adam.

Everything is computed in 64-bit floats on numpy arrays. A forward pass
builds a tape implicitly through parent links; `backward` walks it once in
reverse topological order. Gradients accumulate additively, so running
several graphs over the same parameter leaves sums their gradients
(used for batching); call `zero_grads` between optimizer steps.

The ops here are generic: elementwise and matrix ops, row gathers, and the
cross-entropy losses (log-sum-exp, so saturated logits stay finite). A node
is any `Var` built with parents and a backward closure that passes
gradients on with `accumulate`; the policy builds its GRU-sequence and
pointer nodes that way, each with a hand-derived backward over a whole
sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Raised when an op receives incompatible operand shapes."""


class Var:
    """A node in the computation graph holding a float64 array."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def constant(x) -> Var:
    return Var(x)


def accumulate(var: Var, g: np.ndarray) -> None:
    """Add `g` to `var`'s gradient; the one way a backward closure emits one."""
    if var.grad is None:
        var.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        var.grad = var.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def matmul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    if av.ndim == 0 or bv.ndim == 0 or av.shape[-1] != bv.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    out = Var(av @ bv, parents=(a, b))

    def bwd(g):
        if av.ndim == 2 and bv.ndim == 2:
            accumulate(a, g @ bv.T)
            accumulate(b, av.T @ g)
        elif av.ndim == 2 and bv.ndim == 1:
            accumulate(a, np.outer(g, bv))
            accumulate(b, av.T @ g)
        elif av.ndim == 1 and bv.ndim == 2:
            accumulate(a, g @ bv.T)
            accumulate(b, np.outer(av, g))
        else:  # dot product
            accumulate(a, g * bv)
            accumulate(b, g * av)

    out._backward = bwd
    return out


def _broadcast_op(a: Var, b: Var, fn, name):
    try:
        val = fn(a.value, b.value)
    except ValueError as e:
        raise ShapeError(f"{name}: incompatible shapes {a.value.shape} and {b.value.shape}") from e
    return val


def add(a: Var, b: Var) -> Var:
    out = Var(_broadcast_op(a, b, np.add, "add"), parents=(a, b))

    def bwd(g):
        accumulate(a, _unbroadcast(g, a.value.shape))
        accumulate(b, _unbroadcast(g, b.value.shape))

    out._backward = bwd
    return out


def sub(a: Var, b: Var) -> Var:
    out = Var(_broadcast_op(a, b, np.subtract, "sub"), parents=(a, b))

    def bwd(g):
        accumulate(a, _unbroadcast(g, a.value.shape))
        accumulate(b, _unbroadcast(-g, b.value.shape))

    out._backward = bwd
    return out


def mul(a: Var, b: Var) -> Var:
    out = Var(_broadcast_op(a, b, np.multiply, "mul"), parents=(a, b))

    def bwd(g):
        accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    out._backward = bwd
    return out


def scale(a: Var, c: float) -> Var:
    out = Var(a.value * c, parents=(a,))
    out._backward = lambda g: accumulate(a, g * c)
    return out


def tanh(a: Var) -> Var:
    y = np.tanh(a.value)
    out = Var(y, parents=(a,))
    out._backward = lambda g: accumulate(a, g * (1.0 - y * y))
    return out


def sigmoid(a: Var) -> Var:
    y = 1.0 / (1.0 + np.exp(-a.value))
    out = Var(y, parents=(a,))
    out._backward = lambda g: accumulate(a, g * y * (1.0 - y))
    return out


def row_gather(a: Var, i) -> Var:
    """Row `i` of `a`, or, for a sequence of indices, those rows stacked in order."""
    idx = np.asarray(i)
    bad = idx[(idx < 0) | (idx >= a.value.shape[0])]
    if bad.size:
        raise ShapeError(f"row_gather: row {bad.flat[0]} out of range for shape {a.value.shape}")
    out = Var(a.value[idx], parents=(a,))

    def bwd(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        accumulate(a, full)

    out._backward = bwd
    return out


def concat_rows(mat: Var, vec: Var) -> Var:
    """Append a 1-D vector as an extra row of a 2-D matrix."""
    if mat.value.ndim != 2 or vec.value.ndim != 1 or mat.value.shape[1] != vec.value.shape[0]:
        raise ShapeError(f"concat_rows: incompatible shapes {mat.value.shape} and {vec.value.shape}")
    out = Var(np.concatenate([mat.value, vec.value[None, :]], axis=0), parents=(mat, vec))

    def bwd(g):
        accumulate(mat, g[:-1])
        accumulate(vec, g[-1])

    out._backward = bwd
    return out


def stack_rows(rows: list[Var]) -> Var:
    out = Var(np.stack([r.value for r in rows]), parents=tuple(rows))

    def bwd(g):
        for j, r in enumerate(rows):
            accumulate(r, g[j])

    out._backward = bwd
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Plain-array softmax, for inference-side distributions."""
    z = np.exp(x - np.max(x))
    return z / z.sum()


def _cross_entropy_rows(x: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log softmax(x)[target] by log-sum-exp, and the gradient rows."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    rows = np.arange(x.shape[0])
    losses = (np.log(s) + m)[:, 0] - x[rows, targets]
    d = e / s
    d[rows, targets] -= 1.0
    return losses, d


def softmax_cross_entropy(logits: Var, target_index: int, sample_weight: float = 1.0) -> Var:
    if logits.value.ndim != 1:
        raise ShapeError(f"softmax_cross_entropy: logits must be 1-D, got shape {logits.value.shape}")
    n = logits.value.shape[0]
    if not 0 <= target_index < n:
        raise ShapeError(f"softmax_cross_entropy: target {target_index} out of range for {n} slots")
    losses, d = _cross_entropy_rows(logits.value[None, :], np.array([target_index]))
    out = Var(sample_weight * losses[0], parents=(logits,))
    out._backward = lambda g: accumulate(logits, g * sample_weight * d[0])
    return out


def softmax_cross_entropy_rows(logits: Var, targets) -> Var:
    """Sum over rows r of -log softmax(logits[r])[targets[r]], as one node."""
    if logits.value.ndim != 2:
        raise ShapeError("softmax_cross_entropy_rows: logits must be 2-D, "
                         f"got shape {logits.value.shape}")
    rows, n = logits.value.shape
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (rows,):
        raise ShapeError(f"softmax_cross_entropy_rows: {t.size} targets for {rows} rows")
    if ((t < 0) | (t >= n)).any():
        raise ShapeError(f"softmax_cross_entropy_rows: target out of range for {n} slots")
    losses, d = _cross_entropy_rows(logits.value, t)
    out = Var(losses.sum(), parents=(logits,))
    out._backward = lambda g: accumulate(logits, g * d)
    return out


def backward(loss: Var) -> None:
    """Backpropagate from a scalar loss through the recorded graph."""
    if loss.value.ndim != 0:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    accumulate(loss, np.float64(1.0))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params: dict[str, Var]) -> None:
    for p in params.values():
        p.grad = None


def collect_grads(params: dict[str, Var]) -> dict[str, np.ndarray]:
    """Gradient per parameter; parameters untouched by the loss get zeros."""
    return {
        name: (np.zeros_like(p.value) if p.grad is None else np.asarray(p.grad))
        for name, p in params.items()
    }


def grad_check(loss_fn, params: dict[str, Var], eps: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn(params) -> Var` must rebuild the graph from the current
    parameter values on every call.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    zero_grads(params)
    backward(loss_fn(params))
    analytic = collect_grads(params)
    worst = 0.0
    for name, p in params.items():
        flat = p.value.reshape(-1)
        gf = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(loss_fn(params).value)
            flat[i] = orig - eps
            fm = float(loss_fn(params).value)
            flat[i] = orig
            num = (fp - fm) / (2.0 * eps)
            rel = abs(gf[i] - num) / max(1e-8, abs(gf[i]) + abs(num))
            worst = max(worst, rel)
    return worst


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip: float = 5.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict[str, Var], lr=1e-3, beta1=0.9, beta2=0.999,
              epsilon=1e-8, clip=5.0) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon, clip=clip)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.value)
        state.v[name] = np.zeros_like(p.value)
    return state


def global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return math.sqrt(total)


def adam_step(params: dict[str, Var], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """In-place Adam update with global-norm gradient clipping."""
    norm = global_norm(grads)
    if state.clip > 0 and norm > state.clip:
        factor = state.clip / norm
        grads = {k: g * factor for k, g in grads.items()}
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.value = p.value - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
