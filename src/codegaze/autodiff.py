"""Minimal reverse-mode autodiff on dense float64 arrays, plus Adam.

Everything is computed in 64-bit floats on numpy arrays. A forward pass
builds a tape implicitly through parent links; `backward` walks it once in
reverse topological order and drops each interior node's gradient as soon
as that node has passed it on, so only leaves (parameters, constants) keep
one. Gradients accumulate additively, so running several graphs over the
same parameter leaves sums their gradients (used for batching); call
`zero_grads` between optimizer steps.

The ops here are generic: elementwise and matrix ops, row gathers, and the
cross-entropy losses (log-sum-exp, so saturated logits stay finite), whose
plain-array core `cross_entropy_rows` the policy also calls. A node is any
`Var` built with parents and a backward closure that passes gradients on
with `accumulate`; the policy builds a lockstep group's whole teacher-forced
loss that way, as one node whose hand-derived backward reaches every
parameter.

Adam keeps the parameters in one contiguous float64 vector: `adam_init`
packs their values (`pack`), so each Var's value becomes a view of its
segment, and `adam_step` runs each operation of the update once over the
whole vector, in the order of the per-parameter update, into moment and
scratch vectors allocated once. It writes the same bytes as updating one
parameter at a time.
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


def cross_entropy_rows(x: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    losses, d = cross_entropy_rows(logits.value[None, :], np.array([target_index]))
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
    losses, d = cross_entropy_rows(logits.value, t)
    out = Var(losses.sum(), parents=(logits,))
    out._backward = lambda g: accumulate(logits, g * d)
    return out


def backward(loss: Var) -> None:
    """Backpropagate from a scalar loss through the recorded graph.

    Afterwards only leaf Vars (those without parents) hold a gradient.
    """
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
        if node._parents:
            node.grad = None


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


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive segments of the vector `flat`, one per name, reshaped to its shape."""
    views, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


def pack(arrays: dict[str, np.ndarray],
         out: np.ndarray | None = None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The arrays' values copied exactly, in order, into one float64 vector
    (`out`, or a new one), and each array as a view of its segment, by name."""
    if out is None:
        out = np.empty(sum(a.size for a in arrays.values()))
    np.concatenate(list(arrays.values()), axis=None, out=out)
    return out, _views(out, {name: a.shape for name, a in arrays.items()})


@dataclass
class AdamState:
    """Adam's settings and step count, and its vectors over the packed
    parameters, rows of one array: `values` is the vector every parameter's
    value is a view of, `moments` holds m and v as its two rows (`m` and `v`
    view them by parameter name), and `scratch` is two vectors the step
    works in."""
    lr: float = 1e-3
    clip: float = 5.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    values: np.ndarray | None = None
    moments: np.ndarray | None = None
    scratch: np.ndarray | None = None


def adam_init(params: dict[str, Var], lr=1e-3, clip=5.0) -> AdamState:
    """Packs the parameter values into one vector (see `pack`), so that each
    Var's value becomes a view of its segment, beside the moment and scratch
    vectors `adam_step` works on.

    The five vectors are one allocation. Allocated apart, these long-lived
    arrays landed inside the heap, and the pages the training step's
    temporaries freed above them were returned to the system and faulted in
    again: about 7,000 page faults per train-linear epoch, against 750.
    """
    vectors = np.zeros((5, sum(p.value.size for p in params.values())))
    values, views = pack({name: p.value for name, p in params.items()}, out=vectors[0])
    for name, p in params.items():
        p.value = views[name]
    shapes = {name: p.value.shape for name, p in params.items()}
    moments = vectors[1:3]
    return AdamState(lr=lr, clip=clip, m=_views(moments[0], shapes), v=_views(moments[1], shapes),
                     values=values, moments=moments, scratch=vectors[3:])


def global_norm(grads: dict[str, np.ndarray], squares: dict | None = None) -> float:
    """The gradients' joint L2 norm, summed one parameter at a time in order.

    `squares` may map each name to its gradient's squares as one vector in
    C order: np.sum adds a C-ordered array's elements as it adds that
    vector's, so the result is the same and nothing is allocated.
    """
    total = 0.0
    for name, g in grads.items():
        if squares is not None and g.flags.c_contiguous:
            total += float(np.add.reduce(squares[name]))
        else:
            total += float(np.sum(g * g))
    return math.sqrt(total)


def adam_step(params: dict[str, Var], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """In-place Adam update with global-norm gradient clipping, over the one
    vector `adam_init` packed the parameters into.

    The gradients are gathered into a scratch vector, and each operation of
    the per-parameter update (g = clipped gradient; m = BETA1 m + (1 - BETA1)
    g; v = BETA2 v + (1 - BETA2) g^2; value -= lr (m / bc1) / (sqrt(v / bc2)
    + EPSILON)) runs once over the whole vector, in the same order, writing
    into the state's vectors: the same bytes as updating each parameter on
    its own, without allocating. The clipping factor comes from
    `global_norm`'s per-parameter sums, read off the packed squares.
    `params` must hold the Vars `adam_init` packed.
    """
    values, (m, v), (g, tmp) = state.values, state.moments, state.scratch
    for name in state.m:
        if params[name].value.base is not values.base:
            raise ValueError(f"adam_step: parameter {name!r} is not the view adam_init packed")
    # Outputs positional, as in `policy.gru_step`.
    np.concatenate([grads[name] for name in state.m], axis=None, out=g)
    np.multiply(g, g, tmp)
    norm = global_norm(grads, _views(tmp, {name: (a.size,) for name, a in state.m.items()}))
    factor = state.clip / norm if 0 < state.clip < norm else 1.0
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    if factor != 1.0:
        np.multiply(g, factor, g)
        np.multiply(g, g, tmp)
    # v before m: they do not depend on each other, and tmp holds g^2.
    np.multiply(v, BETA2, v)
    np.multiply(tmp, 1.0 - BETA2, tmp)
    np.add(v, tmp, v)
    np.multiply(m, BETA1, m)
    np.multiply(g, 1.0 - BETA1, tmp)
    np.add(m, tmp, m)
    np.divide(v, bc2, tmp)
    np.sqrt(tmp, tmp)
    np.add(tmp, EPSILON, tmp)
    np.divide(m, bc1, g)
    np.multiply(g, state.lr, g)
    np.divide(g, tmp, g)
    np.subtract(values, g, values)
