"""Pointer-attention encoder/decoder policy and the cloning loss.

A GRU (Cho et al. 2014) encodes the token sequence; a GRU decoder, started
from the final encoder state, points back into the input at each step
(pointer attention, Vinyals et al. 2015). Termination is an extra pointer
slot with a learned key, so the action space is uniformly "token index or
stop". A task head can emit a class label (softmax over classes) or a bug
location (a second pointer over the tokens). This module decides what a
head trains on: `TASK_KINDS` names the label kind each head reads,
`task_value` picks a trajectory's label for it, and `check_trajectory` is
the one check that a trajectory's steps and label fit the head; training
and the CLI ask it rather than repeat its rules.

Each piece of the network is one plain-numpy function that both decoding
paths call: `embed`, the GRU cell `gru_step`, `pointer_keys`,
`pointer_scores` and the head's `task_logits`. One-hot features come as
token ids (`features.TokenIds`), so `embed` reads W_in's rows at the ids
and adds the position columns times W_in's last rows, and `embed_grad`
adds the gradient rows up by id.
Every recurrent loop (training, evaluation and both of rollout's GRUs)
steps through `gru_step`, and at these sizes a step costs more per numpy
call than per multiply-add. So a run makes its `gru_cell` once: -[Uz|Ur]
(z and r come from one matmul, and the sigmoid needs no negation), Uh
and the step's scratch arrays. A step then allocates nothing and slices
nothing: two `np.dot(out=)` calls make its products, and every other
operation writes into the cell. The gate inputs are split into their z/r
and candidate columns once per run, and the backward's gate gradients
likewise.
Teacher forcing knows every decoder input in advance, so `forward_teacher`
runs a whole group of trajectories in lockstep: each GRU steps every
sequence of the group at once, one (B x d) matmul per step, with the
shorter sequences padded at the end. The group's loss is one tape node.
Its pointer gradients are taken in the forward, block by block on the
tanh just computed (the loss is the graph's root, so its gradient is
known there), and its backward runs hand-derived backpropagation through
time over the cached gates. Without a gradient (evaluation) the forward
keeps only the GRU states: its runs gather and project their inputs a
block of steps at a time, and in a group of two or more each
trajectory's keys and queries are formed, and its logits scored, on
their own. A 1-row product goes through gemv, which rounds differently
from gemm, so none of these products has 1 row where the forward with a
gradient has more, and both forwards give the same results bit for bit.
Greedy `rollout` calls the same functions on plain arrays and builds no
tape; only its feedback loop is its own. A
decoder step is a fixed function of its input, the fed-back token and the
state, so once an input comes back bit for bit every later step replays
the cycle since its first time: `rollout` computes that cycle once and
fills the remaining steps from it. A policy trained by cloning often never
picks stop, and its rollouts settle into such a cycle after some tens to a
few hundred steps. Until then such a policy mostly picks the slot it was
just fed, again and again, so `rollout` scores the slots only when the
choice could change: after a step that picked the slot it was fed, with
margin M, a later step fed that slot keeps it unscored while
sum |v| |q - q_ref| + 4 eps < M. tanh's slope lies in (0, 1], so the gap
between two slots' scores can move no further than sum |v| |q - q_ref|
from the query q_ref, and eps bounds the rounding of a computed score;
the chosen slots are those of scoring every step, bit for bit (derived in
`rollout`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .features import Features, TokenIds, stack
from .gaze import StepRangeError, check_steps
from .lexer import DataError, LabelKind, TaskLabel

TASK_NONE = "none"
TASK_CLASSIFY = "classify"
TASK_LOCALIZE = "localize"
TASK_KINDS = {TASK_CLASSIFY: LabelKind.CLASS, TASK_LOCALIZE: LabelKind.BUG}

INIT_RANGE = 0.08


@dataclass
class BCConfig:
    w_att: float = 1.0
    w_aux: float = 0.0
    d_emb: int = 32
    d_hidden: int = 48
    d_attn: int = 64
    lr: float = 5e-3
    grad_clip: float = 5.0
    epochs: int = 50
    batch: int = 8
    seed: int = 0
    task_mode: str = TASK_NONE
    n_classes: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.w_att) and math.isfinite(self.w_aux)):
            raise ValueError("loss weights must be finite")
        if self.w_att < 0 or self.w_aux < 0 or self.w_att + self.w_aux == 0:
            raise ValueError("loss weights must be non-negative with a positive sum")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be a finite number > 0")
        if math.isnan(self.grad_clip) or self.grad_clip < 0:
            raise ValueError("grad_clip must be >= 0 (0 for no clipping)")
        if min(self.d_emb, self.d_hidden, self.d_attn) < 1:
            raise ValueError("network dimensions must be at least 1")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        if self.task_mode not in (TASK_NONE, *TASK_KINDS):
            raise ValueError(f"unknown task_mode {self.task_mode!r}")
        if self.task_mode == TASK_CLASSIFY and self.n_classes < 2:
            raise ValueError("classify mode needs n_classes >= 2")


def task_value(task: TaskLabel | None, task_mode: str) -> int | None:
    """The value of `task` if it is the label kind the `task_mode` head
    trains on, else None."""
    return task.value if task is not None and task.kind is TASK_KINDS.get(task_mode) else None


def check_trajectory(steps: list[int], n_tokens: int, label: int | None, cfg: BCConfig,
                     what: str) -> None:
    """Rejects what cfg's policy cannot train on: no steps, a step that is
    not a token index (`gaze.check_steps`), or a label outside the head's
    classes or tokens. `what` names the trajectory in the message."""
    check_steps(steps, n_tokens, what)
    if label is None or cfg.task_mode not in TASK_KINDS:
        return
    slots, unit = ((cfg.n_classes, "classes") if cfg.task_mode == TASK_CLASSIFY
                   else (n_tokens, "tokens"))
    if not 0 <= label < slots:
        raise StepRangeError(f"{what}: task label {label} out of range for {slots} {unit}")


def param_shapes(d_feat: int, cfg: BCConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the order `init_params` draws them."""
    shapes = {"W_in": (d_feat, cfg.d_emb)}
    for prefix in ("enc", "dec"):
        for g in "zrh":
            shapes[f"{prefix}_W{g}"] = (cfg.d_emb, cfg.d_hidden)
            shapes[f"{prefix}_U{g}"] = (cfg.d_hidden, cfg.d_hidden)
            shapes[f"{prefix}_b{g}"] = (cfg.d_hidden,)
    shapes["W1"] = (cfg.d_hidden, cfg.d_attn)
    shapes["W2"] = (cfg.d_hidden, cfg.d_attn)
    shapes["v"] = (cfg.d_attn,)
    shapes["b_a"] = (cfg.d_attn,)
    shapes["e_stop"] = (cfg.d_hidden,)
    shapes["x_start"] = (cfg.d_emb,)
    if cfg.task_mode == TASK_CLASSIFY:
        shapes["W_task"] = (cfg.d_hidden, cfg.n_classes)
    elif cfg.task_mode == TASK_LOCALIZE:
        shapes["v_loc"] = (cfg.d_attn,)
    return shapes


def init_params(d_feat: int, cfg: BCConfig) -> dict[str, Var]:
    """All tensors uniform in [-INIT_RANGE, INIT_RANGE] from the run seed."""
    rng = np.random.default_rng(cfg.seed)
    return {name: Var(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape))
            for name, shape in param_shapes(d_feat, cfg).items()}


def _arrays(p: dict) -> dict[str, np.ndarray]:
    """Plain-array view of a parameter dict whose values are Vars or arrays."""
    return {k: v.value if isinstance(v, Var) else v for k, v in p.items()}


class GRUCell(NamedTuple):
    """One GRU's recurrent weights and the scratch of its steps over one
    state (H) or B of them (B x H), made once per run by `gru_cell`, so that
    `gru_step` allocates nothing. After a step, zr holds [z | r] (z and r
    are views of it) and c the candidate."""
    neg_Uzr: np.ndarray  # -[Uz|Ur]
    Uh: np.ndarray
    zr: np.ndarray
    z: np.ndarray
    r: np.ndarray
    c: np.ndarray
    tmp: np.ndarray      # r h, then z (c - h)


def gru_cell(p: dict[str, np.ndarray], prefix: str, shape: tuple[int, ...]) -> GRUCell:
    """The cell of the prefix's GRU for states of the given shape."""
    d_hid = shape[-1]
    zr = np.empty(shape[:-1] + (2 * d_hid,))
    return GRUCell(-np.concatenate([p[prefix + "_Uz"], p[prefix + "_Ur"]], axis=1),
                   p[prefix + "_Uh"], zr, zr[..., :d_hid], zr[..., d_hid:],
                   np.empty(shape), np.empty(shape))


def gru_step(cell: GRUCell, prefix: str, x_zr: np.ndarray, x_h: np.ndarray, h: np.ndarray,
             h_out: np.ndarray) -> None:
    """One GRU step on plain arrays: writes h' into h_out (which may be h)
    and leaves z, r and the candidate in the cell.

    `h` is the state, of the cell's shape, and x_zr and x_h its gate inputs
    as `project_inputs` gives them: [x Wz + bz | x Wr + br] and x Wh + bh,
    so only the recurrent products are left per step. `prefix` names the
    GRU ("enc" or "dec") for a caller that wraps this function; the step
    reads only the cell.

    The cell holds -[Uz|Ur]: negating is exact, so h (-[Uz|Ur]) - x_zr is
    exactly -(x_zr + h [Uz|Ur]), and the sigmoid 1 / (1 + exp(-a)) needs
    no negation of its own. Every operation writes into the cell, in the
    order of h + z (c - h) with z, r = sigmoid(x_zr + h [Uz|Ur]) and
    c = tanh(x_h + (r h) Uh).
    """
    neg_Uzr, Uh, zr, z, r, c, tmp = cell
    # Each output is the last positional argument: numpy parses an `out=`
    # keyword on every call.
    np.dot(h, neg_Uzr, zr)
    np.subtract(zr, x_zr, zr)
    np.exp(zr, zr)
    np.add(zr, 1.0, zr)
    np.divide(1.0, zr, zr)
    np.multiply(r, h, tmp)
    np.dot(tmp, Uh, c)
    np.add(c, x_h, c)
    np.tanh(c, c)
    np.subtract(c, h, tmp)
    np.multiply(tmp, z, tmp)
    np.add(h, tmp, h_out)


def _input_weights(p: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    return np.concatenate([p[f"{prefix}_W{g}"] for g in "zrh"], axis=1)


def project_inputs(p: dict[str, np.ndarray], prefix: str, X: np.ndarray) -> np.ndarray:
    """Every row's gate inputs at once: X [Wz|Wr|Wh] + [bz|br|bh]."""
    A = X @ _input_weights(p, prefix)
    A += np.concatenate([p[f"{prefix}_b{g}"] for g in "zrh"])
    return A


class GRURun(NamedTuple):
    """A GRU over time-major input rows X (row t*B + b is step t of sequence
    b): the states H (h0 first, T+1 of them) and each step's gates z, r and
    candidate, all the backward needs. Z, R and C are the column blocks of
    one (T x B x 3H) array. A run that keeps only its states has None in
    place of X and the gates."""
    X: np.ndarray | None
    H: np.ndarray
    Z: np.ndarray | None
    R: np.ndarray | None
    C: np.ndarray | None


def _gru_run(p: dict[str, np.ndarray], prefix: str, X: np.ndarray, h0: np.ndarray,
             gates: bool = True, rows: np.ndarray | None = None) -> GRURun:
    """A GRU from `h0`, one start state (H) or B of them (B x H), over the
    time-major input rows X[rows] (X itself without `rows`): row t*B + b,
    or rows[t, b], is step t of sequence b.

    A sequence shorter than the run is padded at the end with any rows:
    the GRU is causal, so padding never changes a sequence's real states,
    and padded steps get exactly zero gradient when no loss reads them.
    With `gates`, the run gathers and projects all its rows at once, and
    step t's gates z, r and candidate overwrite its gate inputs, which it
    has read, so the gate inputs' array ends as the gates'. Without, the
    run keeps only its states: it gathers and projects its rows a block of
    FACTOR_BLOCK // (B H) steps at a time, as `_gru_backward` forms its
    factors, so it never holds the whole run's rows or gate inputs. A
    1-row product goes through gemv, which rounds differently from gemm,
    so a block never has 1 row unless the whole run has; the states are
    then those of projecting every row at once, bit for bit.
    """
    d_hid, B = h0.shape[-1], h0.size // h0.shape[-1]
    rows = np.arange(len(X)) if rows is None else rows.reshape(-1)
    T = len(rows) // B
    cell = gru_cell(p, prefix, h0.shape)
    Hs = np.empty((T + 1,) + h0.shape)
    Hs[0] = h0
    if gates:
        X = X[rows]
        A = project_inputs(p, prefix, X).reshape((T,) + h0.shape[:-1] + (3 * d_hid,))
        zr, c = cell.zr, cell.c
        for x_zr, x_h, h, h_out in zip(A[..., :2 * d_hid], A[..., 2 * d_hid:], Hs, Hs[1:]):
            gru_step(cell, prefix, x_zr, x_h, h, h_out)
            x_zr[...] = zr
            x_h[...] = c
        return GRURun(X, Hs, A[..., :d_hid], A[..., d_hid:2 * d_hid], A[..., 2 * d_hid:])
    steps = max(1 if B > 1 else 2, FACTOR_BLOCK // (B * d_hid))
    starts = list(range(0, T, steps))
    if B == 1 and len(starts) > 1 and T - starts[-1] == 1:
        starts.pop()  # the last block takes the last step too
    for start, stop in zip(starts, starts[1:] + [T]):
        A = project_inputs(p, prefix, X[rows[start * B:stop * B]])
        A = A.reshape((stop - start,) + h0.shape[:-1] + (3 * d_hid,))
        for x_zr, x_h, h, h_out in zip(A[..., :2 * d_hid], A[..., 2 * d_hid:],
                                       Hs[start:], Hs[start + 1:stop + 1]):
            gru_step(cell, prefix, x_zr, x_h, h, h_out)
    return GRURun(None, Hs, None, None, None)


# Elements of each per-block array `_gru_backward` forms the per-step
# factors in; a states-only `_gru_run` projects its inputs in blocks of as
# many steps.
FACTOR_BLOCK = 1 << 12


def _gru_backward(p: dict[str, np.ndarray], prefix: str, run: GRURun, G: np.ndarray):
    """Backpropagation through time over a lockstep run's cached gates.

    `G` (T x B x H) is the gradient of the loss with respect to each state
    after its step; once read, it serves as scratch. Returns the weight
    gradients by parameter name, the gradient of X's rows and that of h0;
    each weight gradient is one (T*B x d)^T (T*B x d) product.

    The steps run last first in blocks of at most FACTOR_BLOCK elements per
    array: a block's gates are copied out of the run's (T x B x 3H) array
    and its per-step factors formed from them, all contiguous, so the
    backward holds no whole-run array besides the gate gradients dA, and
    each step reads contiguous rows. A step writes into preallocated
    arrays only, in the order of
      dh += G[t];  dc = dh to_c;  dq = dc Uh^T;  dz = dh to_z;  dr = dq to_r;
      dh = dh (1 - z) + dq r + [dz | dr] [Uz|Ur]^T.
    """
    T, B, d_hid = run.Z.shape
    Uh_T = p[prefix + "_Uh"].T
    Uzr_T = np.concatenate([p[prefix + "_Uz"], p[prefix + "_Ur"]], axis=1).T
    dA = np.empty((T, B, 3 * d_hid))
    dZR, dZ, dR, dC = (dA[..., :2 * d_hid], dA[..., :d_hid], dA[..., d_hid:2 * d_hid],
                       dA[..., 2 * d_hid:])
    dh, dq, dh_zr = np.zeros((B, d_hid)), np.empty((B, d_hid)), np.empty((B, d_hid))
    steps = max(1, FACTOR_BLOCK // (B * d_hid))
    for stop in range(T, 0, -steps):
        blk = slice(max(0, stop - steps), stop)
        Hp = run.H[blk]
        Z, R, C = (np.ascontiguousarray(gate[blk]) for gate in (run.Z, run.R, run.C))
        # Per-step factors that do not depend on the carried gradient.
        to_c = Z * (1.0 - C * C)                 # dh -> d(candidate pre-activation)
        to_z = (C - Hp) * Z * (1.0 - Z)          # dh -> d(z pre-activation)
        to_r = Hp * R * (1.0 - R)                # d(r*h) -> d(r pre-activation)
        keep = 1.0 - Z
        for g, tc, tz, tr, kp, r, dzr, dz, dr, dc in zip(
                *(a[::-1] for a in (G[blk], to_c, to_z, to_r, keep, R, dZR[blk], dZ[blk],
                                    dR[blk], dC[blk]))):
            np.add(dh, g, dh)  # outputs positional, as in `gru_step`
            np.multiply(dh, tc, dc)
            np.dot(dc, Uh_T, dq)
            np.multiply(dh, tz, dz)
            np.multiply(dq, tr, dr)
            np.dot(dzr, Uzr_T, dh_zr)
            np.multiply(dh, kp, dh)
            np.multiply(dq, r, dq)
            np.add(dh, dq, dh)
            np.add(dh, dh_zr, dh)
        del tc, tz, tr, kp, r  # so the block's factors are freed as they are replaced
    del Z, C, to_c, to_z, to_r, keep  # the last block's, before the products below
    Hp, R = run.H[:-1], run.R
    rh = np.multiply(R, Hp, out=G).reshape(T * B, d_hid)
    dA = dA.reshape(T * B, 3 * d_hid)
    Hp = Hp.reshape(T * B, d_hid)
    dW, db = run.X.T @ dA, dA.sum(axis=0)
    dU = Hp.T @ dA[:, :2 * d_hid]
    grads = {f"{prefix}_Uz": dU[:, :d_hid], f"{prefix}_Ur": dU[:, d_hid:],
             f"{prefix}_Uh": rh.T @ dA[:, 2 * d_hid:]}
    for k, g in enumerate("zrh"):
        cols = slice(k * d_hid, (k + 1) * d_hid)
        grads[f"{prefix}_W{g}"] = dW[:, cols]
        grads[f"{prefix}_b{g}"] = db[cols]
    return grads, dA @ _input_weights(p, prefix).T, dh


class EmptySequenceError(DataError):
    """Raised when a snippet with no tokens is encoded."""


def embed(features: list[Features], pv: dict[str, np.ndarray]) -> tuple[Features, np.ndarray]:
    """(F, [F W_in; x_start]): the features stacked into one (`features.stack`),
    and every token's embedding, then x_start.

    For `TokenIds`, F W_in is W_in's rows at the ids, plus the position
    columns times W_in's last rows.
    """
    if min(f.shape[0] for f in features) == 0:
        raise EmptySequenceError("cannot encode an empty token sequence")
    F, W = stack(features), pv["W_in"]
    X = np.empty((F.shape[0] + 1, W.shape[1]))
    if isinstance(F, TokenIds):
        np.take(W, F.ids, axis=0, out=X[:-1])
        k = F.pos.shape[1]
        if k:
            X[:-1] += F.pos @ W[-k:]
    else:
        np.matmul(F, W, out=X[:-1])
    X[-1] = pv["x_start"]
    return F, X


def _scatter_rows(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """The rows of `values` summed by `index` into n_rows rows: what np.add.at
    adds into zeros, in the same order, by one bincount over (row, column)
    pairs, several times faster."""
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, values.reshape(-1), minlength=n_rows * d).reshape(n_rows, d)


def embed_grad(F: Features, dX: np.ndarray) -> np.ndarray:
    """W_in's gradient F^T dX from dX, the gradient of `embed`'s token rows:
    for `TokenIds`, dX's rows added up by id, then the position columns' rows."""
    if not isinstance(F, TokenIds):
        return F.T @ dX
    dW = _scatter_rows(F.ids, dX, F.dim)
    k = F.pos.shape[1]
    if k:
        dW[-k:] += F.pos.T @ dX
    return dW


def encode(features: list[Features], p: dict,
           gates: bool = True) -> tuple[Features, np.ndarray, np.ndarray, GRURun]:
    """Embeds and encodes a group of token features in lockstep.

    Returns (F, X, rows, run): the group's `embed`; the (max n x B) index
    into X of each time-major encoder input; and the encoder's run, whose
    states `run.H[1:]` are (max n x B x H), rows past a sequence's end
    padding, and which keeps its gates only with `gates` (see `_gru_run`).
    `p` maps names to Vars or plain arrays.
    """
    pv = _arrays(p)
    F, X = embed(features, pv)
    ns = [f.shape[0] for f in features]
    B, pad = len(features), X.shape[0] - 1
    # Padding rows read x_start (row `pad`); any row would do.
    rows = np.full((max(ns), B), pad)
    for b, offset in enumerate(np.cumsum([0] + ns[:-1])):
        rows[:ns[b], b] = offset + np.arange(ns[b])
    return F, X, rows, _gru_run(pv, "enc", X, np.zeros((B, pv["enc_Uz"].shape[0])), gates, rows)


def pointer_scores(P: np.ndarray, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = v . tanh(P + q) for every key row of P; returns (u, the tanh).

    `q` is one query d W2 (shape A) or a stack of them (T x A), giving
    scores of shape (J,) or (T x J).

    For a stack, the queries are repeated J times and P is added to one
    step's block at a time, which needs no broadcast: a broadcasting add
    takes a ufunc buffer of up to 64 KB per operand besides the tanh block.
    Every element is P[j] + q[t] either way, so the tanh is the same bit
    for bit.
    """
    if q.ndim == 1:
        act = P + q
    else:
        act = np.repeat(q[:, None, :], P.shape[0], axis=1)
        for step in act:
            np.add(step, P, step)
    np.tanh(act, out=act)
    return act @ v, act


# Elements (steps x keys x d_attn) of the tanh block `pointer_loss` holds
# at a time.
POINTER_BLOCK = 1 << 18


def pointer_keys(pv: dict[str, np.ndarray], E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, keys): the keys E W1 + b_a of the encoder states E (... x H),
    flattened, then stop's, e_stop W1 + b_a, as one array P; and P's state
    rows in E's shape. For one sequence's states (n x H), P holds the n + 1
    slots a decoder step scores."""
    A = pv["W1"].shape[1]
    P = np.empty((E.size // E.shape[-1] + 1, A))
    keys = P[:-1].reshape(E.shape[:-1] + (A,))
    np.matmul(E, pv["W1"], out=keys)
    keys += pv["b_a"]
    P[-1] = pv["e_stop"] @ pv["W1"] + pv["b_a"]
    return P, keys


def task_logits(pv: dict[str, np.ndarray], task_mode: str, d: np.ndarray,
                token_keys: np.ndarray) -> np.ndarray | None:
    """The head's logits from a final decoder state d: d W_task, or the pointer
    scores of d W2 over the tokens' keys under v_loc; None without a head."""
    if task_mode == TASK_CLASSIFY:
        return d @ pv["W_task"]
    if task_mode == TASK_LOCALIZE:
        return pointer_scores(token_keys, d @ pv["W2"], pv["v_loc"])[0]
    return None


def pointer_loss(P: np.ndarray, Q: np.ndarray, v: np.ndarray, targets: np.ndarray,
                 coef: float | None = None):
    """Pointer scores of the queries Q (T x A) over the keys P (J x A), and
    each row's cross-entropy against `targets`; returns (scores, losses, grads).

    Steps are taken in blocks whose tanh stays within POINTER_BLOCK
    elements. Given `coef`, grads is (dv, dQ, dP), the gradients of coef x
    the summed losses: the loss's gradient is known as soon as a block's
    scores are, so each block's is taken on its tanh while it is still in
    hand, and nothing is kept or recomputed. Without `coef`, grads is None,
    each block's tanh is dropped as soon as its scores are taken, and the
    losses are taken after the last block (row by row, as in blocks).
    """
    T, J = Q.shape[0], P.shape[0]
    scores, losses = np.empty((T, J)), np.empty(T)
    if coef is not None:
        dv, gq, gk = np.zeros_like(v), np.empty(Q.shape), np.zeros(P.shape)
        g_rows, g_cols = np.empty(T), np.zeros(J)
    rows = max(1, POINTER_BLOCK // P.size)
    for s in range(0, T, rows):
        blk = slice(s, s + rows)
        if coef is None:
            scores[blk] = pointer_scores(P, Q[blk], v)[0]
            continue
        scores[blk], act = pointer_scores(P, Q[blk], v)
        losses[blk], d = ad.cross_entropy_rows(scores[blk], targets[blk])
        # d(pre-activation)[t, j] = g[t, j] v (1 - act[t, j]^2). Its sums
        # over keys (for the queries) and over steps (for the keys) split
        # into g's row and column sums minus two matmuls with act^2.
        g = coef * d
        dv += g.reshape(-1) @ act.reshape(-1, v.size)
        act *= act
        gq[blk] = np.matmul(g[:, None, :], act)[:, 0, :]
        gk += np.matmul(act.transpose(1, 2, 0), g.T[:, :, None])[:, :, 0]
        g_rows[blk] = g.sum(axis=1)
        g_cols += g.sum(axis=0)
    if coef is None:
        return scores, ad.cross_entropy_rows(scores, targets)[0], None
    return scores, losses, (dv, (g_rows[:, None] - gq) * v, (g_cols[:, None] - gk) * v)


def _check_group(features: list[Features], steps: list[list[int]],
                 labels: list[int | None], cfg: BCConfig) -> None:
    if not features or not len(features) == len(steps) == len(labels):
        raise ValueError(f"{len(features)} feature matrices for {len(steps)} trajectories "
                         f"and {len(labels)} labels")
    for b, (f, s, label) in enumerate(zip(features, steps, labels)):
        check_trajectory(s, f.shape[0], label, cfg, f"trajectory {b}")


def forward_teacher(features: list[Features], steps: list[list[int]], p: dict,
                    cfg: BCConfig, labels: list[int | None] | None = None,
                    weights: list[float] | None = None, summarize=None):
    """Teacher-forced cloning loss of a lockstep group of trajectories, as one node.

    `features[b]`, `steps[b]`, `labels[b]` and `weights[b]` are trajectory
    b's token features, expert steps, task value (None for no task loss)
    and sample weight (default 1). Returns (loss, outputs): the sum over
    the group of each trajectory's `bc_loss` under cfg's task head and loss
    weights, and per trajectory its (K+1) x (n+1) pointer logits for
    targets steps + stop and its task logits (None without a task head),
    as plain arrays; given `summarize`, outputs holds summarize(b, logits,
    task logits, b's weighted loss) instead, taken before the next
    trajectory is scored.

    Both GRUs step the whole group at once. Each trajectory's states are
    strided slices of the time-major runs. If `p` maps names to Vars, the
    loss is a tape node whose backward reaches them: the pointer gradients
    are taken in the forward (see `pointer_loss`), and the backward runs
    the decoder's and the encoder's backpropagation through time from
    them. The backward frees the key and query gradients before those
    runs, so it can run only once. If `p` holds plain arrays, no gradient
    is taken and the loss is a constant; then the forward keeps only the
    GRU states (see `_gru_run`), forms the keys and queries one
    trajectory at a time in a group of two or more, and, given
    `summarize`, holds one trajectory's logits at a time. Either way the
    results are the same bit for bit. Features get no gradient.
    """
    B = len(features)
    labels = [None] * B if labels is None else labels
    weights = [1.0] * B if weights is None else weights
    _check_group(features, steps, labels, cfg)
    grad = isinstance(p["W_in"], Var)
    pv = _arrays(p)
    F, X, enc_rows, enc = encode(features, pv, grad)
    ns, Ks = np.array([f.shape[0] for f in features]), np.array([len(s) for s in steps])
    every = np.arange(B)
    # Decoder inputs are x_start then the expert's tokens, all known up
    # front; x_start is X's last row, which also pads the shorter sequences.
    start = X.shape[0] - 1
    dec_rows = np.full((Ks.max() + 1, B), start)
    for b in range(B):
        dec_rows[1:Ks[b] + 1, b] = enc_rows[steps[b], b]
    E = enc.H[1:]
    dec = _gru_run(pv, "dec", X, E[ns - 1, every], grad, dec_rows)
    del X  # the runs have read their rows
    if not grad:  # from here on, only the GRU states are kept
        del F, enc_rows, dec_rows
    D = dec.H[1:]
    if grad or B == 1:  # a group of one holds only its trajectory's keys and queries
        slots, PE = pointer_keys(pv, E)      # every encoder state's key, and stop's
        p_stop = slots[-1]
        Q = D @ pv["W2"]                     # every decoder state's query
    if grad:
        dPE, dQ, d_stop = np.zeros_like(PE), np.zeros_like(Q), np.zeros_like(p_stop)
        dv, dv_loc, G_task = np.zeros_like(pv["v"]), np.zeros_like(pv["v"]), None
        if cfg.task_mode == TASK_CLASSIFY:
            G_task = np.zeros((B, cfg.n_classes))
    total, outputs = 0.0, []
    for b, (n, K, label, weight) in enumerate(zip(ns, Ks, labels, weights)):
        targets = np.append(steps[b], n)
        coef = weight * (cfg.w_att / (K + 1)) if grad else None
        if grad or B == 1:
            keys, queries = PE[:n, b], Q[:K + 1, b]
            P = np.concatenate([keys, p_stop[None]])
        else:  # this trajectory's own, rows of products of 2 or more rows, as
            # the group's are (a 1-token read's state is taken twice)
            P, keys = pointer_keys(pv, E[:n, b] if n > 1 else E[[0, 0], b])
            P, keys, queries = P[-n - 1:], keys[-n:], D[:K + 1, b] @ pv["W2"]
        logits, ce, g_att = pointer_loss(P, queries, pv["v"], targets, coef)
        loss = ce.sum() * (cfg.w_att / (K + 1))
        if grad:
            dv += g_att[0]
            dQ[:K + 1, b] = g_att[1]
            dPE[:n, b] = g_att[2][:n]
            d_stop += g_att[2][n]
        with_task = label is not None and cfg.w_aux > 0 and cfg.task_mode in TASK_KINDS
        task_coef = weight * cfg.w_aux if grad and with_task else None
        if with_task and cfg.task_mode == TASK_LOCALIZE:
            loc, task_ce, g_loc = pointer_loss(keys, queries[K:], pv["v_loc"],
                                               np.array([label]), task_coef)
            head = loc[0]
            if grad:
                dv_loc += g_loc[0]
                dQ[K, b] += g_loc[1][0]
                dPE[:n, b] += g_loc[2]
        else:
            head = task_logits(pv, cfg.task_mode, D[K, b], keys)
            if with_task:
                task_ce, d = ad.cross_entropy_rows(head[None, :], [label])
                if grad:
                    G_task[b] = task_coef * d[0]
        if with_task:
            loss = loss + task_ce[0] * cfg.w_aux
        loss = loss * weight
        total = total + loss
        outputs.append((logits, head) if summarize is None else summarize(b, logits, head, loss))
    if not grad:
        return Var(total), outputs

    def bwd(g):
        nonlocal dPE, dQ
        if dPE is None:
            raise RuntimeError("forward_teacher's backward ran already and freed its gradients")
        H, A = E.shape[-1], dPE.shape[-1]
        grads = {"v": dv, "e_stop": pv["W1"] @ d_stop,
                 "W1": E.reshape(-1, H).T @ dPE.reshape(-1, A) + np.outer(pv["e_stop"], d_stop),
                 "b_a": dPE.reshape(-1, A).sum(axis=0) + d_stop,
                 "W2": D.reshape(-1, H).T @ dQ.reshape(-1, A)}
        dD = dQ @ pv["W2"].T
        dH = dPE @ pv["W1"].T
        # The key and query gradients are dead: free them before both
        # backpropagations through time.
        dPE = dQ = None
        if cfg.task_mode == TASK_CLASSIFY:
            grads["W_task"] = D[Ks, every].T @ G_task
            dD[Ks, every] += G_task @ pv["W_task"].T
        elif cfg.task_mode == TASK_LOCALIZE:
            grads["v_loc"] = dv_loc
        dec_grads, dX_dec, dh0 = _gru_backward(pv, "dec", dec, dD)
        dH[ns - 1, every] += dh0
        enc_grads, dX_enc, _ = _gru_backward(pv, "enc", enc, dH)
        dX = _scatter_rows(np.concatenate([enc_rows.reshape(-1), dec_rows.reshape(-1)]),
                          np.concatenate([dX_enc, dX_dec]), start + 1)
        grads["W_in"] = embed_grad(F, dX[:-1])
        grads["x_start"] = dX[-1]
        # Every gradient is linear in the incoming g, so g scales only the
        # parameter gradients, and the forward's arrays are neither copied
        # nor changed.
        for name, value in {**grads, **dec_grads, **enc_grads}.items():
            ad.accumulate(p[name], g * value)

    return Var(total, parents=tuple(p.values()), backward=bwd), outputs


def bc_loss(action_logits: Var | list[Var], expert_steps: list[int], task_logits: Var | None,
            task_value: int | None, w_att: float, w_aux: float,
            sample_weight: float = 1.0) -> Var:
    """sample_weight * (w_att * mean CE over targets+stop + w_aux * task CE).

    `action_logits` is a (K+1) x (n+1) logit matrix, or a list of K+1
    one-dimensional logit vectors. `forward_teacher` computes the same
    loss for a whole group without building these nodes.
    """
    if w_att < 0 or w_aux < 0 or w_att + w_aux == 0:
        raise ValueError("loss weights must be non-negative with a positive sum")
    if isinstance(action_logits, list):
        action_logits = ad.stack_rows(action_logits)
    n_rows, n_slots = action_logits.value.shape
    targets = list(expert_steps) + [n_slots - 1]
    if n_rows != len(targets):
        raise ValueError(f"{n_rows} distributions for {len(targets)} targets")
    att = ad.softmax_cross_entropy_rows(action_logits, targets)
    loss = ad.scale(att, w_att / len(targets))
    if task_logits is not None and task_value is not None and w_aux > 0:
        loss = ad.add(loss, ad.scale(
            ad.softmax_cross_entropy(task_logits, task_value), w_aux))
    return ad.scale(loss, sample_weight)


# The most steps `rollout` takes: a list of 2^24 steps, and the line that
# prints it, fit in memory, where one of sys.maxsize steps does not.
MAX_ROLLOUT_STEPS = 1 << 24

# Decoder inputs `rollout` remembers while looking for a cycle: a cycle
# whose period is longer than this is decoded step by step to the end.
CYCLE_WINDOW = 256

# The unit roundoff of float64, 2^-53, times a safety factor of 2^10: the
# rounding slack of `rollout`'s pointer-score bound, per unit of
# ||v||_1 (d_attn + max|P| + max|q| + 8).
SCORE_SLACK = 2.0 ** -53 * 2.0 ** 10


def rollout(features: Features, p: dict, max_steps: int,
            task_mode: str = TASK_NONE) -> tuple[list[int], int | None]:
    """Greedy decoding: argmax slot each step, feeding back the chosen token.

    `p` maps parameter names to Vars or plain arrays; no tape is built.
    `max_steps` is at most MAX_ROLLOUT_STEPS.

    A decoder step is a fixed function of its input, the fed-back token and
    the state (a, d). Once an input comes back bit for bit, lambda steps
    after it was first fed, every later step replays those lambda steps, so
    decoding stops there: the remaining steps repeat the last lambda
    actions, and the task head reads the state the cycle is in after them.
    Only the last CYCLE_WINDOW inputs are remembered, so the memory held
    besides the returned steps is bounded whatever `max_steps` is.

    The GRU runs every step, but the pointer scores are computed only when
    the chosen slot could change. When a full evaluation at query q_ref
    picks the slot s it was fed, with margin M over the runner-up (0 on a
    tie), a later step fed s at query q takes s again without scoring if

        sum_a |v_a| |q_a - q_ref,a| + 4 eps < M.

    Why that is exact: write s_j(q) = v . tanh(P_j + q) for slot j's exact
    score at the float query q, and s~_j(q) for the score `pointer_scores`
    computes. From q_ref to q, the gap s_s - s_j between two exact scores
    moves by at most D = sum_a |v_a| |q_a - q_ref,a|: coordinate a moves it
    by v_a (q_a - q_ref,a) (t_s - t_j), where t_s and t_j are slopes of tanh
    between P_s,a + q_ref,a and P_s,a + q_a, and between P_j,a + q_ref,a and
    P_j,a + q_a; both lie in (0, 1], so |t_s - t_j| < 1. With u = 2^-53,
    |s~_j - s_j| is at most the sum over coordinates a of
      |v_a| u (max|P| + |q_a|) from rounding P + q, which tanh passes on
        unamplified;
      |v_a| 8u for tanh itself: libm's (numpy 1.24) and numpy 2.x's SIMD
        kernels are within a few ulp, and an ulp in [-1, 1] is at most u;
      |v_a| 1.01 d_attn u for the dot with v, in any summation order
        (BLAS's included), as |tanh| <= 1;
    so at most e0 = u ||v||_1 (1.01 d_attn + max|P| + max|q_ref| + 8) + u D.
    Where the bound passes, D < M <= 2.02 ||v||_1, since computed scores
    lie within 1.01 ||v||_1 of 0; so e0 < u ||v||_1 (1.01 d_attn + max|P|
    + max|q_ref| + 10.02), eps = SCORE_SLACK ||v||_1 (d_attn + max|P| +
    max|q_ref| + 8) exceeds 800 e0, and 4 (eps - e0) covers the rounding of
    M, of D and of the test itself (each under 3 (d_attn + 2) u ||v||_1).
    Then every exact score trails s's by at least M - 2 e0 at q_ref and
    M - 2 e0 - D at q, and every computed one at q by at least
    M - 4 e0 - D > 0: s is the unique argmax, as a full evaluation would
    find. A failed test scores in full and re-anchors if s is
    chosen again; a NaN or overflowing bound never passes. A rollout whose
    slot changes every step never anchors. The result equals decoding and
    scoring every step.
    """
    if not 1 <= max_steps <= MAX_ROLLOUT_STEPS:
        raise ValueError(f"max_steps must be between 1 and {MAX_ROLLOUT_STEPS}")
    pv = _arrays(p)
    X = embed([features], pv)[1]
    n, d_hid = X.shape[0] - 1, pv["dec_Uh"].shape[0]
    E = _gru_run(pv, "enc", X[:-1], np.zeros(d_hid), gates=False).H[1:]
    P, PE = pointer_keys(pv, E)
    # Row n holds x_start's projection, and slot n is stop: `a` starts at n
    # and the loop ends before a chosen stop could be fed back.
    A_dec = project_inputs(pv, "dec", X)
    X_zr, X_h = A_dec[:, :2 * d_hid], A_dec[:, 2 * d_hid:]
    cell = gru_cell(pv, "dec", (d_hid,))
    # Step t's input state is row t mod len(states): the rows hold those of
    # the steps `seen` remembers and of the current step.
    states = np.empty((min(CYCLE_WINDOW, max_steps) + 1, d_hid))
    rows = len(states)
    W2, v = pv["W2"], pv["v"]
    d = states[0]
    d[...] = E[-1]
    a = n
    steps: list[int] = []
    seen: dict[tuple[int, bytes], int] = {}  # input -> step fed, oldest first
    anchor = None  # (s, q_ref, M - 4 eps) of the last repeat that leaves room
    abs_v = None   # |v|, set with ||v||_1 and max|P| at the first repeat
    for t in range(max_steps):
        key = (a, d.tobytes())
        if key in seen:
            first = seen[key]
            period, rest = t - first, max_steps - t
            cycle = steps[first:]
            steps += cycle * (rest // period) + cycle[:rest % period]
            d = states[(first + rest % period) % rows]
            break
        if len(seen) == CYCLE_WINDOW:
            del seen[next(iter(seen))]
        seen[key] = t
        h, d = d, states[(t + 1) % rows]
        gru_step(cell, "dec", X_zr[a], X_h[a], h, d)
        q = d @ W2
        if anchor is None or a != anchor[0] or not abs_v @ np.abs(q - anchor[1]) < anchor[2]:
            logits, _ = pointer_scores(P, q, v)
            fed, a = a, int(logits.argmax())  # ties resolve to the lowest slot
            if a == fed:
                if abs_v is None:
                    abs_v = np.abs(v)
                    v_norm, p_max = abs_v.sum(), np.abs(P).max()
                best = logits[a]
                logits[a] = -np.inf
                eps = SCORE_SLACK * v_norm * (v.size + p_max + np.abs(q).max() + 8)
                limit = best - logits.max() - 4 * eps
                anchor = (a, q, limit) if limit > 0 else None
        if a == n:
            break
        steps.append(a)
    head = task_logits(pv, task_mode, d, PE)
    return steps, None if head is None else int(head.argmax())


def gradcheck_problem(seed: int = 0):
    """Full-policy gradient-check instance: one lockstep group of two
    trajectories (n=12 tokens with K=5 steps, n=9 with K=3) and 3 classes,
    so the check covers the padding of the shorter one.

    The probe point uses parameters ~6x the training init scale and amplified
    features: at the training init, many true gradient entries sit below the
    float64 roundoff of central differences at eps=1e-5, which would make any
    implementation look wrong. Backward-rule correctness is independent of the
    probe point.
    """
    bc = BCConfig(w_att=1.0, w_aux=1.0, d_emb=8, d_hidden=8, d_attn=8,
                  seed=seed, task_mode=TASK_CLASSIFY, n_classes=3)
    rng = np.random.default_rng(seed)
    shapes, labels, d_feat = [(12, 5), (9, 3)], [1, 2], 20
    features = [rng.standard_normal((n, d_feat)) * 4.0 for n, _ in shapes]
    steps = [[int(s) for s in rng.integers(0, n, size=k)] for n, k in shapes]
    params = init_params(d_feat, bc)
    for p in params.values():
        p.value = p.value * 6.0

    def loss_fn(p):
        return forward_teacher(features, steps, p, bc, labels)[0]

    return loss_fn, params
