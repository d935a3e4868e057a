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
paths call: `embed`, the GRU cell `gru_step` (z and r from one fused
matmul), `pointer_keys`, `pointer_scores` and the head's `task_logits`.
Teacher forcing knows every decoder input in advance, so `forward_teacher`
runs a whole group of trajectories in lockstep: each GRU steps every
sequence of the group at once, one (B x d) matmul per step, with the
shorter sequences padded at the end. The group's loss is one tape node.
Its pointer gradients are taken in the forward, block by block on the
tanh just computed (the loss is the graph's root, so its gradient is
known there), and its backward runs hand-derived backpropagation through
time over the cached gates. Greedy `rollout` calls the same functions on
plain arrays and builds no tape; only its feedback loop is its own. A
decoder step is a fixed function of its input, the fed-back token and the
state, so once an input comes back bit for bit every later step replays
the cycle since its first time: `rollout` computes that cycle once and
fills the remaining steps from it. A policy trained by cloning often never
picks stop, and its rollouts settle into such a cycle after some tens to a
few hundred steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Var
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def recurrent_weights(p: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The recurrent matrices `gru_step` reads: [Uz|Ur] as one, and Uh."""
    return {prefix + "_Uzr": np.concatenate([p[prefix + "_Uz"], p[prefix + "_Ur"]], axis=1),
            prefix + "_Uh": p[prefix + "_Uh"]}


def gru_step(U: dict[str, np.ndarray], prefix: str, x: np.ndarray, h: np.ndarray):
    """One GRU step on plain arrays; returns (h', z, r, candidate).

    `U` holds the prefix's `recurrent_weights`, so z and r come from one
    matmul and one sigmoid. `h` is one state (H) or one row per sequence
    (B x H), and `x` the step's input for each, already projected by
    `project_inputs`: [x Wz + bz | x Wr + br | x Wh + bh], so only the
    recurrent products are left per step.
    """
    n = h.shape[-1]
    zr = _sigmoid(x[..., :2 * n] + h @ U[prefix + "_Uzr"])
    z, r = zr[..., :n], zr[..., n:]
    c = np.tanh(x[..., 2 * n:] + (r * h) @ U[prefix + "_Uh"])
    # h' = (1 - z) * h + z * c, written as h + z * (c - h)
    return h + z * (c - h), z, r, c


def _input_weights(p: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    return np.concatenate([p[f"{prefix}_W{g}"] for g in "zrh"], axis=1)


def project_inputs(p: dict[str, np.ndarray], prefix: str, X: np.ndarray) -> np.ndarray:
    """Every row's gate inputs at once: X [Wz|Wr|Wh] + [bz|br|bh]."""
    b = np.concatenate([p[f"{prefix}_b{g}"] for g in "zrh"])
    return X @ _input_weights(p, prefix) + b


class GRURun(NamedTuple):
    """A GRU over time-major input rows X (row t*B + b is step t of sequence
    b): the states H (h0 first, T+1 of them) and each step's gates z, r and
    candidate, all the backward needs."""
    X: np.ndarray
    H: np.ndarray
    Z: np.ndarray
    R: np.ndarray
    C: np.ndarray


def _gru_run(p: dict[str, np.ndarray], prefix: str, X: np.ndarray, h0: np.ndarray) -> GRURun:
    """A GRU over X from `h0`: one start state (H), or B of them (B x H).

    A sequence shorter than the run is padded at the end with any rows:
    the GRU is causal, so padding never changes a sequence's real states,
    and padded steps get exactly zero gradient when no loss reads them.
    """
    d_hid = h0.shape[-1]
    A = project_inputs(p, prefix, X).reshape((-1,) + h0.shape[:-1] + (3 * d_hid,))
    T = A.shape[0]
    U = recurrent_weights(p, prefix)
    Hs = np.empty((T + 1,) + h0.shape)
    Z, R, C = np.empty((3, T) + h0.shape)
    Hs[0] = h0
    for t in range(T):
        Hs[t + 1], Z[t], R[t], C[t] = gru_step(U, prefix, A[t], Hs[t])
    return GRURun(X, Hs, Z, R, C)


def _gru_backward(p: dict[str, np.ndarray], prefix: str, run: GRURun, G: np.ndarray):
    """Backpropagation through time over a lockstep run's cached gates.

    `G` (T x B x H) is the gradient of the loss with respect to each state
    after its step. Returns the weight gradients by parameter name, the
    gradient of X's rows and that of h0; each weight gradient is one
    (T*B x d)^T (T*B x d) product.
    """
    T, B, d_hid = run.Z.shape
    Hp, Z, R, C = run.H[:-1], run.Z, run.R, run.C
    # Per-step factors that do not depend on the carried gradient.
    to_c = Z * (1.0 - C * C)                 # dh -> d(candidate pre-activation)
    to_z = (C - Hp) * Z * (1.0 - Z)          # dh -> d(z pre-activation)
    to_r = Hp * R * (1.0 - R)                # d(r*h) -> d(r pre-activation)
    keep = 1.0 - Z
    Uh_T = p[prefix + "_Uh"].T
    Uzr_T = recurrent_weights(p, prefix)[prefix + "_Uzr"].T
    dA = np.empty((T, B, 3 * d_hid))
    dh = np.zeros((B, d_hid))
    for t in range(T - 1, -1, -1):
        dh = dh + G[t]
        dc = np.multiply(dh, to_c[t], out=dA[t, :, 2 * d_hid:])
        dq = dc @ Uh_T
        np.multiply(dh, to_z[t], out=dA[t, :, :d_hid])
        np.multiply(dq, to_r[t], out=dA[t, :, d_hid:2 * d_hid])
        dh = dh * keep[t] + dq * R[t] + dA[t, :, :2 * d_hid] @ Uzr_T
    dA = dA.reshape(T * B, 3 * d_hid)
    Hp = Hp.reshape(T * B, d_hid)
    dW, db = run.X.T @ dA, dA.sum(axis=0)
    dU = Hp.T @ dA[:, :2 * d_hid]
    grads = {f"{prefix}_Uz": dU[:, :d_hid], f"{prefix}_Ur": dU[:, d_hid:],
             f"{prefix}_Uh": (R.reshape(T * B, d_hid) * Hp).T @ dA[:, 2 * d_hid:]}
    for k, g in enumerate("zrh"):
        cols = slice(k * d_hid, (k + 1) * d_hid)
        grads[f"{prefix}_W{g}"] = dW[:, cols]
        grads[f"{prefix}_b{g}"] = db[cols]
    return grads, dA @ _input_weights(p, prefix).T, dh


class EmptySequenceError(DataError):
    """Raised when a snippet with no tokens is encoded."""


def embed(features: list[np.ndarray], pv: dict[str, np.ndarray]) -> np.ndarray:
    """[concat(features) W_in; x_start]: every token's embedding, then x_start."""
    if min(f.shape[0] for f in features) == 0:
        raise EmptySequenceError("cannot encode an empty token sequence")
    return np.concatenate([np.concatenate(features) @ pv["W_in"], pv["x_start"][None, :]])


def encode(features: list[np.ndarray], p: dict) -> tuple[np.ndarray, np.ndarray, GRURun]:
    """Embeds and encodes a group of token-feature matrices in lockstep.

    Returns (X, rows, run): the group's `embed`; the (max n x B) index
    into X of each time-major encoder input; and the encoder's run, whose
    states `run.H[1:]` are (max n x B x H), rows past a sequence's end
    padding. `p` maps names to Vars or plain arrays.
    """
    pv = _arrays(p)
    X = embed(features, pv)
    ns = [f.shape[0] for f in features]
    B, pad = len(features), X.shape[0] - 1
    # Padding rows read x_start (row `pad`); any row would do.
    rows = np.full((max(ns), B), pad)
    for b, offset in enumerate(np.cumsum([0] + ns[:-1])):
        rows[:ns[b], b] = offset + np.arange(ns[b])
    return X, rows, _gru_run(pv, "enc", X[rows.reshape(-1)], np.zeros((B, pv["enc_Uz"].shape[0])))


def pointer_scores(P: np.ndarray, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = v . tanh(P + q) for every key row of P; returns (u, the tanh).

    `q` is one query d W2 (shape A) or a stack of them (T x A), giving
    scores of shape (J,) or (T x J).
    """
    act = P + q[..., None, :]
    np.tanh(act, out=act)
    return act @ v, act


# Elements (steps x keys x d_attn) of the tanh block `pointer_loss` holds
# at a time.
POINTER_BLOCK = 1 << 18


def pointer_keys(pv: dict[str, np.ndarray], E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E W1 + b_a, e_stop W1 + b_a): the keys of the encoder states E and of stop."""
    return E @ pv["W1"] + pv["b_a"], pv["e_stop"] @ pv["W1"] + pv["b_a"]


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
    hand, and nothing is kept or recomputed. Without `coef`, grads is None.
    """
    T, J = Q.shape[0], P.shape[0]
    scores, losses = np.empty((T, J)), np.empty(T)
    if coef is not None:
        dv, gq, gk = np.zeros_like(v), np.empty(Q.shape), np.zeros(P.shape)
        g_rows, g_cols = np.empty(T), np.zeros(J)
    rows = max(1, POINTER_BLOCK // P.size)
    for s in range(0, T, rows):
        blk = slice(s, s + rows)
        scores[blk], act = pointer_scores(P, Q[blk], v)
        losses[blk], d = ad.cross_entropy_rows(scores[blk], targets[blk])
        if coef is None:
            continue
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
        return scores, losses, None
    return scores, losses, (dv, (g_rows[:, None] - gq) * v, (g_cols[:, None] - gk) * v)


def _check_group(features: list[np.ndarray], steps: list[list[int]],
                 labels: list[int | None], cfg: BCConfig) -> None:
    if not features or not len(features) == len(steps) == len(labels):
        raise ValueError(f"{len(features)} feature matrices for {len(steps)} trajectories "
                         f"and {len(labels)} labels")
    for b, (f, s, label) in enumerate(zip(features, steps, labels)):
        check_trajectory(s, f.shape[0], label, cfg, f"trajectory {b}")


def forward_teacher(features: list[np.ndarray], steps: list[list[int]], p: dict,
                    cfg: BCConfig, labels: list[int | None] | None = None,
                    weights: list[float] | None = None):
    """Teacher-forced cloning loss of a lockstep group of trajectories, as one node.

    `features[b]`, `steps[b]`, `labels[b]` and `weights[b]` are trajectory
    b's token features, expert steps, task value (None for no task loss)
    and sample weight (default 1). Returns (loss, outputs): the sum over
    the group of each trajectory's `bc_loss` under cfg's task head and loss
    weights, and per trajectory its (K+1) x (n+1) pointer logits for
    targets steps + stop and its task logits (None without a task head),
    as plain arrays.

    Both GRUs step the whole group at once. Each trajectory's states are
    strided slices of the time-major runs. If `p` maps names to Vars, the
    loss is a tape node whose backward reaches them: the pointer gradients
    are taken in the forward (see `pointer_loss`), and the backward runs
    the decoder's and the encoder's backpropagation through time from
    them. If `p` holds plain arrays, no gradient is taken and the loss is
    a constant. Features get no gradient.
    """
    B = len(features)
    labels = [None] * B if labels is None else labels
    weights = [1.0] * B if weights is None else weights
    _check_group(features, steps, labels, cfg)
    grad = isinstance(p["W_in"], Var)
    pv = _arrays(p)
    X, enc_rows, enc = encode(features, pv)
    ns, Ks = np.array([f.shape[0] for f in features]), np.array([len(s) for s in steps])
    every = np.arange(B)
    # Decoder inputs are x_start then the expert's tokens, all known up
    # front; x_start is X's last row, which also pads the shorter sequences.
    dec_rows = np.full((Ks.max() + 1, B), X.shape[0] - 1)
    for b in range(B):
        dec_rows[1:Ks[b] + 1, b] = enc_rows[steps[b], b]
    E = enc.H[1:]
    dec = _gru_run(pv, "dec", X[dec_rows.reshape(-1)], E[ns - 1, every])
    D = dec.H[1:]
    PE, p_stop = pointer_keys(pv, E)         # every encoder state's key, and stop's
    Q = D @ pv["W2"]                         # every decoder state's query
    if grad:
        dPE, dQ, d_stop = np.zeros_like(PE), np.zeros_like(Q), np.zeros_like(p_stop)
        dv, dv_loc, G_task = np.zeros_like(pv["v"]), np.zeros_like(pv["v"]), None
        if cfg.task_mode == TASK_CLASSIFY:
            G_task = np.zeros((B, cfg.n_classes))
    total, outputs = 0.0, []
    for b, (n, K, label, weight) in enumerate(zip(ns, Ks, labels, weights)):
        targets = np.append(steps[b], n)
        coef = weight * (cfg.w_att / (K + 1)) if grad else None
        logits, ce, g_att = pointer_loss(np.concatenate([PE[:n, b], p_stop[None]]),
                                         Q[:K + 1, b], pv["v"], targets, coef)
        loss = ce.sum() * (cfg.w_att / (K + 1))
        if grad:
            dv += g_att[0]
            dQ[:K + 1, b] = g_att[1]
            dPE[:n, b] = g_att[2][:n]
            d_stop += g_att[2][n]
        with_task = label is not None and cfg.w_aux > 0 and cfg.task_mode in TASK_KINDS
        task_coef = weight * cfg.w_aux if grad and with_task else None
        if with_task and cfg.task_mode == TASK_LOCALIZE:
            loc, task_ce, g_loc = pointer_loss(PE[:n, b], Q[K:K + 1, b], pv["v_loc"],
                                               np.array([label]), task_coef)
            head = loc[0]
            if grad:
                dv_loc += g_loc[0]
                dQ[K, b] += g_loc[1][0]
                dPE[:n, b] += g_loc[2]
        else:
            head = task_logits(pv, cfg.task_mode, D[K, b], PE[:n, b])
            if with_task:
                task_ce, d = ad.cross_entropy_rows(head[None, :], [label])
                if grad:
                    G_task[b] = task_coef * d[0]
        if with_task:
            loss = loss + task_ce[0] * cfg.w_aux
        total = total + loss * weight
        outputs.append((logits, head))
    if not grad:
        return Var(total), outputs

    def bwd(g):
        H, A = E.shape[-1], dPE.shape[-1]
        grads = {"v": dv, "e_stop": pv["W1"] @ d_stop,
                 "W1": E.reshape(-1, H).T @ dPE.reshape(-1, A) + np.outer(pv["e_stop"], d_stop),
                 "b_a": dPE.reshape(-1, A).sum(axis=0) + d_stop,
                 "W2": D.reshape(-1, H).T @ dQ.reshape(-1, A)}
        dD = dQ @ pv["W2"].T
        if cfg.task_mode == TASK_CLASSIFY:
            grads["W_task"] = D[Ks, every].T @ G_task
            dD[Ks, every] += G_task @ pv["W_task"].T
        elif cfg.task_mode == TASK_LOCALIZE:
            grads["v_loc"] = dv_loc
        dec_grads, dX_dec, dh0 = _gru_backward(pv, "dec", dec, dD)
        dH = dPE @ pv["W1"].T
        dH[ns - 1, every] += dh0
        enc_grads, dX_enc, _ = _gru_backward(pv, "enc", enc, dH)
        dX = np.zeros_like(X)
        np.add.at(dX, np.concatenate([enc_rows.reshape(-1), dec_rows.reshape(-1)]),
                  np.concatenate([dX_enc, dX_dec]))
        grads["W_in"] = np.concatenate(features).T @ dX[:-1]
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


# Decoder inputs `rollout` remembers while looking for a cycle: a cycle
# whose period is longer than this is decoded step by step to the end.
CYCLE_WINDOW = 256


def rollout(features: np.ndarray, p: dict, max_steps: int,
            task_mode: str = TASK_NONE) -> tuple[list[int], int | None]:
    """Greedy decoding: argmax slot each step, feeding back the chosen token.

    `p` maps parameter names to Vars or plain arrays; no tape is built.

    A decoder step is a fixed function of its input, the fed-back token and
    the state (a, d). Once an input comes back bit for bit, lambda steps
    after it was first fed, every later step replays those lambda steps, so
    decoding stops there: the remaining steps repeat the last lambda
    actions, and the task head reads the state the cycle is in after them.
    Only the last CYCLE_WINDOW inputs are remembered, so the memory held
    besides the returned steps is bounded whatever `max_steps` is. The
    result equals decoding every step.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    pv = _arrays(p)
    X = embed([features], pv)
    n = X.shape[0] - 1
    E = _gru_run(pv, "enc", X[:-1], np.zeros(pv["enc_Uz"].shape[0])).H[1:]
    PE, p_stop = pointer_keys(pv, E)
    P = np.concatenate([PE, p_stop[None]])
    # Row n holds x_start's projection, and slot n is stop: `a` starts at n
    # and the loop ends before a chosen stop could be fed back.
    A_dec = project_inputs(pv, "dec", X)
    U = recurrent_weights(pv, "dec")
    d = E[-1]
    a = n
    steps: list[int] = []
    seen: dict[tuple[int, bytes], tuple] = {}  # input -> (step fed, state), oldest first
    for t in range(max_steps):
        key = (a, d.tobytes())
        if key in seen:
            first = seen[key][0]
            period, rest = t - first, max_steps - t
            cycle = steps[first:]
            steps += cycle * (rest // period) + cycle[:rest % period]
            d = list(seen.values())[len(seen) - period + rest % period][1]
            break
        if len(seen) == CYCLE_WINDOW:
            del seen[next(iter(seen))]
        seen[key] = t, d
        d = gru_step(U, "dec", A_dec[a], d)[0]
        logits, _ = pointer_scores(P, d @ pv["W2"], pv["v"])
        a = int(np.argmax(logits))  # ties resolve to the lowest slot
        if a == n:
            break
        steps.append(a)
    head = task_logits(pv, task_mode, d, PE)
    return steps, None if head is None else int(np.argmax(head))


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
    rng = np.random.default_rng(seed)
    shapes, labels, d_feat = [(12, 5), (9, 3)], [1, 2], 20
    bc = BCConfig(w_att=1.0, w_aux=1.0, d_emb=8, d_hidden=8, d_attn=8,
                  seed=seed, task_mode=TASK_CLASSIFY, n_classes=3)
    features = [rng.standard_normal((n, d_feat)) * 4.0 for n, _ in shapes]
    steps = [[int(s) for s in rng.integers(0, n, size=k)] for n, k in shapes]
    params = init_params(d_feat, bc)
    for p in params.values():
        p.value = p.value * 6.0

    def loss_fn(p):
        return forward_teacher(features, steps, p, bc, labels)[0]

    return loss_fn, params
