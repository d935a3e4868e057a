"""Pointer-attention encoder/decoder policy and the cloning loss.

A GRU (Cho et al. 2014) encodes the token sequence; a GRU decoder, started
from the final encoder state, points back into the input at each step
(pointer attention, Vinyals et al. 2015). Termination is an extra pointer
slot with a learned key, so the action space is uniformly "token index or
stop". A task head can emit a class label (softmax over classes) or a bug
location (a second pointer over the tokens).

One plain-numpy GRU cell (`gru_step`) and one pointer-score function
(`pointer_scores`) do all the arithmetic. Training runs them inside two
fused tape nodes, `gru_sequence` and `pointer_attention`, whose backward
passes are derived by hand (backpropagation through time over the cached
gates). Teacher forcing knows every decoder input in advance, so
`forward_teacher` runs a whole group of trajectories in lockstep: each GRU
steps every sequence of the group at once, one (B x d) matmul per step,
with the shorter sequences padded at the end. The pointer attention and
the loss stay per trajectory, and the pointer node recomputes its keys and
tanh in its backward instead of keeping them. Greedy `rollout` calls the
same cell and score function on plain arrays and builds no tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Var

TASK_NONE = "none"
TASK_CLASSIFY = "classify"
TASK_LOCALIZE = "localize"

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
        if self.w_att < 0 or self.w_aux < 0 or self.w_att + self.w_aux == 0:
            raise ValueError("loss weights must be non-negative with a positive sum")
        if min(self.d_emb, self.d_hidden, self.d_attn) < 1:
            raise ValueError("network dimensions must be at least 1")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.task_mode not in (TASK_NONE, TASK_CLASSIFY, TASK_LOCALIZE):
            raise ValueError(f"unknown task_mode {self.task_mode!r}")
        if self.task_mode == TASK_CLASSIFY and self.n_classes < 2:
            raise ValueError("classify mode needs n_classes >= 2")


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


def gru_step(p: dict[str, np.ndarray], prefix: str, x: np.ndarray, h: np.ndarray):
    """One GRU step on plain arrays; returns (h', z, r, candidate).

    `h` is one state (H) or one row per sequence (B x H), and `x` the
    step's input for each, already projected by `project_inputs`:
    [x Wz + bz | x Wr + br | x Wh + bh], so only the recurrent products
    are left per step.
    """
    n = h.shape[-1]
    z = _sigmoid(x[..., :n] + h @ p[prefix + "_Uz"])
    r = _sigmoid(x[..., n:2 * n] + h @ p[prefix + "_Ur"])
    c = np.tanh(x[..., 2 * n:] + (r * h) @ p[prefix + "_Uh"])
    # h' = (1 - z) * h + z * c, written as h + z * (c - h)
    return h + z * (c - h), z, r, c


def project_inputs(p: dict[str, np.ndarray], prefix: str, X: np.ndarray) -> np.ndarray:
    """Every row's gate inputs at once: X [Wz|Wr|Wh] + [bz|br|bh]."""
    W = np.concatenate([p[f"{prefix}_W{g}"] for g in "zrh"], axis=1)
    b = np.concatenate([p[f"{prefix}_b{g}"] for g in "zrh"])
    return X @ W + b


def _gru_run(p: dict[str, np.ndarray], prefix: str, X: np.ndarray, h0: np.ndarray):
    """States (h0 first, T+1 of them) and gates (z, r, candidate) of a GRU over X.

    `h0` is one start state (H), or B of them (B x H) with X's rows
    time-major: row t*B + b is step t of sequence b.
    """
    d_hid = h0.shape[-1]
    A = project_inputs(p, prefix, X).reshape((-1,) + h0.shape[:-1] + (3 * d_hid,))
    T = A.shape[0]
    Hs = np.empty((T + 1,) + h0.shape)
    Z, R, C = np.empty((3, T) + h0.shape)
    Hs[0] = h0
    for t in range(T):
        Hs[t + 1], Z[t], R[t], C[t] = gru_step(p, prefix, A[t], Hs[t])
    return Hs, Z, R, C


def gru_sequence(p: dict[str, Var], prefix: str, X: Var, h0: Var | None = None,
                 batch: int = 1) -> Var:
    """GRU over B sequences in lockstep as one node: (T*B) x H states.

    Rows are time-major: row t*B + b of X is step t of sequence b, and the
    same row of the output is that sequence's state after it. `h0` holds the
    B start states (B x H, or H for one sequence); if None they are zeros
    and B is `batch`. A sequence shorter than T is padded at the end with
    any rows: the GRU is causal, so padding never changes a sequence's real
    states, and padded rows get exactly zero gradient when no loss reads
    them.

    The backward is backpropagation through time over the cached gates, so
    each weight gradient is one (T*B x d)^T (T*B x d) product.
    """
    names = [f"{prefix}_{m}{g}" for m in "WUb" for g in "zrh"]
    pv = {k: p[k].value for k in names}
    d_hid = pv[prefix + "_Uz"].shape[0]
    start = np.zeros((batch, d_hid)) if h0 is None else h0.value.reshape(-1, d_hid)
    Hs, Z, R, C = _gru_run(pv, prefix, X.value, start)
    T, B = Z.shape[:2]
    parents = (X,) + tuple(p[k] for k in names) + (() if h0 is None else (h0,))
    out = Var(Hs[1:].reshape(T * B, d_hid), parents=parents)

    def bwd(G):
        G = G.reshape(T, B, d_hid)
        Hp = Hs[:-1]
        # Per-step factors that do not depend on the carried gradient.
        to_c = Z * (1.0 - C * C)                 # dh -> d(candidate pre-activation)
        to_z = (C - Hp) * Z * (1.0 - Z)          # dh -> d(z pre-activation)
        to_r = Hp * R * (1.0 - R)                # d(r*h) -> d(r pre-activation)
        keep = 1.0 - Z
        Uh_T = pv[prefix + "_Uh"].T
        Uzr_T = np.concatenate([pv[prefix + "_Uz"], pv[prefix + "_Ur"]], axis=1).T
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
        dW, db = X.value.T @ dA, dA.sum(axis=0)
        dU = Hp.T @ dA[:, :2 * d_hid]
        dU = [dU[:, :d_hid], dU[:, d_hid:],
              (R.reshape(T * B, d_hid) * Hp).T @ dA[:, 2 * d_hid:]]
        for k, (g, dUg) in enumerate(zip("zrh", dU)):
            cols = slice(k * d_hid, (k + 1) * d_hid)
            ad.accumulate(p[f"{prefix}_W{g}"], dW[:, cols])
            ad.accumulate(p[f"{prefix}_U{g}"], dUg)
            ad.accumulate(p[f"{prefix}_b{g}"], db[cols])
        W = np.concatenate([pv[f"{prefix}_W{g}"] for g in "zrh"], axis=1)
        ad.accumulate(X, dA @ W.T)
        if h0 is not None:
            ad.accumulate(h0, dh.reshape(h0.value.shape))

    out._backward = bwd
    return out


class EmptySequenceError(ValueError):
    """Raised when a snippet with no tokens is encoded."""


def encode(features: list[np.ndarray], p: dict[str, Var]) -> tuple[Var, Var, Var]:
    """Encodes a group of token-feature matrices in lockstep.

    Returns (E, h_n, X): the time-major encoder states (row t*B + b is
    token t of sequence b; rows past a sequence's end are padding), the
    B x H final states, and every sequence's embeddings, concatenated
    unpadded, with x_start appended as the last row.
    """
    ns = [f.shape[0] for f in features]
    if min(ns) == 0:
        raise EmptySequenceError("cannot encode an empty token sequence")
    B, pad = len(features), sum(ns)
    X = ad.concat_rows(ad.matmul(ad.constant(np.concatenate(features)), p["W_in"]),
                       p["x_start"])
    # Padding rows read x_start (row `pad`); any row would do.
    rows = np.full((max(ns), B), pad)
    for b, offset in enumerate(np.cumsum([0] + ns[:-1])):
        rows[:ns[b], b] = offset + np.arange(ns[b])
    E = gru_sequence(p, "enc", ad.row_gather(X, rows.reshape(-1)), batch=B)
    return E, ad.row_gather(E, (np.array(ns) - 1) * B + np.arange(B)), X


def pointer_scores(P: np.ndarray, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = v . tanh(P + q) for every key row of P; returns (u, the tanh).

    `q` is one query d W2 (shape A) or a stack of them (T x A), giving
    scores of shape (J,) or (T x J).
    """
    act = P + q[..., None, :]
    np.tanh(act, out=act)
    return act @ v, act


# Elements (steps x keys x d_attn) of the tanh block `pointer_attention`
# holds at a time, forward and backward.
POINTER_BLOCK = 1 << 18


def _pointer_keys(pv: dict[str, np.ndarray], E: np.ndarray, with_stop: bool = True) -> np.ndarray:
    """Keys [E; e_stop] W1 + b_a, the stop slot last (E W1 + b_a without it)."""
    keys = np.concatenate([E, pv["e_stop"][None, :]]) if with_stop else E
    return keys @ pv["W1"] + pv["b_a"]


def pointer_attention(E: Var, D: Var, p: dict[str, Var], score_vec: str = "v",
                      with_stop: bool = True) -> Var:
    """Pointer logits of every decoder state (rows of D) over the keys built
    from the encoder states (rows of E) and, with_stop, the stop slot.

    One node that keeps neither the keys nor the tanh: both passes walk
    blocks of decoder steps whose tanh stays within POINTER_BLOCK elements,
    and the backward recomputes the keys and each block's tanh.
    """
    names = ("W1", "b_a", "W2", score_vec) + (("e_stop",) if with_stop else ())
    pv = {k: p[k].value for k in names}
    v = pv[score_vec]
    T, J = D.value.shape[0], E.value.shape[0] + int(with_stop)

    def blocks():
        """(step slice, its scores, its tanh) for each block of decoder steps."""
        P, Q = _pointer_keys(pv, E.value, with_stop), D.value @ pv["W2"]
        rows = max(1, POINTER_BLOCK // P.size)
        for s in range(0, T, rows):
            blk = slice(s, s + rows)
            yield (blk,) + pointer_scores(P, Q[blk], v)

    scores = np.empty((T, J))
    for blk, u, _ in blocks():
        scores[blk] = u
    out = Var(scores, parents=(E, D) + tuple(p[k] for k in names))

    def bwd(g):
        # d(pre-activation)[t, j] = g[t, j] v (1 - act[t, j]^2). Its sums over
        # keys (for the queries) and over steps (for the keys) split into
        # g's row and column sums minus two matmuls with act^2.
        gq, gk, dv = np.empty((T, v.size)), np.zeros((J, v.size)), np.zeros_like(v)
        for blk, _, act in blocks():
            gb = g[blk]
            dv += gb.reshape(-1) @ act.reshape(-1, v.size)
            act *= act
            gq[blk] = np.matmul(gb[:, None, :], act)[:, 0, :]
            gk += np.matmul(act.transpose(1, 2, 0), gb.T[:, :, None])[:, :, 0]
        dQ = (g.sum(axis=1)[:, None] - gq) * v
        dP = (g.sum(axis=0)[:, None] - gk) * v
        keys = np.concatenate([E.value, pv["e_stop"][None, :]]) if with_stop else E.value
        ad.accumulate(p["W1"], keys.T @ dP)
        ad.accumulate(p["b_a"], dP.sum(axis=0))
        dkeys = dP @ pv["W1"].T
        ad.accumulate(E, dkeys[:E.value.shape[0]])
        if with_stop:
            ad.accumulate(p["e_stop"], dkeys[-1])
        ad.accumulate(p["W2"], D.value.T @ dQ)
        ad.accumulate(D, dQ @ pv["W2"].T)
        ad.accumulate(p[score_vec], dv)

    out._backward = bwd
    return out


def forward_teacher(features: list[np.ndarray], steps: list[list[int]], p: dict[str, Var],
                    task_mode: str = TASK_NONE) -> list[tuple[Var, Var | None]]:
    """Teacher-forced pass over a lockstep group of trajectories.

    `features[b]` and `steps[b]` are trajectory b's token features and
    expert steps. Both GRUs run the whole group at once; for each
    trajectory the result holds its (K+1) x (n+1) pointer logits for
    targets steps + stop, and its task logits.
    """
    if not features or len(features) != len(steps):
        raise ValueError(f"{len(features)} feature matrices for {len(steps)} trajectories")
    for f, s in zip(features, steps):
        if not s:
            raise ValueError("trajectory must be non-empty")
        for i in s:
            if not 0 <= i < f.shape[0]:
                raise IndexError(f"step index {i} out of range for {f.shape[0]} tokens")
    E, h_n, X = encode(features, p)
    # Decoder inputs are x_start then the expert's tokens, all known up
    # front; x_start is X's last row, which also pads the shorter sequences.
    B, pad = len(features), X.value.shape[0] - 1
    ns, Ks = [f.shape[0] for f in features], [len(s) for s in steps]
    rows = np.full((max(Ks) + 1, B), pad)
    for b, offset in enumerate(np.cumsum([0] + ns[:-1])):
        rows[1:Ks[b] + 1, b] = offset + np.asarray(steps[b])
    D = gru_sequence(p, "dec", ad.row_gather(X, rows.reshape(-1)), h_n)
    out = []
    for b, (n, K) in enumerate(zip(ns, Ks)):
        E_b = ad.row_gather(E, range(b, n * B, B))
        logits = pointer_attention(E_b, ad.row_gather(D, range(b, (K + 1) * B, B)), p)
        task_logits = None
        if task_mode == TASK_CLASSIFY:
            task_logits = ad.matmul(ad.row_gather(D, K * B + b), p["W_task"])
        elif task_mode == TASK_LOCALIZE:
            loc = pointer_attention(E_b, ad.row_gather(D, [K * B + b]), p, "v_loc",
                                    with_stop=False)
            task_logits = ad.row_gather(loc, 0)
        out.append((logits, task_logits))
    return out


def bc_loss(action_logits: Var | list[Var], expert_steps: list[int], task_logits: Var | None,
            task_value: int | None, w_att: float, w_aux: float,
            sample_weight: float = 1.0) -> Var:
    """sample_weight * (w_att * mean CE over targets+stop + w_aux * task CE).

    `action_logits` is the (K+1) x (n+1) matrix of `forward_teacher`, or a
    list of K+1 one-dimensional logit vectors.
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


def rollout(features: np.ndarray, p: dict, max_steps: int,
            task_mode: str = TASK_NONE) -> tuple[list[int], int | None]:
    """Greedy decoding: argmax slot each step, feeding back the chosen token.

    `p` maps parameter names to Vars or plain arrays; no tape is built.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    n = features.shape[0]
    if n == 0:
        raise EmptySequenceError("cannot encode an empty token sequence")
    pv = _arrays(p)
    X = features @ pv["W_in"]
    E = _gru_run(pv, "enc", X, np.zeros(pv["enc_Uz"].shape[0]))[0][1:]
    P = _pointer_keys(pv, E)
    # Row n holds x_start's projection, and slot n is stop: `a` starts at n
    # and the loop ends before a chosen stop could be fed back.
    A_dec = project_inputs(pv, "dec", np.concatenate([X, pv["x_start"][None, :]]))
    W2, v = pv["W2"], pv["v"]
    d = E[-1]
    a = n
    steps: list[int] = []
    for _ in range(max_steps):
        d = gru_step(pv, "dec", A_dec[a], d)[0]
        logits, _ = pointer_scores(P, d @ W2, v)
        a = int(np.argmax(logits))  # ties resolve to the lowest slot
        if a == n:
            break
        steps.append(a)
    task_out = None
    if task_mode == TASK_CLASSIFY:
        task_out = int(np.argmax(d @ pv["W_task"]))
    elif task_mode == TASK_LOCALIZE:
        loc, _ = pointer_scores(P[:n], d @ W2, pv["v_loc"])
        task_out = int(np.argmax(loc))
    return steps, task_out


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
        outputs = forward_teacher(features, steps, p, bc.task_mode)
        return reduce(ad.add, [
            bc_loss(logits, s, task_logits, label, bc.w_att, bc.w_aux)
            for (logits, task_logits), s, label in zip(outputs, steps, labels)])

    return loss_fn, params
