"""Pointer-attention encoder/decoder policy and the cloning loss.

A GRU (Cho et al. 2014) encodes the token sequence; a GRU decoder, started
from the final encoder state, points back into the input at each step
(pointer attention, Vinyals et al. 2015). Termination is an extra pointer
slot with a learned key, so the action space is uniformly "token index or
stop". A task head can emit a class label (softmax over classes) or a bug
location (a second pointer over the tokens).

One plain-numpy GRU cell (`gru_step`) and one pointer-score function
(`pointer_scores`) do all the arithmetic. Training runs them inside two
fused tape nodes, `gru_sequence` over every row of an input matrix and
`pointer_attention` over every decoder step, whose backward passes are
derived by hand (backpropagation through time over the cached gates).
Teacher forcing knows every decoder input in advance, so a whole
trajectory is about a dozen tape nodes. Greedy `rollout` and
`decode_step` call the same two functions on plain arrays and build no
tape.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.task_mode not in (TASK_NONE, TASK_CLASSIFY, TASK_LOCALIZE):
            raise ValueError(f"unknown task_mode {self.task_mode!r}")
        if self.task_mode == TASK_CLASSIFY and self.n_classes < 2:
            raise ValueError("classify mode needs n_classes >= 2")


def _gru_param_names(prefix: str) -> list[tuple[str, str]]:
    return [(f"{prefix}_W{g}", f"{prefix}_U{g}") for g in "zrh"]


def init_params(d_feat: int, cfg: BCConfig) -> dict[str, Var]:
    """All tensors uniform in [-INIT_RANGE, INIT_RANGE] from the run seed."""
    rng = np.random.default_rng(cfg.seed)

    def u(*shape):
        return Var(rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape))

    p: dict[str, Var] = {"W_in": u(d_feat, cfg.d_emb)}
    for prefix in ("enc", "dec"):
        for g in "zrh":
            p[f"{prefix}_W{g}"] = u(cfg.d_emb, cfg.d_hidden)
            p[f"{prefix}_U{g}"] = u(cfg.d_hidden, cfg.d_hidden)
            p[f"{prefix}_b{g}"] = u(cfg.d_hidden)
    p["W1"] = u(cfg.d_hidden, cfg.d_attn)
    p["W2"] = u(cfg.d_hidden, cfg.d_attn)
    p["v"] = u(cfg.d_attn)
    p["b_a"] = u(cfg.d_attn)
    p["e_stop"] = u(cfg.d_hidden)
    p["x_start"] = u(cfg.d_emb)
    if cfg.task_mode == TASK_CLASSIFY:
        p["W_task"] = u(cfg.d_hidden, cfg.n_classes)
    elif cfg.task_mode == TASK_LOCALIZE:
        p["v_loc"] = u(cfg.d_attn)
    return p


def _arrays(p: dict) -> dict[str, np.ndarray]:
    """Plain-array view of a parameter dict whose values are Vars or arrays."""
    return {k: v.value if isinstance(v, Var) else v for k, v in p.items()}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def gru_step(p: dict[str, np.ndarray], prefix: str, x: np.ndarray, h: np.ndarray):
    """One GRU step on plain arrays; returns (h', z, r, candidate).

    `x` is the step's input already projected by `project_inputs`,
    [x Wz + bz | x Wr + br | x Wh + bh], so only the recurrent products
    are left per step.
    """
    n = h.shape[0]
    z = _sigmoid(x[:n] + h @ p[prefix + "_Uz"])
    r = _sigmoid(x[n:2 * n] + h @ p[prefix + "_Ur"])
    c = np.tanh(x[2 * n:] + (r * h) @ p[prefix + "_Uh"])
    # h' = (1 - z) * h + z * c, written as h + z * (c - h)
    return h + z * (c - h), z, r, c


def project_inputs(p: dict[str, np.ndarray], prefix: str, X: np.ndarray) -> np.ndarray:
    """Every row's gate inputs at once: X [Wz|Wr|Wh] + [bz|br|bh]."""
    W = np.concatenate([p[f"{prefix}_W{g}"] for g in "zrh"], axis=1)
    b = np.concatenate([p[f"{prefix}_b{g}"] for g in "zrh"])
    return X @ W + b


def _gru_run(p: dict[str, np.ndarray], prefix: str, X: np.ndarray, h0: np.ndarray):
    """States (h0 first, T+1 rows) and gates (z, r, candidate) of a GRU over X's rows."""
    A = project_inputs(p, prefix, X)
    T, d_hid = A.shape[0], h0.shape[0]
    Hs = np.empty((T + 1, d_hid))
    Z, R, C = np.empty((3, T, d_hid))
    Hs[0] = h0
    for t in range(T):
        Hs[t + 1], Z[t], R[t], C[t] = gru_step(p, prefix, A[t], Hs[t])
    return Hs, Z, R, C


def gru_sequence(p: dict[str, Var], prefix: str, X: Var, h0: Var | None = None) -> Var:
    """GRU over every row of X from state h0 (zeros if None): one node, T x H states.

    The backward is backpropagation through time over the cached gates, so
    each weight gradient is one (T x d)^T (T x d) product.
    """
    names = [f"{prefix}_{m}{g}" for m in "WUb" for g in "zrh"]
    pv = {k: p[k].value for k in names}
    T, d_hid = X.value.shape[0], pv[prefix + "_Uz"].shape[0]
    Hs, Z, R, C = _gru_run(pv, prefix, X.value,
                           np.zeros(d_hid) if h0 is None else h0.value)
    parents = (X,) + tuple(p[k] for k in names) + (() if h0 is None else (h0,))
    out = Var(Hs[1:], parents=parents)

    def bwd(G):
        Hp = Hs[:-1]
        # Per-step factors that do not depend on the carried gradient.
        to_c = Z * (1.0 - C * C)                 # dh -> d(candidate pre-activation)
        to_z = (C - Hp) * Z * (1.0 - Z)          # dh -> d(z pre-activation)
        to_r = Hp * R * (1.0 - R)                # d(r*h) -> d(r pre-activation)
        keep = 1.0 - Z
        Uh_T = pv[prefix + "_Uh"].T
        Uzr_T = np.concatenate([pv[prefix + "_Uz"], pv[prefix + "_Ur"]], axis=1).T
        dA = np.empty((T, 3 * d_hid))
        dh = np.zeros(d_hid)
        for t in range(T - 1, -1, -1):
            dh = dh + G[t]
            dc = np.multiply(dh, to_c[t], out=dA[t, 2 * d_hid:])
            dq = dc @ Uh_T
            np.multiply(dh, to_z[t], out=dA[t, :d_hid])
            np.multiply(dq, to_r[t], out=dA[t, d_hid:2 * d_hid])
            dh = dh * keep[t] + dq * R[t] + dA[t, :2 * d_hid] @ Uzr_T
        dW, db = X.value.T @ dA, dA.sum(axis=0)
        dU = Hp.T @ dA[:, :2 * d_hid]
        dU = [dU[:, :d_hid], dU[:, d_hid:], (R * Hp).T @ dA[:, 2 * d_hid:]]
        for k, (g, dUg) in enumerate(zip("zrh", dU)):
            cols = slice(k * d_hid, (k + 1) * d_hid)
            ad.accumulate(p[f"{prefix}_W{g}"], dW[:, cols])
            ad.accumulate(p[f"{prefix}_U{g}"], dUg)
            ad.accumulate(p[f"{prefix}_b{g}"], db[cols])
        W = np.concatenate([pv[f"{prefix}_W{g}"] for g in "zrh"], axis=1)
        ad.accumulate(X, dA @ W.T)
        if h0 is not None:
            ad.accumulate(h0, dh)

    out._backward = bwd
    return out


def encode(features: np.ndarray, p: dict[str, Var]) -> tuple[Var, Var, Var]:
    """Returns (E, h_n, X): encoder states, final state, token embeddings."""
    n = features.shape[0]
    if n == 0:
        raise ValueError("cannot encode an empty token sequence")
    X = ad.matmul(ad.constant(features), p["W_in"])
    E = gru_sequence(p, "enc", X)
    return E, ad.row_gather(E, n - 1), X


def pointer_scores(P: np.ndarray, q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = v . tanh(P + q) for every key row of P; returns (u, the tanh).

    `q` is one query d W2 (shape A) or a stack of them (T x A), giving
    scores of shape (J,) or (T x J).
    """
    act = np.tanh(P + q[..., None, :])
    return act @ v, act


def pointer_attention(P: Var, D: Var, p: dict[str, Var], score_vec: str = "v") -> Var:
    """Pointer logits of every decoder state (rows of D) over every key (rows of P)."""
    W2, v = p["W2"], p[score_vec]
    scores, act = pointer_scores(P.value, D.value @ W2.value, v.value)
    out = Var(scores, parents=(P, D, W2, v))

    def bwd(g):
        pre = act * act                          # d(pre-activation) = g v (1 - act^2)
        np.subtract(1.0, pre, out=pre)
        pre *= g[:, :, None]
        pre *= v.value
        dq = pre.sum(axis=1)
        ad.accumulate(P, pre.sum(axis=0))
        ad.accumulate(D, dq @ W2.value.T)
        ad.accumulate(W2, D.value.T @ dq)
        ad.accumulate(v, np.tensordot(g, act, axes=([0, 1], [0, 1])))

    out._backward = bwd
    return out


def attention_keys(E: Var, p: dict[str, Var], with_stop: bool = True) -> Var:
    keys = ad.concat_rows(E, p["e_stop"]) if with_stop else E
    return ad.add(ad.matmul(keys, p["W1"]), p["b_a"])


def _keys(pv: dict[str, np.ndarray], E: np.ndarray) -> np.ndarray:
    """Tape-free `attention_keys` with the stop slot as the last row."""
    return np.concatenate([E, pv["e_stop"][None, :]]) @ pv["W1"] + pv["b_a"]


def decode_step(d: Var, E: Var, p: dict[str, Var]) -> np.ndarray:
    """Distribution over n+1 slots (n tokens plus stop) for one decoder state."""
    pv = _arrays(p)
    logits, _ = pointer_scores(_keys(pv, E.value), d.value @ pv["W2"], pv["v"])
    return ad.softmax(logits)


def forward_teacher(features: np.ndarray, steps: list[int], p: dict[str, Var],
                    task_mode: str = TASK_NONE) -> tuple[Var, Var | None]:
    """Teacher-forced pass: the (K+1) x (n+1) pointer logits for targets
    steps + stop, and the task logits."""
    if not steps:
        raise ValueError("trajectory must be non-empty")
    n = features.shape[0]
    for s in steps:
        if not 0 <= s < n:
            raise IndexError(f"step index {s} out of range for {n} tokens")
    E, h_n, X = encode(features, p)
    # Decoder inputs are x_start then the expert's tokens, all known up front;
    # x_start sits in row n of the extended embedding matrix.
    X_dec = ad.row_gather(ad.concat_rows(X, p["x_start"]), [n, *steps])
    D = gru_sequence(p, "dec", X_dec, h_n)
    logits = pointer_attention(attention_keys(E, p, with_stop=True), D, p)
    task_logits = None
    if task_mode == TASK_CLASSIFY:
        task_logits = ad.matmul(ad.row_gather(D, len(steps)), p["W_task"])
    elif task_mode == TASK_LOCALIZE:
        loc = pointer_attention(attention_keys(E, p, with_stop=False),
                                ad.row_gather(D, [len(steps)]), p, "v_loc")
        task_logits = ad.row_gather(loc, 0)
    return logits, task_logits


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
        raise ValueError("cannot encode an empty token sequence")
    pv = _arrays(p)
    X = features @ pv["W_in"]
    E = _gru_run(pv, "enc", X, np.zeros(pv["enc_Uz"].shape[0]))[0][1:]
    P = _keys(pv, E)
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
