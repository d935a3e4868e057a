"""Reference implementation of the teacher-forced loss on the generic tape.

This is the per-trajectory path `policy.forward_teacher` replaced: two GRU
sequence nodes over the group, then for each trajectory row gathers of its
encoder and decoder states, a pointer node, and `policy.bc_loss`. The GRU
cell takes z and r from two separate matmuls, and greedy decoding here
uses that cell too, so the policy's fused cell is checked against it. It
decodes every step, with no cycle detection, so it also checks the
policy's rollout, which stops stepping once a decoder input repeats.
Tests compare losses, gradients and rollouts with the policy's.

`fused_gru_step` and `fused_gru_backward` take z and r from one matmul
and one sigmoid, like the policy, but make a new array for every
operation: the policy's in-place GRU step and backpropagation through
time must equal them bit for bit.

`adam_step` is the per-parameter Adam update, with a new array for every
operation, that `autodiff.adam_step` ran before the parameters were
packed into one vector: the packed step must equal it bit for bit.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from codegaze import autodiff as ad
from codegaze import policy
from codegaze.autodiff import Var

GATES = "zrh"


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_step(p, prefix, x, h):
    """One GRU step, x already projected; returns (h', z, r, candidate)."""
    n = h.shape[-1]
    z = _sigmoid(x[..., :n] + h @ p[prefix + "_Uz"])
    r = _sigmoid(x[..., n:2 * n] + h @ p[prefix + "_Ur"])
    c = np.tanh(x[..., 2 * n:] + (r * h) @ p[prefix + "_Uh"])
    return h + z * (c - h), z, r, c


def fused_gru_step(p, prefix, x, h):
    """The fused cell, z and r from one matmul, called like `gru_step`."""
    n = h.shape[-1]
    Uzr = np.concatenate([p[prefix + "_Uz"], p[prefix + "_Ur"]], axis=1)
    zr = _sigmoid(x[..., :2 * n] + h @ Uzr)
    z, r = zr[..., :n], zr[..., n:]
    c = np.tanh(x[..., 2 * n:] + (r * h) @ p[prefix + "_Uh"])
    return h + z * (c - h), z, r, c


def fused_gru_backward(p, prefix, run, G):
    """Backpropagation through time over a `policy.GRURun`, called like
    `policy._gru_backward`, with the fused cell's arithmetic: a new array
    for every operation, and the per-step factors of the whole run at once."""
    T, B, n = run.Z.shape
    Hp, Z, R, C = run.H[:-1], run.Z, run.R, run.C
    Uh_T = p[prefix + "_Uh"].T
    Uzr_T = np.concatenate([p[prefix + "_Uz"], p[prefix + "_Ur"]], axis=1).T
    to_c = Z * (1.0 - C * C)
    to_z = (C - Hp) * Z * (1.0 - Z)
    to_r = Hp * R * (1.0 - R)
    keep = 1.0 - Z
    dA = np.empty((T, B, 3 * n))
    dh = np.zeros((B, n))
    for t in range(T - 1, -1, -1):
        dh = dh + G[t]
        dc = np.multiply(dh, to_c[t], out=dA[t, :, 2 * n:])
        dq = dc @ Uh_T
        np.multiply(dh, to_z[t], out=dA[t, :, :n])
        np.multiply(dq, to_r[t], out=dA[t, :, n:2 * n])
        dh = dh * keep[t] + dq * R[t] + dA[t, :, :2 * n] @ Uzr_T
    rh = (R * Hp).reshape(T * B, n)
    dA = dA.reshape(T * B, 3 * n)
    Hp = Hp.reshape(T * B, n)
    dW, db = run.X.T @ dA, dA.sum(axis=0)
    dU = Hp.T @ dA[:, :2 * n]
    grads = {f"{prefix}_Uz": dU[:, :n], f"{prefix}_Ur": dU[:, n:],
             f"{prefix}_Uh": rh.T @ dA[:, 2 * n:]}
    for k, g in enumerate(GATES):
        cols = slice(k * n, (k + 1) * n)
        grads[f"{prefix}_W{g}"] = dW[:, cols]
        grads[f"{prefix}_b{g}"] = db[cols]
    W = np.concatenate([p[f"{prefix}_W{g}"] for g in GATES], axis=1)
    return grads, dA @ W.T, dh


def gru_run(p, prefix, X, h0, cell=gru_step):
    A = policy.project_inputs(p, prefix, X).reshape((-1,) + h0.shape[:-1] + (3 * h0.shape[-1],))
    Hs = np.empty((A.shape[0] + 1,) + h0.shape)
    Z, R, C = np.empty((3, A.shape[0]) + h0.shape)
    Hs[0] = h0
    for t in range(A.shape[0]):
        Hs[t + 1], Z[t], R[t], C[t] = cell(p, prefix, A[t], Hs[t])
    return Hs, Z, R, C


def gru_sequence(p, prefix, X, h0=None, batch=1):
    """GRU over B time-major sequences as one node: (T*B) x H states."""
    names = [f"{prefix}_{m}{g}" for m in "WUb" for g in GATES]
    pv = {k: p[k].value for k in names}
    d_hid = pv[prefix + "_Uz"].shape[0]
    start = np.zeros((batch, d_hid)) if h0 is None else h0.value.reshape(-1, d_hid)
    Hs, Z, R, C = gru_run(pv, prefix, X.value, start)
    T, B = Z.shape[:2]
    parents = (X,) + tuple(p[k] for k in names) + (() if h0 is None else (h0,))
    out = Var(Hs[1:].reshape(T * B, d_hid), parents=parents)

    def bwd(G):
        G = G.reshape(T, B, d_hid)
        Hp = Hs[:-1]
        dA = np.empty((T, B, 3 * d_hid))
        dh = np.zeros((B, d_hid))
        for t in range(T - 1, -1, -1):
            dh = dh + G[t]
            dc = dh * Z[t] * (1.0 - C[t] ** 2)
            dq = dc @ pv[prefix + "_Uh"].T
            dz = dh * (C[t] - Hp[t]) * Z[t] * (1.0 - Z[t])
            dr = dq * Hp[t] * R[t] * (1.0 - R[t])
            dA[t] = np.concatenate([dz, dr, dc], axis=1)
            dh = (dh * (1.0 - Z[t]) + dq * R[t] + dz @ pv[prefix + "_Uz"].T
                  + dr @ pv[prefix + "_Ur"].T)
        dA = dA.reshape(T * B, 3 * d_hid)
        Hp = Hp.reshape(T * B, d_hid)
        RHp = R.reshape(T * B, d_hid) * Hp
        for k, g in enumerate(GATES):
            cols = slice(k * d_hid, (k + 1) * d_hid)
            ad.accumulate(p[f"{prefix}_W{g}"], X.value.T @ dA[:, cols])
            ad.accumulate(p[f"{prefix}_U{g}"], (RHp if g == "h" else Hp).T @ dA[:, cols])
            ad.accumulate(p[f"{prefix}_b{g}"], dA[:, cols].sum(axis=0))
            ad.accumulate(X, dA[:, cols] @ pv[f"{prefix}_W{g}"].T)
        if h0 is not None:
            ad.accumulate(h0, dh.reshape(h0.value.shape))

    out._backward = bwd
    return out


def pointer_attention(E, D, p, score_vec="v", with_stop=True):
    """Pointer logits of every row of D over the keys from E (and stop)."""
    keys = ad.concat_rows(E, p["e_stop"]) if with_stop else E
    P = ad.add(ad.matmul(keys, p["W1"]), p["b_a"])
    Q = ad.matmul(D, p["W2"])
    rows = [ad.matmul(ad.tanh(ad.add(P, ad.row_gather(Q, t))), p[score_vec])
            for t in range(D.value.shape[0])]
    return ad.stack_rows(rows)


def forward_teacher(features, steps, p, task_mode):
    """Per trajectory: (pointer logits, task logits or None), as tape nodes."""
    ns, Ks = [f.shape[0] for f in features], [len(s) for s in steps]
    B, pad = len(features), sum(ns)
    X = ad.concat_rows(ad.matmul(ad.constant(np.concatenate(features)), p["W_in"]),
                       p["x_start"])
    offsets = np.cumsum([0] + ns[:-1])
    enc_rows = np.full((max(ns), B), pad)
    dec_rows = np.full((max(Ks) + 1, B), pad)
    for b, offset in enumerate(offsets):
        enc_rows[:ns[b], b] = offset + np.arange(ns[b])
        dec_rows[1:Ks[b] + 1, b] = offset + np.asarray(steps[b])
    E = gru_sequence(p, "enc", ad.row_gather(X, enc_rows.reshape(-1)), batch=B)
    h_n = ad.row_gather(E, (np.array(ns) - 1) * B + np.arange(B))
    D = gru_sequence(p, "dec", ad.row_gather(X, dec_rows.reshape(-1)), h_n)
    out = []
    for b, (n, K) in enumerate(zip(ns, Ks)):
        E_b = ad.row_gather(E, range(b, n * B, B))
        logits = pointer_attention(E_b, ad.row_gather(D, range(b, (K + 1) * B, B)), p)
        task_logits = None
        if task_mode == policy.TASK_CLASSIFY:
            task_logits = ad.matmul(ad.row_gather(D, K * B + b), p["W_task"])
        elif task_mode == policy.TASK_LOCALIZE:
            loc = pointer_attention(E_b, ad.row_gather(D, [K * B + b]), p, "v_loc",
                                    with_stop=False)
            task_logits = ad.row_gather(loc, 0)
        out.append((logits, task_logits))
    return out


def group_loss(features, steps, p, cfg, labels=None, weights=None):
    """(sum of the trajectories' `bc_loss`, per-trajectory outputs) on the tape."""
    labels = [None] * len(steps) if labels is None else labels
    weights = [1.0] * len(steps) if weights is None else weights
    outputs = forward_teacher(features, steps, p, cfg.task_mode)
    losses = [policy.bc_loss(logits, s, task, label, cfg.w_att, cfg.w_aux, weight)
              for (logits, task), s, label, weight in zip(outputs, steps, labels, weights)]
    return reduce(ad.add, losses), outputs


def rollout(features, p, max_steps, task_mode=policy.TASK_NONE, inputs=None, cell=gru_step):
    """Greedy decoding with the two-matmul cell, one step at a time.

    Given a list `inputs`, each step's decoder input (token, state) is
    appended to it. The two cells may differ in the last bit of a state;
    `cell=fused_gru_step` decodes with the policy's arithmetic, bit for bit.
    """
    pv = {k: v.value for k, v in p.items()}
    n = features.shape[0]
    X = features @ pv["W_in"]
    E = gru_run(pv, "enc", X, np.zeros(pv["enc_Uz"].shape[0]), cell)[0][1:]
    P = np.concatenate([E, pv["e_stop"][None, :]]) @ pv["W1"] + pv["b_a"]
    A_dec = policy.project_inputs(pv, "dec", np.concatenate([X, pv["x_start"][None, :]]))
    d, a, steps = E[-1], n, []
    for _ in range(max_steps):
        if inputs is not None:
            inputs.append((a, d))
        d = cell(pv, "dec", A_dec[a], d)[0]
        a = int(np.argmax(np.tanh(P + d @ pv["W2"]) @ pv["v"]))
        if a == n:
            break
        steps.append(a)
    task_out = None
    if task_mode == policy.TASK_CLASSIFY:
        task_out = int(np.argmax(d @ pv["W_task"]))
    elif task_mode == policy.TASK_LOCALIZE:
        task_out = int(np.argmax(np.tanh(P[:n] + d @ pv["W2"]) @ pv["v_loc"]))
    return steps, task_out


def adam_step(params, grads, state):
    """One Adam step on plain arrays, one parameter at a time: `params` maps
    names to arrays and gets new ones; `state` is a dict of lr, clip, step
    and the moments m and v by name, updated in place."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    factor = state["clip"] / norm if 0 < state["clip"] < norm else 1.0
    state["step"] += 1
    bc1 = 1.0 - ad.BETA1 ** state["step"]
    bc2 = 1.0 - ad.BETA2 ** state["step"]
    for name in params:
        g = grads[name] * factor
        m, v = state["m"][name], state["v"][name]
        m *= ad.BETA1
        m += (1.0 - ad.BETA1) * g
        v *= ad.BETA2
        v += (1.0 - ad.BETA2) * (g * g)
        params[name] = params[name] - state["lr"] * (m / bc1) / (np.sqrt(v / bc2) + ad.EPSILON)
