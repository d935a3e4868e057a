import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codegaze import autodiff as ad
from codegaze import policy
from codegaze.autodiff import Var
from codegaze.lexer import DataError
from codegaze.policy import BCConfig

import tape_oracle as oracle


def zero_params(d_feat, cfg):
    params = policy.init_params(d_feat, cfg)
    for p in params.values():
        p.value = np.zeros_like(p.value)
    return params


TINY = dict(d_emb=4, d_hidden=4, d_attn=4)
SMALL = BCConfig(**TINY)


def test_config_validation():
    with pytest.raises(ValueError):
        BCConfig(w_att=0.0, w_aux=0.0)
    with pytest.raises(ValueError):
        BCConfig(task_mode="classify", n_classes=0)
    with pytest.raises(ValueError):
        BCConfig(task_mode="bogus")
    with pytest.raises(ValueError, match="batch"):
        BCConfig(batch=0)
    with pytest.raises(ValueError, match="epochs"):
        BCConfig(epochs=-1)
    assert BCConfig(epochs=0, batch=1).epochs == 0


def test_init_within_range_and_seeded():
    a = policy.init_params(6, SMALL)
    b = policy.init_params(6, SMALL)
    for name in a:
        assert (np.abs(a[name].value) <= policy.INIT_RANGE).all()
        assert (a[name].value == b[name].value).all()


def test_encode_zero_params_gives_zero_states():
    rng = np.random.default_rng(0)
    _, _, _, run = policy.encode([rng.standard_normal((5, 6))], zero_params(6, SMALL))
    assert run.H.shape == (6, 1, SMALL.d_hidden)
    assert (run.H == 0).all()


def test_encode_single_token():
    rng = np.random.default_rng(1)
    params = policy.init_params(6, SMALL)
    _, X, rows, run = policy.encode([rng.standard_normal((1, 6))], params)
    assert run.H[1:].shape == (1, 1, SMALL.d_hidden)
    assert rows.tolist() == [[0]] and X.shape == (2, SMALL.d_emb)  # the token, x_start
    pv = {k: v.value for k, v in params.items()}
    x, h = policy.project_inputs(pv, "enc", X[:1])[0], np.zeros(SMALL.d_hidden)
    zr = 2 * SMALL.d_hidden
    policy.gru_step(policy.gru_cell(pv, "enc", h.shape), "enc", x[:zr], x[zr:], h, h)
    assert run.H[1, 0] == pytest.approx(h, abs=1e-15)


def test_encode_rejects_empty():
    with pytest.raises(ValueError):
        policy.encode([np.zeros((0, 6))], policy.init_params(6, SMALL))


def test_encode_is_order_sensitive():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((6, 6))
    params = policy.init_params(6, SMALL)
    fwd = policy.encode([feats], params)[3].H[-1, 0]
    rev = policy.encode([feats[::-1].copy()], params)[3].H[-1, 0]
    assert not np.allclose(fwd, rev)


def test_pointer_logits_equal_for_zero_params():
    [(logits, _)] = policy.forward_teacher([np.ones((4, 6))], [[2]], zero_params(6, SMALL),
                                           SMALL)[1]
    assert logits.shape == (2, 5)
    assert (logits == logits[0, 0]).all()


def test_pointer_logits_give_slot_distributions():
    rng = np.random.default_rng(3)
    params = policy.init_params(6, SMALL)
    steps = [int(i) for i in rng.integers(0, 7, size=19)]
    [(logits, _)] = policy.forward_teacher([rng.standard_normal((7, 6))], [steps], params,
                                           SMALL)[1]
    assert logits.shape == (20, 8)  # 7 tokens plus stop for each decoder state
    for row in logits:
        dist = ad.softmax(row)
        assert abs(dist.sum() - 1.0) < 1e-12
        assert (dist >= 0).all()


def test_pointer_logits_match_hand_computed():
    # 1-dimensional tensors so the logits can be computed by hand:
    # u_j = v * tanh(w1*k_j + w2*d + b), keys = [e1, e2, e_stop]. With zero
    # inputs and recurrent weights every gate is a bias: the encoder's
    # z = sigmoid(0) = 1/2 and candidate tanh(1), so e1 = tanh(1)/2 and
    # e2 = 3 tanh(1)/4; the decoder's candidate is 0, so each of its steps
    # halves the state, from e2.
    cfg = BCConfig(d_emb=1, d_hidden=1, d_attn=1)
    params = zero_params(1, cfg)
    w1, w2, v, b, stop = 0.5, -0.3, 1.2, 0.1, 0.7
    for name, value in (("W1", [[w1]]), ("W2", [[w2]]), ("v", [v]), ("b_a", [b]),
                        ("e_stop", [stop]), ("enc_bh", [1.0])):
        params[name].value = np.array(value)
    t = math.tanh(1.0)
    keys, states = (t / 2, 3 * t / 4, stop), (3 * t / 8, 3 * t / 16)
    [(logits, _)] = policy.forward_teacher([np.zeros((2, 1))], [[0]], params, cfg)[1]
    for row, d in zip(logits, states):
        assert row == pytest.approx([v * math.tanh(w1 * k + w2 * d + b) for k in keys],
                                    abs=1e-12)


def test_forward_teacher_emits_k_plus_one():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((8, 6))
    params = policy.init_params(6, SMALL)
    loss, [(logits, task)] = policy.forward_teacher([feats], [[2, 5, 1]], params, SMALL)
    assert logits.shape == (4, 9)  # K+1 distributions over n+1 slots
    assert task is None
    assert loss.value.shape == ()


def test_forward_teacher_localize_head():
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode="localize")
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((8, 6))
    params = policy.init_params(6, cfg)
    [(_, task)] = policy.forward_teacher([feats], [[0, 3]], params, cfg)[1]
    assert task.shape == (8,)  # no stop slot
    assert abs(ad.softmax(task).sum() - 1.0) < 1e-12


def test_forward_teacher_validates_steps():
    params = policy.init_params(6, SMALL)
    with pytest.raises(ValueError):
        policy.forward_teacher([np.zeros((3, 6))], [[]], params, SMALL)
    with pytest.raises(IndexError):
        policy.forward_teacher([np.zeros((3, 6))], [[5]], params, SMALL)
    # Task labels out of range for the head: no silent negative indexing.
    for cfg, label in ((BCConfig(task_mode="classify", n_classes=2, **TINY), 2),
                       (BCConfig(task_mode="localize", **TINY), 3),
                       (BCConfig(task_mode="localize", **TINY), -1)):
        with pytest.raises(IndexError, match="task label"):
            policy.forward_teacher([np.zeros((3, 6))], [[1]], policy.init_params(6, cfg), cfg,
                                   [label])


@st.composite
def trajectory_cases(draw):
    """(steps, n tokens, label, task mode), with values at and just past each bound."""
    n = draw(st.integers(0, 6))
    steps = draw(st.lists(st.integers(-1, n), max_size=5))
    label = draw(st.none() | st.integers(-1, max(n, 3)))
    return steps, n, label, draw(st.sampled_from([policy.TASK_NONE, policy.TASK_CLASSIFY,
                                                  policy.TASK_LOCALIZE]))


@given(trajectory_cases())
@example(([0, 1], 2, 3, policy.TASK_CLASSIFY))
@example(([0, 1], 2, 2, policy.TASK_CLASSIFY))
@example(([0, 1], 2, 2, policy.TASK_LOCALIZE))
@example(([0, 1], 2, 1, policy.TASK_LOCALIZE))
@example(([0, 1], 2, -1, policy.TASK_LOCALIZE))
@example(([0, 2], 2, None, policy.TASK_NONE))
@settings(max_examples=400, deadline=None)
def test_check_trajectory_rejects_exactly_what_the_head_cannot_train_on(case):
    steps, n, label, task_mode = case
    cfg = BCConfig(task_mode=task_mode, n_classes=3, **TINY)
    slots = {policy.TASK_CLASSIFY: 3, policy.TASK_LOCALIZE: n}.get(task_mode)
    bad = (not steps or any(not 0 <= s < n for s in steps)
           or (label is not None and slots is not None and not 0 <= label < slots))
    try:
        policy.check_trajectory(steps, n, label, cfg, "trajectory t")
    except Exception as e:
        assert bad and isinstance(e, DataError), e
        assert str(e).startswith("trajectory t")
    else:
        assert not bad


def test_bc_loss_analytic_values():
    # single target, p(target)=0.5 over two slots -> ln 2
    logits = [Var(np.zeros(2))]
    loss = policy.bc_loss(logits, [], None, None, 1.0, 0.0, 1.0)
    assert float(loss.value) == pytest.approx(math.log(2), abs=1e-12)
    # uniform over 4 slots, 2 targets -> ln 4
    logits = [Var(np.zeros(4)), Var(np.zeros(4))]
    loss = policy.bc_loss(logits, [1], None, None, 1.0, 0.0, 1.0)
    assert float(loss.value) == pytest.approx(math.log(4), abs=1e-12)


def test_bc_loss_linear_in_weights():
    rng = np.random.default_rng(6)
    logits = [Var(rng.standard_normal(5)) for _ in range(3)]
    task = Var(rng.standard_normal(4))
    base = float(policy.bc_loss(logits, [0, 2], task, 1, 1.0, 1.0, 1.0).value)
    att = float(policy.bc_loss(logits, [0, 2], task, 1, 1.0, 0.0, 1.0).value)
    aux = float(policy.bc_loss(logits, [0, 2], task, 1, 0.0, 1.0, 1.0).value)
    assert att + aux == pytest.approx(base, abs=1e-12)
    doubled = float(policy.bc_loss(logits, [0, 2], task, 1, 2.0, 2.0, 1.0).value)
    assert doubled == pytest.approx(2 * base, abs=1e-12)
    weighted = float(policy.bc_loss(logits, [0, 2], task, 1, 1.0, 1.0, 0.3).value)
    assert weighted == pytest.approx(0.3 * base, abs=1e-12)


def test_bc_loss_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        logits = [Var(rng.standard_normal(6)) for _ in range(2)]
        assert float(policy.bc_loss(logits, [3], None, None, 1.0, 0.0).value) >= 0


def test_bc_loss_rejects_zero_weights():
    with pytest.raises(ValueError):
        policy.bc_loss([Var(np.zeros(2))], [0], None, None, 0.0, 0.0)


def test_full_policy_grad_check():
    rng = np.random.default_rng(8)
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode="classify", n_classes=3,
                   w_aux=1.0)
    feats = rng.standard_normal((6, 5)) * 4.0
    params = policy.init_params(5, cfg)
    for p in params.values():
        p.value = p.value * 6.0  # probe away from the tiny-gradient init regime

    def loss_fn(p):
        return policy.forward_teacher([feats], [[1, 4, 0]], p, cfg, [2])[0]

    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


def test_rollout_max_steps_and_determinism():
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((10, 6))
    params = policy.init_params(6, SMALL)
    steps, _ = policy.rollout(feats, params, max_steps=1)
    assert len(steps) <= 1
    a = policy.rollout(feats, params, max_steps=20)
    b = policy.rollout(feats, params, max_steps=20)
    assert a == b
    for max_steps in (0, sys.maxsize + 1):
        with pytest.raises(ValueError, match="max_steps must be between 1 and"):
            policy.rollout(feats, params, max_steps=max_steps)


def test_rollout_terminates_within_max_steps():
    rng = np.random.default_rng(10)
    for seed in range(5):
        cfg = BCConfig(d_emb=3, d_hidden=3, d_attn=3, seed=seed)
        feats = rng.standard_normal((7, 4))
        steps, _ = policy.rollout(feats, policy.init_params(4, cfg), max_steps=15)
        assert len(steps) <= 15


def test_argmax_invariant_to_logit_shift():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal(12)
    assert np.argmax(logits) == np.argmax(logits + 57.0)
    assert ad.softmax(logits) == pytest.approx(ad.softmax(logits + 57.0), abs=1e-12)


# ---------------------------------------------------------------------------
# The group node: its GRUs and pointers, then the whole pass per task head


def scaled_params(d_feat, cfg, factor=6.0):
    """Seeded parameters scaled up, away from the tiny-gradient init regime."""
    params = policy.init_params(d_feat, cfg)
    for p in params.values():
        p.value = p.value * factor
    return params


@pytest.mark.parametrize("T", [1, 5])
def test_gru_sequence_grad_check(T):
    # Both GRUs over a T-token snippet with T expert steps; T=1 is a
    # one-token snippet. The decoder starts from the encoder's final state,
    # so the gradient of its given start state must reach the encoder.
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((T, 3)) * 2.0
    steps = [int(i) for i in rng.integers(0, T, size=T)]
    params = scaled_params(3, SMALL)
    assert ad.grad_check(lambda p: policy.forward_teacher([feats], [steps], p, SMALL)[0],
                         params, eps=1e-5) <= 1e-4


def test_gru_sequence_rows_match_step_by_step_cell():
    # Bit for bit: the lockstep run's states, the cell stepped on one state
    # at a time, and the tape oracle's cell with two gate matmuls.
    rng = np.random.default_rng(13)
    params = policy.init_params(3, SMALL)
    pv = {k: v.value for k, v in params.items()}
    _, X, rows, run = policy.encode([rng.standard_normal((4, 3))], params)
    h, h_oracle = np.zeros(SMALL.d_hidden), np.zeros(SMALL.d_hidden)
    cell, zr = policy.gru_cell(pv, "enc", h.shape), 2 * SMALL.d_hidden
    for t, x in enumerate(policy.project_inputs(pv, "enc", X[rows[:, 0]])):
        policy.gru_step(cell, "enc", x[:zr], x[zr:], h, h)
        h_oracle = oracle.gru_step(pv, "enc", x, h_oracle)[0]
        assert (run.H[t + 1, 0] == h).all()
        assert (h == h_oracle).all()


@pytest.mark.parametrize("lengths", [[9], [6, 4, 7]], ids=["B=1", "ragged B=3"])
@pytest.mark.parametrize("factor", [1.0, 2.0, 4.0, 8.0])
def test_gru_runs_and_bptt_equal_the_fused_reference(lengths, factor, monkeypatch):
    # Bit for bit against the tape oracle's fused cell and backpropagation
    # through time, which allocate every operation's result: both GRUs'
    # states and gates, and the gradients of every weight, input row and
    # start state, with the backward in blocks of two steps. Parameters x8
    # with features x40 saturate the gates.
    rng = np.random.default_rng(41)
    cfg = BCConfig(d_emb=6, d_hidden=5, d_attn=7)
    monkeypatch.setattr(policy, "FACTOR_BLOCK", 2 * len(lengths) * cfg.d_hidden)
    params = scaled_params(5, cfg, factor)
    pv = {k: v.value for k, v in params.items()}
    features = [rng.standard_normal((n, 5)) * 5.0 * factor for n in lengths]
    _, X, _, enc = policy.encode(features, params)
    h0 = enc.H[lengths, np.arange(len(lengths))]
    dec = policy._gru_run(pv, "dec", X[rng.integers(0, len(X), size=5 * len(lengths))], h0)
    for prefix, run in (("enc", enc), ("dec", dec)):
        want = oracle.gru_run(pv, prefix, run.X, run.H[0], cell=oracle.fused_gru_step)
        for got, ref in zip(run[1:], want):
            assert np.array_equal(got, ref)
        G = rng.standard_normal(run.Z.shape)
        (grads, dX, dh0) = policy._gru_backward(pv, prefix, run, G.copy())
        (ref_grads, ref_dX, ref_dh0) = oracle.fused_gru_backward(pv, prefix, run, G.copy())
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            assert np.array_equal(grads[name], ref), name
        assert np.array_equal(dX, ref_dX) and np.array_equal(dh0, ref_dh0)
    if len(lengths) == 1:  # one state (H), as rollout runs, keeping states only
        for prefix, run in (("enc", enc), ("dec", dec)):
            states = policy._gru_run(pv, prefix, run.X, run.H[0, 0], gates=False)
            assert states.Z is None and states.X is None
            ref = oracle.gru_run(pv, prefix, run.X, run.H[0, 0], cell=oracle.fused_gru_step)[0]
            assert np.array_equal(states.H, ref)
    if factor == 8.0:  # sigmoids and tanhs rounded to their limits
        for run in (enc, dec):
            assert ((run.Z == 1.0) | (run.R == 1.0)).any() and (np.abs(run.C) == 1.0).any()


def pointer_problem(task_mode):
    """A group of two whose pointers take five and three steps over six and
    four tokens, with trajectory weights and loss weights other than 1."""
    rng = np.random.default_rng(14)
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode=task_mode, w_att=0.7, w_aux=1.3)
    features = [rng.standard_normal((6, 3)) * 2.0, rng.standard_normal((4, 3)) * 2.0]
    steps = [[5, 0, 2, 2], [3, 1]]
    params = scaled_params(3, cfg)

    def loss_fn(p):
        return policy.forward_teacher(features, steps, p, cfg, [4, 1], [1.5, 0.5])[0]

    return loss_fn, params


def test_pointer_attention_grad_check():
    loss_fn, params = pointer_problem("none")
    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


@pytest.mark.parametrize("with_stop", [True, False])
def test_pointer_attention_grad_check_in_blocks(with_stop, monkeypatch):
    # Two steps a block, so the first pointer's five steps take three
    # blocks, the last short. The pointer without the stop slot is the
    # localize head's.
    monkeypatch.setattr(policy, "POINTER_BLOCK", 2 * (6 + 1) * SMALL.d_attn)
    loss_fn, params = pointer_problem("none" if with_stop else "localize")
    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4
    assert with_stop or np.abs(params["v_loc"].grad).max() > 0


def test_softmax_cross_entropy_rows_grad_check_and_value():
    rng = np.random.default_rng(15)
    params = {"L": Var(rng.standard_normal((4, 7)) * 3.0)}
    targets = [6, 0, 3, 3]
    assert ad.grad_check(lambda p: ad.softmax_cross_entropy_rows(p["L"], targets),
                         params, eps=1e-5) <= 1e-4
    rows = sum(float(ad.softmax_cross_entropy(Var(params["L"].value[r]), t).value)
               for r, t in enumerate(targets))
    assert float(ad.softmax_cross_entropy_rows(params["L"], targets).value) == \
        pytest.approx(rows, rel=1e-12)


def test_full_policy_grad_check_localize_head():
    rng = np.random.default_rng(16)
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode="localize", w_aux=1.0)
    feats = rng.standard_normal((6, 5)) * 4.0
    params = scaled_params(5, cfg)
    steps = [1, 4, 1]  # a repeated step sends two gradients into one embedding row

    def loss_fn(p):
        return policy.forward_teacher([feats], [steps], p, cfg, [3])[0]

    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


@pytest.mark.parametrize("task_mode", ["none", "classify", "localize"])
def test_teacher_forcing_on_rollout_reproduces_it(task_mode):
    # The tape-free rollout and the teacher-forced group node share the
    # embedding, cell, keys, pointer scores and task head, so feeding a
    # rollout's own steps back must make every argmax pick the same step,
    # then stop, and the head read the rollout's task output.
    rng = np.random.default_rng(17)
    cfg = head_config(task_mode, d_emb=6, d_hidden=6, d_attn=6, seed=39)  # its rollout stops
    feats = rng.standard_normal((9, 5)) * 3.0
    params = scaled_params(5, cfg)
    steps, task_out = policy.rollout(feats, params, max_steps=30, task_mode=task_mode)
    assert len(set(steps)) >= 3 and len(steps) < 30
    [(logits, task_logits)] = policy.forward_teacher([feats], [steps], params, cfg)[1]
    assert list(np.argmax(logits, axis=1)) == steps + [9]
    assert task_out == (None if task_logits is None else int(np.argmax(task_logits)))
    assert (task_out is None) == (task_mode == "none")


def head_config(task_mode, **kwargs):
    return BCConfig(task_mode=task_mode, n_classes=3 if task_mode == "classify" else 0,
                    **kwargs)


@pytest.mark.parametrize("task_mode", ["none", "classify", "localize"])
def test_rollout_matches_two_matmul_cell(task_mode):
    # Greedy rollouts with the fused z/r gate choose the steps and task
    # outputs of the tape oracle's two-matmul cell: 100 per head, over
    # snippets of 1 to 11 tokens.
    rng = np.random.default_rng(21)
    stops = 0
    for seed in range(100):
        cfg = head_config(task_mode, d_emb=6, d_hidden=6, d_attn=6, seed=seed)
        params = scaled_params(5, cfg, factor=rng.uniform(1.0, 8.0))
        feats = rng.standard_normal((int(rng.integers(1, 12)), 5)) * 3.0
        rolled = policy.rollout(feats, params, 30, task_mode)
        assert rolled == oracle.rollout(feats, params, 30, task_mode)
        stops += len(rolled[0]) < 30
    assert 0 < stops < 100  # both stops and runs to max_steps are covered


CYCLE_DIMS = dict(d_emb=6, d_hidden=6, d_attn=6)


def cycle_params(seed, factor, task_mode="none"):
    # The task head's parameters are drawn last, so every head decodes alike.
    return scaled_params(5, head_config(task_mode, **CYCLE_DIMS, seed=seed), factor)


def policy_inputs(feats, params, max_steps):
    """Each step's decoder input (token, state) under the policy's own cell,
    decoding every step: these are the inputs the cycle skip compares."""
    inputs = []
    oracle.rollout(feats, params, max_steps, inputs=inputs, cell=oracle.fused_gru_step)
    return inputs


def first_repeat(inputs):
    """(mu, lambda): step mu + lambda is fed the input step mu was, bit for bit."""
    seen = {}
    for t, (a, d) in enumerate(inputs):
        first = seen.setdefault((a, d.tobytes()), t)
        if first != t:
            return first, t - first
    return None


@pytest.fixture(scope="module")
def decoding_cases():
    """Seeded policies and snippets whose greedy decoding settles into a
    period-1 cycle, settles into one of period 3 or more, or stops after
    several steps. Each kind maps to (seed, parameter scale, features,
    (mu, lambda)); a stop at step s is given as (s, 1)."""
    # The rollout of test_teacher_forcing_on_rollout_reproduces_it stops.
    feats = np.random.default_rng(17).standard_normal((9, 5)) * 3.0
    steps, _ = oracle.rollout(feats, cycle_params(39, 6.0), 400)
    assert len(set(steps)) >= 3 and len(steps) < 400
    cases = {"stops": (39, 6.0, feats, (len(steps) + 1, 1))}
    rng = np.random.default_rng(23)
    for seed in range(100):
        factor = rng.uniform(2.0, 8.0)
        feats = rng.standard_normal((int(rng.integers(2, 12)), 5)) * 3.0
        cycle = first_repeat(policy_inputs(feats, cycle_params(seed, factor), 400))
        if cycle is not None and cycle[1] != 2 and cycle[0] < 200:
            cases.setdefault("period 1" if cycle[1] == 1 else "period > 2",
                             (seed, factor, feats, cycle))
        if len(cases) == 3:
            return cases
    raise AssertionError(f"only {sorted(cases)} among the seeded rollouts")


def count_decoder_steps(monkeypatch):
    calls = {"dec": 0, "enc": 0}
    step = policy.gru_step

    def counted(cell, prefix, *args):
        calls[prefix] += 1
        return step(cell, prefix, *args)

    monkeypatch.setattr(policy, "gru_step", counted)
    return calls


@pytest.mark.parametrize("kind", ["period 1", "period > 2", "stops"])
@pytest.mark.parametrize("task_mode", ["none", "classify", "localize"])
def test_rollout_cycle_skip_matches_oracle(decoding_cases, kind, task_mode):
    # The oracle decodes every step. Every max_steps up to three periods
    # past the cycle's start, or three steps past the stop, gives its steps
    # and task output.
    seed, factor, feats, (mu, lam) = decoding_cases[kind]
    params = cycle_params(seed, factor, task_mode)
    for max_steps in range(1, mu + 3 * lam + 1):
        assert (policy.rollout(feats, params, max_steps, task_mode)
                == oracle.rollout(feats, params, max_steps, task_mode)), max_steps


@pytest.mark.parametrize("kind", ["period 1", "period > 2"])
def test_rollout_steps_each_cycle_once(decoding_cases, kind, monkeypatch):
    seed, factor, feats, (mu, lam) = decoding_cases[kind]
    params = cycle_params(seed, factor, "classify")
    calls = count_decoder_steps(monkeypatch)
    rolled = policy.rollout(feats, params, 10_000, "classify")
    assert calls["dec"] <= mu + lam
    assert len(rolled[0]) == 10_000
    assert rolled == oracle.rollout(feats, params, 10_000, "classify")


def test_rollout_final_state_follows_the_cycle(decoding_cases, monkeypatch):
    # The task heads read the state the cycle is in after max_steps steps:
    # the localize head's query is that state's, bit for bit, at every phase.
    seed, factor, feats, (mu, lam) = decoding_cases["period > 2"]
    params = cycle_params(seed, factor, "localize")
    inputs = policy_inputs(feats, params, mu + 3 * lam + 1)
    queries = []
    scores = policy.pointer_scores
    monkeypatch.setattr(policy, "pointer_scores",
                        lambda P, q, v: queries.append(q) or scores(P, q, v))
    for max_steps in range(1, mu + 3 * lam + 1):
        policy.rollout(feats, params, max_steps, "localize")
        assert np.array_equal(queries[-1], inputs[max_steps][1] @ params["W2"].value)


def test_rollout_cycle_longer_than_window_is_decoded_in_full(decoding_cases, monkeypatch):
    seed, factor, feats, (mu, lam) = decoding_cases["period > 2"]
    params = cycle_params(seed, factor, "classify")
    calls = count_decoder_steps(monkeypatch)
    horizon = mu + 3 * lam
    monkeypatch.setattr(policy, "CYCLE_WINDOW", lam - 1)
    for max_steps in range(1, horizon + 1):
        calls["dec"] = 0
        assert (policy.rollout(feats, params, max_steps, "classify")
                == oracle.rollout(feats, params, max_steps, "classify")), max_steps
        assert calls["dec"] == max_steps
    monkeypatch.setattr(policy, "CYCLE_WINDOW", lam)
    calls["dec"] = 0
    assert (policy.rollout(feats, params, horizon, "classify")
            == oracle.rollout(feats, params, horizon, "classify"))
    assert calls["dec"] == mu + lam


def count_pointer_scores(monkeypatch):
    calls = {"pointer": 0}
    scores = policy.pointer_scores

    def counted(P, q, v):
        calls["pointer"] += 1
        return scores(P, q, v)

    monkeypatch.setattr(policy, "pointer_scores", counted)
    return calls


@pytest.mark.parametrize("task_mode", ["none", "classify", "localize"])
def test_rollout_skipping_scores_matches_oracle_on_random_policies(task_mode, monkeypatch):
    # The oracle scores every slot on every step, with the policy's own
    # cell, so its steps and task output are the ones `rollout` must give
    # bit for bit: 300 policies per head, over network widths 2 to 8,
    # parameter scales 0.5 to 10, snippets of 1 to 13 tokens and max_steps
    # 1 to 300.
    rng = np.random.default_rng(31)
    calls, scored = count_decoder_steps(monkeypatch), count_pointer_scores(monkeypatch)
    skipped = 0
    for seed in range(300):
        d_emb, d_hidden, d_attn = (int(d) for d in rng.integers(2, 9, size=3))
        cfg = head_config(task_mode, d_emb=d_emb, d_hidden=d_hidden, d_attn=d_attn, seed=seed)
        params = scaled_params(5, cfg, factor=rng.uniform(0.5, 10.0))
        feats = rng.standard_normal((int(rng.integers(1, 14)), 5)) * 3.0
        max_steps = int(rng.integers(1, 301))
        calls["dec"] = scored["pointer"] = 0
        rolled = policy.rollout(feats, params, max_steps, task_mode)
        skipped += scored["pointer"] < calls["dec"]
        assert rolled == oracle.rollout(feats, params, max_steps, task_mode,
                                        cell=oracle.fused_gru_step), seed
    assert 30 < skipped < 270  # the scores were both skipped and computed throughout


def test_rollout_on_an_exact_tie_never_skips(monkeypatch):
    # With v = 0 every slot scores 0: slot 0 wins each tie, with no margin
    # to skip on, so every decoder step scores the slots.
    params = cycle_params(3, 4.0)
    params["v"].value = np.zeros_like(params["v"].value)
    feats = np.random.default_rng(37).standard_normal((6, 5)) * 3.0
    calls, scored = count_decoder_steps(monkeypatch), count_pointer_scores(monkeypatch)
    steps, _ = policy.rollout(feats, params, 50)
    assert steps == [0] * 50 == oracle.rollout(feats, params, 50)[0]
    assert scored["pointer"] == calls["dec"] > 1


def test_rollout_scores_only_steps_whose_slot_could_change(decoding_cases, monkeypatch):
    # A policy that picks the same slot step after step scores it on only
    # some of its decoder steps; one whose slot changes every step (the
    # rollout that stops) scores every step.
    calls, scored = count_decoder_steps(monkeypatch), count_pointer_scores(monkeypatch)
    seed, factor, feats, _ = decoding_cases["period 1"]
    policy.rollout(feats, cycle_params(seed, factor), 10_000)
    assert scored["pointer"] < calls["dec"]
    seed, factor, feats, _ = decoding_cases["stops"]
    calls["dec"] = scored["pointer"] = 0
    steps, _ = policy.rollout(feats, cycle_params(seed, factor), 400)
    assert all(a != b for a, b in zip(steps, steps[1:]))
    assert scored["pointer"] == calls["dec"] == len(steps) + 1


def drifting_policy(L=20.0):
    """A hand-set policy on two tokens whose decoder state, the query, runs
    in a straight line from the encoder's last state (0.675, -0.675)
    towards (-0.9, 0.9), whatever is fed. Slot 0's key (0, L) leaves only
    its first coordinate unsaturated, slot 1's (L, 0) only its second, and
    stop's is (-L, -L): slot 0 leads while q1 > q2, and each step closes
    the gap by nearly sum |v| |dq|, as much as any step can."""
    cfg = BCConfig(d_emb=2, d_hidden=2, d_attn=2)
    params = zero_params(3, cfg)
    c_enc, c_dec = np.array([0.9, -0.9]), np.array([-0.9, 0.9])
    # Biases alone: each GRU moves its state a fixed share z of the way to c.
    params["enc_bh"].value = np.arctanh(c_enc)                # z = 1/2
    params["dec_bh"].value = np.arctanh(c_dec)
    params["dec_bz"].value = np.full(2, np.log(0.05 / 0.95))  # z = 0.05
    e_0 = c_enc / 2
    e_1 = e_0 + (c_enc - e_0) / 2
    e_stop = np.array([0.5, 0.5])
    keys = np.linalg.solve(np.array([[*e_0, 1.0], [*e_1, 1.0], [*e_stop, 1.0]]),
                           np.array([[0.0, L], [L, 0.0], [-L, -L]]))
    params["W1"].value, params["b_a"].value = keys[:2], keys[2]
    params["e_stop"].value = e_stop
    params["W2"].value = np.eye(2)
    params["v"].value = np.ones(2)
    return params


def test_rollout_skips_up_to_a_slot_change_and_not_past_it(monkeypatch):
    # The bound leaves the scores out on most steps (7 of 40 are scored;
    # 12 under a bound twice as strict), but not on the step where slot 1
    # overtakes slot 0: a bound twice as loose misses it.
    params, feats = drifting_policy(), np.zeros((2, 3))
    calls, scored = count_decoder_steps(monkeypatch), count_pointer_scores(monkeypatch)
    steps, _ = policy.rollout(feats, params, 40)
    assert steps == [0] * 10 + [1] * 30
    assert scored["pointer"] < calls["dec"] // 4
    assert steps == oracle.rollout(feats, params, 40, cell=oracle.fused_gru_step)[0]


# ---------------------------------------------------------------------------
# Lockstep groups: padding must not change any trajectory's loss or gradient


RAGGED = [(6, [1, 4]), (4, [0, 3, 3, 1, 2]), (7, [6, 2, 5])]  # distinct n and K
WEIGHTS = [1.0, 0.5, 2.0, 1.5]


def ragged_group(rng, d_feat=5):
    return [rng.standard_normal((n, d_feat)) * 4.0 for n, _ in RAGGED], [s for _, s in RAGGED]


@pytest.mark.parametrize("task_mode,n_classes,labels", [
    ("classify", 3, [2, 0, 1]), ("localize", 0, [5, 1, 3])])
def test_ragged_group_grad_check(task_mode, n_classes, labels):
    rng = np.random.default_rng(18)
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode=task_mode, n_classes=n_classes,
                   w_aux=1.0)
    features, steps = ragged_group(rng)
    params = scaled_params(5, cfg)

    def loss_fn(p):
        return policy.forward_teacher(features, steps, p, cfg, labels, WEIGHTS[:3])[0]

    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


def run_groups(forward, cuts, features, steps, params, cfg, labels):
    """Summed loss, per-trajectory outputs and summed gradients over the
    given group cuts, with `forward` the group node or the tape oracle."""
    ad.zero_grads(params)
    total, outputs = 0.0, {}
    for group in cuts:
        def pick(seq):
            return [seq[i] for i in group]

        loss, group_out = forward(pick(features), pick(steps), params, cfg, pick(labels),
                                  pick(WEIGHTS))
        total += float(loss.value)
        outputs.update(zip(group, group_out))
        ad.backward(loss)
    return total, [outputs[i] for i in range(len(steps))], ad.collect_grads(params)


def assert_runs_agree(run, ref):
    """Losses, logits and gradients equal to float64 roundoff."""
    (loss, outputs, grads), (ref_loss, ref_outputs, ref_grads) = run, ref
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    for got, want in zip(outputs, ref_outputs):
        for g, w in zip(got, want):
            w = w.value if isinstance(w, Var) else w
            assert (g is None) == (w is None)
            if g is not None:
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
    for name, g in grads.items():
        assert np.linalg.norm(g - ref_grads[name]) <= 1e-12 * np.linalg.norm(ref_grads[name]), name


def four_trajectories(task_mode, seed):
    rng = np.random.default_rng(seed)
    cfg = head_config(task_mode, d_emb=6, d_hidden=5, d_attn=7, w_att=0.7, w_aux=1.3)
    features, steps = ragged_group(rng)
    features.append(rng.standard_normal((3, 5)))
    steps.append([2])
    return cfg, features, steps, scaled_params(5, cfg, factor=3.0)


@pytest.mark.parametrize("task_mode", ["none", "classify", "localize"])
def test_group_equals_one_trajectory_at_a_time(task_mode):
    # The group node differs from one trajectory at a time only in the
    # order of its sums, so results agree to float64 roundoff.
    cfg, features, steps, params = four_trajectories(task_mode, 19)
    labels = [0, 1, 2, 1]
    ref = run_groups(policy.forward_teacher, [[0], [1], [2], [3]], features, steps, params,
                     cfg, labels)
    for cuts in ([[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1, 2, 3]], [[0, 1, 2], [3]]):
        assert_runs_agree(run_groups(policy.forward_teacher, cuts, features, steps, params,
                                     cfg, labels), ref)


@pytest.mark.parametrize("task_mode", ["none", "classify", "localize"])
def test_group_node_matches_tape_oracle(task_mode, monkeypatch):
    # The tape oracle is the per-trajectory path the group node replaced:
    # ragged groups, trajectory weights, w_att and w_aux other than 1, a
    # trajectory without a label, and pointers over several blocks.
    monkeypatch.setattr(policy, "POINTER_BLOCK", 2 * (7 + 1) * 7)
    cfg, features, steps, params = four_trajectories(task_mode, 20)
    labels = [0, None, 2, 1]
    for cuts in ([[0, 1, 2, 3]], [[0, 1], [2, 3]]):
        assert_runs_agree(
            run_groups(policy.forward_teacher, cuts, features, steps, params, cfg, labels),
            run_groups(oracle.group_loss, cuts, features, steps, params, cfg, labels))


def test_full_read_memory_is_bounded():
    # A 721-step full read of a 721-token snippet. The group node keeps no
    # steps x keys x d_attn array (266 MB here): it takes the pointer
    # gradients block by block in the forward, so the peak stays small.
    import tracemalloc

    from codegaze import synth
    from codegaze.features import FeatureSpec, build_vocab, featurize

    snippet = synth.gen_snippet(synth.GeneratorConfig(seed=3, lines_min=120, lines_max=120), 0)
    steps = synth.linear_reader(snippet).steps
    feats = featurize(snippet, FeatureSpec(mode="onehot_pos"), build_vocab([snippet]))
    params = policy.init_params(feats.shape[1], BCConfig())
    assert len(steps) == 721
    tracemalloc.start()
    try:
        loss, _ = policy.forward_teacher([feats], [steps], params, BCConfig())
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert all(np.isfinite(p.grad).all() for p in params.values())


def skim_group():
    """The first eight keyword-skimmer trajectories of a 12-16-line corpus
    (73-97 tokens each) with their `onehot_pos` features."""
    from codegaze import synth
    from codegaze.features import FeatureSpec, build_vocab, featurize

    gen = synth.GeneratorConfig(seed=41, n_snippets=8, lines_min=12, lines_max=16)
    snippets = [synth.gen_snippet(gen, i) for i in range(8)]
    vocab = build_vocab(snippets)
    steps = [synth.keyword_skimmer(sn, gen.keyword_set()).steps for sn in snippets]
    return [featurize(sn, FeatureSpec(mode="onehot_pos"), vocab) for sn in snippets], steps


def test_skim_group_memory_is_bounded():
    # One lockstep group of eight skimmer trajectories, 776 padded rows.
    # Token ids in place of one-hot rows, gates written over the gate
    # inputs and BPTT factors formed a block of steps at a time hold
    # forward plus backward to about 3.7 MB (5.05 MB with dense one-hot
    # rows and whole-run gate and factor arrays).
    import tracemalloc

    features, steps = skim_group()
    assert max(f.shape[0] for f in features) * len(features) == 776
    params = policy.init_params(features[0].shape[1], BCConfig())
    tracemalloc.start()
    try:
        loss, _ = policy.forward_teacher(features, steps, params, BCConfig())
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


def test_skim_group_backward_frees_the_key_gradient():
    # The group's backward drops the key and query gradients once it has
    # formed their products, before both backpropagations through time, so
    # forward plus backward peaks about 0.4 MB lower (3.64 MB kept them).
    # Its node's backward then runs only once.
    import tracemalloc

    features, steps = skim_group()
    params = policy.init_params(features[0].shape[1], BCConfig())
    tracemalloc.start()
    try:
        loss, _ = policy.forward_teacher(features, steps, params, BCConfig())
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.4e6
    with pytest.raises(RuntimeError, match="ran already"):
        loss._backward(1.0)


def dense(F):
    """The (n, dim) matrix that token ids F stand for."""
    D = np.zeros(F.shape)
    D[np.arange(F.shape[0]), F.ids] = 1.0
    D[:, F.dim - F.pos.shape[1]:] = F.pos
    return D


def id_group(mode, rng, vocab=9):
    """Token-id features of the RAGGED lengths, with their steps."""
    from codegaze.features import TokenIds

    k = 2 if mode == "onehot_pos" else 0
    features = [TokenIds(rng.integers(0, vocab, n), rng.random((n, k)), vocab + k)
                for n, _ in RAGGED]
    return features, [s for _, s in RAGGED]


@pytest.mark.parametrize("mode", ["onehot", "onehot_pos"])
def test_id_embedding_equals_dense_product(mode):
    rng = np.random.default_rng(21)
    features, _ = id_group(mode, rng)
    pv = {k: v.value for k, v in scaled_params(features[0].dim, BCConfig()).items()}
    F, X = policy.embed(features, pv)
    want = np.concatenate([np.concatenate([dense(f) for f in features]) @ pv["W_in"],
                           pv["x_start"][None, :]])
    if mode == "onehot":  # a one-hot row times W_in copies the row exactly
        assert (X == want).all()
    else:
        assert np.abs(X - want).max() <= 1e-15 * np.abs(want).max()
    assert F.shape == (sum(n for n, _ in RAGGED), features[0].dim)


@pytest.mark.parametrize("mode", ["onehot", "onehot_pos"])
def test_id_embedding_gradient_equals_dense_product(mode):
    # Repeated ids across a ragged group: W_in's gradient adds dX's rows by
    # id, where the dense path multiplies by the one-hot matrix.
    rng = np.random.default_rng(22)
    features, steps = id_group(mode, rng, vocab=4)
    cfg = BCConfig(d_emb=6, d_hidden=5, d_attn=7)
    grads = []
    for feats in (features, [dense(f) for f in features]):
        params = scaled_params(features[0].dim, cfg, factor=3.0)
        ad.backward(policy.forward_teacher(feats, steps, params, cfg)[0])
        grads.append(params["W_in"].grad)
    got, want = grads
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_onehot_pos_grad_check():
    rng = np.random.default_rng(23)
    features, steps = id_group("onehot_pos", rng, vocab=5)
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode="classify", n_classes=3, w_aux=1.0)
    params = scaled_params(features[0].dim, cfg)

    def loss_fn(p):
        return policy.forward_teacher(features, steps, p, cfg, [2, 0, 1], WEIGHTS[:3])[0]

    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("task_mode,n_classes,labels", [
    ("none", 0, [None, None]), ("classify", 3, [2, 0]), ("localize", 0, [5, 1])])
def test_saturated_parameters_stay_finite(task_mode, n_classes, labels, seed):
    # Parameters x1e4 and features x100 saturate every gate and tanh. The
    # only numpy warning allowed is the sigmoid's exp overflow, which rounds
    # the gate to its exact limit.
    rng = np.random.default_rng(seed)
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, seed=seed, task_mode=task_mode,
                   n_classes=n_classes, w_aux=1.0)
    features = [rng.standard_normal((n, 5)) * 100.0 for n, _ in RAGGED[:2]]
    steps = [s for _, s in RAGGED[:2]]
    params = scaled_params(5, cfg, factor=1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "overflow encountered in exp", RuntimeWarning,
                                "codegaze.policy")
        loss, _ = policy.forward_teacher(features, steps, params, cfg, labels, [1.0, 0.5])
        ad.backward(loss)
        rollouts = [policy.rollout(f, params, 40, task_mode) for f in features]
    assert np.isfinite(loss.value)
    for name, grad in ad.collect_grads(params).items():
        assert np.isfinite(grad).all(), name
    for f, (rolled, task_out) in zip(features, rollouts):
        assert len(rolled) <= 40 and all(0 <= s < f.shape[0] for s in rolled)
        if task_mode == "classify":
            assert 0 <= task_out < n_classes
        elif task_mode == "localize":
            assert 0 <= task_out < f.shape[0]
