import math
from functools import reduce

import numpy as np
import pytest

from codegaze import autodiff as ad
from codegaze import policy
from codegaze.autodiff import Var
from codegaze.policy import BCConfig


def zero_params(d_feat, cfg):
    params = policy.init_params(d_feat, cfg)
    for p in params.values():
        p.value = np.zeros_like(p.value)
    return params


SMALL = BCConfig(d_emb=4, d_hidden=4, d_attn=4)


def test_config_validation():
    with pytest.raises(ValueError):
        BCConfig(w_att=0.0, w_aux=0.0)
    with pytest.raises(ValueError):
        BCConfig(task_mode="classify", n_classes=0)
    with pytest.raises(ValueError):
        BCConfig(task_mode="bogus")


def test_init_within_range_and_seeded():
    a = policy.init_params(6, SMALL)
    b = policy.init_params(6, SMALL)
    for name in a:
        assert (np.abs(a[name].value) <= policy.INIT_RANGE).all()
        assert (a[name].value == b[name].value).all()


def test_encode_zero_params_gives_zero_states():
    rng = np.random.default_rng(0)
    E, h_n, _ = policy.encode([rng.standard_normal((5, 6))], zero_params(6, SMALL))
    assert (E.value == 0).all()
    assert (h_n.value == 0).all()


def test_encode_single_token():
    rng = np.random.default_rng(1)
    E, h_n, _ = policy.encode([rng.standard_normal((1, 6))], policy.init_params(6, SMALL))
    assert E.value.shape == (1, SMALL.d_hidden)
    assert E.value[0] == pytest.approx(h_n.value[0])


def test_encode_rejects_empty():
    with pytest.raises(ValueError):
        policy.encode([np.zeros((0, 6))], policy.init_params(6, SMALL))


def test_encode_is_order_sensitive():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((6, 6))
    params = policy.init_params(6, SMALL)
    E_fwd, _, _ = policy.encode([feats], params)
    E_rev, _, _ = policy.encode([feats[::-1].copy()], params)
    assert not np.allclose(E_fwd.value[-1], E_rev.value[-1])


def test_decode_step_uniform_for_zero_params():
    params = zero_params(6, SMALL)
    E, _, _ = policy.encode([np.ones((4, 6))], params)
    dist = policy.decode_step(Var(np.zeros(SMALL.d_hidden)), E, params)
    assert dist == pytest.approx(np.full(5, 1 / 5), abs=1e-12)


def test_decode_step_sums_to_one():
    rng = np.random.default_rng(3)
    params = policy.init_params(6, SMALL)
    E, _, _ = policy.encode([rng.standard_normal((7, 6))], params)
    for _ in range(20):
        dist = policy.decode_step(Var(rng.standard_normal(SMALL.d_hidden)), E, params)
        assert abs(dist.sum() - 1.0) < 1e-12
        assert (dist >= 0).all()


def test_decode_step_matches_hand_computed_softmax():
    # 1-dimensional tensors so the three logits can be computed by hand:
    # u_j = v * tanh(w1*k_j + w2*d + b), keys = [e1, e2, e_stop]
    cfg = BCConfig(d_emb=1, d_hidden=1, d_attn=1)
    params = policy.init_params(1, cfg)
    w1, w2, v, b = 0.5, -0.3, 1.2, 0.1
    params["W1"].value = np.array([[w1]])
    params["W2"].value = np.array([[w2]])
    params["v"].value = np.array([v])
    params["b_a"].value = np.array([b])
    params["e_stop"].value = np.array([0.7])
    E = Var(np.array([[0.2], [-0.4]]))
    d = 0.9
    expected_logits = [v * math.tanh(w1 * k + w2 * d + b) for k in (0.2, -0.4, 0.7)]
    z = np.exp(expected_logits - np.max(expected_logits))
    dist = policy.decode_step(Var(np.array([d])), E, params)
    assert dist == pytest.approx(z / z.sum(), abs=1e-12)


def test_forward_teacher_emits_k_plus_one():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((8, 6))
    params = policy.init_params(6, SMALL)
    [(logits, task)] = policy.forward_teacher([feats], [[2, 5, 1]], params, "none")
    assert logits.value.shape == (4, 9)  # K+1 distributions over n+1 slots
    assert task is None


def test_forward_teacher_localize_head():
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode="localize")
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((8, 6))
    params = policy.init_params(6, cfg)
    [(_, task)] = policy.forward_teacher([feats], [[0, 3]], params, "localize")
    assert task.value.shape == (8,)  # no stop slot
    assert abs(ad.softmax(task.value).sum() - 1.0) < 1e-12


def test_forward_teacher_validates_steps():
    params = policy.init_params(6, SMALL)
    with pytest.raises(ValueError):
        policy.forward_teacher([np.zeros((3, 6))], [[]], params)
    with pytest.raises(IndexError):
        policy.forward_teacher([np.zeros((3, 6))], [[5]], params)


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
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode="classify", n_classes=3)
    feats = rng.standard_normal((6, 5)) * 4.0
    params = policy.init_params(5, cfg)
    for p in params.values():
        p.value = p.value * 6.0  # probe away from the tiny-gradient init regime

    def loss_fn(p):
        [(logits, task)] = policy.forward_teacher([feats], [[1, 4, 0]], p, "classify")
        return policy.bc_loss(logits, [1, 4, 0], task, 2, 1.0, 1.0)

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
    with pytest.raises(ValueError):
        policy.rollout(feats, params, max_steps=0)


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
# Fused nodes: each alone, then the whole teacher-forced pass per task head


def scaled_params(d_feat, cfg, factor=6.0):
    """Seeded parameters scaled up, away from the tiny-gradient init regime."""
    params = policy.init_params(d_feat, cfg)
    for p in params.values():
        p.value = p.value * factor
    return params


@pytest.mark.parametrize("T", [1, 5])
def test_gru_sequence_grad_check(T):
    rng = np.random.default_rng(12)
    params = {k: v for k, v in scaled_params(3, SMALL).items() if k.startswith("dec_")}
    params["X"] = Var(rng.standard_normal((T, SMALL.d_emb)) * 2.0)
    params["h0"] = Var(rng.standard_normal(SMALL.d_hidden))
    targets = rng.integers(0, SMALL.d_hidden, size=T)

    def loss_fn(p):
        states = policy.gru_sequence(p, "dec", p["X"], p["h0"])
        return ad.softmax_cross_entropy_rows(ad.scale(states, 3.0), targets)

    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


def test_gru_sequence_rows_match_step_by_step_cell():
    rng = np.random.default_rng(13)
    params = policy.init_params(3, SMALL)
    X = rng.standard_normal((4, SMALL.d_emb))
    states = policy.gru_sequence(params, "enc", Var(X)).value
    pv = {k: v.value for k, v in params.items()}
    h = np.zeros(SMALL.d_hidden)
    for t, x in enumerate(policy.project_inputs(pv, "enc", X)):
        h = policy.gru_step(pv, "enc", x, h)[0]
        assert (states[t] == h).all()


def pointer_problem(with_stop):
    """The action pointer (stop slot, v) or the localize pointer (no stop, v_loc)."""
    rng = np.random.default_rng(14)
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode="localize")
    score_vec = "v" if with_stop else "v_loc"
    params = {k: v for k, v in scaled_params(3, cfg).items()
              if k in ("W1", "b_a", "W2", score_vec, "e_stop")}
    params["E"] = Var(rng.standard_normal((6, SMALL.d_hidden)) * 2.0)
    params["D"] = Var(rng.standard_normal((5, SMALL.d_hidden)) * 2.0)
    targets = rng.integers(0, 6, size=5)

    def loss_fn(p):
        return ad.softmax_cross_entropy_rows(
            policy.pointer_attention(p["E"], p["D"], p, score_vec, with_stop), targets)

    return loss_fn, params


def test_pointer_attention_grad_check():
    loss_fn, params = pointer_problem(with_stop=True)
    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


@pytest.mark.parametrize("with_stop", [True, False])
def test_pointer_attention_grad_check_in_blocks(with_stop, monkeypatch):
    # Two steps a block, so the five steps take three blocks, the last short.
    monkeypatch.setattr(policy, "POINTER_BLOCK", 2 * (6 + with_stop) * SMALL.d_attn)
    loss_fn, params = pointer_problem(with_stop)
    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4
    assert (params["e_stop"].grad is None) == (not with_stop)


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
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode="localize")
    feats = rng.standard_normal((6, 5)) * 4.0
    params = scaled_params(5, cfg)
    steps = [1, 4, 1]  # a repeated step sends two gradients into one embedding row

    def loss_fn(p):
        [(logits, task)] = policy.forward_teacher([feats], [steps], p, "localize")
        return policy.bc_loss(logits, steps, task, 3, 1.0, 1.0)

    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


def test_teacher_forcing_on_rollout_reproduces_it():
    # The tape-free rollout and the fused teacher-forced pass share one cell
    # and one pointer-score function, so feeding a rollout's own steps back
    # must make every argmax pick the same step, then stop.
    rng = np.random.default_rng(17)
    cfg = BCConfig(d_emb=6, d_hidden=6, d_attn=6, seed=39)  # a seed whose rollout stops
    feats = rng.standard_normal((9, 5)) * 3.0
    params = scaled_params(5, cfg)
    steps, _ = policy.rollout(feats, params, max_steps=30)
    assert len(set(steps)) >= 3 and len(steps) < 30
    [(logits, _)] = policy.forward_teacher([feats], [steps], params)
    assert list(np.argmax(logits.value, axis=1)) == steps + [9]


# ---------------------------------------------------------------------------
# Lockstep groups: padding must not change any trajectory's loss or gradient


RAGGED = [(6, [1, 4]), (4, [0, 3, 3, 1, 2]), (7, [6, 2, 5])]  # distinct n and K
WEIGHTS = [1.0, 0.5, 2.0, 1.5]


def ragged_group(rng, d_feat=5):
    return [rng.standard_normal((n, d_feat)) * 4.0 for n, _ in RAGGED], [s for _, s in RAGGED]


def group_losses(features, steps, p, task_mode, labels, weights):
    return [policy.bc_loss(logits, s, task, label, 1.0, 1.0, weight)
            for (logits, task), s, label, weight in zip(
                policy.forward_teacher(features, steps, p, task_mode), steps, labels, weights)]


@pytest.mark.parametrize("task_mode,n_classes,labels", [
    ("classify", 3, [2, 0, 1]), ("localize", 0, [5, 1, 3])])
def test_ragged_group_grad_check(task_mode, n_classes, labels):
    rng = np.random.default_rng(18)
    cfg = BCConfig(d_emb=4, d_hidden=4, d_attn=4, task_mode=task_mode, n_classes=n_classes)
    features, steps = ragged_group(rng)
    params = scaled_params(5, cfg)

    def loss_fn(p):
        return reduce(ad.add, group_losses(features, steps, p, task_mode, labels, WEIGHTS))

    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-4


def run_groups(cuts, features, steps, params, task_mode, labels):
    """Per-trajectory losses and summed gradients over the given group cuts."""
    ad.zero_grads(params)
    losses = []
    for group in cuts:
        def pick(seq):
            return [seq[i] for i in group]

        group_l = group_losses(pick(features), pick(steps), params, task_mode,
                               pick(labels), pick(WEIGHTS))
        losses += [float(l.value) for l in group_l]
        ad.backward(reduce(ad.add, group_l))
    return np.array(losses), ad.collect_grads(params)


@pytest.mark.parametrize("task_mode", ["none", "classify", "localize"])
def test_group_equals_one_trajectory_at_a_time(task_mode):
    # The group function differs from one trajectory at a time only in the
    # order of its sums, so results agree to float64 roundoff.
    rng = np.random.default_rng(19)
    cfg = BCConfig(d_emb=6, d_hidden=5, d_attn=7, task_mode=task_mode,
                   n_classes=3 if task_mode == "classify" else 0)
    features, steps = ragged_group(rng)
    features.append(rng.standard_normal((3, 5)))
    steps.append([2])
    labels = [0, 1, 2, 1]
    params = scaled_params(5, cfg, factor=3.0)
    ref_losses, ref_grads = run_groups([[0], [1], [2], [3]], features, steps, params,
                                       task_mode, labels)
    for cuts in ([[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1, 2, 3]], [[0, 1, 2], [3]]):
        losses, grads = run_groups(cuts, features, steps, params, task_mode, labels)
        assert np.abs(losses - ref_losses).max() <= 1e-12 * np.abs(ref_losses).max()
        for name, g in grads.items():
            assert np.linalg.norm(g - ref_grads[name]) <= 1e-12 * np.linalg.norm(ref_grads[name]), name


def test_full_read_memory_is_bounded():
    # A 721-step full read of a 721-token snippet. The pointer node keeps no
    # steps x keys x d_attn array (266 MB here), so the peak stays small.
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
        [(logits, _)] = policy.forward_teacher([feats], [steps], params)
        ad.backward(policy.bc_loss(logits, steps, None, None, 1.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert all(np.isfinite(p.grad).all() for p in params.values())
