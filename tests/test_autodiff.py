import math

import numpy as np
import pytest

from codegaze import autodiff as ad
from codegaze import policy
from codegaze.autodiff import ShapeError, Var

import tape_oracle as oracle


def test_tanh_sigmoid_at_zero():
    assert ad.tanh(Var(np.zeros(3))).value == pytest.approx([0, 0, 0])
    assert ad.sigmoid(Var(np.zeros(3))).value == pytest.approx([0.5, 0.5, 0.5])


def test_uniform_softmax_cross_entropy():
    for k in (2, 5, 17):
        loss = ad.softmax_cross_entropy(Var(np.zeros(k)), 0)
        assert float(loss.value) == pytest.approx(math.log(k), abs=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = ad.softmax(rng.standard_normal(rng.integers(2, 30)))
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p >= 0).all()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(9)
    assert ad.softmax(x) == pytest.approx(ad.softmax(x + 123.456), abs=1e-12)


def test_matmul_shapes():
    out = ad.matmul(Var(np.ones((2, 3))), Var(np.ones((3, 4))))
    assert out.value.shape == (2, 4)
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Var(np.ones((2, 3))), Var(np.ones((4, 4))))


def test_add_shape_mismatch_named():
    with pytest.raises(ShapeError, match="add"):
        ad.add(Var(np.ones(3)), Var(np.ones(4)))


def test_backward_sum_gives_ones():
    p = Var(np.arange(5, dtype=float))
    loss = ad.matmul(p, Var(np.ones(5)))
    ad.backward(loss)
    assert p.grad == pytest.approx(np.ones(5))


def test_unused_parameter_gets_zero_gradient():
    used = Var(np.ones(3))
    unused = Var(np.ones(4))
    loss = ad.matmul(used, Var(np.ones(3)))
    ad.backward(loss)
    grads = ad.collect_grads({"used": used, "unused": unused})
    assert grads["unused"] == pytest.approx(np.zeros(4))


def test_backward_rejects_non_scalar():
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(Var(np.ones(2)))


def test_gradient_accumulates_across_uses():
    p = Var(np.array([2.0, 3.0]))
    # loss = p . p  -> grad = 2p
    loss = ad.matmul(p, p)
    ad.backward(loss)
    assert p.grad == pytest.approx([4.0, 6.0])


def test_grad_check_linear_loss():
    params = {"p": Var(np.array([1.0, -2.0, 0.5]))}
    err = ad.grad_check(lambda p: ad.matmul(p["p"], Var(np.array([3.0, 1.0, -1.0]))),
                        params, eps=1e-5)
    assert err <= 1e-10


def test_grad_check_rejects_zero_eps():
    params = {"p": Var(np.ones(2))}
    with pytest.raises(ValueError):
        ad.grad_check(lambda p: ad.matmul(p["p"], p["p"]), params, eps=0.0)


def test_grad_check_composite():
    rng = np.random.default_rng(3)
    params = {"A": Var(rng.standard_normal((4, 4))), "b": Var(rng.standard_normal(4))}

    def loss_fn(p):
        h = ad.tanh(ad.add(ad.matmul(Var(rng_x), p["A"]), p["b"]))
        return ad.softmax_cross_entropy(ad.mul(h, ad.sigmoid(h)), 2)

    rng_x = rng.standard_normal(4)
    assert ad.grad_check(loss_fn, params, eps=1e-5) <= 1e-6


def test_row_gather_and_concat_and_stack():
    m = Var(np.arange(6, dtype=float).reshape(3, 2))
    assert ad.row_gather(m, 1).value == pytest.approx([2, 3])
    with pytest.raises(ShapeError):
        ad.row_gather(m, 3)
    ext = ad.concat_rows(m, Var(np.array([9.0, 9.0])))
    assert ext.value.shape == (4, 2)
    st = ad.stack_rows([Var(np.zeros(2)), Var(np.ones(2))])
    assert st.value.shape == (2, 2)


def test_adam_zero_gradient_keeps_params():
    params = {"p": Var(np.array([1.0, 2.0]))}
    state = ad.adam_init(params)
    before = params["p"].value.copy()
    ad.adam_step(params, {"p": np.zeros(2)}, state)
    assert params["p"].value == pytest.approx(before)
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    # One step from zero moments: update = -lr * g/|g| regardless of |g|
    # (bias correction cancels), up to the epsilon in the denominator.
    params = {"p": Var(np.array([0.0]))}
    state = ad.adam_init(params, lr=1e-3, clip=0.0)
    ad.adam_step(params, {"p": np.array([7.5])}, state)
    assert float(params["p"].value[0]) == pytest.approx(-1e-3, rel=1e-6)
    params2 = {"p": Var(np.array([0.0]))}
    state2 = ad.adam_init(params2, lr=1e-3, clip=0.0)
    ad.adam_step(params2, {"p": np.array([-0.25])}, state2)
    assert float(params2["p"].value[0]) == pytest.approx(1e-3, rel=1e-5)


def test_gradient_clipping_at_global_norm():
    grads = {"a": np.array([6.0, 8.0])}  # norm 10, threshold 5
    params = {"a": Var(np.zeros(2))}
    state = ad.adam_init(params, clip=5.0)
    before = ad.global_norm(grads)
    assert before == pytest.approx(10.0)
    ad.adam_step(params, grads, state)
    # effective gradient was scaled to norm 5 -> moments reflect that
    assert np.hypot(*state.m["a"]) * 10 == pytest.approx(5.0)


def every_param_shape():
    """Each shape `policy.param_shapes` gives, over both task heads."""
    shapes = {}
    for mode in (policy.TASK_CLASSIFY, policy.TASK_LOCALIZE):
        shapes.update(policy.param_shapes(11, policy.BCConfig(task_mode=mode, n_classes=3)))
    return shapes


def test_adam_init_packs_the_values_into_one_buffer():
    rng = np.random.default_rng(2)
    params = {name: Var(rng.standard_normal(shape)) for name, shape in every_param_shape().items()}
    before = {name: p.value.copy() for name, p in params.items()}
    state = ad.adam_init(params)
    assert state.values.size == sum(a.size for a in before.values())
    for name, p in params.items():
        assert p.value.shape == before[name].shape
        assert p.value.tobytes() == before[name].tobytes()
        assert p.value.base is state.m[name].base is state.v[name].base is state.values.base
    assert state.moments.shape == state.scratch.shape == (2, state.values.size)
    assert state.moments.base is state.scratch.base is state.values.base


@pytest.mark.parametrize("clip", [0.0, 5.0])
def test_packed_adam_equals_per_parameter_adam(clip):
    # Gradients from 1e-3 to 1e3 times a standard normal: with clip 5 some
    # steps clip and some do not; x_start's gradient is all zeros, and W1's
    # is in Fortran order, which np.sum adds in another order.
    shapes = every_param_shape()
    rng = np.random.default_rng(3)
    params = {name: Var(rng.standard_normal(shape)) for name, shape in shapes.items()}
    ref = {name: p.value.copy() for name, p in params.items()}
    state = ad.adam_init(params, lr=0.01, clip=clip)
    ref_state = {"lr": 0.01, "clip": clip, "step": 0,
                 "m": {name: np.zeros(shape) for name, shape in shapes.items()},
                 "v": {name: np.zeros(shape) for name, shape in shapes.items()}}
    clipped = []
    for step in range(7):
        grads = {name: rng.standard_normal(shape) * 10.0 ** (step - 3)
                 for name, shape in shapes.items()}
        grads["x_start"] = np.zeros(shapes["x_start"])
        grads["W1"] = np.asfortranarray(grads["W1"])
        clipped.append(0 < clip < ad.global_norm(grads))
        ad.adam_step(params, grads, state)
        oracle.adam_step(ref, grads, ref_state)
        for name in shapes:
            assert params[name].value.tobytes() == ref[name].tobytes(), (step, name)
            assert state.m[name].tobytes() == ref_state["m"][name].tobytes(), (step, name)
            assert state.v[name].tobytes() == ref_state["v"][name].tobytes(), (step, name)
    assert (ref["x_start"] == params["x_start"].value).all()
    assert state.step == ref_state["step"] == 7
    assert any(clipped) == (clip > 0) and not all(clipped)


def test_global_norm_from_packed_squares():
    # Squares packed in C order give the same norm. np.sum adds a
    # Fortran-ordered gradient in memory order, so its own squares are summed.
    rng = np.random.default_rng(6)
    for _ in range(10):
        grads = {"a": rng.standard_normal((7, 32)),
                 "b": np.asfortranarray(rng.standard_normal((48, 48))
                                        * 10.0 ** rng.integers(-3, 4, (48, 48))),
                 "c": rng.standard_normal(48)}
        flat = np.concatenate(list(grads.values()), axis=None)
        squares = np.split(flat * flat, np.cumsum([g.size for g in grads.values()])[:-1])
        assert ad.global_norm(grads, dict(zip(grads, squares))) == ad.global_norm(grads)


@pytest.mark.parametrize("ratio", [1 - 1e-7, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-4])
def test_packed_adam_at_the_clip(ratio):
    # Norms just below, at and just above the clip: the packed update clips
    # exactly when the per-parameter one does. The gradients' magnitudes
    # vary, so that summing their squares in another order would change the
    # norm's last bit.
    shapes = every_param_shape()
    rng = np.random.default_rng(5)
    params = {name: Var(rng.standard_normal(shape)) for name, shape in shapes.items()}
    ref = {name: p.value.copy() for name, p in params.items()}
    grads = {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
             for name, shape in shapes.items()}
    clip = ad.global_norm(grads) / ratio
    state = ad.adam_init(params, clip=clip)
    ref_state = {"lr": state.lr, "clip": clip, "step": 0,
                 "m": {name: np.zeros(shape) for name, shape in shapes.items()},
                 "v": {name: np.zeros(shape) for name, shape in shapes.items()}}
    ad.adam_step(params, grads, state)
    oracle.adam_step(ref, grads, ref_state)
    for name in shapes:
        assert params[name].value.tobytes() == ref[name].tobytes(), name


def test_adam_step_needs_the_packed_values():
    params = {"a": Var(np.zeros(2)), "b": Var(np.zeros(3))}
    state = ad.adam_init(params)
    params["b"].value = np.ones(3)
    with pytest.raises(ValueError, match="parameter 'b' is not the view adam_init packed"):
        ad.adam_step(params, {"a": np.ones(2), "b": np.ones(3)}, state)


def test_bitwise_determinism():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 5))

    def run():
        a = Var(x.copy())
        loss = ad.softmax_cross_entropy(ad.row_gather(ad.tanh(ad.matmul(a, a)), 2), 1)
        ad.backward(loss)
        return float(loss.value), a.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert (g1 == g2).all()


def test_softmax_cross_entropy_saturated_target():
    # p(target) = e^-800 underflows to 0; log-sum-exp keeps the loss exact.
    logits = Var(np.array([0.0, -800.0]))
    loss = ad.softmax_cross_entropy(logits, 1)
    assert float(loss.value) == pytest.approx(800.0, rel=1e-12)
    ad.backward(loss)
    assert np.isfinite(logits.grad).all()
    assert logits.grad == pytest.approx([1.0, -1.0])


def test_row_gather_index_list_accumulates_repeats():
    m = Var(np.arange(6, dtype=float).reshape(3, 2))
    rows = ad.row_gather(m, [2, 0, 2])
    assert rows.value.tolist() == [[4, 5], [0, 1], [4, 5]]
    ad.backward(ad.softmax_cross_entropy_rows(rows, [0, 0, 0]))
    direct = ad.softmax(np.array([4.0, 5.0])) - [1.0, 0.0]
    assert m.grad[2] == pytest.approx(2 * direct)
    assert m.grad[1] == pytest.approx([0.0, 0.0])
    with pytest.raises(ShapeError):
        ad.row_gather(m, [0, 3])


def test_backward_frees_interior_gradients():
    a = Var(np.array([0.5, -1.0]))
    h = ad.tanh(a)
    loss = ad.matmul(h, h)
    ad.backward(loss)
    assert h.grad is None and loss.grad is None
    t = np.tanh(a.value)
    assert a.grad == pytest.approx(2 * t * (1 - t * t), rel=1e-12)
