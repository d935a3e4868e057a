import math

import numpy as np
import pytest

from codegaze import autodiff as ad
from codegaze.autodiff import ShapeError, Var


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
