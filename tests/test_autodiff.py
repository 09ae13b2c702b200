"""Gradient engine: op correctness against closed forms and finite differences."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from bifurcrl import autodiff as ad
from bifurcrl.autodiff import Tensor
from bifurcrl.errors import ConfigError


def test_gelu_fixed_points():
    assert ad.gelu(Tensor(0.0)).data == 0.0
    assert abs(ad.gelu(Tensor(10.0)).data - 10.0) < 1e-6
    # 1 * Phi(1), standard normal CDF at 1
    expected = 0.5 * (1.0 + erf(1.0 / np.sqrt(2.0)))
    assert abs(ad.gelu(Tensor(1.0)).data - expected) < 1e-12
    assert abs(float(ad.gelu(Tensor(1.0)).data) - 0.84134) < 5e-6


def test_gelu_parts_equal_plain_expressions_bit_for_bit():
    x = np.concatenate([3.0 * np.random.default_rng(0).normal(size=50),
                        [0.0, -0.0, 40.0, -40.0]])
    phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    out, slope = ad.gelu_parts(x)
    np.testing.assert_array_equal(out, x * phi)
    np.testing.assert_array_equal(slope, phi + x * pdf)


def test_quadratic_loss_gradcheck_exact():
    p = ad.parameter(np.array([0.3, -1.2, 2.0]))

    def loss():
        return ad.mul(ad.tsum(ad.mul(p, p)), 0.5)

    assert ad.finite_diff_check(loss, [p], h=1e-4) < 1e-8


def test_backward_requires_scalar():
    p = ad.parameter(np.ones(3))
    with pytest.raises(ValueError):
        ad.mul(p, 2.0).backward()


def test_grad_accumulates_across_backward_calls():
    p = ad.parameter(2.0)
    ad.mul(p, 3.0).backward()
    ad.mul(p, 3.0).backward()
    assert p.grad == pytest.approx(6.0)
    p.zero_grad()
    assert p.grad is None


def test_diamond_graph_gradient():
    # f = (x*y) + (x+y): df/dx = y+1, df/dy = x+1
    x = ad.parameter(3.0)
    y = ad.parameter(5.0)
    f = ad.add(ad.mul(x, y), ad.add(x, y))
    f.backward()
    assert x.grad == pytest.approx(6.0)
    assert y.grad == pytest.approx(4.0)


def test_broadcast_gradients_sum_correctly():
    b = ad.parameter(np.zeros(3))
    x = Tensor(np.ones((4, 3)))
    ad.tsum(ad.add(x, b)).backward()
    np.testing.assert_allclose(b.grad, np.full(3, 4.0))


def test_matmul_rejects_bad_shapes():
    a = Tensor(np.ones((2, 3)))
    with pytest.raises(ConfigError):
        ad.matmul(a, Tensor(np.ones((2, 3))))
    with pytest.raises(ConfigError):
        ad.matmul(a, Tensor(np.ones(3)))


@pytest.mark.parametrize("op,ref", [
    (ad.exp, np.exp),
    (ad.log, np.log),
    (ad.tanh, np.tanh),
    (ad.sigmoid, lambda x: 1.0 / (1.0 + np.exp(-x))),
    (ad.gelu, lambda x: x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))),
])
def test_elementwise_ops_match_reference_and_fd(op, ref):
    rng = np.random.default_rng(0)
    vals = rng.uniform(0.1, 1.5, size=5)
    p = ad.parameter(vals)
    out = op(p)
    np.testing.assert_allclose(out.data, ref(vals), rtol=1e-12)
    assert ad.finite_diff_check(lambda: ad.tsum(op(p)), [p], h=1e-5) < 1e-7


def test_logsumexp_stability_and_value():
    x = Tensor(np.array([[1000.0, 1000.0 + np.log(2.0)]]))
    out = ad.logsumexp(x, axis=1)
    assert np.isfinite(out.data).all()
    assert out.data[0] == pytest.approx(1000.0 + np.log(3.0))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 5)) * 50)
    s = ad.softmax(x, axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)


def test_take_row_gather_forward_and_backward():
    # one component per row, as gmm_sample picks them
    p = ad.parameter(np.arange(24, dtype=float).reshape(2, 3, 4))
    out = ad.take(p, (np.arange(2), np.array([2, 0])))
    np.testing.assert_array_equal(out.data, [p.data[0, 2], p.data[1, 0]])
    ad.tsum(ad.mul(out, 2.0)).backward()
    expect = np.zeros((2, 3, 4))
    expect[0, 2] = 2.0
    expect[1, 0] = 2.0
    np.testing.assert_array_equal(p.grad, expect)
    # a repeated index receives the sum of its gradients
    p.zero_grad()
    ad.tsum(ad.take(p, (np.array([1, 1]), np.array([0, 0])))).backward()
    assert p.grad[1, 0, 0] == 2.0 and p.grad.sum() == 8.0


def test_take_column_slice_forward_and_backward():
    # a critic output column, as CriticPair.forward reads Q and pre-sigma
    p = ad.parameter(np.arange(6, dtype=float).reshape(3, 2))
    out = ad.take(p, (slice(None), 1))
    np.testing.assert_array_equal(out.data, [1.0, 3.0, 5.0])
    ad.tsum(ad.mul(out, np.array([1.0, 2.0, 3.0]))).backward()
    np.testing.assert_array_equal(p.grad, [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
    assert ad.finite_diff_check(
        lambda: ad.tsum(ad.exp(ad.take(p, (slice(None), 0)))), [p], h=1e-5) < 1e-7


def test_minimum_routes_gradient_to_smaller_branch():
    a = ad.parameter(np.array([1.0, 5.0]))
    b = ad.parameter(np.array([2.0, 3.0]))
    ad.tsum(ad.minimum(a, b)).backward()
    np.testing.assert_allclose(a.grad, [1.0, 0.0])
    np.testing.assert_allclose(b.grad, [0.0, 1.0])


def test_smooth_clamp_range_and_midpoint():
    x = Tensor(np.array([-100.0, 0.0, 100.0]))
    out = ad.smooth_clamp(x, 2.0, 5.0).data
    assert 2.0 <= out[0] < 2.001
    assert out[1] == pytest.approx(3.5)
    assert 4.999 < out[2] <= 5.0


def test_concat_backward_splits():
    a = ad.parameter(np.ones((2, 2)))
    b = ad.parameter(np.ones((2, 3)))
    out = ad.concat([a, b], axis=1)
    assert out.data.shape == (2, 5)
    ad.tsum(ad.mul(out, 2.0)).backward()
    np.testing.assert_allclose(a.grad, 2.0)
    np.testing.assert_allclose(b.grad, 2.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6))
def test_tmean_matches_numpy(vals):
    t = Tensor(np.array(vals))
    assert ad.tmean(t).data == pytest.approx(np.mean(vals))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_composite_expression_gradcheck(seed):
    rng = np.random.default_rng(seed)
    w = ad.parameter(rng.normal(size=(3, 2)))
    x = Tensor(rng.normal(size=(4, 3)))

    def loss():
        h = ad.tanh(ad.matmul(x, w))
        return ad.tmean(ad.mul(h, h))

    assert ad.finite_diff_check(loss, [w], h=1e-5) < 1e-6
