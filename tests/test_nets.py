"""Dense networks, Adam, schedules, and spectral normalization."""
import numpy as np
import pytest
from scipy.special import erf

from bifurcrl import autodiff as ad
from bifurcrl.autodiff import Tensor
from bifurcrl.errors import ConfigError, NumericalError
from bifurcrl.nets import (AdamState, LrSchedule, MlpNetwork, SpectralNormalizer,
                           copy_network, soft_update)


def gelu_ref(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def test_zero_network_outputs_zero():
    net = MlpNetwork([3, 4, 2], np.random.default_rng(0))
    for w, b in net.layers:
        w.data[...] = 0.0
        b.data[...] = 0.0
    out = net(np.ones((5, 3)))
    np.testing.assert_allclose(out.data, 0.0)


def test_identity_single_layer():
    net = MlpNetwork([3, 3], np.random.default_rng(0))
    net.layers[0][0].data[...] = np.eye(3)
    net.layers[0][1].data[...] = 0.0
    v = np.array([[0.3, -1.0, 2.5]])
    np.testing.assert_allclose(net(v).data, v)


def test_forward_matches_hand_composed_chain():
    rng = np.random.default_rng(3)
    net = MlpNetwork([2, 2, 1], rng)
    x = rng.normal(size=(4, 2))
    (w0, b0), (w1, b1) = net.layers
    expect = gelu_ref(x @ w0.data + b0.data) @ w1.data + b1.data
    np.testing.assert_allclose(net(x).data, expect, atol=1e-12)


def test_forward_rejects_wrong_width():
    net = MlpNetwork([3, 2], np.random.default_rng(0))
    with pytest.raises(ConfigError):
        net(np.ones((1, 4)))


def test_copy_network_is_independent():
    net = MlpNetwork([2, 3], np.random.default_rng(0))
    clone = copy_network(net)
    np.testing.assert_allclose(clone.layers[0][0].data, net.layers[0][0].data)
    net.layers[0][0].data += 1.0
    assert not np.allclose(clone.layers[0][0].data, net.layers[0][0].data)


def test_soft_update_arithmetic_and_extremes():
    o = [ad.parameter(np.array([1.0]))]
    t = [ad.parameter(np.array([0.0]))]
    soft_update(o, t, 0.005)
    assert t[0].data[0] == pytest.approx(0.005)
    soft_update(o, t, 0.0)
    assert t[0].data[0] == pytest.approx(0.005)
    soft_update(o, t, 1.0)
    assert t[0].data[0] == pytest.approx(1.0)


def test_soft_update_exponential_convergence():
    o = [ad.parameter(np.array([1.0]))]
    t = [ad.parameter(np.array([0.0]))]
    rate = 0.25
    dist = 1.0
    for _ in range(8):
        soft_update(o, t, rate)
        dist *= 1.0 - rate
        assert abs(o[0].data[0] - t[0].data[0]) == pytest.approx(dist)


def test_lr_schedule_linear():
    s = LrSchedule(1e-3, 5e-5, 101)
    assert s.at(0) == pytest.approx(1e-3)
    assert s.at(50) == pytest.approx(0.5 * (1e-3 + 5e-5))
    assert s.at(100) == pytest.approx(5e-5)
    assert s.at(500) == pytest.approx(5e-5)


def test_adam_first_step_magnitude():
    # first bias-corrected step with g = 1 is -lr * 1 / (1 + eps)
    p = ad.parameter(np.array([0.0]))
    opt = AdamState([p], LrSchedule(0.01, 0.01, 10))
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(-0.01 / (1.0 + opt.eps), rel=1e-9)


def test_adam_zero_gradient_leaves_params():
    p = ad.parameter(np.array([0.7]))
    opt = AdamState([p], LrSchedule(0.01, 0.01, 10))
    for _ in range(3):
        p.grad = np.zeros(1)
        opt.step()
    assert p.data[0] == pytest.approx(0.7)


def test_adam_rejects_nonfinite_gradient():
    p = ad.parameter(np.array([0.0]))
    opt = AdamState([p], LrSchedule(0.01, 0.01, 10))
    p.grad = np.array([np.nan])
    with pytest.raises(NumericalError):
        opt.step()


def test_adam_deterministic_runs():
    def run():
        rng = np.random.default_rng(5)
        net = MlpNetwork([2, 4, 1], rng)
        opt = AdamState(net.parameters(), LrSchedule(1e-2, 1e-3, 20))
        x = Tensor(rng.normal(size=(8, 2)))
        for _ in range(20):
            loss = ad.tmean(ad.mul(net(x), net(x)))
            for p in net.parameters():
                p.zero_grad()
            loss.backward()
            opt.step()
        return [p.data.copy() for p in net.parameters()]

    a, b = run(), run()
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa, pb)


class TestSpectralNormalizer:
    def test_identity_at_budget_unchanged(self):
        w = ad.parameter(np.eye(2))
        norm = SpectralNormalizer(w, 1.0, np.random.default_rng(0))
        eff = norm.effective_weight(iters=10)
        np.testing.assert_allclose(eff.data, np.eye(2), atol=1e-12)

    def test_two_identity_scaled_to_identity(self):
        w = ad.parameter(2.0 * np.eye(2))
        norm = SpectralNormalizer(w, 1.0, np.random.default_rng(0))
        eff = norm.effective_weight(iters=10)
        np.testing.assert_allclose(eff.data, np.eye(2), atol=1e-6)

    def test_small_matrix_not_upscaled(self):
        w = ad.parameter(np.diag([0.5, 0.1]))
        norm = SpectralNormalizer(w, 1.0, np.random.default_rng(0))
        assert norm.effective_weight(iters=10) is w

    def test_budget_respected_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            w = ad.parameter(rng.normal(size=(6, 4)) * 3.0)
            norm = SpectralNormalizer(w, 1.0, rng)
            eff = norm.effective_weight(iters=30)
            top = np.linalg.svd(eff.data, compute_uv=False)[0]
            assert top <= 1.0 * (1.0 + 1e-3)

    def test_gradient_flows_through_clip(self):
        rng = np.random.default_rng(2)
        w = ad.parameter(rng.normal(size=(3, 3)) * 2.0)
        norm = SpectralNormalizer(w, 1.0, rng)
        norm.refresh(50)

        def loss():
            return ad.tsum(ad.mul(norm.effective_weight(30), Tensor(np.ones((3, 3)))))

        assert ad.finite_diff_check(loss, [w], h=1e-5) < 1e-4

    def test_power_iterate_is_pure_refresh_advances(self):
        rng = np.random.default_rng(4)
        w = ad.parameter(rng.normal(size=(4, 4)))
        norm = SpectralNormalizer(w, 1.0, rng)
        before = norm.u.copy()
        norm.power_iterate(5)
        np.testing.assert_array_equal(norm.u, before)
        norm.refresh(5)
        assert not np.allclose(norm.u, before)

    def test_rejects_non_matrix(self):
        with pytest.raises(ConfigError):
            SpectralNormalizer(ad.parameter(np.ones(3)), 1.0,
                               np.random.default_rng(0))
