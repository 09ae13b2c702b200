"""Mixture action distributions: densities, squashing, sampling, argmax."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcrl import autodiff as ad
from bifurcrl import distributions as dist
from bifurcrl.autodiff import Tensor
from bifurcrl.distributions import (ActionBounds, GmmPolicyOutput, deterministic_action,
                                    gmm_log_prob, gmm_sample, squash_action,
                                    unsquash_action)
from bifurcrl.errors import ConfigError


def make_output(gates, means, stds, bounds=None):
    gates = np.atleast_2d(np.asarray(gates, dtype=float))
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    if means.ndim == 2:
        means = means[None]
        stds = stds[None]
    return GmmPolicyOutput(Tensor(gates), Tensor(means), Tensor(stds), bounds)


def test_standard_normal_log_density():
    out = make_output([1.0], [[[0.0]]], [[[1.0]]])
    lp = gmm_log_prob(out, np.array([[0.0]]))
    assert lp.data[0] == pytest.approx(-0.5 * np.log(2.0 * np.pi))
    assert lp.data[0] == pytest.approx(-0.91894, abs=5e-6)


def test_two_component_midpoint_density():
    out = make_output([0.5, 0.5], [[[-1.0], [1.0]]], [[[1.0], [1.0]]])
    lp = gmm_log_prob(out, np.array([[0.0]]))
    expect = np.log(np.exp(-0.5) / np.sqrt(2.0 * np.pi))
    assert lp.data[0] == pytest.approx(expect)
    assert lp.data[0] == pytest.approx(-1.41894, abs=5e-6)


def test_identical_components_collapse_to_single():
    single = make_output([1.0], [[[0.4]]], [[[0.7]]])
    double = make_output([0.35, 0.65], [[[0.4], [0.4]]], [[[0.7], [0.7]]])
    for u in (-1.5, 0.0, 0.8):
        a = gmm_log_prob(single, np.array([[u]])).data[0]
        b = gmm_log_prob(double, np.array([[u]])).data[0]
        assert a == pytest.approx(b)


def test_quadrature_normalization_over_action_interval():
    # squashed 1-D mixture density integrates to 1 over (lo, hi)
    rng = np.random.default_rng(0)
    nodes, weights = np.polynomial.legendre.leggauss(256)
    for _ in range(100):
        k = rng.integers(1, 4)
        lo, hi = sorted(rng.uniform(-3, 3, size=2))
        if hi - lo < 0.1:
            hi = lo + 0.1
        bounds = ActionBounds(np.array([lo]), np.array([hi]))
        g = rng.dirichlet(np.ones(k))
        # moderate stds: very wide pre-squash components push integrable
        # singularities onto the interval edges, beyond fixed-order quadrature
        mu = rng.normal(0, 1.0, size=(1, k, 1))
        sd = rng.uniform(0.15, 0.8, size=(1, k, 1))
        n = nodes.size
        out = make_output(np.tile(g, (n, 1)), np.tile(mu, (n, 1, 1)),
                          np.tile(sd, (n, 1, 1)), bounds)
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        dens = np.exp(gmm_log_prob(out, x.reshape(-1, 1)).data)
        integral = 0.5 * (hi - lo) * float(weights @ dens)
        assert integral == pytest.approx(1.0, abs=1e-3)


def test_sample_log_density_matches_entropy_estimate():
    # mean log-density of many draws ~ -H within 3 standard errors
    rng = np.random.default_rng(42)
    bounds = ActionBounds(np.array([-1.0]), np.array([1.0]))
    out = make_output([0.4, 0.6], [[[-0.5], [0.6]]], [[[0.4], [0.3]]], bounds)
    n = 10_000
    big = GmmPolicyOutput(Tensor(np.repeat(out.gates.data, n, 0)),
                          Tensor(np.repeat(out.means.data, n, 0)),
                          Tensor(np.repeat(out.stds.data, n, 0)), bounds)
    s = gmm_sample(big, rng)
    lp = s.log_prob.data
    # reference: independent Monte-Carlo estimate with a second seed
    s2 = gmm_sample(big, np.random.default_rng(7))
    ref = s2.log_prob.data
    se = np.sqrt(np.var(lp) / n + np.var(ref) / n)
    assert abs(np.mean(lp) - np.mean(ref)) < 3.0 * se


def test_component_frequencies_match_gates():
    rng = np.random.default_rng(1)
    n = 100_000
    out = make_output(np.tile([0.3, 0.7], (n, 1)),
                      np.zeros((n, 2, 1)), np.ones((n, 2, 1)))
    s = gmm_sample(out, rng)
    freq = np.bincount(s.component_index, minlength=2) / n
    assert abs(freq[0] - 0.3) < 0.01
    assert abs(freq[1] - 0.7) < 0.01


def test_degenerate_gate_always_component_zero():
    rng = np.random.default_rng(2)
    out = make_output(np.tile([1.0, 0.0], (64, 1)),
                      np.zeros((64, 2, 1)), np.ones((64, 2, 1)))
    s = gmm_sample(out, rng)
    assert np.all(s.component_index == 0)


def test_tiny_std_concentrates_at_squashed_mean():
    rng = np.random.default_rng(3)
    bounds = ActionBounds(np.array([-1.0]), np.array([1.0]))
    mu = 0.3
    out = make_output(np.ones((256, 1)),
                      np.full((256, 1, 1), mu),
                      np.full((256, 1, 1), dist.STD_MIN), bounds)
    s = gmm_sample(out, rng)
    target = np.tanh(mu)
    assert np.all(np.abs(s.action[:, 0] - target) < 3.0 * dist.STD_MIN)


def test_deterministic_action_argmax_and_tiebreak():
    # gates (0.6, 0.4) -> component 0's mean; ties go to the lowest index
    out = make_output([0.6, 0.4], [[[0.2], [-0.7]]], [[[0.5], [0.5]]])
    assert deterministic_action(out)[0, 0] == pytest.approx(0.2)
    tie = make_output([0.5, 0.5], [[[0.2], [-0.7]]], [[[0.5], [0.5]]])
    assert deterministic_action(tie)[0, 0] == pytest.approx(0.2)
    single = make_output([1.0], [[[0.9]]], [[[0.5]]],
                         ActionBounds(np.array([-1.0]), np.array([1.0])))
    assert deterministic_action(single)[0, 0] == pytest.approx(np.tanh(0.9))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 10.0))
def test_argmax_invariant_under_monotone_gate_rescaling(scale):
    # the argmax of any strictly increasing transform of the gates is the same
    gates = np.array([[0.2, 0.5, 0.3]])
    mono = gates ** scale
    mono = mono / mono.sum()
    means = np.arange(3, dtype=float).reshape(1, 3, 1)
    stds = np.ones((1, 3, 1))
    a = deterministic_action(make_output(gates, means, stds))
    b = deterministic_action(make_output(mono, means, stds))
    np.testing.assert_allclose(a, b)


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (1.0, -1.0), ([-1.0, 2.0], [1.0, 2.0])])
def test_action_bounds_reject_empty_box(lo, hi):
    with pytest.raises(ConfigError, match="hi > lo"):
        ActionBounds(np.array(lo), np.array(hi))


class TestSquash:
    def test_origin_identity_slope(self):
        bounds = ActionBounds(np.array([-1.0]), np.array([1.0]))
        action, log_det = squash_action(Tensor(np.zeros((1, 1))), bounds)
        assert action.data[0, 0] == pytest.approx(0.0)
        assert log_det.data[0] == pytest.approx(0.0, abs=1e-12)

    def test_saturation_to_hi(self):
        bounds = ActionBounds(np.array([-2.0]), np.array([3.0]))
        action, _ = squash_action(Tensor(np.array([[40.0]])), bounds)
        assert action.data[0, 0] == pytest.approx(3.0, abs=1e-9)

    def test_closed_form_at_half(self):
        bounds = ActionBounds(np.array([-1.0]), np.array([1.0]))
        p = 0.5
        action, log_det = squash_action(Tensor(np.array([[p]])), bounds)
        assert action.data[0, 0] == pytest.approx(np.tanh(p), rel=1e-12)
        assert log_det.data[0] == pytest.approx(np.log(1.0 - np.tanh(p) ** 2),
                                                rel=1e-12)

    def test_unbounded_is_identity(self):
        pre = Tensor(np.array([[1.5, -2.0]]))
        action, log_det = squash_action(pre, None)
        assert action is pre
        assert log_det.data[0] == 0.0

    def test_log_det_stable_for_large_pre(self):
        bounds = ActionBounds(np.array([-1.0]), np.array([1.0]))
        _, log_det = squash_action(Tensor(np.array([[30.0]])), bounds)
        assert np.isfinite(log_det.data[0])
        assert log_det.data[0] == pytest.approx(2.0 * (np.log(2.0) - 30.0),
                                                rel=1e-9)

    def test_halves_match_squash_action(self):
        bounds = ActionBounds(np.array([-1.0, 0.0]), np.array([2.0, 0.5]))
        pre = Tensor(3.0 * np.random.default_rng(0).normal(size=(6, 2)))
        action, log_det = squash_action(pre, bounds)
        np.testing.assert_array_equal(dist.squash(pre, bounds).data, action.data)
        np.testing.assert_array_equal(dist.squash_log_det(pre, bounds).data,
                                      log_det.data)

    @pytest.mark.parametrize("bounded", [True, False])
    def test_squash_vjp_equals_tape_bit_for_bit(self, bounded):
        bounds = ActionBounds(np.array([-1.0, 0.0]), np.array([2.0, 0.5])) \
            if bounded else None
        rng = np.random.default_rng(1)
        pre = 3.0 * rng.normal(size=(6, 2))
        g = rng.normal(size=(6, 2))
        u = Tensor(pre, requires_grad=True)
        ad.tsum(ad.mul(dist.squash(u, bounds), Tensor(g))).backward()
        action, vjp = dist.squash_vjp(pre, bounds)
        np.testing.assert_array_equal(action, dist.squash(pre, bounds).data)
        np.testing.assert_array_equal(vjp(g), u.grad)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5.0, 5.0))
    def test_unsquash_inverts_squash(self, p):
        bounds = ActionBounds(np.array([-0.4]), np.array([0.4]))
        action, _ = squash_action(Tensor(np.array([[p]])), bounds)
        back = unsquash_action(action.data, bounds)
        assert back[0, 0] == pytest.approx(p, abs=1e-6)


def test_log_prob_gradients_pass_fd_check():
    rng = np.random.default_rng(9)
    bounds = ActionBounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    gates = ad.parameter(np.array([[0.3, 0.7]]))
    means = ad.parameter(rng.normal(size=(1, 2, 2)))
    stds = ad.parameter(rng.uniform(0.3, 0.8, size=(1, 2, 2)))
    action = rng.uniform(-0.9, 0.9, size=(1, 2))

    def loss():
        out = GmmPolicyOutput(ad.softmax(gates, axis=1), means,
                              ad.exp(ad.log(stds)), bounds)
        return ad.tsum(gmm_log_prob(out, action))

    assert ad.finite_diff_check(loss, [gates, means, stds], h=1e-5) < 1e-6
