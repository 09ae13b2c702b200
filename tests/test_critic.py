"""Distributional critics: forward transform, targets, NLL loss, fixed point."""
import numpy as np
import pytest

from bifurcrl import autodiff as ad
from bifurcrl import critic as critic_mod
from bifurcrl.autodiff import Tensor
from bifurcrl.critic import (SIGMA_Q_MAX, SIGMA_Q_MIN, CriticPair, critic_loss,
                             target_value)
from bifurcrl.errors import ConfigError
from bifurcrl.nets import AdamState, LrSchedule, soft_update


def make_pair(seed=0, hidden=(8, 8)):
    return CriticPair(3, 2, hidden, np.random.default_rng(seed))


def test_zero_weight_network_outputs_biases():
    pair = make_pair()
    net = pair.nets[0]
    for w, b in net.layers:
        w.data[...] = 0.0
        b.data[...] = 0.0
    net.layers[-1][1].data[...] = np.array([1.5, 0.0])
    d = pair.online(0, np.zeros((4, 3)), np.zeros((4, 2)))
    np.testing.assert_allclose(d.q.data, 1.5)
    # sigma is the smooth clamp of the pre-std bias (0 -> range midpoint)
    mid = SIGMA_Q_MIN + 0.5 * (SIGMA_Q_MAX - SIGMA_Q_MIN)
    np.testing.assert_allclose(d.sigma.data, mid)


def test_sigma_initialized_near_one():
    # fresh critics must not start in the slow-learning regime where the
    # 1/sigma^2 likelihood factor suppresses mean-head gradients
    pair = make_pair(7)
    rng = np.random.default_rng(3)
    for i in (0, 1):
        d = pair.online(i, rng.normal(size=(16, 3)), rng.normal(size=(16, 2)))
        assert np.all(d.sigma.data < 3.0)
        t = pair.target(i, rng.normal(size=(16, 3)), rng.normal(size=(16, 2)))
        assert np.all(t.sigma.data < 3.0)


def test_forward_deterministic():
    pair = make_pair(3)
    s = np.random.default_rng(1).normal(size=(5, 3))
    a = np.random.default_rng(2).normal(size=(5, 2))
    d1 = pair.online(0, s, a)
    d2 = pair.online(0, s, a)
    np.testing.assert_array_equal(d1.q.data, d2.q.data)
    np.testing.assert_array_equal(d1.sigma.data, d2.sigma.data)


def test_sigma_always_in_clamp_range():
    pair = make_pair(4)
    rng = np.random.default_rng(0)
    d = pair.online(1, rng.normal(size=(64, 3)) * 10, rng.normal(size=(64, 2)) * 10)
    assert np.all(d.sigma.data >= SIGMA_Q_MIN)
    assert np.all(d.sigma.data <= SIGMA_Q_MAX)


def test_q_gradient_wrt_action_fd():
    pair = make_pair(5)
    rng = np.random.default_rng(1)
    s = rng.normal(size=(3, 3))
    a = ad.parameter(rng.normal(size=(3, 2)))

    def loss():
        return ad.tsum(pair.online(0, s, a).q)

    assert ad.finite_diff_check(loss, [a], h=1e-4) < 1e-4


def test_q_min_is_elementwise_minimum():
    pair = make_pair(6)
    rng = np.random.default_rng(2)
    s = rng.normal(size=(8, 3))
    a = rng.normal(size=(8, 2))
    q1 = pair.online(0, s, a).q.data
    q2 = pair.online(1, s, a).q.data
    np.testing.assert_allclose(pair.q_min(s, a).data, np.minimum(q1, q2))


def test_q_min_action_grad_fn_equals_tape_bit_for_bit():
    pair = make_pair(6, hidden=(16, 16))
    rng = np.random.default_rng(4)
    s = rng.normal(size=(32, 3))
    a = rng.normal(size=(32, 2))
    first = pair.online(0, s, a).q.data <= pair.online(1, s, a).q.data
    assert first.any() and not first.all()  # both critics pick some rows
    at = Tensor(a, requires_grad=True)
    ad.tsum(ad.mul(pair.q_min(s, at), 1.0 / 0.3)).backward()
    grad = pair.q_min_action_grad_fn(s)
    np.testing.assert_array_equal(grad(a, 1.0 / 0.3), at.grad)


class TestTargetValue:
    def test_arithmetic_example(self):
        y = target_value(np.array([1.0]), 0.99, np.array([2.0]), 0.2,
                         np.array([-1.0]), np.array([False]))
        assert y[0] == pytest.approx(1.0 + 0.99 * (2.0 + 0.2))
        assert y[0] == pytest.approx(3.178)

    def test_terminal_is_reward_exactly(self):
        y = target_value(np.array([-5.0]), 0.99, np.array([2.0]), 0.2,
                         np.array([-1.0]), np.array([True]))
        assert y[0] == -5.0

    def test_tiny_alpha_approaches_plain_bootstrap(self):
        y = target_value(np.array([1.0]), 0.9, np.array([2.0]), 1e-12,
                         np.array([-1.0]), np.array([False]))
        assert y[0] == pytest.approx(1.0 + 0.9 * 2.0, abs=1e-9)

    @pytest.mark.parametrize("gamma,alpha", [(0.0, 0.2), (1.0, 0.2), (1.5, 0.2),
                                             (0.99, 0.0), (0.99, -0.1)])
    def test_rejects_gamma_outside_unit_interval_or_nonpositive_alpha(self, gamma, alpha):
        with pytest.raises(ConfigError):
            target_value(np.array([1.0]), gamma, np.array([2.0]), alpha,
                         np.array([-1.0]), np.array([False]))


class TestCriticLoss:
    def test_nll_at_mode(self):
        d = critic_mod.ValueDistribution(Tensor(np.array([2.0])),
                                         Tensor(np.array([1.0])))
        loss = critic_loss(d, np.array([2.0]))
        assert loss.data == pytest.approx(0.5 * np.log(2.0 * np.pi))
        assert loss.data == pytest.approx(0.91894, abs=5e-6)

    def test_one_sigma_residual_adds_half(self):
        base = critic_loss(critic_mod.ValueDistribution(
            Tensor(np.array([2.0])), Tensor(np.array([1.0]))), np.array([2.0]))
        up = critic_loss(critic_mod.ValueDistribution(
            Tensor(np.array([2.0])), Tensor(np.array([1.0]))), np.array([3.0]))
        assert up.data - base.data == pytest.approx(0.5)

    def test_batch_of_identical_pairs_equals_single(self):
        d1 = critic_mod.ValueDistribution(Tensor(np.array([1.0])),
                                          Tensor(np.array([0.5])))
        dn = critic_mod.ValueDistribution(Tensor(np.full(6, 1.0)),
                                          Tensor(np.full(6, 0.5)))
        a = critic_loss(d1, np.array([1.7]))
        b = critic_loss(dn, np.full(6, 1.7))
        assert a.data == pytest.approx(b.data)

    def test_gradcheck_through_network(self):
        pair = make_pair(7)
        rng = np.random.default_rng(3)
        s = rng.normal(size=(4, 3))
        a = rng.normal(size=(4, 2))
        y = rng.normal(size=4)

        def loss():
            return critic_loss(pair.online(0, s, a), y)

        assert ad.finite_diff_check(loss, pair.parameters(0), h=1e-4) < 1e-4


def test_direct_minimization_recovers_mean_and_variance():
    # minimizing the NLL over (Q, sigma) on a frozen target set lands on the
    # sample mean and sample variance
    rng = np.random.default_rng(0)
    targets = rng.normal(1.5, 2.0, size=256)
    q = ad.parameter(0.0)
    pre = ad.parameter(0.0)
    opt = AdamState([q, pre], LrSchedule(0.05, 0.01, 3000))
    for _ in range(3000):
        qb = ad.reshape(ad.mul(q, np.ones(1)), (1,))
        sig = ad.smooth_clamp(ad.reshape(ad.mul(pre, np.ones(1)), (1,)),
                              SIGMA_Q_MIN, SIGMA_Q_MAX)
        n = targets.size
        d = critic_mod.ValueDistribution(
            Tensor(np.zeros(n)) + qb, Tensor(np.zeros(n)) + sig)
        loss = critic_loss(d, targets)
        q.zero_grad()
        pre.zero_grad()
        loss.backward()
        opt.step()
    sig_val = critic_mod.SIGMA_Q_MIN + (SIGMA_Q_MAX - SIGMA_Q_MIN) / (
        1.0 + np.exp(-float(pre.data)))
    assert float(q.data) == pytest.approx(targets.mean(), abs=1e-3)
    assert sig_val ** 2 == pytest.approx(targets.var(), rel=0.05)


def test_target_networks_start_identical_and_converge():
    pair = make_pair(8)
    for net, tgt in zip(pair.nets, pair.targets):
        for (w, b), (tw, tb) in zip(net.layers, tgt.layers):
            np.testing.assert_array_equal(w.data, tw.data)
            np.testing.assert_array_equal(b.data, tb.data)
    # perturb online, soft updates close the gap by (1 - t) per call
    w_on = pair.nets[0].layers[0][0]
    w_tg = pair.targets[0].layers[0][0]
    w_on.data += 1.0
    gap = np.abs(w_on.data - w_tg.data).max()
    for _ in range(5):
        soft_update(pair.nets[0].parameters(), pair.targets[0].parameters(), 0.1)
        gap *= 0.9
        assert np.abs(w_on.data - w_tg.data).max() == pytest.approx(gap)


def test_twin_symmetry_under_identical_data():
    # identically initialized twins stepped on identical batches stay equal
    rng = np.random.default_rng(9)
    pair = make_pair(10)
    for (w1, b1), (w2, b2) in zip(pair.nets[0].layers, pair.nets[1].layers):
        w2.data[...] = w1.data
        b2.data[...] = b1.data
    opts = [AdamState(pair.parameters(i), LrSchedule(1e-3, 1e-3, 10))
            for i in (0, 1)]
    s = rng.normal(size=(8, 3))
    a = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    for _ in range(5):
        for i in (0, 1):
            for p in pair.parameters(i):
                p.zero_grad()
            critic_loss(pair.online(i, s, a), y).backward()
            opts[i].step()
    for p1, p2 in zip(pair.parameters(0), pair.parameters(1)):
        np.testing.assert_array_equal(p1.data, p2.data)
