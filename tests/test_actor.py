"""Policy network, energy scores, Langevin sampling, KL losses, temperature."""
import numpy as np
import pytest

from bifurcrl import actor as actor_mod
from bifurcrl import autodiff as ad
from bifurcrl.actor import (PolicyNetwork, Temperature, energy_score,
                            forward_kl_loss, langevin_sample,
                            policy_loss, reverse_kl_loss, temperature_update)
from bifurcrl.autodiff import Tensor
from bifurcrl.critic import CriticPair
from bifurcrl.distributions import ActionBounds
from bifurcrl.envs import Gap1dEnv
from bifurcrl.errors import ConfigError
from bifurcrl.nets import AdamState, LrSchedule
from bifurcrl.trainer import TrainConfig, Trainer


OBS, ACT = 3, 2


def make_policy(seed=0, k=2, hidden=(8, 8), bounds=True):
    b = ActionBounds(-np.ones(ACT), np.ones(ACT)) if bounds else None
    return PolicyNetwork(OBS, ACT, hidden, k, b, 1.0,
                         np.random.default_rng(seed))


def make_critics(seed=0, hidden=(8, 8)):
    return CriticPair(OBS, ACT, hidden, np.random.default_rng(seed))


class FrozenQuadraticCritic:
    """Stands in for CriticPair: Q = -(u - u*)^2 / (2 s), summed over dims."""

    def __init__(self, u_star, s):
        self.u_star = np.asarray(u_star, dtype=float)
        self.s = float(s)

    def q_min(self, states, actions):
        a = ad.as_tensor(actions)
        d = ad.sub(a, Tensor(self.u_star))
        return ad.mul(ad.tsum(ad.mul(d, d), axis=1), -0.5 / self.s)


class TestPolicyNetwork:
    def test_rejects_zero_components(self):
        with pytest.raises(ConfigError):
            make_policy(k=0)

    def test_forward_shapes(self):
        pol = make_policy(k=3)
        out = pol.forward(np.zeros((5, OBS)))
        assert out.gates.data.shape == (5, 3)
        assert out.means.data.shape == (5, 3, ACT)
        assert out.stds.data.shape == (5, 3, ACT)
        np.testing.assert_allclose(out.gates.data.sum(axis=1), 1.0)

    def test_spectral_budget_after_updates(self):
        pol = make_policy(1)
        opt = AdamState(pol.parameters(), LrSchedule(1e-2, 1e-2, 100))
        rng = np.random.default_rng(0)
        states = rng.normal(size=(16, OBS))
        for _ in range(30):
            out = pol.forward(states)
            loss = ad.tmean(ad.mul(out.means, out.means))
            for p in pol.parameters():
                p.zero_grad()
            loss.backward()
            opt.step()
        for top in pol.spectral_report(iters=50):
            assert top <= 1.0 * (1.0 + 1e-3)

    def test_deterministic_action_repeatable(self):
        pol = make_policy(2)
        obs = np.ones((1, OBS))
        a1 = pol.act_deterministic(obs)
        a2 = pol.act_deterministic(obs)
        np.testing.assert_array_equal(a1, a2)

    def test_copy_from(self):
        a, b = make_policy(1), make_policy(2)
        b.copy_from(a)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_continuous_variant_single_component(self):
        pol = make_policy(k=1)
        out = pol.forward(np.zeros((2, OBS)))
        np.testing.assert_allclose(out.gates.data, 1.0)


class TestEnergyScore:
    def test_alpha_one_equals_qmin(self):
        critics = make_critics()
        rng = np.random.default_rng(1)
        s, a = rng.normal(size=(4, OBS)), rng.normal(size=(4, ACT))
        e = energy_score(critics, s, a, 1.0)
        np.testing.assert_allclose(e.data, critics.q_min(s, a).data)

    def test_doubling_alpha_halves(self):
        critics = make_critics()
        rng = np.random.default_rng(2)
        s, a = rng.normal(size=(4, OBS)), rng.normal(size=(4, ACT))
        e1 = energy_score(critics, s, a, 0.5).data
        e2 = energy_score(critics, s, a, 1.0).data
        np.testing.assert_allclose(e1, 2.0 * e2)

    def test_argmax_invariant_to_alpha(self):
        critics = make_critics(3)
        s = np.zeros((1, OBS))
        grid = np.stack([np.linspace(-1, 1, 101), np.zeros(101)], axis=1)
        states = np.repeat(s, 101, 0)
        e_a = energy_score(critics, states, grid, 0.3).data
        e_b = energy_score(critics, states, grid, 2.7).data
        assert np.argmax(e_a) == np.argmax(e_b)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigError):
            energy_score(make_critics(), np.zeros((1, OBS)),
                         np.zeros((1, ACT)), 0.0)


class TestLangevin:
    def test_zero_steps_returns_initialization(self):
        # even-indexed chains start at the policy sample; odd-indexed chains
        # start from the broad overdispersed seed
        pol = make_policy(4)
        critics = make_critics(4)
        states = np.zeros((8, OBS))
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        init = pol.sample(states, rng1)
        out, restarts = langevin_sample(critics, pol, states, 1.0, 0, 0.05, rng2)
        np.testing.assert_allclose(out[::2], init.action.data[::2])
        assert restarts == 0

    def test_noiseless_ascent_converges_monotonically(self):
        pol = make_policy(5, bounds=False)
        critic = FrozenQuadraticCritic([0.4, -0.3], 1.0)
        states = np.zeros((4, OBS))
        rng = np.random.default_rng(0)
        prev = None
        for steps in (0, 5, 20, 60):
            out, _ = langevin_sample(critic, pol, states,
                                     1.0, steps, 0.1,
                                     np.random.default_rng(0), noise_scale=0.0)
            d = np.abs(out - np.array([0.4, -0.3])).max()
            if prev is not None:
                assert d <= prev + 1e-12
            prev = d

    def test_quadratic_energy_matches_gibbs_law(self):
        # stationary law of Q = -(u-u*)^2/(2s) at temperature alpha: N(u*, s*alpha)
        s, alpha = 0.5, 0.4
        critic = FrozenQuadraticCritic([0.2, -0.1], s)
        pol = make_policy(6, bounds=False)
        n = 10_000
        states = np.zeros((n, OBS))
        rng = np.random.default_rng(1)
        kappa = 1.0 / (s * alpha)  # curvature of the energy
        eps = 0.1 / kappa
        out, _ = langevin_sample(critic, pol, states, alpha, 400, eps, rng)
        target_var = s * alpha
        sd = np.sqrt(target_var)
        assert abs(out[:, 0].mean() - 0.2) < 0.05 * sd
        assert abs(out[:, 1].mean() + 0.1) < 0.05 * sd
        assert abs(out[:, 0].var() - target_var) < 0.10 * target_var
        assert abs(out[:, 1].var() - target_var) < 0.10 * target_var

    def test_tape_free_chain_equals_tape_chain(self):
        # a stand-in that is not a CriticPair takes energy_grad_fn's tape path
        class TapeOnly:
            def q_min(self, states, actions):
                return critics.q_min(states, actions)

        critics = make_critics(3, hidden=(16, 16))
        pol = make_policy(2)
        states = np.random.default_rng(0).normal(size=(16, OBS))
        fast, _ = langevin_sample(critics, pol, states, 0.4, 5, 0.05,
                                  np.random.default_rng(9))
        slow, _ = langevin_sample(TapeOnly(), pol, states, 0.4, 5, 0.05,
                                  np.random.default_rng(9))
        np.testing.assert_array_equal(fast, slow)

    def test_energy_grad_fn_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigError):
            actor_mod.energy_grad_fn(make_critics(), np.zeros((1, OBS)), None, 0.0)


class TestReverseKl:
    def test_single_term_arithmetic(self):
        # alpha = 1, log pi = -1, Q = 2 -> contribution -3
        lp = Tensor(np.array([-1.0]))
        q = Tensor(np.array([2.0]))
        val = ad.tmean(ad.sub(ad.mul(lp, 1.0), q))
        assert val.data == pytest.approx(-3.0)

    def test_q_zero_reduces_to_negative_entropy_estimate(self):
        pol = make_policy(7)
        critic = FrozenQuadraticCritic([0.0, 0.0], np.inf)  # Q = 0 everywhere

        class ZeroCritic:
            def q_min(self, states, actions):
                return Tensor(np.zeros(np.atleast_2d(states).shape[0]))

        states = np.random.default_rng(2).normal(size=(512, OBS))
        rng = np.random.default_rng(3)
        sample = pol.sample(states, rng)
        loss = reverse_kl_loss(pol, ZeroCritic(), states, 1.0, rng, sample=sample)
        assert loss.data == pytest.approx(np.mean(sample.log_prob.data))

    def test_gradcheck(self):
        pol = make_policy(8)
        pol.converge_spectral()
        critics = make_critics(8)
        states = np.random.default_rng(4).normal(size=(4, OBS))

        def loss():
            return reverse_kl_loss(pol, critics, states, 0.7,
                                   np.random.default_rng(99))

        assert ad.finite_diff_check(loss, pol.parameters(), h=1e-4) < 1e-4

    def test_analytic_gradient_gaussian_quadratic(self):
        # k = 1, no squashing, Q = -u^2/2: E[alpha log pi - Q] has closed form
        # alpha*(-H(mu,sigma)) + (mu^2 + sigma^2)/2; compare gradients for a
        # policy with direct (mu, log sigma) parameters
        alpha = 0.7
        mu = ad.parameter(np.array([[0.3]]))
        log_sigma = ad.parameter(np.array([[-0.2]]))
        rng = np.random.default_rng(0)
        n = 200_000
        eps = rng.standard_normal((n, 1))

        sigma = ad.exp(log_sigma)
        u = ad.add(mu, ad.mul(sigma, Tensor(eps)))
        # log pi(u) for the reparameterized draw
        z = ad.div(ad.sub(u, mu), sigma)
        logp = ad.sub(ad.mul(ad.mul(z, z), -0.5),
                      ad.add(ad.log(sigma), 0.5 * np.log(2 * np.pi)))
        q = ad.mul(ad.mul(u, u), -0.5)
        loss = ad.tmean(ad.sub(ad.mul(logp, alpha), q))
        loss.backward()
        g_mu = float(mu.grad[0, 0])
        g_ls = float(log_sigma.grad[0, 0])
        m, s = 0.3, np.exp(-0.2)
        # d/dmu [alpha*(-H) + (mu^2+s^2)/2] = mu ; d/dlog s = -alpha + s^2
        assert g_mu == pytest.approx(m, abs=3e-2)
        assert g_ls == pytest.approx(-alpha + s * s, abs=3e-2)


class TestForwardKl:
    def test_duplicated_sample_set_mean_invariance(self):
        pol = make_policy(9)
        states = np.random.default_rng(5).normal(size=(4, OBS))
        acts = np.random.default_rng(6).uniform(-0.9, 0.9, (4, ACT))
        a = forward_kl_loss(pol, states, acts)
        b = forward_kl_loss(pol, np.tile(states, (3, 1)), np.tile(acts, (3, 1)))
        assert a.data == pytest.approx(b.data)

    def test_point_mass_likelihood_monotonicity(self):
        # as sigma shrinks toward samples drawn at the component mean, the
        # loss (negative log-likelihood) decreases monotonically
        bounds = ActionBounds(-np.ones(1), np.ones(1))
        from bifurcrl.distributions import GmmPolicyOutput, gmm_log_prob
        target = np.array([[0.2]])
        prev = None
        for sd in (1.0, 0.5, 0.2, 0.1):
            out = GmmPolicyOutput(Tensor(np.array([[1.0]])),
                                  Tensor(np.arctanh(target).reshape(1, 1, 1)),
                                  Tensor(np.full((1, 1, 1), sd)), bounds)
            nll = -gmm_log_prob(out, target).data[0]
            if prev is not None:
                assert nll < prev
            prev = nll

    def test_gaussian_cross_entropy_closed_form(self):
        # k = 1 unsquashed policy scored on samples from a wider Gaussian:
        # E[-log pi] = 0.5*log(2 pi s^2) + (S^2 + (M - m)^2) / (2 s^2)
        pol_m, pol_s = 0.2, 0.6
        samp_m, samp_s = -0.1, 1.1
        rng = np.random.default_rng(7)
        n = 200_000
        samples = rng.normal(samp_m, samp_s, size=(n, 1))
        from bifurcrl.distributions import GmmPolicyOutput, gmm_log_prob
        out = GmmPolicyOutput(Tensor(np.ones((n, 1))),
                              Tensor(np.full((n, 1, 1), pol_m)),
                              Tensor(np.full((n, 1, 1), pol_s)), None)
        est = float(np.mean(-gmm_log_prob(out, samples).data))
        expect = 0.5 * np.log(2 * np.pi * pol_s ** 2) \
            + (samp_s ** 2 + (samp_m - pol_m) ** 2) / (2 * pol_s ** 2)
        assert est == pytest.approx(expect, rel=0.02)

    def test_gradcheck(self):
        pol = make_policy(10)
        pol.converge_spectral()
        states = np.random.default_rng(8).normal(size=(4, OBS))
        acts = np.random.default_rng(9).uniform(-0.9, 0.9, (4, ACT))

        def loss():
            return forward_kl_loss(pol, states, acts)

        assert ad.finite_diff_check(loss, pol.parameters(), h=1e-4) < 1e-4


class TestPolicyLoss:
    def test_lambda_zero_is_reverse_only(self):
        j = policy_loss(Tensor(np.array(-3.0)), Tensor(np.array(2.0)), 0.0)
        assert j.data == pytest.approx(-3.0)

    def test_arithmetic(self):
        j = policy_loss(Tensor(np.array(-3.0)), Tensor(np.array(2.0)), 1.0)
        assert j.data == pytest.approx(-1.0)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigError):
            policy_loss(Tensor(np.array(0.0)), Tensor(np.array(0.0)), -0.1)


def test_lambda_schedule_midpoint_and_ends():
    # the trainer ramps the forward-KL weight from lambda_initial to
    # lambda_final over all updates, then holds it
    cfg = TrainConfig(iterations=1001, update_steps=1, lambda_initial=1.0,
                      lambda_final=0.0, hidden=(8, 8), buffer_capacity=100)
    lam = Trainer(Gap1dEnv(), cfg).lambda_schedule
    assert lam.at(0) == pytest.approx(1.0)
    assert lam.at(500) == pytest.approx(0.5)
    assert lam.at(1000) == pytest.approx(0.0)
    assert lam.at(5000) == pytest.approx(0.0)


class TestTemperature:
    def test_zero_gap_leaves_alpha(self):
        temp = Temperature(np.log(0.5), target_entropy=-2.0)
        logp = np.full(16, 2.0)  # E[-log pi] = -2 = H
        out = temperature_update(temp, logp, 1e-3)
        assert out.alpha == pytest.approx(0.5)

    def test_entropy_above_target_decreases_alpha(self):
        temp = Temperature(np.log(0.5), target_entropy=-2.0)
        logp = np.full(16, -3.0)  # entropy estimate 3 > -2
        out = temperature_update(temp, logp, 1e-3)
        assert out.alpha < 0.5

    def test_log_parameterization_matches_direct_at_alpha_one(self):
        # gap k = E[-log pi] - H = -0.5 + 1 = 0.5; beta 1e-3. The log step
        # is log(alpha) -= beta * k; the plain update gives 1 - beta * k
        temp = Temperature(0.0, target_entropy=-1.0)
        logp = np.full(8, 0.5)
        out = temperature_update(temp, logp, 1e-3)
        assert out.log_alpha == pytest.approx(-5e-4, rel=1e-12)
        assert out.alpha == pytest.approx(1.0 - 5e-4, abs=1e-6)

    def test_alpha_floored(self):
        temp = Temperature(np.log(1e-6), target_entropy=-1.0, floor=1e-6)
        logp = np.full(8, -100.0)
        out = temperature_update(temp, logp, 1.0)
        assert out.alpha == pytest.approx(1e-6, rel=1e-12)
        assert out.log_alpha == pytest.approx(np.log(1e-6), rel=1e-12)

    def test_rejects_bad_inputs(self):
        temp = Temperature(0.0, -1.0)
        with pytest.raises(ConfigError):
            temperature_update(temp, np.zeros(4), 0.0)
        with pytest.raises(ConfigError):
            temperature_update(temp, np.zeros(4), -1e-3)


def test_bimodal_q_with_forward_kl_keeps_both_gates():
    # fixed synthetic bimodal Q: two equal bumps; training with lambda = 1
    # must keep both gates alive (>= 0.2)
    class BimodalCritic:
        def q_min(self, states, actions):
            a = ad.as_tensor(actions)
            d1 = ad.sub(a, Tensor(np.array([0.6, 0.0])))
            d2 = ad.sub(a, Tensor(np.array([-0.6, 0.0])))
            b1 = ad.exp(ad.mul(ad.tsum(ad.mul(d1, d1), axis=1), -8.0))
            b2 = ad.exp(ad.mul(ad.tsum(ad.mul(d2, d2), axis=1), -8.0))
            return ad.mul(ad.add(b1, b2), 4.0)

    critic = BimodalCritic()
    pol = make_policy(12, k=2)
    opt = AdamState(pol.parameters(), LrSchedule(3e-3, 3e-3, 10))
    rng = np.random.default_rng(0)
    states = np.zeros((64, OBS))
    alpha = 0.5
    for _ in range(150):
        sample = pol.sample(states, rng)
        j_rev = reverse_kl_loss(pol, critic, states, alpha, rng, sample=sample)
        eng, _ = langevin_sample(critic, pol, states, alpha, 25, 0.01, rng)
        j_fwd = forward_kl_loss(pol, states, eng)
        loss = policy_loss(j_rev, j_fwd, 1.0)
        for p in pol.parameters():
            p.zero_grad()
        loss.backward()
        opt.step()
    gates = pol.forward(states).gates.data[0]
    assert gates.min() >= 0.2
