"""End-to-end acceptance suite.

Each test exercises one acceptance criterion and prints a single PASS/FAIL
line. The two desk-scale training runs take a few minutes each; the extended
vehicle-task run is skipped unless BIFURCRL_RUN_EXTENDED=1.
"""
import os
import time

import numpy as np
import pytest
from scipy.stats import norm

from bifurcrl import autodiff as ad
from bifurcrl import critic as critic_mod
from bifurcrl import runner
from bifurcrl.actor import langevin_sample
from bifurcrl.autodiff import Tensor
from bifurcrl.config import build, load_config
from bifurcrl.critic import SIGMA_Q_MAX, SIGMA_Q_MIN, critic_loss
from bifurcrl.distributions import ActionBounds, GmmPolicyOutput, gmm_log_prob
from bifurcrl.gradcheck import run_gradcheck
from bifurcrl.nets import AdamState, LrSchedule
from bifurcrl.topology import (DiscObstacle, PlanarLoop, infeasibility_witness,
                               loop_contractible)
from bifurcrl.trainer import Trainer, bifurcation_scan, evaluate

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def train_from_config(name):
    raw = load_config(config_path(name))
    env, cfg = build(raw)
    trainer = Trainer(env, cfg)
    t0 = time.time()
    for _ in range(cfg.iterations):
        trainer.train_iteration()
    return trainer, env, time.time() - t0


@pytest.fixture(scope="module")
def gap1d_multimodal():
    return train_from_config("gap1d_multimodal.yaml")


@pytest.fixture(scope="module")
def gap1d_continuous():
    return train_from_config("gap1d_continuous.yaml")


def test_criterion_1_gradient_integrity():
    errors = run_gradcheck(seed=0, h=1e-4)
    worst = max(errors.values())
    report(1, "gradient integrity", worst < 1e-4,
           f"max relative error {worst:.3e} (tolerance 1e-4) across {sorted(errors)}")


def test_criterion_2_distribution_normalization():
    rng = np.random.default_rng(0)
    nodes, weights = np.polynomial.legendre.leggauss(256)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        lo, hi = sorted(rng.uniform(-3, 3, size=2))
        hi = max(hi, lo + 0.1)
        bounds = ActionBounds(np.array([lo]), np.array([hi]))
        g = rng.dirichlet(np.ones(k))
        mu = rng.normal(0, 1.0, size=(1, k, 1))
        sd = rng.uniform(0.15, 0.8, size=(1, k, 1))
        n = nodes.size
        out = GmmPolicyOutput(gates=Tensor(np.tile(g, (n, 1))),
                              means=Tensor(np.tile(mu, (n, 1, 1))),
                              stds=Tensor(np.tile(sd, (n, 1, 1))), bounds=bounds)
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        dens = np.exp(gmm_log_prob(out, x.reshape(-1, 1)).data)
        integral = 0.5 * (hi - lo) * float(weights @ dens)
        worst = max(worst, abs(integral - 1.0))
    report(2, "mixture density normalization", worst <= 1e-3,
           f"max |integral - 1| = {worst:.2e} over 100 randomized draws")


def test_criterion_3_spectral_budget():
    raw = load_config(config_path("determinism.yaml"))
    raw["train"]["iterations"] = 100
    env, cfg = build(raw)
    trainer = Trainer(env, cfg)
    for _ in range(cfg.iterations):
        trainer.train_iteration()
    tops = trainer.policy.spectral_report(100)
    worst = max(tops)
    report(3, "spectral budget", worst <= 1.001 * cfg.lipschitz,
           f"max top singular value {worst:.6f} across {len(tops)} policy layers "
           f"(budget {cfg.lipschitz})")


def test_criterion_4_langevin_gibbs_statistics():
    # energy -(u - u*)^2 / (2 s) at temperature alpha has stationary law
    # N(u*, s * alpha)
    s, alpha, u_star = 0.5, 0.4, np.array([0.2, -0.1])

    class QuadraticCritic:
        def q_min(self, states, actions):
            d = ad.sub(ad.as_tensor(actions), Tensor(u_star))
            return ad.mul(ad.tsum(ad.mul(d, d), axis=1), -0.5 / s)

    class BroadInit:
        bounds = None

        def sample(self, states, rng):
            class S:
                pre_action = Tensor(rng.normal(0.0, 1.0, (len(states), 2)))
            return S()

    n = 10_000
    kappa = 1.0 / (s * alpha)
    out, _ = langevin_sample(QuadraticCritic(), BroadInit(), np.zeros((n, 1)),
                             alpha, 400, 0.1 / kappa, np.random.default_rng(1))
    sd = np.sqrt(s * alpha)
    mean_err = np.abs(out.mean(axis=0) - u_star).max() / sd
    var_err = np.abs(out.var(axis=0) / (s * alpha) - 1.0).max()
    report(4, "Langevin sampler matches the Gibbs law",
           mean_err < 0.05 and var_err < 0.10,
           f"mean error {mean_err:.3f} sigma (tol 0.05), "
           f"variance error {var_err * 100:.1f}% (tol 10%)")


def test_criterion_5_critic_fixed_point():
    rng = np.random.default_rng(0)
    targets = rng.normal(1.5, 2.0, size=256)
    q = ad.parameter(0.0)
    pre = ad.parameter(0.0)
    opt = AdamState([q, pre], LrSchedule(0.05, 0.01, 3000))
    n = targets.size
    for _ in range(3000):
        qb = ad.reshape(ad.mul(q, np.ones(1)), (1,))
        sig = ad.smooth_clamp(ad.reshape(ad.mul(pre, np.ones(1)), (1,)),
                              SIGMA_Q_MIN, SIGMA_Q_MAX)
        d = critic_mod.ValueDistribution(Tensor(np.zeros(n)) + qb,
                                         Tensor(np.zeros(n)) + sig)
        loss = critic_loss(d, targets)
        q.zero_grad()
        pre.zero_grad()
        loss.backward()
        opt.step()
    sig_val = SIGMA_Q_MIN + (SIGMA_Q_MAX - SIGMA_Q_MIN) / (
        1.0 + np.exp(-float(pre.data)))
    q_err = abs(float(q.data) - targets.mean())
    var_err = abs(sig_val ** 2 / targets.var() - 1.0)
    report(5, "critic loss fixed point", q_err < 1e-3 and var_err < 0.05,
           f"|Q - mean| = {q_err:.2e} (tol 1e-3), "
           f"variance error {var_err * 100:.2f}% (tol 5%)")


def test_criterion_6_bifurcation_reproduction(gap1d_multimodal):
    trainer, env, elapsed = gap1d_multimodal
    grid = np.linspace(-0.4, 0.4, 81)
    rows = bifurcation_scan(trainer.policy, env, grid)
    acts = np.array([r[1][0] for r in rows])
    jump = float(np.max(np.abs(np.diff(acts))))
    action_range = float(env.bounds.hi[0] - env.bounds.lo[0])
    rep = evaluate(trainer.policy, env, 64, np.random.default_rng(0),
                   probes=[0.01, 0.0, -0.01])
    ok = jump > 0.5 * action_range and rep.max_violation == 0.0 and elapsed < 600
    report(6, "bifurcated detour policy",
           ok,
           f"max adjacent action jump {jump:.3f} (needs > {0.5 * action_range}), "
           f"max violation {rep.max_violation:.4f} over 64 episodes (3 of them probes) "
           f"(needs 0), trained in {elapsed:.0f}s (budget 600s)")


def test_criterion_7_continuous_infeasibility_witness(gap1d_continuous):
    trainer, env, elapsed = gap1d_continuous

    def policy_fn(obs):
        return trainer.policy.act_deterministic(obs)[0]

    rep = infeasibility_witness(policy_fn, env, -0.4, 0.4, tol=1e-3)
    width = rep.bracket_hi - rep.bracket_lo
    ok = rep.found and rep.max_h > 0.0 and width < 1e-2 and elapsed < 600
    report(7, "continuous-policy infeasibility witness", ok,
           f"witness {rep.witness!r} with max h {rep.max_h:.4f} (needs > 0), "
           f"bracket width {width:.2e} (needs < 1e-2), "
           f"trained in {elapsed:.0f}s (budget 600s)")


def test_criterion_8_topology_verdicts():
    th = np.linspace(0.0, 2.0 * np.pi, 65)
    around = np.stack([30.0 + 2.5 * np.cos(th), 2.5 * np.sin(th)], axis=1)
    around[-1] = around[0]
    obstacle = DiscObstacle(np.array([30.0, 0.0]), 1.0)
    v1 = loop_contractible(PlanarLoop(around), [obstacle])
    displaced = PlanarLoop(around + np.array([0.0, 10.0]))
    v2 = loop_contractible(displaced, [obstacle])
    ok = (not v1.contractible and v1.windings == [1]
          and v2.contractible and v2.windings == [0])
    report(8, "initial-set topology verdicts", ok,
           f"encircling loop: contractible={v1.contractible} windings={v1.windings}; "
           f"displaced loop: contractible={v2.contractible} windings={v2.windings}")


def test_criterion_9_determinism(tmp_path):
    raw = load_config(config_path("determinism.yaml"))
    t0 = time.time()
    r1 = runner.run_training(dict(raw), out_root=tmp_path, run_name="a")
    r2 = runner.run_training(dict(raw), out_root=tmp_path, run_name="b")
    elapsed = time.time() - t0
    b1 = (r1 / "train.csv").read_bytes()
    b2 = (r2 / "train.csv").read_bytes()
    n_rows = len(b1.splitlines()) - 1
    ok = b1 == b2 and n_rows == 1000 and elapsed < 300
    report(9, "seeded training determinism", ok,
           f"two {n_rows}-iteration runs byte-identical: {b1 == b2}, "
           f"in {elapsed:.0f}s (budget 300s)")


def max_gelu_slope():
    x = np.linspace(-3, 3, 20001)
    return float(np.max(norm.cdf(x) + x * norm.pdf(x)))


@pytest.mark.skipif(os.environ.get("BIFURCRL_RUN_EXTENDED") != "1",
                    reason="extended vehicle-task run; set BIFURCRL_RUN_EXTENDED=1")
def test_criterion_10_vehicle_bypass_contrast():
    tr_m, env, _ = train_from_config("bypass_multimodal.yaml")
    tr_c, env_c, _ = train_from_config("bypass_continuous.yaml")
    # the Lipschitz bound below assumes exact singular-value clipping
    tr_c.policy.converge_spectral(2000)
    grid = np.linspace(-0.5, 0.5, 101)
    rows_m = bifurcation_scan(tr_m.policy, env, grid)
    rows_c = bifurcation_scan(tr_c.policy, env_c, grid)
    steer_m = np.array([r[1][0] for r in rows_m])
    steer_c = np.array([r[1][0] for r in rows_c])
    # adjacent-row bound for a Lipschitz-budgeted single-component policy:
    # trunk budget^depth * GeLU slope^hidden * squash slope * input distance.
    # The swept lateral coordinate feeds two observation entries (absolute
    # and obstacle-frame), so adjacent rows are spacing * sqrt(2) apart
    depth = len(tr_c.cfg.hidden)
    span = float(env.bounds.hi[0] - env.bounds.lo[0])
    bound = (tr_c.cfg.lipschitz ** (depth + 1) * max_gelu_slope() ** depth
             * 0.5 * span * np.sqrt(2.0) * (grid[1] - grid[0]))
    jump_m = float(np.max(np.abs(np.diff(steer_m))))
    gap_c = float(np.max(np.abs(np.diff(steer_c))))
    sign_change = bool(np.any(np.sign(steer_m[:-1]) * np.sign(steer_m[1:]) < 0))
    ok = sign_change and jump_m > bound and gap_c <= bound * (1 + 1e-6)
    report(10, "vehicle bypass steering contrast", ok,
           f"mixture: sign change {sign_change}, max jump {jump_m:.4f} "
           f"(needs > row bound {bound:.4f}); continuous: max adjacent gap "
           f"{gap_c:.4f} (needs <= {bound:.4f})")
