"""Training orchestration: interleaved collection and updates, schedules,
evaluation metrics, and bifurcation scans.

Update ordering per step is fixed: critic -> actor -> temperature -> targets.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import actor as actor_mod
from . import autodiff as ad
from . import critic as critic_mod
from . import distributions as dists
from .actor import PolicyNetwork, Temperature
from .critic import CriticPair
from .envs import penalized_reward
from .errors import ConfigError, NumericalError
from .nets import AdamState, LrSchedule, soft_update, zero_grads
from .replay import ReplayBuffer, Transition

LOG_HEADER = "iter,env_steps,avg_return,max_violation,alpha,lambda,lr,J_Z,J_pi,J_rev,J_fwd"

# lower bound on the temperature used to scale the Langevin step, so energy
# sampling keeps mixing even when the adaptive temperature collapses
LANGEVIN_ALPHA_FLOOR = 0.05


# the numeric kinds of TrainConfig's fields, by their declared type
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}


@dataclass
class TrainConfig:
    algorithm: str = "multimodal"  # multimodal | continuous
    seed: int = 0
    iterations: int = 200
    sampling_steps: int = 50
    update_steps: int = 50
    batch_size: int = 256
    buffer_capacity: int = 1_000_000
    min_buffer: int | None = None  # default: 10 * batch_size
    gamma: float = 0.99
    tau: float = 0.005
    hidden: tuple = (256, 256, 256)
    components: int = 2
    lipschitz: float = 1.0
    lr_initial: float = 1e-3
    lr_final: float = 5e-5
    lambda_initial: float = 1.0
    lambda_final: float = 0.0
    langevin_steps: int = 20
    langevin_step_size: float = 0.03
    initial_temperature: float = 1.0
    target_entropy: float | None = None  # default: -act_dim
    eval_every: int = 100
    eval_episodes: int = 16
    checkpoint_every: int = 0  # 0: only final

    def __post_init__(self):
        # a value of the wrong kind fails here, named, not deep in training
        # (PyYAML reads 1e-3, written without a dot, as a string)
        for f in fields(self):
            kind = _KINDS.get(f.type.removesuffix(" | None"))
            value = getattr(self, f.name)
            if kind is None or (value is None and f.type.endswith(" | None")):
                continue
            if isinstance(value, bool) or not isinstance(value, kind[0]):
                raise ConfigError(f"{f.name} must be {kind[1]}, got {value!r}")
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n > 0
                   for n in self.hidden):
            raise ConfigError(f"hidden must hold positive integers, got {self.hidden!r}")
        if self.algorithm not in ("multimodal", "continuous"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "continuous":
            # the continuous baseline is the mixture algorithm with k = 1 and
            # a zero forward-KL weight; nothing else changes
            self.components = 1
            self.lambda_initial = 0.0
            self.lambda_final = 0.0
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must lie in [0, 1], got {self.tau!r}")
        if not self.lipschitz > 0.0:
            raise ConfigError(f"lipschitz must be positive, got {self.lipschitz!r}")
        for name in ("iterations", "sampling_steps", "update_steps", "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def total_updates(self):
        return self.iterations * self.update_steps


@dataclass
class EvalReport:
    avg_return: float
    max_violation: float
    episodes: list = field(default_factory=list)


@dataclass
class EpisodeRecord:
    initial: float
    ret: float
    max_h: float
    steps: int


def sweep_coord(env, state) -> float:
    """The initial-condition coordinate the task's scans sweep over."""
    if env.task == "gap1d":
        return float(state.y)
    return float(state.p_y if env.sweep_axis == "p_y" else state.p_x)


def evaluate(policy: PolicyNetwork, env, n_episodes: int, rng: np.random.Generator,
             probes=None) -> EvalReport:
    """Deterministic-action rollouts; reports the undiscounted unpenalized
    return and the maximum positive constraint value across all steps.

    Probes pin the initial coordinate of the first episodes, one each.
    """
    episodes = []
    overrides = list(probes) if probes else []
    if len(overrides) > n_episodes:
        raise ConfigError(f"{len(overrides)} probes need at least as many episodes, "
                          f"got {n_episodes}; probes replace the first episodes")
    for ep in range(n_episodes):
        override = overrides[ep] if ep < len(overrides) else None
        state = env.reset(rng, override=override)
        initial = sweep_coord(env, state)
        ret, max_h, steps = 0.0, 0.0, 0
        done = False
        while not done:
            action = policy.act_deterministic(env.observe(state))[0]
            res = env.step(state, action)
            ret += res.reward
            max_h = max(max_h, max(0.0, res.h))
            state, done = res.state, res.done
            steps += 1
        episodes.append(EpisodeRecord(float(initial), ret, max_h, steps))
    avg = float(np.mean([e.ret for e in episodes]))
    worst = float(max(e.max_h for e in episodes))
    return EvalReport(avg_return=avg, max_violation=worst, episodes=episodes)


def bifurcation_scan(policy: PolicyNetwork, env, grid) -> list:
    """First deterministic action and gate probabilities per initial state.

    Returns rows: (coordinate, action..., gates..., chosen component).
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ConfigError("scan grid must be strictly increasing")
    rows = []
    rng = np.random.default_rng(0)  # resets are fully overridden
    for coord in grid:
        state = env.reset(rng, override=float(coord))
        out = policy.forward(env.observe(state))
        action = dists.deterministic_action(out)[0]
        gates = out.gates.data[0]
        chosen = int(np.argmax(gates))
        rows.append((float(coord), action.copy(), gates.copy(), chosen))
    return rows


def scan_csv(rows, act_dim: int, k: int) -> str:
    header = ["coord"] + [f"action_{i}" for i in range(act_dim)] \
        + [f"gate_{i}" for i in range(k)] + ["chosen"]
    lines = [",".join(header)]
    for coord, action, gates, chosen in rows:
        vals = [repr(coord)] + [repr(float(a)) for a in action] \
            + [repr(float(g)) for g in gates] + [str(chosen)]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


class Trainer:
    """Off-policy actor-critic training per the fixed update ordering."""

    def __init__(self, env, cfg: TrainConfig):
        self.env = env
        self.cfg = cfg
        self.obs_dim = env.obs_dim
        self.act_dim = env.act_dim
        seq = np.random.SeedSequence(cfg.seed)
        (s_init, s_collect, s_update, s_eval) = seq.spawn(4)
        init_rng = np.random.default_rng(s_init)
        self.collect_rng = np.random.default_rng(s_collect)
        self.update_rng = np.random.default_rng(s_update)
        self.eval_rng_seed = s_eval

        self.policy = PolicyNetwork(self.obs_dim, self.act_dim, cfg.hidden,
                                    cfg.components, env.bounds, cfg.lipschitz,
                                    init_rng, name="policy")
        self.target_policy = PolicyNetwork(self.obs_dim, self.act_dim, cfg.hidden,
                                           cfg.components, env.bounds, cfg.lipschitz,
                                           init_rng, name="target_policy")
        self.target_policy.copy_from(self.policy)
        self.critics = CriticPair(self.obs_dim, self.act_dim, cfg.hidden, init_rng)

        total = cfg.total_updates
        sched = lambda: LrSchedule(cfg.lr_initial, cfg.lr_final, total)
        self.opt_critic = [AdamState(self.critics.parameters(i), sched())
                           for i in (0, 1)]
        self.opt_policy = AdamState(self.policy.parameters(), sched())
        self.alpha_schedule = sched()
        self.lambda_schedule = LrSchedule(cfg.lambda_initial, cfg.lambda_final, total)
        h_target = cfg.target_entropy if cfg.target_entropy is not None \
            else -float(self.act_dim)
        self.temperature = Temperature(float(np.log(cfg.initial_temperature)), h_target)

        min_fill = cfg.min_buffer if cfg.min_buffer is not None \
            else 10 * cfg.batch_size
        self.min_buffer = max(min_fill, cfg.batch_size)
        self.buffer = ReplayBuffer(cfg.buffer_capacity, self.obs_dim, self.act_dim)

        self.update_count = 0
        self.env_steps = 0
        self.iteration = 0
        self._state = None
        self._last_eval = EvalReport(float("nan"), float("nan"))
        self._losses = {"J_Z": float("nan"), "J_pi": float("nan"),
                        "J_rev": float("nan"), "J_fwd": float("nan")}

    # -- data collection ---------------------------------------------------
    def _collect_step(self):
        env = self.env
        if self._state is None:
            self._state = env.reset(self.collect_rng)
        state = self._state
        obs = env.observe(state)
        sample = self.policy.sample(obs, self.collect_rng)
        action = sample.action[0]
        res = env.step(state, action)
        r_pen = penalized_reward(res.reward, res.h, env.penalty)
        horizon_end = res.state.t >= env.horizon - 1e-9
        terminal = res.done and not horizon_end
        self.buffer.push(Transition(obs, action, r_pen,
                                    env.observe(res.state), terminal))
        self.env_steps += 1
        self._state = None if res.done else res.state

    # -- one gradient update -----------------------------------------------
    def _update_step(self):
        cfg = self.cfg
        batch = self.buffer.sample_batch(cfg.batch_size, self.update_rng)
        if batch is None:
            return
        alpha = self.temperature.alpha
        # advance the spectral-norm warm starts once per training step
        self.policy.refresh_spectral(1)
        self.target_policy.refresh_spectral(1)

        # critic: targets from the target policy and a target-critic draw
        next_sample = self.target_policy.sample(batch.next_states, self.update_rng)
        logp_next = next_sample.log_prob.data
        pick = self.update_rng.integers(0, 2, size=cfg.batch_size)
        z = np.empty(cfg.batch_size)
        for j in (0, 1):
            m = pick == j
            if not np.any(m):
                continue
            d = self.critics.target(j, batch.next_states[m], next_sample.action[m])
            z[m] = d.q.data + d.sigma.data * self.update_rng.standard_normal(int(m.sum()))
        y = critic_mod.target_value(batch.rewards, cfg.gamma, z, alpha,
                                    logp_next, batch.terminals)
        j_z_vals = []
        for i in (0, 1):
            zero_grads(self.critics.all_parameters())
            d = self.critics.online(i, batch.states, batch.actions)
            loss = critic_mod.critic_loss(d, y)
            self._check_finite(loss, "critic loss")
            loss.backward()
            self.opt_critic[i].step()
            j_z_vals.append(float(loss.data))

        # actor
        lam = self.lambda_schedule.at(self.update_count)
        sample = self.policy.sample(batch.states, self.update_rng)
        logp_now = sample.log_prob.data.copy()
        j_rev = actor_mod.reverse_kl_loss(self.policy, self.critics, batch.states,
                                          alpha, self.update_rng, sample=sample)
        if lam > 0.0:
            # temperature-scaled step: the energy gradient is grad(Q)/alpha,
            # so a fixed step diverges as alpha shrinks; scaling by alpha
            # keeps the drift at step * grad(Q) and leaves the stationary
            # law exp(Q/alpha) unchanged. The floor keeps the chains moving
            # if the temperature collapses
            eng_actions, _ = actor_mod.langevin_sample(
                self.critics, self.policy, batch.states, alpha,
                cfg.langevin_steps,
                cfg.langevin_step_size * max(alpha, LANGEVIN_ALPHA_FLOOR),
                self.update_rng)
            j_fwd = actor_mod.forward_kl_loss(self.policy, batch.states, eng_actions)
        else:
            j_fwd = ad.Tensor(0.0)
        j_pi = actor_mod.policy_loss(j_rev, j_fwd, lam)
        self._check_finite(j_pi, "policy loss")
        zero_grads(self.policy.parameters())
        j_pi.backward()
        self.opt_policy.step()

        # temperature
        beta_alpha = self.alpha_schedule.at(self.update_count)
        self.temperature = actor_mod.temperature_update(
            self.temperature, logp_now, beta_alpha)

        # target networks
        for i in (0, 1):
            soft_update(self.critics.nets[i].parameters(),
                        self.critics.targets[i].parameters(), cfg.tau)
        soft_update(self.policy.parameters(), self.target_policy.parameters(),
                    cfg.tau)
        self.update_count += 1
        self._losses = {"J_Z": float(np.mean(j_z_vals)), "J_pi": float(j_pi.data),
                        "J_rev": float(j_rev.data), "J_fwd": float(j_fwd.data)}

    def _check_finite(self, loss, what):
        if not np.all(np.isfinite(loss.data)):
            raise NumericalError(f"non-finite {what} at update {self.update_count}")

    # -- iteration and run ---------------------------------------------------
    def train_iteration(self) -> str:
        cfg = self.cfg
        for _ in range(cfg.sampling_steps):
            self._collect_step()
        if len(self.buffer) >= self.min_buffer:
            for _ in range(cfg.update_steps):
                self._update_step()
        self.iteration += 1
        if cfg.eval_every > 0 and self.iteration % cfg.eval_every == 0:
            rng = np.random.default_rng(self.eval_rng_seed)
            self._last_eval = evaluate(self.policy, self.env,
                                       cfg.eval_episodes, rng)
        vals = [self.iteration, self.env_steps,
                self._last_eval.avg_return, self._last_eval.max_violation,
                self.temperature.alpha, self.lambda_schedule.at(self.update_count),
                self.opt_policy.lr,
                self._losses["J_Z"], self._losses["J_pi"],
                self._losses["J_rev"], self._losses["J_fwd"]]
        return ",".join(str(v) if isinstance(v, int) else repr(float(v))
                        for v in vals)

    def named_parameters(self) -> dict:
        out = dict(self.policy.named_parameters())
        out.update(self.target_policy.named_parameters())
        out.update(self.critics.named_parameters())
        return out

    def optimizers(self) -> dict:
        return {"critic1": self.opt_critic[0], "critic2": self.opt_critic[1],
                "policy": self.opt_policy}

    def extra_state(self) -> dict:
        return {"log_alpha": self.temperature.log_alpha,
                "update_count": self.update_count,
                "env_steps": self.env_steps,
                "iteration": self.iteration,
                **self.policy.spectral_vectors()}
