"""Mixture policy network, energy-based target policy, Langevin sampling,
dual-KL policy losses, and temperature adaptation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import distributions as dist
from .autodiff import Tensor
from .critic import CriticPair
from .distributions import ActionBounds, GmmPolicyOutput
from .errors import ConfigError
from .nets import SpectralNormalizer, linear

LOG_STD_MIN = float(np.log(dist.STD_MIN))
LOG_STD_MAX = float(np.log(dist.STD_MAX))
STD_INIT = 0.5


class PolicyNetwork:
    """GeLU trunk plus gate/mean/pre-std heads, every linear layer under a
    shared Lipschitz budget via spectral normalization."""

    def __init__(self, obs_dim: int, act_dim: int, hidden, components: int,
                 bounds: ActionBounds | None, lipschitz: float,
                 rng: np.random.Generator, name: str = "policy"):
        if components < 1:
            raise ConfigError("mixture needs at least one component")
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.k = components
        self.bounds = bounds
        self.lipschitz = float(lipschitz)
        self.name = name
        self._params = []
        self._normalizers = []

        def layer(n_in, n_out, tag):
            w, b = linear(n_in, n_out, rng, f"{name}.{tag}.w", f"{name}.{tag}.b")
            self._params.extend([w, b])
            self._normalizers.append(SpectralNormalizer(w, self.lipschitz, rng))
            return w, b

        self.trunk = []
        last = obs_dim
        for i, width in enumerate(hidden):
            self.trunk.append(layer(last, width, f"trunk{i}"))
            last = width
        self.head_gate = layer(last, components, "gate")
        self.head_mean = layer(last, components * act_dim, "mean")
        self.head_std = layer(last, components * act_dim, "std")
        # bias the pre-std head so the initial std sits at STD_INIT rather
        # than at the geometric mean of the clamp range (too narrow to explore)
        frac = (np.log(STD_INIT) - LOG_STD_MIN) / (LOG_STD_MAX - LOG_STD_MIN)
        self.head_std[1].data[...] = np.log(frac / (1.0 - frac))
        # spread the component means across the pre-squash space at init;
        # near-identical components receive near-identical gradients and
        # never specialize, collapsing the mixture
        if components > 1:
            offsets = 2.0 * np.arange(components) / (components - 1) - 1.0
            self.head_mean[1].data[...] = np.repeat(offsets, act_dim)

    def parameters(self):
        return list(self._params)

    def named_parameters(self) -> dict:
        return {p.name: p for p in self._params}

    def copy_from(self, other: "PolicyNetwork"):
        for mine, theirs in zip(self._params, other._params):
            mine.data[...] = theirs.data

    def forward(self, states, power_iters: int = 1) -> GmmPolicyOutput:
        x = ad.as_tensor(np.atleast_2d(np.asarray(states, dtype=np.float64)))
        if x.data.shape[1] != self.obs_dim:
            raise ConfigError(
                f"{self.name}: observation width {x.data.shape[1]} != {self.obs_dim}")
        norms = iter(self._normalizers)

        def dense(h, layer):
            w_eff = next(norms).effective_weight(power_iters)
            return ad.add(ad.matmul(h, w_eff), layer[1])

        h = x
        for layer in self.trunk:
            h = ad.gelu(dense(h, layer))
        n = h.data.shape[0]
        gates = ad.softmax(dense(h, self.head_gate), axis=1)
        means = ad.reshape(dense(h, self.head_mean), (n, self.k, self.act_dim))
        pre_std = ad.reshape(dense(h, self.head_std), (n, self.k, self.act_dim))
        stds = ad.exp(ad.smooth_clamp(pre_std, LOG_STD_MIN, LOG_STD_MAX))
        return GmmPolicyOutput(gates=gates, means=means, stds=stds, bounds=self.bounds)

    def sample(self, states, rng, power_iters: int = 1):
        return dist.gmm_sample(self.forward(states, power_iters), rng)

    def act_deterministic(self, states) -> np.ndarray:
        return dist.deterministic_action(self.forward(states))

    def refresh_spectral(self, iters: int = 1):
        """Advance every layer's power-iteration warm start (one training step)."""
        for norm in self._normalizers:
            norm.refresh(iters)

    def converge_spectral(self, iters: int = 50):
        """Run power iteration to its fixed point on every layer, so the
        singular-value estimates behind the clip are accurate."""
        self.refresh_spectral(iters)

    def spectral_vectors(self) -> dict:
        """Each layer's power-iteration warm-start vector, keyed by
        'spectral/' + its weight's name."""
        return {f"spectral/{norm.weight.name}": norm.u for norm in self._normalizers}

    def restore_spectral_vectors(self, vectors: dict):
        """Set the warm-start vectors saved by spectral_vectors(), so the
        clip, and with it every action, matches the saved policy exactly."""
        for norm in self._normalizers:
            name = f"spectral/{norm.weight.name}"
            if name not in vectors:
                raise ConfigError(f"missing spectral warm-start vector for {name!r}")
            u = np.asarray(vectors[name], dtype=np.float64)
            if u.shape != norm.u.shape:
                raise ConfigError(
                    f"spectral vector shape {u.shape} != {norm.u.shape} for {name!r}")
            norm.u = u.copy()

    def spectral_report(self, iters: int = 30) -> list:
        """Exact top singular value of each effective weight after clipping."""
        out = []
        for norm in self._normalizers:
            w_eff = norm.effective_weight(iters).data
            out.append(float(np.linalg.svd(w_eff, compute_uv=False)[0]))
        return out


@dataclass
class Temperature:
    """Entropy coefficient stored as log(alpha) for positivity."""
    log_alpha: float
    target_entropy: float
    floor: float = 1e-6

    @property
    def alpha(self) -> float:
        return max(float(np.exp(self.log_alpha)), self.floor)


def energy_score(critic: CriticPair, states, actions, alpha: float) -> Tensor:
    """Unnormalized log-density of the energy-based target policy: Q_min / alpha."""
    if alpha <= 0:
        raise ConfigError("temperature must be positive")
    return ad.mul(critic.q_min(states, actions), 1.0 / alpha)


def energy_grad_fn(critic, states, bounds: ActionBounds | None, alpha: float):
    """grad(pre): the gradient of sum(energy_score) at the squashed `pre`,
    with respect to `pre`. A CriticPair takes the tape-free path; any other
    critic is backpropagated through its q_min."""
    if alpha <= 0:
        raise ConfigError("temperature must be positive")
    if not isinstance(critic, CriticPair):
        def grad(pre):
            u = Tensor(pre, requires_grad=True)
            ad.tsum(energy_score(critic, states, dist.squash(u, bounds), alpha)).backward()
            return u.grad
        return grad
    q_grad = critic.q_min_action_grad_fn(states)

    def grad(pre):
        action, vjp = dist.squash_vjp(pre, bounds)
        return vjp(q_grad(action, 1.0 / alpha))

    return grad


def langevin_sample(critic: CriticPair, policy: PolicyNetwork, states: np.ndarray,
                    alpha: float, n_steps: int, step_size: float,
                    rng: np.random.Generator, noise_scale: float = 1.0):
    """Sample actions from the energy-based policy by noisy gradient ascent
    on Q_min/alpha in pre-squash space, one chain per state.

    Returns (actions, restarts): squashed final iterates and the count of
    chains restarted after a non-finite gradient.
    """
    states = np.atleast_2d(states)
    init = policy.sample(states, rng)
    pre = init.pre_action.data.copy()
    # chains started at the current policy cannot cross energy barriers at
    # low temperature, so a collapsed policy would hide the other modes from
    # the mass-covering loss forever; seed every other chain from a broad
    # pre-squash Gaussian to keep all basins represented
    broad = 2.0 * rng.standard_normal(pre.shape)
    mixed = np.arange(pre.shape[0]) % 2 == 1
    pre[mixed] = broad[mixed]
    restarts = 0
    grad = energy_grad_fn(critic, states, policy.bounds, alpha)
    for _ in range(n_steps):
        g = grad(pre)
        bad = ~np.all(np.isfinite(g), axis=1)
        if np.any(bad):
            restarts += int(bad.sum())
            fresh = policy.sample(states[bad], rng)
            pre[bad] = fresh.pre_action.data
            g[bad] = 0.0
        noise = rng.standard_normal(pre.shape)
        pre = pre + step_size * g + noise_scale * np.sqrt(2.0 * step_size) * noise
    return dist.squash(Tensor(pre), policy.bounds).data, restarts


def reverse_kl_loss(policy: PolicyNetwork, critic: CriticPair, states,
                    alpha: float, rng: np.random.Generator, sample=None) -> Tensor:
    """Mode-seeking term: E[alpha * log pi(u|x) - Q_min(x, u)] with pathwise u.

    A precomputed policy `sample` for the same states may be reused.
    """
    if sample is None:
        sample = policy.sample(states, rng)
    q = critic.q_min(states, dist.squash(sample.pre_action, policy.bounds))
    logp = ad.mul(sample.log_prob, alpha)
    return ad.tmean(ad.sub(logp, q))


def forward_kl_loss(policy: PolicyNetwork, states, actions) -> Tensor:
    """Mass-covering term: mean of -log pi(u|x) over energy-policy samples."""
    out = policy.forward(states)
    return ad.tmean(ad.mul(dist.gmm_log_prob(out, actions), -1.0))


def policy_loss(j_rev: Tensor, j_fwd: Tensor, lam: float) -> Tensor:
    if lam < 0:
        raise ConfigError("forward-KL weight must be nonnegative")
    return ad.add(j_rev, ad.mul(j_fwd, lam))


def temperature_update(temp: Temperature, log_probs: np.ndarray,
                       beta: float) -> Temperature:
    """log(alpha) <- log(alpha) - beta * E[-log pi - H], alpha floored at
    temp.floor.

    Stepping log(alpha) makes the update multiplicative in alpha: to first
    order it is the plain update alpha - beta * E[-log pi - H] at alpha = 1,
    and it stays positive and stable for small alpha.
    """
    if beta <= 0:
        raise ConfigError("temperature learning rate must be positive")
    k = float(np.mean(-log_probs) - temp.target_entropy)
    log_alpha = temp.log_alpha - beta * k
    alpha = max(float(np.exp(log_alpha)), temp.floor)
    return Temperature(float(np.log(alpha)), temp.target_entropy, temp.floor)
