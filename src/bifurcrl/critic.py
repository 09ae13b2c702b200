"""Gaussian action-value distribution critics (twin networks with targets)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .nets import MlpNetwork, copy_network

SIGMA_Q_MIN = 1e-2
SIGMA_Q_MAX = 30.0
SIGMA_Q_INIT = 1.0

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class ValueDistribution:
    """Mean and standard deviation of the Gaussian return distribution."""
    q: Tensor
    sigma: Tensor


class CriticPair:
    """Two online critics and their soft-updated targets.

    Each network maps (state (+) action) to (Q, pre-std); the pre-std is
    squashed smoothly into [SIGMA_Q_MIN, SIGMA_Q_MAX].
    """

    def __init__(self, obs_dim: int, act_dim: int, hidden, rng: np.random.Generator):
        sizes = [obs_dim + act_dim] + list(hidden) + [2]
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.nets = [MlpNetwork(sizes, rng, name=f"critic{i}") for i in (1, 2)]
        # bias the pre-std output so sigma starts near SIGMA_Q_INIT; a zero
        # bias lands at the middle of the clamp range (~15), and the 1/sigma^2
        # factor in the likelihood then freezes the mean head
        frac = (SIGMA_Q_INIT - SIGMA_Q_MIN) / (SIGMA_Q_MAX - SIGMA_Q_MIN)
        for net in self.nets:
            net.layers[-1][1].data[1] = float(np.log(frac / (1.0 - frac)))
        # per layer, (2, in, out) weights and (2, 1, out) biases; the twins'
        # parameters are views into them, and every writer works in place
        self.stack = [(np.stack([w1.data, w2.data]), np.stack([b1.data, b2.data])[:, None])
                      for (w1, b1), (w2, b2) in zip(*(net.layers for net in self.nets))]
        for i, net in enumerate(self.nets):
            for (w, b), (ws, bs) in zip(net.layers, self.stack):
                w.data, b.data = ws[i], bs[i, 0]
        self.targets = [copy_network(n) for n in self.nets]

    def parameters(self, i: int):
        return self.nets[i].parameters()

    def all_parameters(self):
        return self.nets[0].parameters() + self.nets[1].parameters()

    def named_parameters(self) -> dict:
        out = {}
        for group in self.nets + self.targets:
            for p in group.parameters():
                out[p.name] = p
        return out

    def forward(self, net: MlpNetwork, states, actions) -> ValueDistribution:
        x = ad.concat([ad.as_tensor(states), ad.as_tensor(actions)], axis=1)
        raw = net(x)
        q = ad.take(raw, (slice(None), 0))
        pre = ad.take(raw, (slice(None), 1))
        sigma = ad.smooth_clamp(pre, SIGMA_Q_MIN, SIGMA_Q_MAX)
        return ValueDistribution(q=q, sigma=sigma)

    def online(self, i: int, states, actions) -> ValueDistribution:
        return self.forward(self.nets[i], states, actions)

    def target(self, i: int, states, actions) -> ValueDistribution:
        return self.forward(self.targets[i], states, actions)

    def q_min(self, states, actions) -> Tensor:
        """Conservative aggregate used by the actor: min of the two means.
        One node, differentiable in the actions only."""
        actions = ad.as_tensor(actions)
        q, vjp = self.q_min_vjp(states, actions.data)
        return Tensor(q, _parents=(actions,), _bwd=lambda g: ((actions, vjp(g)),))

    def q_min_vjp(self, states: np.ndarray, actions: np.ndarray):
        """(q_min, vjp): the smaller twin mean per row and vjp(g), the gradient
        of sum(g * q_min) in the actions, both on the stacks and bit for bit
        the per-twin tape's."""
        h, slopes = np.concatenate([states, actions], axis=1), []
        for w, b in self.stack[:-1]:
            h, slope = ad.dense_parts(h, w, b, True)
            slopes.append(slope)
        raw, _ = ad.dense_parts(h, *self.stack[-1], False)  # (2, batch, [q, pre-std])
        first = raw[0, :, 0] <= raw[1, :, 0]

        def vjp(g):
            g_raw = np.zeros_like(raw)
            g_raw[0, :, 0] = np.where(first, g, 0.0)
            g_raw[1, :, 0] = np.where(first, 0.0, g)
            for (w, _), slope in zip(self.stack[:0:-1], slopes[::-1]):
                g_raw = (g_raw @ w.transpose(0, 2, 1)) * slope
            g_x = g_raw @ self.stack[0][0].transpose(0, 2, 1)
            return g_x[0, :, self.obs_dim:] + g_x[1, :, self.obs_dim:]

        return np.where(first, raw[0, :, 0], raw[1, :, 0]), vjp


def target_value(rewards: np.ndarray, gamma: float, z_samples: np.ndarray,
                 alpha: float, logp_next: np.ndarray,
                 terminals: np.ndarray) -> np.ndarray:
    """y_z = r + gamma * (Z(x', u') - alpha * log pi(u'|x')), zeroed at terminals."""
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma!r}")
    if not alpha > 0.0:
        raise ConfigError(f"temperature must be positive, got {alpha!r}")
    boot = z_samples - alpha * logp_next
    return rewards + gamma * np.where(terminals, 0.0, boot)


def critic_loss(dist: ValueDistribution, targets: np.ndarray) -> Tensor:
    """Mean Gaussian negative log-likelihood of detached targets."""
    resid = ad.div(ad.sub(Tensor(targets), dist.q), dist.sigma)
    nll = ad.add(ad.add(ad.mul(ad.mul(resid, resid), 0.5),
                        ad.log(dist.sigma)), 0.5 * LOG_2PI)
    return ad.tmean(nll)
