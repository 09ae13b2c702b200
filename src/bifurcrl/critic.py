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
        """Conservative aggregate used by the actor: min of the two means."""
        q1 = self.online(0, states, actions).q
        q2 = self.online(1, states, actions).q
        return ad.minimum(q1, q2)

    def q_min_action_grad_fn(self, states):
        """grad(actions, scale): the gradient of sum(scale * q_min(states,
        actions)) with respect to the actions, without a tape. It is all the
        Langevin chain needs of the critics.

        The twins run as one stack of weights, (2, in, out), copied when this
        is called; np.matmul multiplies each slice with the same BLAS call
        as the tape's matmul, so grad equals backpropagating q_min bit for
        bit while the weights stay unchanged."""
        layers = list(zip(*(net.layers for net in self.nets)))
        ws = [np.stack([w1.data, w2.data]) for (w1, _), (w2, _) in layers]
        bs = [np.stack([b1.data, b2.data])[:, None, :] for (_, b1), (_, b2) in layers]
        states = np.asarray(states, dtype=np.float64)

        def grad(actions: np.ndarray, scale: float) -> np.ndarray:
            h, slopes = np.concatenate([states, actions], axis=1), []
            for w, b in zip(ws[:-1], bs[:-1]):
                h, slope = ad.gelu_parts(h @ w + b)
                slopes.append(slope)
            raw = h @ ws[-1] + bs[-1]  # (2, batch, [q, pre-std])
            first = raw[0, :, 0] <= raw[1, :, 0]
            g = np.full(len(first), scale)
            g_raw = np.zeros_like(raw)
            g_raw[0, :, 0] = np.where(first, g, 0.0)
            g_raw[1, :, 0] = np.where(first, 0.0, g)
            for w, slope in zip(ws[:0:-1], slopes[::-1]):
                g_raw = (g_raw @ w.transpose(0, 2, 1)) * slope
            g_x = g_raw @ ws[0].transpose(0, 2, 1)
            return g_x[0, :, self.obs_dim:] + g_x[1, :, self.obs_dim:]

        return grad


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
