"""Gaussian-mixture action distributions with bounded-action squashing.

All densities are over the squashed (bounded) action; the pre-squash space is
where Gaussians live. The squash is tanh rescaled onto (lo, hi) per
coordinate, with the exact log-Jacobian correction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError

BOUNDARY_EPS = 1e-6

# log-std is smooth-clamped onto [log STD_MIN, log STD_MAX]; the floor sets
# where the clamp's linear region sits, so it must be close enough to the
# working range (roughly 0.3-1.5 for a unit action interval) that stds there
# still receive gradients instead of sitting in the saturated tail
STD_MIN = 0.05
STD_MAX = 1.0


@dataclass
class ActionBounds:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if not np.all(self.hi > self.lo):
            raise ConfigError(f"action bounds need hi > lo, got {self.lo} and {self.hi}")

    @property
    def span(self):
        return self.hi - self.lo


@dataclass
class GmmPolicyOutput:
    """Mixture parameters for a batch of states.

    gates: (n, k) probabilities summing to 1 per row.
    means: (n, k, d) pre-squash component means.
    stds:  (n, k, d) positive component standard deviations.
    bounds: action box, or None for an unbounded (identity) action map.
    """
    gates: Tensor
    means: Tensor
    stds: Tensor
    bounds: ActionBounds | None = None

    def __post_init__(self):
        self.gates = ad.as_tensor(self.gates)
        self.means = ad.as_tensor(self.means)
        self.stds = ad.as_tensor(self.stds)

    @property
    def n(self):
        return self.gates.data.shape[0]

    @property
    def k(self):
        return self.gates.data.shape[1]

    @property
    def dim(self):
        return self.means.data.shape[2]


@dataclass
class ActionSample:
    action: np.ndarray
    component_index: np.ndarray
    pre_action: Tensor
    out: GmmPolicyOutput

    @cached_property
    def log_prob(self) -> Tensor:
        """Log density of the action, built on first read (collection and
        the Langevin chain never read it)."""
        return log_prob_pre(self.out, self.pre_action)


def squash_action(pre, bounds: ActionBounds | None):
    """Map pre-squash values onto the action box; return (action, log_det).

    The map is a = lo + span * (tanh(p) + 1) / 2, whose per-coordinate
    Jacobian is span/2 * (1 - tanh(p)^2); log_det sums the logs over the
    action dimension. With bounds=None the map is the identity (log_det 0).
    """
    return squash(pre, bounds), squash_log_det(pre, bounds)


def squash(pre, bounds: ActionBounds | None) -> Tensor:
    """The action half of squash_action."""
    pre = ad.as_tensor(pre)
    if bounds is None:
        return pre
    return ad.add(ad.mul(ad.add(ad.tanh(pre), 1.0), bounds.span / 2.0), bounds.lo)


def squash_log_det(pre, bounds: ActionBounds | None) -> Tensor:
    """The log_det half of squash_action."""
    pre = ad.as_tensor(pre)
    if bounds is None:
        return Tensor(np.zeros(pre.data.shape[:-1]))
    # log(1 - tanh(p)^2) = 2*(log 2 - p - softplus(-2p)), stable for large |p|
    log_dtanh = ad.mul(ad.sub(ad.sub(Tensor(np.log(2.0)), pre), softplus_neg2(pre)), 2.0)
    return ad.tsum(ad.add(log_dtanh, np.log(bounds.span / 2.0)), axis=-1)


def squash_vjp(pre: np.ndarray, bounds: ActionBounds | None):
    """Tape-free squash_action on an array: (action, vjp), where vjp(g) is
    the gradient of sum(g * action) with respect to pre, bit for bit as
    the tape computes it."""
    if bounds is None:
        return pre, lambda g: g
    t = np.tanh(pre)
    half = bounds.span / 2.0
    return (t + 1.0) * half + bounds.lo, lambda g: g * half * (1.0 - t * t)


def softplus_neg2(p):
    """softplus(-2p) = log(1 + exp(-2p)), computed stably for large |p|."""
    x = ad.mul(p, -2.0)
    m = np.maximum(x.data, 0.0)
    return ad.add(ad.log(ad.add(ad.exp(ad.sub(x, Tensor(m))),
                                ad.exp(ad.mul(Tensor(m), -1.0)))), Tensor(m))


def unsquash_action(action: np.ndarray, bounds: ActionBounds | None) -> np.ndarray:
    """Pre-image of a bounded action; boundary values are clipped inward."""
    if bounds is None:
        return np.asarray(action, dtype=np.float64)
    a = np.clip(action, bounds.lo + BOUNDARY_EPS, bounds.hi - BOUNDARY_EPS)
    y = 2.0 * (a - bounds.lo) / bounds.span - 1.0
    return np.arctanh(y)


def log_prob_pre(out: GmmPolicyOutput, pre) -> Tensor:
    """Log mixture density of the squashed action, given its pre-image.

    pre: (n, d) Tensor or array. Returns a (n,) Tensor; differentiable with
    respect to gates, means, stds, and pre.
    """
    pre = ad.as_tensor(pre)
    pre3 = ad.reshape(pre, (pre.data.shape[0], 1, pre.data.shape[1]))
    z = ad.div(ad.sub(pre3, out.means), out.stds)
    comp = ad.tsum(ad.sub(ad.mul(ad.mul(z, z), -0.5),
                          ad.add(ad.log(out.stds), 0.5 * np.log(2.0 * np.pi))),
                   axis=2)  # (n, k)
    weighted = ad.add(ad.log(out.gates), comp)
    mix = ad.logsumexp(weighted, axis=1)
    return ad.sub(mix, squash_log_det(pre, out.bounds))


def gmm_log_prob(out: GmmPolicyOutput, action) -> Tensor:
    """Log density at a bounded action (n, d); boundary actions clip inward."""
    action = np.atleast_2d(np.asarray(action, dtype=np.float64))
    pre = unsquash_action(action, out.bounds)
    return log_prob_pre(out, Tensor(pre))


def gmm_sample(out: GmmPolicyOutput, rng: np.random.Generator) -> ActionSample:
    """Draw one action per row: component from the gates, then a
    reparameterized Gaussian draw, then squash.

    Gradient flows pathwise through the chosen component's mean/std; gates
    receive gradient only through the log_prob term.
    """
    gates = out.gates.data
    u = rng.random(out.n)
    idx = (gates.cumsum(axis=1) < u[:, None]).sum(axis=1)
    idx = np.minimum(idx, out.k - 1)
    eps = rng.standard_normal((out.n, out.dim))
    rows = np.arange(out.n)
    mu = ad.take(out.means, (rows, idx))
    sd = ad.take(out.stds, (rows, idx))
    pre = ad.add(mu, ad.mul(sd, Tensor(eps)))
    return ActionSample(squash(pre, out.bounds).data.copy(), idx, pre, out)


def deterministic_action(out: GmmPolicyOutput) -> np.ndarray:
    """Squashed mean of the highest-gate component; ties go to the lowest index."""
    idx = np.argmax(out.gates.data, axis=1)
    rows = np.arange(out.n)
    mu = out.means.data[rows, idx, :]
    action = squash(Tensor(mu), out.bounds)
    return action.data.copy()
