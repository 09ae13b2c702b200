"""Dense networks, Adam optimization, and spectral normalization."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericalError


def linear(n_in: int, n_out: int, rng: np.random.Generator, w_name: str,
           b_name: str) -> tuple:
    """A dense layer's (weight, bias): Glorot-normal (n_in, n_out) weight,
    zero bias."""
    scale = np.sqrt(2.0 / (n_in + n_out))
    w = ad.parameter(rng.normal(0.0, scale, size=(n_in, n_out)), name=w_name)
    b = ad.parameter(np.zeros(n_out), name=b_name)
    return w, b


class MlpNetwork:
    """Fully connected net: GeLU on hidden layers, identity on the output.

    Layers are (weight, bias) parameter pairs; weight shape is (in, out).
    """

    def __init__(self, sizes, rng: np.random.Generator, name: str = "mlp"):
        if len(sizes) < 2:
            raise ConfigError("MlpNetwork needs at least input and output sizes")
        self.sizes = list(sizes)
        self.name = name
        self.layers = [linear(n_in, n_out, rng, f"{name}.w{i}", f"{name}.b{i}")
                       for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:]))]

    @property
    def in_dim(self):
        return self.sizes[0]

    def parameters(self):
        out = []
        for w, b in self.layers:
            out.extend([w, b])
        return out

    def forward(self, x) -> Tensor:
        """Forward pass on a (batch, in_dim) input."""
        x = ad.as_tensor(x)
        if x.data.ndim == 1:
            x = ad.reshape(x, (1, -1))
        if x.data.shape[1] != self.in_dim:
            raise ConfigError(
                f"{self.name}: input width {x.data.shape[1]} != {self.in_dim}")
        for i, (w, b) in enumerate(self.layers):
            x = ad.dense(x, w, b, gelu=i < len(self.layers) - 1)
        return x

    def __call__(self, x):
        return self.forward(x)


def copy_network(net: MlpNetwork) -> MlpNetwork:
    clone = MlpNetwork(net.sizes, np.random.default_rng(0), name=net.name + ".target")
    for (w, b), (cw, cb) in zip(net.layers, clone.layers):
        cw.data[...] = w.data
        cb.data[...] = b.data
    return clone


def soft_update(online_params, target_params, rate: float):
    """target <- (1 - rate) * target + rate * online, elementwise."""
    if not 0.0 <= rate <= 1.0:
        raise ConfigError("soft update rate must lie in [0, 1]")
    for o, t in zip(online_params, target_params):
        t.data[...] = (1.0 - rate) * t.data + rate * o.data


@dataclass
class LrSchedule:
    """Linear ramp from `initial` to `final` over `total_steps` updates,
    then held at `final`. It drives the learning rates, the temperature
    step and the forward-KL weight lambda."""
    initial: float
    final: float
    total_steps: int

    def at(self, step: int) -> float:
        if self.total_steps <= 1:
            return self.final
        frac = min(1.0, step / (self.total_steps - 1))
        return self.initial + frac * (self.final - self.initial)


@dataclass
class AdamState:
    """Adam with bias correction and a linear learning-rate schedule."""
    params: list
    schedule: LrSchedule
    beta1: float = 0.99
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def __post_init__(self):
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    @property
    def lr(self) -> float:
        return self.schedule.at(self.step_count)

    def step(self):
        """Apply one update from the accumulated gradients, then clear them."""
        for p in self.params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NumericalError(
                    f"non-finite gradient in parameter {p.name!r}; update aborted")
        lr = self.lr
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.zero_grad()


def zero_grads(params):
    for p in params:
        p.zero_grad()


class SpectralNormalizer:
    """Clip a weight matrix's top singular value to a Lipschitz budget.

    Keeps a persistent left vector per weight for warm-started power
    iteration. The effective weight is W * min(1, budget / sigma_hat);
    gradients flow through W in both factors when the clip is active.
    """

    def __init__(self, weight: Tensor, budget: float, rng: np.random.Generator):
        if weight.data.ndim != 2:
            raise ConfigError("spectral normalization expects a weight matrix")
        self.weight = weight
        self.budget = float(budget)
        u = rng.normal(size=weight.data.shape[0])
        self.u = u / np.linalg.norm(u)

    def power_iterate(self, iters: int):
        """Estimate (sigma_hat, u, v) from the warm-started vector.

        Pure with respect to stored state: forward passes stay deterministic.
        Call refresh() to advance the persistent warm-start vector.
        """
        if iters < 1:
            raise ConfigError("power iteration needs iters >= 1")
        a = self.weight.data
        u = self.u
        v = None
        for _ in range(iters):
            v = a.T @ u
            nv = np.sqrt(v.dot(v))  # np.linalg.norm, without its overhead
            if nv == 0.0:
                return 0.0, u, np.zeros(a.shape[1])
            v = v / nv
            u = a @ v
            nu = np.sqrt(u.dot(u))
            if nu == 0.0:
                return 0.0, u, v
            u = u / nu
        sigma = float(u @ a @ v)
        return sigma, u, v

    def refresh(self, iters: int = 1):
        """Advance the persistent warm-start vector (once per training step)."""
        _, u, _ = self.power_iterate(iters)
        self.u = u

    def effective_weight(self, iters: int = 1) -> Tensor:
        sigma, u, v = self.power_iterate(iters)
        if sigma <= self.budget:
            return self.weight
        # sigma as a differentiable function of W with u, v frozen
        u_t = Tensor(u.reshape(1, -1))
        v_t = Tensor(v.reshape(-1, 1))
        sigma_t = ad.reshape(ad.matmul(ad.matmul(u_t, self.weight), v_t), ())
        scale = ad.div(Tensor(self.budget), sigma_t)
        return ad.mul(self.weight, scale)
