"""Computations made apart from bifurcrl, which the benchmark checks the
program's outputs against: a numpy critic MLP with exact-erf GeLU, the tanh
action squash, and the task equations of gap1d (exact double-integrator
kinematics) and of the planar bicycle model (its own RK4).

Only parameters and task constants are read from the program; every value
is computed here.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_erf = np.frompyfunc(math.erf, 1, 1)


def gelu(x: np.ndarray) -> np.ndarray:
    return x * (0.5 * (1.0 + _erf(x / math.sqrt(2.0)).astype(np.float64)))


def mlp(layers, x: np.ndarray) -> np.ndarray:
    """Dense layers `(w, b)` with GeLU on every hidden layer."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < len(layers) - 1:
            h = gelu(h)
    return h


def critic_q(layers, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Mean head (column 0) of a critic net on state (+) action."""
    return mlp(layers, np.concatenate([states, actions], axis=1))[:, 0]


def squash(pre: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo + (hi - lo) * (np.tanh(pre) + 1.0) / 2.0


def chain_energy_gradient(twins, states, pre, lo, hi, alpha, h=1e-6):
    """Central-difference d/d(pre) of min(Q1, Q2)(s, squash(pre)) / alpha,
    per row. Returns (gradient, usable): rows where the min switches twin
    inside the difference stencil are not usable."""
    def energies(p):
        a = squash(p, lo, hi)
        q1, q2 = (critic_q(t, states, a) for t in twins)
        return np.minimum(q1, q2) / alpha, q1 <= q2

    _, first = energies(pre)
    usable = np.ones(pre.shape[0], dtype=bool)
    grad = np.empty_like(pre)
    for j in range(pre.shape[1]):
        step = np.zeros_like(pre)
        step[:, j] = h
        up, first_up = energies(pre + step)
        dn, first_dn = energies(pre - step)
        grad[:, j] = (up - dn) / (2.0 * h)
        usable &= (first_up == first) & (first_dn == first)
    return grad, usable


class Rollout(NamedTuple):
    ret: float        # undiscounted, unpenalized return
    max_pos: float    # largest positive constraint value (0 if none)
    steps: int
    max_h: float      # largest constraint value
    side: float       # sign of the detour coordinate at the obstacle


# -- gap1d: a double integrator with a timed forbidden band ------------------

def gap1d_episode(env, act, y, v) -> Rollout:
    """One deterministic episode by exact kinematics y += v dt + a dt^2 / 2;
    `act(obs)` is the policy's action for an observation."""
    r, horizon, dt = env.gap_radius, env.horizon, env.dt
    lo, hi = float(env.bounds.lo[0]), float(env.bounds.hi[0])
    t, ret, max_pos, max_h, steps, side = 0.0, 0.0, 0.0, -math.inf, 0, None
    while True:
        a = min(max(float(act(np.array([y / r, v / r, t / horizon]))[0]), lo), hi)
        ret -= env.w_pos * y * y + env.w_vel * v * v + env.w_act * a * a
        y, v, t = y + v * dt + 0.5 * a * dt * dt, v + a * dt, t + dt
        band = r - abs(y)
        if not env.window[0] <= t <= env.window[1]:
            band -= 10.0
        h = max(band, abs(y) - env.y_max)
        max_pos, max_h = max(max_pos, h), max(max_h, h)
        steps += 1
        if side is None and t >= env.window[0]:
            side = np.sign(y)
        if t >= horizon - 1e-9 or h > 0.0 or abs(y) > 2 * env.y_max:
            return Rollout(ret, max_pos, steps, max_h,
                           np.sign(y) if side is None else side)


def gap1d_initial(env, rng, override):
    if override is not None:
        return float(override), 0.0
    y = rng.uniform(env.init_low, env.init_high)
    v = rng.uniform(-env.init_v, env.init_v) if env.init_v > 0 else 0.0
    return y, v


# -- bypass: dynamic bicycle model around a disc obstacle --------------------

# At dt = 0.2 the classical RK4 step is unstable for the model's lateral
# modes (see CHANGES.md), so rounding differences grow several-fold per step.
# The functions below therefore evaluate every expression in the same order
# and with the same numpy primitives as the task definition, which keeps the
# two integrations equal to the last bit.

def bicycle_derivatives(p, x, delta, ax):
    _, _, phi, vx, vy, wz = x
    speed = max(vx, 0.5)
    f_front = p.cornering_front * (delta - (vy + p.dist_front * wz) / speed)
    f_rear = p.cornering_rear * ((p.dist_rear * wz - vy) / speed)
    cos, sin = np.cos(phi), np.sin(phi)
    return np.array([
        vx * cos - vy * sin,
        vx * sin + vy * cos,
        wz,
        ax + vy * wz,
        (f_front + f_rear) / p.mass - vx * wz,
        (p.dist_front * f_front - p.dist_rear * f_rear) / p.yaw_inertia,
    ])


def rk4(f, x, dt):
    k1 = f(x)
    k2 = f(x + dt / 2 * k1)
    k3 = f(x + dt / 2 * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def bypass_episode(env, act, p_y) -> Rollout:
    """One deterministic bypass episode from lateral offset p_y."""
    p = env.params
    lo, hi = env.bounds.lo, env.bounds.hi
    x = np.array([0.0, p_y, 0.0, env.ref_speed, 0.0, 0.0])
    prev = np.zeros(2)
    t, ret, max_pos, max_h, steps, side = 0.0, 0.0, 0.0, -math.inf, 0, None
    while True:
        px, py, phi, vx, vy, wz = x
        obs = np.array([py, phi, vx - env.ref_speed, vy, wz,
                        (env.obstacle_x - px) / 10.0, py])
        u = np.minimum(np.maximum(np.asarray(act(obs), dtype=np.float64), lo), hi)
        delta, ax = u
        rate = u - prev
        ret -= (env.w_lat * py * py + env.w_head * phi * phi
                + env.w_speed * (vx - env.ref_speed) ** 2
                + env.w_act * (delta * delta + (ax / 3.0) ** 2)
                + env.w_rate * float(rate @ rate))
        x = rk4(lambda s: bicycle_derivatives(p, s, delta, ax), x, env.dt)
        t += env.dt
        prev = u
        road = abs(x[1]) - (env.road_half_width - p.ego_radius)
        obstacle = (p.ego_radius + env.obstacle_radius) \
            - np.hypot(x[0] - env.obstacle_x, x[1])
        h = max(obstacle, road)
        max_pos, max_h = max(max_pos, h), max(max_h, h)
        steps += 1
        if side is None and x[0] >= env.obstacle_x:
            side = np.sign(x[1])
        if t >= env.horizon - 1e-9 or h > 0.0 \
                or abs(x[1]) > 3 * env.road_half_width or x[3] < 0.0:
            return Rollout(ret, max_pos, steps, max_h,
                           np.sign(x[1]) if side is None else side)


def bypass_initial(env, rng, override):
    return float(override) if override is not None \
        else rng.uniform(env.init_low, env.init_high)
