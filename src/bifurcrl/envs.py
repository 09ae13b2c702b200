"""Simulation environments: 3-DOF vehicle tasks (bypass, encounter) and a
fast 1-D gap task with the same detour-left-or-right topology.

All tasks share the interface: reset/observe/step, a signed constraint
function h (positive means violating), a quadratic tracking reward, and the
reward-penalty wrapper applied by the trainer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import ActionBounds
from .errors import ConfigError, NumericalError

TRAJECTORY_HEADER = "t,p_x,p_y,phi,v_x,v_y,omega_z,delta,a_x,r,h"


def penalized_reward(r: float, h: float, penalty: float) -> float:
    """r if h <= 0, else r - penalty. The boundary h = 0 is safe."""
    if penalty <= 0:
        raise ConfigError("penalty must be positive")
    return r if h <= 0.0 else r - penalty


def rk4(f, x: np.ndarray, action: np.ndarray, dt: float) -> np.ndarray:
    """One classic Runge-Kutta step of dx/dt = f(x, action), action held."""
    k1 = f(x, action)
    k2 = f(x + 0.5 * dt * k1, action)
    k3 = f(x + 0.5 * dt * k2, action)
    k4 = f(x + dt * k3, action)
    out = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite state after an RK4 step")
    return out


@dataclass
class VehicleParams:
    """Mid-size sedan values; linear tire model."""
    mass: float = 1500.0
    yaw_inertia: float = 2500.0
    dist_front: float = 1.2
    dist_rear: float = 1.5
    cornering_front: float = 80000.0
    cornering_rear: float = 80000.0
    ego_radius: float = 1.0


@dataclass
class VehicleState:
    p_x: float
    p_y: float
    phi: float
    v_x: float
    v_y: float
    omega_z: float
    t: float = 0.0
    other_y: float = 0.0  # crossing vehicle position (encounter only)
    prev_action: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def vector(self) -> np.ndarray:
        return np.array([self.p_x, self.p_y, self.phi,
                         self.v_x, self.v_y, self.omega_z])


@dataclass
class StepResult:
    state: object
    reward: float
    h: float
    done: bool


class VehicleEnv:
    """Dynamic bicycle model tracking the reference path y = 0 at a set speed.

    Bypass: a static disc obstacle sits on the path; the ego must detour.
    Encounter: a crossing vehicle approaches the path at constant speed;
    the ego must pass ahead of it or yield behind it.
    """

    TASKS = ("bypass", "encounter")

    def __init__(self, task: str = "bypass", dt: float = 0.1, horizon: float = 10.0,
                 penalty: float = 100.0, params: VehicleParams | None = None,
                 ref_speed: float = 5.0, road_half_width: float = 4.0,
                 obstacle_x: float = 30.0, obstacle_radius: float = 1.0,
                 cross_speed: float = -2.0, cross_start: float = 20.0,
                 init_low: float = -1.0, init_high: float = 1.0,
                 reward_weights: dict | None = None):
        if task not in self.TASKS:
            raise ConfigError(f"unknown vehicle task {task!r}")
        if dt <= 0 or horizon <= 0 or round(horizon / dt) < 1:
            raise ConfigError("horizon must be a positive multiple of dt")
        self.task = task
        self.dt = dt
        self.horizon = horizon
        self.penalty = penalty
        self.params = params or VehicleParams()
        self.ref_speed = ref_speed
        self.road_half_width = road_half_width
        self.obstacle_x = obstacle_x
        self.obstacle_radius = obstacle_radius
        self.cross_speed = cross_speed
        self.cross_start = cross_start
        self.init_low = init_low
        self.init_high = init_high
        w = reward_weights or {}
        self.w_lat = w.get("lateral", 0.2)
        self.w_head = w.get("heading", 0.5)
        self.w_speed = w.get("speed", 0.05)
        self.w_act = w.get("action", 0.05)
        self.w_rate = w.get("action_rate", 0.05)
        self.bounds = ActionBounds(np.array([-0.4, -3.0]), np.array([0.4, 3.0]))
        self.obs_dim = 7
        self.act_dim = 2
        # Sweep axis: initial p_y for bypass, initial p_x offset for encounter
        self.sweep_axis = "p_y" if task == "bypass" else "p_x"

    # -- dynamics --------------------------------------------------------
    def derivatives(self, x: np.ndarray, action: np.ndarray) -> np.ndarray:
        p = self.params
        _, _, phi, vx, vy, wz = x
        delta, ax = action
        vx_safe = max(vx, 0.5)
        alpha_f = delta - (vy + p.dist_front * wz) / vx_safe
        alpha_r = -(vy - p.dist_rear * wz) / vx_safe
        fyf = p.cornering_front * alpha_f
        fyr = p.cornering_rear * alpha_r
        return np.array([
            vx * np.cos(phi) - vy * np.sin(phi),
            vx * np.sin(phi) + vy * np.cos(phi),
            wz,
            ax + vy * wz,
            (fyf + fyr) / p.mass - vx * wz,
            (p.dist_front * fyf - p.dist_rear * fyr) / p.yaw_inertia,
        ])

    def vehicle_step(self, state: VehicleState, action: np.ndarray) -> VehicleState:
        action = np.clip(np.asarray(action, dtype=np.float64),
                         self.bounds.lo, self.bounds.hi)
        x = rk4(self.derivatives, state.vector(), action, self.dt)
        other = state.other_y + self.cross_speed * self.dt \
            if self.task == "encounter" else state.other_y
        return VehicleState(*x, t=state.t + self.dt, other_y=other,
                            prev_action=action)

    # -- task functions ---------------------------------------------------
    def constraint_h(self, state: VehicleState) -> float:
        p = self.params
        road = abs(state.p_y) - (self.road_half_width - p.ego_radius)
        if self.task == "bypass":
            d = np.hypot(state.p_x - self.obstacle_x, state.p_y)
        else:
            d = np.hypot(state.p_x - self.obstacle_x, state.p_y - state.other_y)
        obstacle = (p.ego_radius + self.obstacle_radius) - d
        return max(obstacle, road)

    def reward(self, state: VehicleState, action: np.ndarray) -> float:
        delta, ax = action
        rate = action - state.prev_action
        cost = (self.w_lat * state.p_y ** 2
                + self.w_head * state.phi ** 2
                + self.w_speed * (state.v_x - self.ref_speed) ** 2
                + self.w_act * (delta ** 2 + (ax / 3.0) ** 2)
                + self.w_rate * float(rate @ rate))
        return -cost

    def observe(self, state: VehicleState) -> np.ndarray:
        s = state
        rel_x = (self.obstacle_x - s.p_x) / 10.0
        if self.task == "bypass":
            last = s.p_y  # lateral offset from the obstacle center line
        else:
            last = s.other_y / 10.0
        return np.array([s.p_y, s.phi, s.v_x - self.ref_speed,
                         s.v_y, s.omega_z, rel_x, last])

    def reset(self, rng: np.random.Generator, override: float | None = None) -> VehicleState:
        if self.task == "bypass":
            p_y = override if override is not None \
                else rng.uniform(self.init_low, self.init_high)
            return VehicleState(0.0, p_y, 0.0, self.ref_speed, 0.0, 0.0)
        offset = override if override is not None \
            else rng.uniform(self.init_low, self.init_high)
        return VehicleState(offset, 0.0, 0.0, self.ref_speed, 0.0, 0.0,
                            other_y=self.cross_start)

    def step(self, state: VehicleState, action: np.ndarray) -> StepResult:
        action = np.clip(np.asarray(action, dtype=np.float64),
                         self.bounds.lo, self.bounds.hi)
        r = self.reward(state, action)
        nxt = self.vehicle_step(state, action)
        h = self.constraint_h(nxt)
        out_of_box = abs(nxt.p_y) > 3 * self.road_half_width or nxt.v_x < 0.0
        done = (nxt.t >= self.horizon - 1e-9) or h > 0.0 or out_of_box
        return StepResult(nxt, r, h, done)

    def log_row(self, state: VehicleState, action, r, h) -> str:
        a = np.asarray(action)
        vals = [state.t, state.p_x, state.p_y, state.phi, state.v_x,
                state.v_y, state.omega_z, a[0], a[1], r, h]
        return ",".join(repr(float(v)) for v in vals)


@dataclass
class Gap1dState:
    y: float
    v_y: float
    t: float = 0.0
    prev_action: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def vector(self) -> np.ndarray:
        return np.array([self.y, self.v_y])


class Gap1dEnv:
    """Double integrator on a line: keep y near 0, but a forbidden band
    |y| < gap_radius is active while the clock is inside the gap window.

    Starts near the band's center cannot be handled by one continuous
    detour direction, which reproduces the detour-side bifurcation at
    desk scale.
    """

    def __init__(self, dt: float = 0.1, horizon: float = 3.0, penalty: float = 100.0,
                 gap_radius: float = 0.25, window: tuple = (1.0, 2.0),
                 y_max: float = 1.0, accel_max: float = 1.0,
                 init_low: float = -0.5, init_high: float = 0.5,
                 init_v: float = 0.0,
                 reward_weights: dict | None = None):
        if dt <= 0 or horizon <= 0:
            raise ConfigError("dt and horizon must be positive")
        self.task = "gap1d"
        self.dt = dt
        self.horizon = horizon
        self.penalty = penalty
        self.gap_radius = gap_radius
        self.window = window
        self.y_max = y_max
        w = reward_weights or {}
        self.w_pos = w.get("position", 0.5)
        self.w_vel = w.get("velocity", 0.05)
        self.w_act = w.get("action", 0.02)
        self.bounds = ActionBounds(np.array([-accel_max]), np.array([accel_max]))
        self.obs_dim = 3
        self.act_dim = 1
        self.init_low = init_low
        self.init_high = init_high
        self.init_v = init_v
        self.sweep_axis = "p_y"

    def derivatives(self, x: np.ndarray, action: np.ndarray) -> np.ndarray:
        return np.array([x[1], float(action[0])])

    def constraint_h(self, state: Gap1dState) -> float:
        band = self.gap_radius - abs(state.y)
        if not (self.window[0] <= state.t <= self.window[1]):
            band -= 10.0  # band inactive outside the window
        return max(band, abs(state.y) - self.y_max)

    def reward(self, state: Gap1dState, action: np.ndarray) -> float:
        a = float(np.asarray(action).reshape(-1)[0])
        return -(self.w_pos * state.y ** 2 + self.w_vel * state.v_y ** 2
                 + self.w_act * a ** 2)

    def observe(self, state: Gap1dState) -> np.ndarray:
        # position and velocity in units of the gap radius: the policy's
        # Lipschitz budget is spent per unit of observation, so the
        # decision-relevant length scale must map to O(1) input changes
        return np.array([state.y / self.gap_radius,
                         state.v_y / self.gap_radius,
                         state.t / self.horizon])

    def reset(self, rng: np.random.Generator, override: float | None = None) -> Gap1dState:
        # an override pins the swept coordinate exactly: zero velocity so
        # probes and scans are reproducible functions of the coordinate
        if override is not None:
            return Gap1dState(float(override), 0.0)
        y0 = rng.uniform(self.init_low, self.init_high)
        v0 = rng.uniform(-self.init_v, self.init_v) if self.init_v > 0 else 0.0
        return Gap1dState(float(y0), float(v0))

    def step(self, state: Gap1dState, action: np.ndarray) -> StepResult:
        action = np.clip(np.asarray(action, dtype=np.float64).reshape(-1),
                         self.bounds.lo, self.bounds.hi)
        r = self.reward(state, action)
        x = rk4(self.derivatives, state.vector(), action, self.dt)
        nxt = Gap1dState(float(x[0]), float(x[1]), t=state.t + self.dt,
                         prev_action=action)
        h = self.constraint_h(nxt)
        done = (nxt.t >= self.horizon - 1e-9) or h > 0.0 or abs(nxt.y) > 2 * self.y_max
        return StepResult(nxt, r, h, done)

    def log_row(self, state: Gap1dState, action, r, h) -> str:
        a = float(np.asarray(action).reshape(-1)[0])
        vals = [state.t, state.t, state.y, 0.0, 0.0, state.v_y, 0.0, a, 0.0, r, h]
        return ",".join(repr(float(v)) for v in vals)


def make_env(task_cfg: dict):
    """Build an environment from a validated task config mapping."""
    cfg = dict(task_cfg)
    task = cfg.pop("id", None)
    if task == "gap1d":
        return Gap1dEnv(**cfg)
    if task in VehicleEnv.TASKS:
        return VehicleEnv(task=task, **cfg)
    raise ConfigError(f"unknown task id {task!r}")
