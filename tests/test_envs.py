"""Environments: dynamics integration, constraints, rewards, penalties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcrl import envs
from bifurcrl.envs import (Gap1dEnv, VehicleEnv, VehicleState, make_env,
                           penalized_reward)
from bifurcrl.errors import ConfigError


class TestPenalizedReward:
    def test_safe_branch(self):
        assert penalized_reward(1.0, -0.2, 100.0) == pytest.approx(1.0)

    def test_violating_branch(self):
        assert penalized_reward(1.0, 0.01, 100.0) == pytest.approx(-99.0)

    def test_boundary_is_safe(self):
        assert penalized_reward(0.3, 0.0, 100.0) == pytest.approx(0.3)

    def test_rejects_nonpositive_penalty(self):
        with pytest.raises(ConfigError):
            penalized_reward(0.0, 0.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5), st.floats(-1, 1), st.floats(0.1, 200))
    def test_penalty_only_reduces(self, r, h, c):
        out = penalized_reward(r, h, c)
        assert out == r if h <= 0 else out == pytest.approx(r - c)


class TestVehicleDynamics:
    def setup_method(self):
        self.env = VehicleEnv(task="bypass")

    def test_equilibrium_at_rest(self):
        s = VehicleState(1.0, 2.0, 0.3, 0.0, 0.0, 0.0)
        nxt = self.env.vehicle_step(s, np.zeros(2))
        assert nxt.p_x == pytest.approx(1.0, abs=1e-9)
        assert nxt.p_y == pytest.approx(2.0, abs=1e-9)
        assert nxt.phi == pytest.approx(0.3, abs=1e-9)
        assert nxt.t == pytest.approx(0.1)

    def test_straight_line_motion(self):
        s = VehicleState(0.0, 0.0, 0.0, 5.0, 0.0, 0.0)
        nxt = self.env.vehicle_step(s, np.zeros(2))
        assert nxt.p_x == pytest.approx(5.0 * 0.1, abs=1e-9)
        assert nxt.p_y == pytest.approx(0.0, abs=1e-9)

    def test_rk4_matches_fine_euler(self):
        # one RK4 step vs 100 explicit Euler sub-steps at dt/100; the dt is
        # small enough that the lateral tire mode (lambda ~ 2C/(m*v_x)) is
        # resolved by both integrators
        env = VehicleEnv(task="bypass", dt=0.005)
        x = np.array([0.0, 0.5, 0.05, 5.0, 0.1, 0.02])
        action = np.array([0.1, 0.5])
        rk4 = envs.rk4(env.derivatives, x, action, env.dt)
        fine = x.copy()
        sub = env.dt / 100.0
        for _ in range(100):
            fine = fine + sub * env.derivatives(fine, action)
        np.testing.assert_allclose(rk4, fine, atol=1e-5)

    def test_deterministic_sequence(self):
        def run():
            env = VehicleEnv(task="bypass")
            rng = np.random.default_rng(3)
            s = env.reset(rng)
            out = []
            for _ in range(20):
                res = env.step(s, np.array([0.05, 0.2]))
                out.append(res.state.vector())
                s = res.state
                if res.done:
                    break
            return np.array(out)

        np.testing.assert_array_equal(run(), run())


class TestVehicleConstraint:
    def setup_method(self):
        self.env = VehicleEnv(task="bypass", obstacle_x=30.0, obstacle_radius=1.0)

    def test_far_from_obstacle_safe(self):
        s = VehicleState(-70.0, 0.0, 0.0, 5.0, 0.0, 0.0)
        assert self.env.constraint_h(s) < 0

    def test_center_overlap_violates(self):
        s = VehicleState(30.0, 0.0, 0.0, 5.0, 0.0, 0.0)
        assert self.env.constraint_h(s) > 0

    def test_exact_safety_distance_boundary(self):
        # ego at exactly combined radius (1 + 1 = 2 m) from obstacle center
        s = VehicleState(30.0, 2.0, 0.0, 5.0, 0.0, 0.0)
        assert abs(self.env.constraint_h(s)) < 1e-12

    def test_road_edge(self):
        s = VehicleState(0.0, 3.5, 0.0, 5.0, 0.0, 0.0)
        assert self.env.constraint_h(s) > 0


class TestVehicleReward:
    def setup_method(self):
        self.env = VehicleEnv(task="bypass")

    def test_on_path_zero_action_maximal(self):
        s = VehicleState(0.0, 0.0, 0.0, self.env.ref_speed, 0.0, 0.0)
        assert self.env.reward(s, np.zeros(2)) == pytest.approx(0.0)

    def test_quadratic_scaling_in_lateral(self):
        s1 = VehicleState(0.0, 1.0, 0.0, self.env.ref_speed, 0.0, 0.0)
        s2 = VehicleState(0.0, 2.0, 0.0, self.env.ref_speed, 0.0, 0.0)
        r1 = self.env.reward(s1, np.zeros(2))
        r2 = self.env.reward(s2, np.zeros(2))
        assert r2 == pytest.approx(4.0 * r1)

    def test_hand_evaluated_weighted_sum(self):
        s = VehicleState(0.0, 1.0, 0.1, 4.0, 0.0, 0.0)
        a = np.array([0.2, 1.5])
        expect = -(0.2 * 1.0 + 0.5 * 0.01 + 0.05 * 1.0
                   + 0.05 * (0.2 ** 2 + 0.5 ** 2)
                   + 0.05 * (0.2 ** 2 + 1.5 ** 2))
        assert self.env.reward(s, a) == pytest.approx(expect)


class TestVehicleReset:
    def test_probe_overrides_exact(self):
        env = VehicleEnv(task="bypass")
        rng = np.random.default_rng(0)
        for p in (0.01, 0.0, -0.01):
            s = env.reset(rng, override=p)
            assert s.p_y == p
            assert s.v_x == env.ref_speed

    def test_uniform_init_statistics(self):
        env = VehicleEnv(task="bypass", init_low=-1.0, init_high=1.0)
        rng = np.random.default_rng(1)
        ys = np.array([env.reset(rng).p_y for _ in range(10_000)])
        se = np.sqrt((2.0 ** 2 / 12.0) / ys.size)
        assert abs(ys.mean() - 0.0) < 3.0 * se


class TestEncounter:
    def test_crossing_vehicle_moves(self):
        env = VehicleEnv(task="encounter", cross_speed=-2.0, cross_start=20.0)
        s = env.reset(np.random.default_rng(0), override=0.0)
        assert s.other_y == pytest.approx(20.0)
        nxt = env.vehicle_step(s, np.zeros(2))
        assert nxt.other_y == pytest.approx(20.0 - 2.0 * env.dt)

    def test_constraint_uses_crossing_position(self):
        env = VehicleEnv(task="encounter", obstacle_x=30.0)
        s = VehicleState(30.0, 0.0, 0.0, 5.0, 0.0, 0.0, other_y=0.5)
        assert env.constraint_h(s) > 0
        far = VehicleState(30.0, 0.0, 0.0, 5.0, 0.0, 0.0, other_y=20.0)
        assert env.constraint_h(far) < 0


class TestGap1d:
    def setup_method(self):
        self.env = Gap1dEnv()

    def test_band_active_only_in_window(self):
        from bifurcrl.envs import Gap1dState
        inside = Gap1dState(0.0, 0.0, t=1.5)
        before = Gap1dState(0.0, 0.0, t=0.5)
        assert self.env.constraint_h(inside) > 0
        assert self.env.constraint_h(before) < 0

    def test_outside_band_safe_in_window(self):
        from bifurcrl.envs import Gap1dState
        s = Gap1dState(0.5, 0.0, t=1.5)
        assert self.env.constraint_h(s) < 0

    def test_leaving_track_violates(self):
        from bifurcrl.envs import Gap1dState
        s = Gap1dState(1.2, 0.0, t=0.2)
        assert self.env.constraint_h(s) > 0

    def test_double_integrator_kinematics(self):
        s = self.env.reset(np.random.default_rng(0), override=0.0)
        res = self.env.step(s, np.array([1.0]))
        # y = a t^2 / 2, v = a t for constant acceleration from rest
        assert res.state.y == pytest.approx(0.5 * 0.1 ** 2)
        assert res.state.v_y == pytest.approx(0.1)

    def test_horizon_terminates(self):
        s = self.env.reset(np.random.default_rng(0), override=0.6)
        steps = 0
        done = False
        while not done:
            res = self.env.step(s, np.array([0.0]))
            s, done = res.state, res.done
            steps += 1
        assert steps == round(self.env.horizon / self.env.dt)

    def test_action_clipped_to_bounds(self):
        s = self.env.reset(np.random.default_rng(0), override=0.0)
        res = self.env.step(s, np.array([50.0]))
        assert res.state.v_y == pytest.approx(self.env.bounds.hi[0] * self.env.dt)


def test_make_env_dispatch():
    assert isinstance(make_env({"id": "gap1d"}), Gap1dEnv)
    assert make_env({"id": "bypass"}).task == "bypass"
    assert make_env({"id": "encounter"}).task == "encounter"
    with pytest.raises(ConfigError):
        make_env({"id": "hovercraft"})


def test_observation_shapes():
    venv = VehicleEnv(task="bypass")
    s = venv.reset(np.random.default_rng(0))
    assert venv.observe(s).shape == (venv.obs_dim,)
    genv = Gap1dEnv()
    g = genv.reset(np.random.default_rng(0))
    assert genv.observe(g).shape == (genv.obs_dim,)
