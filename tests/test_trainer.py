"""Training loop orchestration, evaluation, and bifurcation scans."""
import numpy as np
import pytest

from bifurcrl.envs import Gap1dEnv
from bifurcrl.errors import ConfigError
from bifurcrl.trainer import (LOG_HEADER, TrainConfig, Trainer, bifurcation_scan,
                              evaluate, scan_csv)


def tiny_config(**over):
    base = dict(seed=3, iterations=2, sampling_steps=5, update_steps=2,
                batch_size=8, min_buffer=8, hidden=(8, 8), langevin_steps=2,
                langevin_step_size=0.05, eval_every=0, buffer_capacity=1000)
    base.update(over)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(algorithm="tabular")
    with pytest.raises(ConfigError):
        TrainConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


def test_total_updates():
    assert tiny_config(iterations=7, update_steps=3).total_updates == 21


def test_continuous_variant_only_changes_mixture_and_weight():
    over = dict(components=3, lambda_initial=0.7, lambda_final=0.2)
    cfg = tiny_config(**over)
    cont = tiny_config(algorithm="continuous", **over)
    assert cont.components == 1
    assert cont.lambda_initial == 0.0 and cont.lambda_final == 0.0
    for key in vars(cfg):
        if key in ("algorithm", "components", "lambda_initial", "lambda_final"):
            continue
        assert getattr(cont, key) == getattr(cfg, key)


def test_buffer_grows_by_sampling_steps():
    tr = Trainer(Gap1dEnv(), tiny_config())
    tr.train_iteration()
    assert len(tr.buffer) == tr.cfg.sampling_steps
    assert tr.env_steps == tr.cfg.sampling_steps
    tr.train_iteration()
    assert len(tr.buffer) == 2 * tr.cfg.sampling_steps


def test_updates_begin_only_after_min_buffer():
    tr = Trainer(Gap1dEnv(), tiny_config(min_buffer=8, sampling_steps=5))
    tr.train_iteration()  # 5 < 8: no updates yet
    assert tr.update_count == 0
    tr.train_iteration()  # 10 >= 8
    assert tr.update_count == tr.cfg.update_steps


def test_log_row_matches_header_width():
    tr = Trainer(Gap1dEnv(), tiny_config())
    row = tr.train_iteration()
    assert len(row.split(",")) == len(LOG_HEADER.split(","))
    # every field parses as a float (ints are valid floats)
    for tok in row.split(","):
        float(tok)


def test_training_is_deterministic():
    def run():
        tr = Trainer(Gap1dEnv(), tiny_config(iterations=3))
        return [tr.train_iteration() for _ in range(3)]

    assert run() == run()


def test_policy_backward_leaves_critic_gradients_unset():
    tr = Trainer(Gap1dEnv(), tiny_config())
    seen = []
    policy_step = tr.opt_policy.step

    def step():
        seen.append([p.grad is None for p in tr.critics.all_parameters()])
        policy_step()

    tr.opt_policy.step = step
    tr.train_iteration()
    tr.train_iteration()
    assert len(seen) == tr.cfg.update_steps
    assert all(all(row) for row in seen)


def test_continuous_trainer_has_single_component():
    tr = Trainer(Gap1dEnv(), tiny_config(algorithm="continuous"))
    assert tr.policy.k == 1
    tr.train_iteration()
    tr.train_iteration()
    assert tr.update_count == tr.cfg.update_steps


def test_evaluate_episode_count_and_probes():
    tr = Trainer(Gap1dEnv(), tiny_config())
    rep = evaluate(tr.policy, tr.env, 5, np.random.default_rng(0),
                   probes=[0.2, -0.3])
    assert len(rep.episodes) == 5
    assert rep.episodes[0].initial == pytest.approx(0.2)
    assert rep.episodes[1].initial == pytest.approx(-0.3)
    assert rep.max_violation >= 0.0
    assert rep.avg_return == pytest.approx(
        np.mean([e.ret for e in rep.episodes]))


def test_evaluate_rejects_more_probes_than_episodes():
    tr = Trainer(Gap1dEnv(), tiny_config())
    with pytest.raises(ConfigError, match="probes replace the first episodes"):
        evaluate(tr.policy, tr.env, 1, np.random.default_rng(0), probes=[0.1, -0.1])


def test_evaluate_is_deterministic_given_rng_seed():
    tr = Trainer(Gap1dEnv(), tiny_config())
    a = evaluate(tr.policy, tr.env, 4, np.random.default_rng(9))
    b = evaluate(tr.policy, tr.env, 4, np.random.default_rng(9))
    assert [e.ret for e in a.episodes] == [e.ret for e in b.episodes]
    assert a.max_violation == b.max_violation


def test_scan_requires_increasing_grid():
    tr = Trainer(Gap1dEnv(), tiny_config())
    with pytest.raises(ConfigError):
        bifurcation_scan(tr.policy, tr.env, [0.0, 0.0, 0.1])
    with pytest.raises(ConfigError):
        bifurcation_scan(tr.policy, tr.env, [0.1, 0.0])


def test_scan_rows_shape_and_gate_normalization():
    tr = Trainer(Gap1dEnv(), tiny_config())
    grid = np.linspace(-0.4, 0.4, 9)
    rows = bifurcation_scan(tr.policy, tr.env, grid)
    assert len(rows) == 9
    for coord, action, gates, chosen in rows:
        assert action.shape == (tr.env.act_dim,)
        assert gates.shape == (tr.cfg.components,)
        assert np.sum(gates) == pytest.approx(1.0)
        assert chosen == int(np.argmax(gates))
        assert np.all(action >= tr.env.bounds.lo - 1e-12)
        assert np.all(action <= tr.env.bounds.hi + 1e-12)
    np.testing.assert_allclose([r[0] for r in rows], grid)


def test_scan_constant_policy_gives_constant_rows():
    tr = Trainer(Gap1dEnv(), tiny_config())
    for p in tr.policy.parameters():
        p.data[...] = 0.0
    rows = bifurcation_scan(tr.policy, tr.env, np.linspace(-0.4, 0.4, 7))
    first = rows[0]
    for r in rows[1:]:
        np.testing.assert_allclose(r[1], first[1])
        np.testing.assert_allclose(r[2], first[2])
    # zero gate logits: uniform mixture weights
    np.testing.assert_allclose(first[2], 0.5)


def test_scan_csv_well_formed():
    tr = Trainer(Gap1dEnv(), tiny_config())
    rows = bifurcation_scan(tr.policy, tr.env, np.linspace(-0.1, 0.1, 3))
    text = scan_csv(rows, tr.env.act_dim, tr.cfg.components)
    lines = text.strip().split("\n")
    assert lines[0] == "coord,action_0,gate_0,gate_1,chosen"
    assert len(lines) == 4
    for line in lines[1:]:
        toks = line.split(",")
        assert len(toks) == 5
        # repr round trip: parsing gives back the exact float
        assert repr(float(toks[0])) == toks[0]


def test_temperature_moves_during_training():
    tr = Trainer(Gap1dEnv(), tiny_config(iterations=3))
    a0 = tr.temperature.alpha
    for _ in range(3):
        tr.train_iteration()
    assert tr.temperature.alpha != a0
    assert tr.temperature.alpha > 0.0


def test_terminal_flag_excludes_horizon_end():
    # horizon end alone must bootstrap (terminal False); constraint violation
    # must not (terminal True)
    env = Gap1dEnv(dt=0.5, horizon=1.0, window=(10.0, 11.0))  # band inactive
    tr = Trainer(env, tiny_config(sampling_steps=4))
    tr.train_iteration()
    # with the band inactive and |y| <= 1 the only episode ends are horizon
    assert not any(t.terminal for t in tr.buffer.retained())
