"""Config schema validation, run directories, and the command-line interface."""
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import yaml

import bifurcrl
from bifurcrl import runner
from bifurcrl.checkpoint import save_checkpoint
from bifurcrl.cli import main
from bifurcrl.config import build, config_hash, load_config, validate_config
from bifurcrl.errors import ConfigError
from bifurcrl.trainer import Trainer

TINY = {
    "task": {"id": "gap1d", "dt": 0.1, "horizon": 1.0},
    "train": {"seed": 5, "iterations": 2, "sampling_steps": 5,
              "update_steps": 1, "batch_size": 4, "min_buffer": 4,
              "hidden": [8, 8], "langevin_steps": 2, "eval_every": 0},
}


def write_cfg(tmp_path, cfg=None, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg if cfg is not None else TINY))
    return str(path)


class TestConfigSchema:
    def test_valid_config_builds(self, tmp_path):
        raw = load_config(write_cfg(tmp_path))
        env, cfg = build(raw)
        assert env.task == "gap1d"
        assert cfg.seed == 5
        assert cfg.hidden == (8, 8)

    def test_unknown_train_key_named(self):
        bad = {"task": {"id": "gap1d"}, "train": {"learning_rate": 1e-3}}
        with pytest.raises(ConfigError, match="learning_rate"):
            validate_config(bad)

    @pytest.mark.parametrize("key", ["temperature_parameterization", "target_sample",
                                     "scale_rev_kl_log_prob"])
    def test_removed_train_key_named(self, key):
        bad = {"task": {"id": "gap1d"}, "train": {key: 1}}
        with pytest.raises(ConfigError, match=key):
            validate_config(bad)

    def test_unknown_task_key_named(self):
        bad = {"task": {"id": "gap1d", "obstacle_radius": 1.0}, "train": {}}
        with pytest.raises(ConfigError, match="obstacle_radius"):
            validate_config(bad)

    def test_missing_section_rejected(self):
        with pytest.raises(ConfigError, match="train"):
            validate_config({"task": {"id": "gap1d"}})

    def test_missing_task_id_rejected(self):
        with pytest.raises(ConfigError, match="task.id"):
            validate_config({"task": {}, "train": {}})

    def test_unknown_task_id_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"task": {"id": "pendulum"}, "train": {}})

    def test_unknown_reward_weight_rejected(self):
        bad = {"task": {"id": "gap1d", "reward_weights": {"jerk": 1.0}},
               "train": {}}
        with pytest.raises(ConfigError, match="jerk"):
            validate_config(bad)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            validate_config([1, 2, 3])

    def test_hash_stable_and_sensitive(self):
        a = {"task": {"id": "gap1d"}, "train": {"seed": 1}}
        b = {"train": {"seed": 1}, "task": {"id": "gap1d"}}
        c = {"task": {"id": "gap1d"}, "train": {"seed": 2}}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 16


class TestRunner:
    def test_run_training_writes_artifacts(self, tmp_path):
        run_dir = runner.run_training(dict(TINY), out_root=tmp_path, run_name="t0")
        assert run_dir == tmp_path / "t0"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config_hash"] == config_hash(validate_config(dict(TINY)))
        log = (run_dir / "train.csv").read_text().strip().split("\n")
        assert log[0].startswith("iter,env_steps")
        assert len(log) == 1 + TINY["train"]["iterations"]
        assert (run_dir / "final.ckpt.npz").exists()

    def test_load_policy_round_trip(self, tmp_path):
        run_dir = runner.run_training(dict(TINY), out_root=tmp_path, run_name="t1")
        policy, env = runner.load_policy(dict(TINY), run_dir / "final.ckpt.npz")
        obs = env.observe(env.reset(np.random.default_rng(0), override=0.2))
        a = policy.act_deterministic(obs)
        assert a.shape == (1, env.act_dim)
        assert np.all(np.abs(a) <= env.bounds.hi)
        # the reloaded policy acts exactly as the trained one in memory
        trainer = Trainer(*build(validate_config(dict(TINY))))
        for _ in range(TINY["train"]["iterations"]):
            trainer.train_iteration()
        rng = np.random.default_rng(0)
        states = np.array([env.observe(env.reset(rng, override=c))
                           for c in np.linspace(-0.4, 0.4, 81)])
        np.testing.assert_array_equal(policy.act_deterministic(states),
                                      trainer.policy.act_deterministic(states))

    def test_load_policy_requires_spectral_vectors(self, tmp_path):
        trainer = Trainer(*build(validate_config(dict(TINY))))
        path = tmp_path / "no_vectors.ckpt.npz"
        save_checkpoint(path, trainer.named_parameters(), trainer.optimizers())
        with pytest.raises(ConfigError, match="spectral"):
            runner.load_policy(dict(TINY), path)


class TestCli:
    def test_train_then_eval_scan(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out_root = tmp_path / "runs"
        assert main(["train", cfg, "--out", str(out_root), "--name", "r0"]) == 0
        run_dir = capsys.readouterr().out.strip()
        ckpt = os.path.join(run_dir, "final.ckpt.npz")

        assert main(["eval", cfg, ckpt, "--episodes", "3",
                     "--probe", "0.1", "--probe", "-0.1"]) == 0
        out = capsys.readouterr().out
        assert "avg_return=" in out and "max_violation=" in out
        assert out.count("initial=") == 3
        assert main(["eval", cfg, ckpt, "--episodes", "1",
                     "--probe", "0.1", "--probe", "-0.1"]) == 1
        assert "probes replace the first episodes" in capsys.readouterr().err

        csv_path = tmp_path / "scan.csv"
        assert main(["scan", cfg, ckpt, "--lo", "-0.4", "--hi", "0.4",
                     "--n", "5", "--out", str(csv_path), "--svg"]) == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "coord,action_0,gate_0,gate_1,chosen"
        assert len(lines) == 6
        svg = csv_path.with_suffix(".svg").read_text()
        root = ET.fromstring(svg)  # well-formed XML
        assert root.tag.endswith("svg")

    def test_missing_config_exits_1(self, capsys):
        assert main(["train", "/nonexistent/cfg.yaml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_1_and_names_key(self, tmp_path, capsys):
        bad = {"task": {"id": "gap1d"}, "train": {"optimizer": "sgd"}}
        assert main(["train", write_cfg(tmp_path, bad)]) == 1
        assert "optimizer" in capsys.readouterr().err

    def test_topo_contractibility_verdicts(self, tmp_path, capsys):
        th = np.linspace(0.0, 2.0 * np.pi, 33)
        loop = np.stack([np.cos(th), np.sin(th)], axis=1)
        loop[-1] = loop[0]
        scenario = {"obstacles": [{"kind": "disc", "center": [0.0, 0.0],
                                   "radius": 0.3}],
                    "init_loop": loop.tolist()}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(scenario))
        assert main(["topo", str(path)]) == 0
        assert "X_init noncontractible, windings [1]" in capsys.readouterr().out

        scenario["init_loop"] = (loop + np.array([5.0, 5.0])).tolist()
        path.write_text(yaml.safe_dump(scenario))
        assert main(["topo", str(path)]) == 0
        assert "X_init contractible, windings [0]" in capsys.readouterr().out

    def test_topo_bad_scenario_exits_1(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({"obstacles": []}))
        assert main(["topo", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("code", [
        "ActionBounds(np.array([1.0]), np.array([-1.0]))",
        "target_value(np.zeros(1), 1.0, np.zeros(1), 0.2, np.zeros(1), np.zeros(1, bool))",
        "target_value(np.zeros(1), 0.9, np.zeros(1), 0.0, np.zeros(1), np.zeros(1, bool))",
    ])
    def test_checks_hold_under_python_O(self, code):
        # the checks must raise, not assert: python -O strips asserts
        script = ("import numpy as np\n"
                  "from bifurcrl.critic import target_value\n"
                  "from bifurcrl.distributions import ActionBounds\n"
                  "from bifurcrl.errors import ConfigError\n"
                  f"try:\n    {code}\nexcept ConfigError:\n    raise SystemExit(7)\n")
        src = str(Path(bifurcrl.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 7, proc.stderr

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--tol", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "worst:" in out
