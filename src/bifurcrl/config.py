"""Run configuration: YAML schema with exhaustive unknown-key rejection."""
from __future__ import annotations

import dataclasses
import hashlib
import json

import yaml

from .envs import make_env
from .errors import ConfigError
from .trainer import TrainConfig

TASK_KEYS = {
    "gap1d": {"id", "dt", "horizon", "penalty", "gap_radius", "window", "y_max",
              "accel_max", "init_low", "init_high", "init_v", "reward_weights"},
    "bypass": {"id", "dt", "horizon", "penalty", "ref_speed", "road_half_width",
               "obstacle_x", "obstacle_radius", "init_low", "init_high",
               "reward_weights"},
    "encounter": {"id", "dt", "horizon", "penalty", "ref_speed", "road_half_width",
                  "obstacle_x", "obstacle_radius", "cross_speed", "cross_start",
                  "init_low", "init_high", "reward_weights"},
}

TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}

REWARD_WEIGHT_KEYS = {"lateral", "heading", "speed", "action", "action_rate",
                      "position", "velocity"}


def _reject_unknown(mapping: dict, allowed: set, where: str):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def load_config(path) -> dict:
    """Parse and validate a run configuration file."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return validate_config(raw)


def validate_config(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a mapping")
    _reject_unknown(raw, {"task", "train"}, "top level")
    for section in ("task", "train"):
        if section not in raw or not isinstance(raw[section], dict):
            raise ConfigError(f"missing required section: {section}")
    task = raw["task"]
    if "id" not in task:
        raise ConfigError("missing required key: task.id")
    task_id = task["id"]
    if task_id not in TASK_KEYS:
        raise ConfigError(f"unknown task id {task_id!r}")
    _reject_unknown(task, TASK_KEYS[task_id], f"task ({task_id})")
    if "window" in task:
        task["window"] = tuple(task["window"])
    if "reward_weights" in task:
        _reject_unknown(task["reward_weights"], REWARD_WEIGHT_KEYS,
                        "task.reward_weights")
    _reject_unknown(raw["train"], TRAIN_KEYS, "train")
    if "hidden" in raw["train"]:
        raw["train"]["hidden"] = tuple(raw["train"]["hidden"])
    return raw


def build(raw: dict):
    """Instantiate (env, TrainConfig) from a validated config mapping."""
    env = make_env(raw["task"])
    cfg = TrainConfig(**raw["train"])
    return env, cfg


def config_hash(raw: dict) -> str:
    """Content hash of the config for the run manifest."""
    canon = json.dumps(raw, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
