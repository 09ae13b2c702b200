"""Run-directory management: manifests, training logs, checkpoints."""
from __future__ import annotations

import datetime
import json
import os
from pathlib import Path

import numpy as np

from . import config as config_mod
from .actor import PolicyNetwork
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .trainer import LOG_HEADER, Trainer

RUN_ROOT_ENV = "BIFURCRL_RUNS"


def run_root(override=None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get(RUN_ROOT_ENV, "runs"))


def write_manifest(run_dir: Path, raw_cfg: dict):
    manifest = {
        "config": raw_cfg,
        "seed": raw_cfg["train"].get("seed", 0),
        "config_hash": config_mod.config_hash(raw_cfg),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {"log": "train.csv", "checkpoint": "final.ckpt.npz"},
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      default=str) + "\n")


def run_training(raw_cfg: dict, out_root=None, run_name: str | None = None,
                 progress=None) -> Path:
    """Train per the config; returns the run directory."""
    raw_cfg = config_mod.validate_config(raw_cfg)
    env, cfg = config_mod.build(raw_cfg)
    name = run_name or f"{raw_cfg['task']['id']}-{cfg.algorithm}" \
                       f"-seed{cfg.seed}-{config_mod.config_hash(raw_cfg)}"
    run_dir = run_root(out_root) / name
    run_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(run_dir, raw_cfg)
    trainer = Trainer(env, cfg)
    log_path = run_dir / "train.csv"
    with open(log_path, "w") as log:
        log.write(LOG_HEADER + "\n")
        for it in range(cfg.iterations):
            row = trainer.train_iteration()
            log.write(row + "\n")
            if progress is not None:
                progress(it, row)
            if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
                _save(trainer, run_dir / f"iter{it + 1:06d}.ckpt.npz")
    _save(trainer, run_dir / "final.ckpt.npz")
    return run_dir


def _save(trainer: Trainer, path: Path):
    save_checkpoint(path, trainer.named_parameters(), trainer.optimizers(),
                    extra=trainer.extra_state())


def load_policy(raw_cfg: dict, checkpoint_path):
    """Rebuild the policy from a config and a checkpoint; returns (policy, env)."""
    raw_cfg = config_mod.validate_config(raw_cfg)
    env, cfg = config_mod.build(raw_cfg)
    policy = PolicyNetwork(env.obs_dim, env.act_dim, cfg.hidden, cfg.components,
                           env.bounds, cfg.lipschitz,
                           np.random.default_rng(0), name="policy")
    loaded = load_checkpoint(checkpoint_path)
    restore_params(policy.named_parameters(), loaded)
    policy.restore_spectral_vectors(loaded["extra"])
    return policy, env
