"""Checkpoint container: named float64 arrays plus optimizer state.

Format: a zip archive (numpy ``.npz``) holding one row-major float64 array per
named parameter, optimizer moment arrays under ``opt/``, scalar counters under
``meta/``, and a ``meta/format_version`` field. Round-trips are bit-exact
because float64 payloads are stored verbatim.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError

FORMAT_VERSION = 1


def save_checkpoint(path, named_params: dict, optimizers: dict | None = None,
                    extra: dict | None = None):
    """Write named parameter arrays (and optional Adam states) to `path`
    (with '.npz' appended when missing, as np.savez does).

    `named_params` maps name -> Tensor; `optimizers` maps name -> AdamState.
    `extra` holds additional scalar/array entries (e.g. log-temperature).
    The archive is written to a temporary file beside `path` and then
    renamed onto it, so an interrupted save leaves the previous checkpoint
    intact.
    """
    payload = {"meta/format_version": np.int64(FORMAT_VERSION)}
    for name, p in named_params.items():
        payload[f"param/{name}"] = np.ascontiguousarray(p.data)
    if optimizers:
        for oname, opt in optimizers.items():
            payload[f"meta/opt/{oname}/step"] = np.int64(opt.step_count)
            for i, (m, v) in enumerate(zip(opt.m, opt.v)):
                payload[f"opt/{oname}/m{i}"] = m
                payload[f"opt/{oname}/v{i}"] = v
    if extra:
        for k, v in extra.items():
            payload[f"extra/{k}"] = np.asarray(v)
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    tmp = path + ".tmp"
    try:
        # a file handle, because np.savez appends '.npz' to a bare name
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the save failed before the rename
            os.remove(tmp)


def load_checkpoint(path) -> dict:
    """Read a checkpoint into {'params': ..., 'opt': ..., 'extra': ..., 'version': ...}."""
    with np.load(path) as zf:
        data = {k: zf[k] for k in zf.files}
    version = int(data.pop("meta/format_version", -1))
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format version {version}")
    out = {"version": version, "params": {}, "opt": {}, "extra": {}}
    for k, v in data.items():
        if k.startswith("param/"):
            out["params"][k[len("param/"):]] = v
        elif k.startswith("opt/") or k.startswith("meta/opt/"):
            out["opt"][k] = v
        elif k.startswith("extra/"):
            out["extra"][k[len("extra/"):]] = v
    return out


def restore_params(named_params: dict, loaded: dict):
    """Copy loaded arrays into live parameter tensors, by name, shape-checked."""
    for name, p in named_params.items():
        if name not in loaded["params"]:
            raise ConfigError(f"checkpoint missing parameter {name!r}")
        arr = loaded["params"][name]
        if arr.shape != p.data.shape:
            raise ConfigError(
                f"checkpoint shape {arr.shape} != live shape {p.data.shape} for {name!r}")
        p.data[...] = arr
