"""Checkpoint save/load round trips and validation."""
import numpy as np
import pytest

from bifurcrl import autodiff as ad
from bifurcrl import checkpoint as ckpt
from bifurcrl.errors import ConfigError
from bifurcrl.nets import AdamState, LrSchedule


def make_params(rng):
    return {
        "net.w0": ad.parameter(rng.normal(size=(3, 4)), name="net.w0"),
        "net.b0": ad.parameter(rng.normal(size=4), name="net.b0"),
    }


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = make_params(rng)
    # awkward values that are not representable in lower precision
    params["net.w0"].data[0, 0] = 1.0 / 3.0
    params["net.b0"].data[1] = np.nextafter(1.0, 2.0)
    path = tmp_path / "ck.npz"
    ckpt.save_checkpoint(path, params)
    loaded = ckpt.load_checkpoint(path)
    assert loaded["version"] == ckpt.FORMAT_VERSION
    for name, p in params.items():
        np.testing.assert_array_equal(loaded["params"][name], p.data)
        assert loaded["params"][name].dtype == np.float64


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    params = make_params(np.random.default_rng(0))
    path = tmp_path / "ck.npz"
    ckpt.save_checkpoint(path, params)
    before = path.read_bytes()

    def savez_then_fail(fh, **payload):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save_checkpoint(path, make_params(np.random.default_rng(1)))
    assert path.read_bytes() == before
    loaded = ckpt.load_checkpoint(path)
    np.testing.assert_array_equal(loaded["params"]["net.w0"], params["net.w0"].data)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]


def test_bare_name_gets_npz_suffix(tmp_path):
    ckpt.save_checkpoint(tmp_path / "ck", make_params(np.random.default_rng(0)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]


def test_restore_overwrites_live_tensors(tmp_path):
    rng = np.random.default_rng(1)
    params = make_params(rng)
    path = tmp_path / "ck.npz"
    ckpt.save_checkpoint(path, params)
    fresh = make_params(np.random.default_rng(2))
    ckpt.restore_params(fresh, ckpt.load_checkpoint(path))
    for name in params:
        np.testing.assert_array_equal(fresh[name].data, params[name].data)


def test_optimizer_state_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    params = make_params(rng)
    opt = AdamState(list(params.values()), LrSchedule(1e-3, 1e-4, 10))
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
    path = tmp_path / "ck.npz"
    ckpt.save_checkpoint(path, params, optimizers={"policy": opt})
    loaded = ckpt.load_checkpoint(path)
    assert int(loaded["opt"]["meta/opt/policy/step"]) == 1
    np.testing.assert_array_equal(loaded["opt"]["opt/policy/m0"], opt.m[0])
    np.testing.assert_array_equal(loaded["opt"]["opt/policy/v1"], opt.v[1])


def test_extra_entries_round_trip(tmp_path):
    params = make_params(np.random.default_rng(4))
    path = tmp_path / "ck.npz"
    ckpt.save_checkpoint(path, params, extra={"log_alpha": -0.25, "iteration": 7})
    loaded = ckpt.load_checkpoint(path)
    assert float(loaded["extra"]["log_alpha"]) == pytest.approx(-0.25)
    assert int(loaded["extra"]["iteration"]) == 7


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, **{"meta/format_version": np.int64(99),
                      "param/x": np.zeros(2)})
    with pytest.raises(ConfigError):
        ckpt.load_checkpoint(path)


def test_missing_version_rejected(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, **{"param/x": np.zeros(2)})
    with pytest.raises(ConfigError):
        ckpt.load_checkpoint(path)


def test_missing_parameter_named_in_error(tmp_path):
    params = make_params(np.random.default_rng(5))
    path = tmp_path / "ck.npz"
    ckpt.save_checkpoint(path, {"net.w0": params["net.w0"]})
    with pytest.raises(ConfigError, match="net.b0"):
        ckpt.restore_params(params, ckpt.load_checkpoint(path))


def test_shape_mismatch_rejected(tmp_path):
    params = make_params(np.random.default_rng(6))
    path = tmp_path / "ck.npz"
    ckpt.save_checkpoint(path, params)
    wrong = {"net.w0": ad.parameter(np.zeros((4, 3)), name="net.w0"),
             "net.b0": ad.parameter(np.zeros(4), name="net.b0")}
    with pytest.raises(ConfigError, match="shape"):
        ckpt.restore_params(wrong, ckpt.load_checkpoint(path))
