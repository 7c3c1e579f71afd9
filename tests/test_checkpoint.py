"""Checkpoint save/load round trips and corruption handling."""

import errno
import json
import struct

import numpy as np
import pytest

from xlinear import checkpoint as ck
from xlinear import cli
from xlinear import data as dio
from xlinear import model as mdl
from xlinear import tensor as tc
from xlinear.config import RunConfig
from xlinear.errors import DimensionError, IOFault

from synthetic_series import write_synthetic_csv


def small_cfg(**over):
    base = dict(horizon=4, n_endo=2, n_exo=3, lookback=8, d_model=6, t_ff=8, c_ff=8)
    base.update(over)
    return mdl.ModelConfig(**base).validate()


def make_params(cfg, seed=0):
    return mdl.XLinearParams(cfg, np.random.default_rng(seed))


SCALER = {"variable_names": ["a", "b"], "mean": [0.5, -1.25], "std": [2.0, 0.75]}
META = {"n_endo": 2, "n_exo": 3, "best_epoch": 4, "best_val_loss": 0.123}
RUN_CFG = {"model": {"horizon": 4}, "train": {"seed": 2025}}


def write_v1_checkpoint(path, tensors: dict, run_config: dict, scaler: dict, meta: dict):
    """Write ``tensors`` (name -> array, in order) in the version-1 layout: an 8-byte header
    length, the canonical JSON header with ``format_version`` 1, then one length-prefixed
    block of little-endian float64 values per tensor."""
    header = {"format_version": 1, "config": run_config, "scaler": scaler, "meta": meta,
              "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors.items()]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)) + blob)
        for a in tensors.values():
            raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
            fh.write(struct.pack("<Q", len(raw)) + raw)


def widen_vgm(tensors: dict, cfg, seed=0) -> dict:
    """The version-1 shapes of an elementwise-gated model: random exogenous columns put
    before the stored ``vgm_w2``/``vgm_b2`` global-token columns."""
    rng = np.random.default_rng(seed)
    w2, b2 = tensors["vgm_w2"], tensors["vgm_b2"]
    return {**tensors,
            "vgm_w2": np.concatenate([rng.normal(size=(cfg.c_ff, cfg.n_exo)), w2], axis=1),
            "vgm_b2": np.concatenate([rng.normal(size=cfg.n_exo), b2])}


def full_width_vgm(e_exo, x_glob, params, training=False, rng=None):
    """The unpruned VGM a version-1 model ran: a gate for all C+M channels from a
    ``(c_ff, C+M)`` ``vgm_w2``, of which the forecast reads the global-token rows."""
    cfg = params.cfg
    tok = tc.concat([e_exo, x_glob], axis=1)
    h = tc.activation(tc.transpose(tok) @ params.vgm_w1 + params.vgm_b1, "relu")
    h = tc.dropout(h, cfg.c_dropout, training, rng)
    gate = tc.transpose(tc.activation(h @ params.vgm_w2 + params.vgm_b2, cfg.gate_activation))
    _, x_glob2 = tc.split(gate * tok, (cfg.n_exo, cfg.n_endo), axis=1)
    return x_glob2, tc.narrow(gate, 1, cfg.n_exo, cfg.n_endo)


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path):
        cfg = small_cfg()
        params = make_params(cfg, seed=7)
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, params, RUN_CFG, SCALER, META)
        loaded = ck.load_checkpoint(path)
        assert loaded.version == ck.FORMAT_VERSION
        assert loaded.config == RUN_CFG
        assert loaded.scaler == SCALER
        assert loaded.meta == META
        for name, t in params.named():
            assert np.array_equal(loaded.tensors[name], t.data)
            assert loaded.tensors[name].dtype == np.float64

    def test_params_rebuild_bit_exact(self, tmp_path):
        cfg = small_cfg()
        params = make_params(cfg, seed=8)
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, params, RUN_CFG, SCALER, META)
        rebuilt = ck.params_from_checkpoint(ck.load_checkpoint(path), cfg)
        for (na, ta), (nb, tb) in zip(params.named(), rebuilt.named()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_restore_wraps_the_stored_arrays_and_resaves_the_same_bytes(self, tmp_path):
        cfg = small_cfg()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        ck.save_checkpoint(a, make_params(cfg, seed=10), RUN_CFG, SCALER, META)
        loaded = ck.load_checkpoint(a)
        rebuilt = ck.params_from_checkpoint(loaded, cfg)
        assert all(t.data is loaded.tensors[name] for name, t in rebuilt.named())
        ck.save_checkpoint(b, rebuilt, RUN_CFG, SCALER, META)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_tensors_are_writable_and_share_no_memory(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(small_cfg(), seed=13), RUN_CFG, SCALER, META)
        arrays = list(ck.load_checkpoint(path).tensors.values())
        assert all(a.flags.writeable for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        arrays[0][...] = 1.0
        assert not np.any(arrays[1] == 1.0)

    def test_identical_state_identical_bytes(self, tmp_path):
        cfg = small_cfg()
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        ck.save_checkpoint(a, make_params(cfg, seed=9), RUN_CFG, SCALER, META)
        ck.save_checkpoint(b, make_params(cfg, seed=9), RUN_CFG, SCALER, META)
        assert a.read_bytes() == b.read_bytes()

    def test_shared_embedding_variant_round_trips(self, tmp_path):
        cfg = small_cfg(share_embedding=True, revin_affine=False)
        params = make_params(cfg, seed=10)
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, params, RUN_CFG, SCALER, META)
        loaded = ck.load_checkpoint(path)
        names = {n for n, _ in params.named()}
        assert set(loaded.tensors) == names
        assert "embed_exo_w" not in names
        assert "revin_gamma" not in names
        rebuilt = ck.params_from_checkpoint(loaded, cfg)
        assert rebuilt.embed_exo_w is rebuilt.embed_endo_w

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        cfg = small_cfg()
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(cfg, seed=11), RUN_CFG, SCALER, META)
        before = path.read_bytes()
        real_pack = struct.pack
        calls = []

        def pack_then_fail(*args):
            calls.append(args)
            if len(calls) > 1:  # the header is written, the first tensor is not
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_pack(*args)

        monkeypatch.setattr(ck.struct, "pack", pack_then_fail)
        with pytest.raises(IOFault, match="No space left"):
            ck.save_checkpoint(path, make_params(cfg, seed=12), RUN_CFG, SCALER, META)
        assert len(calls) == 2
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]


class TestValidation:
    def test_shape_table_mismatch(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(small_cfg()), RUN_CFG, SCALER, META)
        wider = small_cfg(d_model=12, t_ff=16, c_ff=16)
        with pytest.raises(DimensionError, match="shape table"):
            ck.params_from_checkpoint(ck.load_checkpoint(path), wider)

    def test_tensor_set_mismatch(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(small_cfg()), RUN_CFG, SCALER, META)
        no_affine = small_cfg(revin_affine=False)
        with pytest.raises(DimensionError, match="unexpected"):
            ck.params_from_checkpoint(ck.load_checkpoint(path), no_affine)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOFault, match="cannot open"):
            ck.load_checkpoint(tmp_path / "absent.bin")

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(small_cfg()), RUN_CFG, SCALER, META)
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = raw[8:8 + hlen].decode()
        patched = header.replace(f'"format_version":{ck.FORMAT_VERSION}',
                                 '"format_version":99')
        assert patched != header
        path.write_bytes(struct.pack("<Q", len(patched)) + patched.encode() + raw[8 + hlen:])
        with pytest.raises(IOFault, match="version"):
            ck.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(small_cfg()), RUN_CFG, SCALER, META)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(IOFault, match="truncated"):
            ck.load_checkpoint(path)

    def test_truncated_payload_is_one_io_line_through_the_cli(self, tmp_path, capsys):
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(small_cfg()), RUN_CFG, SCALER, META)
        path.write_bytes(path.read_bytes()[:-16])
        assert cli.main(["eval", "--checkpoint", str(path)]) == 5
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error[io]: truncated checkpoint")

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(small_cfg()), RUN_CFG, SCALER, META)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(IOFault, match="trailing"):
            ck.load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "ck.bin"
        body = b"{not json"
        path.write_bytes(struct.pack("<Q", len(body)) + body)
        with pytest.raises(IOFault, match="corrupt"):
            ck.load_checkpoint(path)

    def test_payload_length_inconsistent_with_shape(self, tmp_path):
        path = tmp_path / "ck.bin"
        ck.save_checkpoint(path, make_params(small_cfg()), RUN_CFG, SCALER, META)
        raw = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<Q", raw[:8])
        # corrupt the first tensor's length prefix
        off = 8 + hlen
        raw[off:off + 8] = struct.pack("<Q", 24)
        path.write_bytes(bytes(raw))
        with pytest.raises(IOFault, match="needs"):
            ck.load_checkpoint(path)


class TestVersion1:
    """Version 1 stored ``vgm_w2``/``vgm_b2`` at C+M columns for every gate activation."""

    @pytest.mark.parametrize("gate", ["sigmoid", "swish", "tanh"])
    def test_elementwise_drops_the_exogenous_columns(self, tmp_path, gate):
        cfg = small_cfg(gate_activation=gate)
        params = make_params(cfg, seed=13)
        arrays = params.state_arrays()
        path = tmp_path / "v1.bin"
        write_v1_checkpoint(path, widen_vgm(arrays, cfg), RUN_CFG, SCALER, META)
        loaded = ck.load_checkpoint(path)
        assert loaded.version == 1 and loaded.tensors["vgm_w2"].shape == (8, 5)
        rebuilt = ck.params_from_checkpoint(loaded, cfg)
        for name, t in rebuilt.named():
            assert np.array_equal(t.data, arrays[name]), name
        resaved = tmp_path / "v2.bin"
        ck.save_checkpoint(resaved, rebuilt, RUN_CFG, SCALER, META)
        ck.save_checkpoint(tmp_path / "ref.bin", params, RUN_CFG, SCALER, META)
        assert resaved.read_bytes() == (tmp_path / "ref.bin").read_bytes()

    def test_softmax_loads_unchanged(self, tmp_path):
        cfg = small_cfg(gate_activation="softmax")
        arrays = make_params(cfg, seed=14).state_arrays()
        assert arrays["vgm_w2"].shape == (8, 5)
        path = tmp_path / "v1.bin"
        write_v1_checkpoint(path, arrays, RUN_CFG, SCALER, META)
        rebuilt = ck.params_from_checkpoint(ck.load_checkpoint(path), cfg)
        for name, t in rebuilt.named():
            assert np.array_equal(t.data, arrays[name]), name

    def test_other_widths_are_a_shape_mismatch(self, tmp_path):
        cfg = small_cfg()
        arrays = make_params(cfg, seed=15).state_arrays()
        arrays["vgm_w2"] = np.zeros((8, 4))
        path = tmp_path / "v1.bin"
        write_v1_checkpoint(path, arrays, RUN_CFG, SCALER, META)
        with pytest.raises(DimensionError, match=r"vgm_w2: stored \(8, 4\) != expected \(8, 2\)"):
            ck.params_from_checkpoint(ck.load_checkpoint(path), cfg)

    @pytest.mark.parametrize("gate", mdl.GATE_ACTIVATIONS)
    def test_predict_equals_the_full_width_forecast(self, tmp_path, monkeypatch, capsys, gate):
        """``predict`` on a version-1 file gives the forecast of the unpruned model, and the
        same bytes as on the version-2 file of the same weights."""
        csv_path = write_synthetic_csv(tmp_path / "series.csv", n_rows=240)
        config = {"data": {"csv_path": str(csv_path), "target_mode": "multivariate",
                           "split_ratios": [0.6, 0.2, 0.2]},
                  "model": {"horizon": 4, "lookback": 16, "d_model": 8, "t_ff": 8, "c_ff": 8,
                            "gate_activation": gate},
                  "train": {"max_epochs": 1, "batch_size": 32, "lr_init": 1e-3},
                  "out_dir": str(tmp_path / "v2")}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(tmp_path / "config.json")]) == 0
        v2 = ck.load_checkpoint(tmp_path / "v2" / cli.CHECKPOINT_NAME)
        cfg = RunConfig.from_dict(v2.config).model_config(2, 2)
        wide = v2.tensors if gate == "softmax" else widen_vgm(v2.tensors, cfg, seed=3)
        (tmp_path / "v1").mkdir()
        write_v1_checkpoint(tmp_path / "v1" / cli.CHECKPOINT_NAME, wide, v2.config,
                            v2.scaler, v2.meta)
        forecasts = []
        for version in ("v1", "v2"):
            assert cli.main(["predict", "--checkpoint",
                             str(tmp_path / version / cli.CHECKPOINT_NAME),
                             "--input", str(csv_path)]) == 0
            forecasts.append((tmp_path / version / "forecast.csv").read_text())
        assert forecasts[0] == forecasts[1]

        monkeypatch.setattr(mdl, "vgm", full_width_vgm)
        ds = dio.load_csv_with_scaler(csv_path, v2.scaler, "multivariate", (0.6, 0.2, 0.2))
        yhat, _ = mdl.forward(dio.last_window(ds, 16), mdl.XLinearParams.from_arrays(cfg, wide))
        want = dio.inverse_scale_forecast(ds, yhat.data)[0].T
        got = np.array([[float(v) for v in line.split(",")[1:]]
                        for line in forecasts[0].strip().split("\n")[1:]])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
