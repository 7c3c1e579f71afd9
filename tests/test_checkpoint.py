"""Checkpoint save/load round trips and corruption handling."""

import errno
import struct

import numpy as np
import pytest

from xlinear import checkpoint as ck
from xlinear import model as mdl
from xlinear.errors import DimensionError, IOFault


def small_cfg(**over):
    base = dict(horizon=4, n_endo=2, n_exo=3, lookback=8, d_model=6, t_ff=8, c_ff=8)
    base.update(over)
    return mdl.ModelConfig(**base).validate()


def make_params(cfg, seed=0):
    return mdl.XLinearParams(cfg, np.random.default_rng(seed))


SCALER = {"variable_names": ["a", "b"], "mean": [0.5, -1.25], "std": [2.0, 0.75]}
META = {"n_endo": 2, "n_exo": 3, "best_epoch": 4, "best_val_loss": 0.123}
RUN_CFG = {"model": {"horizon": 4}, "train": {"seed": 2025}}


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
        patched = header.replace('"format_version":1', '"format_version":99')
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
