"""Checkpoint format: byte-exact round trips and corruption reporting.

The format promises two things worth pinning down hard: save -> load ->
save reproduces the file byte for byte (canonical tensor order and JSON),
and every malformed input fails with a message naming the offending
tensor or byte range rather than an index error from struct.
"""

import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from protomae import autodiff as ad
from protomae import checkpoint, pipeline
from protomae.config import preset
from protomae.errors import ConfigError


def make_store(seed=0, **overrides):
    cfg = dataclasses.replace(preset("toy"), **overrides)
    store = pipeline.init_model(cfg, decoder=True, pcsm_branch=True)
    rng = np.random.default_rng(seed)
    for _, t in store.items():
        t.values += 0.01 * rng.standard_normal(t.values.shape)
    return cfg, store


# --------------------------------------------------------- round trips

def test_save_load_save_is_byte_identical(tmp_path):
    cfg, store = make_store()
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    checkpoint.save(a, store, cfg, np.random.default_rng(3))
    ckpt = checkpoint.load(a)
    checkpoint.write(b, ckpt)
    assert a.read_bytes() == b.read_bytes()


def test_values_and_config_round_trip(tmp_path):
    cfg, store = make_store(seed=1)
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store, cfg, np.random.default_rng(7))
    ckpt = checkpoint.load(path)
    assert ckpt.config().to_text() == cfg.to_text()

    _, fresh = make_store(seed=2)
    checkpoint.load_into(fresh, ckpt)
    for name, t in store.items():
        assert np.array_equal(fresh[name].values, t.values), name


def test_rng_state_round_trip(tmp_path):
    cfg, store = make_store()
    rng = np.random.default_rng(11)
    rng.standard_normal(5)  # advance past the seed state
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store, cfg, rng)
    assert checkpoint.load(path).rng_state == rng.bit_generator.state


def test_save_overwrites_existing_file(tmp_path):
    cfg, store = make_store()
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store, cfg, np.random.default_rng(0))
    first = path.read_bytes()
    store["pcsm.prototypes"].values += 1.0
    checkpoint.save(path, store, cfg, np.random.default_rng(0))
    assert path.read_bytes() != first
    assert not list(tmp_path.glob("*.tmp"))


def test_file_format_matches_golden_digest(tmp_path):
    # recorded from the whole-file writer this streaming one replaced
    ckpt = checkpoint.Checkpoint(
        version=1, config_text="preset = toy\ndim = 16\n",
        rng_state=np.random.default_rng(3).bit_generator.state,
        tensors={"enc.w": (np.arange(12.0) / 7.0 - 0.5).reshape(3, 4),
                 "b": np.array([-0.0, 1e-300, -2.5, 3.0e10, np.pi]),
                 "a.one": np.array([0.125])})
    path = tmp_path / "golden.bin"
    checkpoint.write(path, ckpt)
    blob = path.read_bytes()
    assert len(blob) == 422
    assert hashlib.sha256(blob).hexdigest() == \
        "3f17a1bec1d2022f0d451b2189db61895345297e7e00ca64fe8c6f2bc7f154b3"


def test_save_streams_without_copying_the_store(tmp_path):
    store = ad.ParamStore(seed=0)
    store.create("w", (1024, 1024))  # 8 MiB of float64
    store.create("b", (1024,))
    path = tmp_path / "big.bin"
    tracemalloc.start()
    try:
        checkpoint.save(path, store, preset("toy"), np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    loaded = checkpoint.load(path).tensors
    for name, t in store.items():
        np.testing.assert_array_equal(loaded[name], t.values)


def test_float32_store_round_trips_exactly(tmp_path):
    cfg = dataclasses.replace(preset("toy"), dtype="float32").validate()
    store = pipeline.init_model(cfg)
    rng = np.random.default_rng(0)
    for _, t in store.items():
        t.values += (0.01 * rng.standard_normal(t.values.shape)).astype(np.float32)
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store, cfg, np.random.default_rng(3))
    ckpt = checkpoint.load(path)
    assert ckpt.config() == cfg
    # on disk every tensor is the exact float64 widening
    for name, t in store.items():
        assert ckpt.tensors[name].dtype == np.float64
        np.testing.assert_array_equal(ckpt.tensors[name], t.values.astype(np.float64))
    fresh = pipeline.init_model(dataclasses.replace(cfg, seed=9))
    checkpoint.load_into(fresh, ckpt)
    for name, t in store.items():
        assert fresh[name].values.dtype == np.float32
        np.testing.assert_array_equal(fresh[name].values.view(np.int32), t.values.view(np.int32))
    assert pipeline.params_hash(fresh) == pipeline.params_hash(store)
    # the hash is of the widened tensors, so a loaded checkpoint gives it too
    widened = ad.ParamStore(seed=0)
    for name in store.names():
        widened.create(name, ckpt.tensors[name].shape)
    checkpoint.load_into(widened, ckpt)
    assert pipeline.params_hash(widened) == pipeline.params_hash(store)


def test_loaded_tensors_are_read_only_arrays_of_their_own(tmp_path):
    cfg, store = make_store()
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store, cfg, np.random.default_rng(0))
    tensors = list(checkpoint.load(path).tensors.values())
    for arr in tensors:
        assert not arr.flags.writeable
        base = arr if arr.base is None else arr.base   # the flat array reshaped
        assert base.flags.owndata and base.nbytes == arr.nbytes
    for i, a in enumerate(tensors):
        for b in tensors[i + 1:]:
            assert not np.shares_memory(a, b)


# ----------------------------------------------------------- load_into

def test_mismatched_width_names_first_offending_tensor(tmp_path):
    cfg16, store16 = make_store()
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store16, cfg16, np.random.default_rng(0))
    ckpt = checkpoint.load(path)

    _, store32 = make_store(dim=32)
    assert sorted(ckpt.tensors) == store32.names()
    offending = next(n for n in store32.names()
                     if ckpt.tensors[n].shape != store32[n].values.shape)
    with pytest.raises(ConfigError, match=f"tensor '{offending}'"):
        checkpoint.load_into(store32, ckpt)


def test_missing_tensors_are_all_named_and_extra_ones_ignored(tmp_path):
    cfg, store = make_store()
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store, cfg, np.random.default_rng(0))

    ckpt = checkpoint.load(path)
    del ckpt.tensors["pcsm.prototypes"]
    _, fresh = make_store(seed=3)
    with pytest.raises(ConfigError, match="has no tensor 'pcsm.prototypes'"):
        checkpoint.load_into(fresh, ckpt)
    del ckpt.tensors["dec.mask_token"]
    with pytest.raises(ConfigError,
                       match="has no tensor 'dec.mask_token', 'pcsm.prototypes'$"):
        checkpoint.load_into(fresh, ckpt)

    ckpt = checkpoint.load(path)
    ckpt.tensors["zzz.extra"] = np.zeros(3)
    checkpoint.load_into(fresh, ckpt)
    for name, t in store.items():
        assert np.array_equal(fresh[name].values, t.values), name


def test_zero_dim_tensor_round_trips(tmp_path):
    store = ad.ParamStore(seed=0)
    store.create("t", ())
    store["t"].values[...] = 2.5
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store, preset("toy"), np.random.default_rng(0))
    assert checkpoint.load(path).tensors["t"].shape == ()

    fresh = ad.ParamStore(seed=1)
    fresh.create("t", ())
    checkpoint.load_into(fresh, checkpoint.load(path))
    assert fresh["t"].values.shape == () and float(fresh["t"].values) == 2.5


# ----------------------------------------------------- malformed input

def _saved_bytes(tmp_path):
    cfg, store = make_store()
    path = tmp_path / "ck.bin"
    checkpoint.save(path, store, cfg, np.random.default_rng(0))
    return path, path.read_bytes()


def test_truncated_file_is_reported(tmp_path):
    path, blob = _saved_bytes(tmp_path)
    path.write_bytes(blob[:-10])
    with pytest.raises(ConfigError, match="truncated"):
        checkpoint.load(path)
    path.write_bytes(blob[:2])
    with pytest.raises(ConfigError, match="truncated"):
        checkpoint.load(path)
    # a shape asking for more bytes than the file holds, checked before allocating
    ndim_at = blob.index(b"dec.mask_token") + len(b"dec.mask_token")
    ndim = struct.unpack_from("<I", blob, ndim_at)[0]
    path.write_bytes(blob[:ndim_at + 4] + struct.pack("<Q", 2 ** 40) * ndim
                     + blob[ndim_at + 4 + 8 * ndim:])
    with pytest.raises(ConfigError, match="truncated"):
        checkpoint.load(path)


def test_bad_magic_is_reported(tmp_path):
    path, blob = _saved_bytes(tmp_path)
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ConfigError, match="not a checkpoint"):
        checkpoint.load(path)


def test_unsupported_version_is_reported(tmp_path):
    path, blob = _saved_bytes(tmp_path)
    path.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(ConfigError, match="version 99"):
        checkpoint.load(path)


def test_trailing_bytes_are_reported(tmp_path):
    path, blob = _saved_bytes(tmp_path)
    path.write_bytes(blob + b"\x00\x00")
    with pytest.raises(ConfigError, match="trailing bytes"):
        checkpoint.load(path)


def test_missing_file_is_reported(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        checkpoint.load(tmp_path / "absent.bin")


def _toy_checkpoint_bytes(tmp_path):
    """A small checkpoint whose config text is a large share of its bytes."""
    rng = np.random.default_rng(0)
    ckpt = checkpoint.Checkpoint(
        version=checkpoint.VERSION, config_text=preset("toy").to_text(),
        rng_state=rng.bit_generator.state,
        tensors={"a": rng.normal(size=(2, 3)), "b.bias": rng.normal(size=(4,))})
    path = tmp_path / "toy.bin"
    checkpoint.write(path, ckpt)
    return path, path.read_bytes()


def test_undecodable_text_and_bad_shape_are_reported(tmp_path):
    path, blob = _toy_checkpoint_bytes(tmp_path)
    config_at = 4 + 4 + 8
    path.write_bytes(blob[:config_at] + b"\xff" + blob[config_at + 1:])
    with pytest.raises(ConfigError, match="corrupt config text"):
        checkpoint.load(path)
    name_at = blob.index(b"b.bias")
    path.write_bytes(blob[:name_at] + b"\xfe" + blob[name_at + 1:])
    with pytest.raises(ConfigError, match="corrupt tensor name"):
        checkpoint.load(path)
    # 65 unit axes hold one value but exceed numpy's dimension limit
    ndim_at = blob.index(b"a", blob.index(b"}")) + 1
    tail = struct.pack("<I", 65) + struct.pack("<Q", 1) * 65 + struct.pack("<d", 0.0)
    path.write_bytes(blob[:ndim_at] + tail)
    with pytest.raises(ConfigError, match="tensor 'a' has a bad shape"):
        checkpoint.load(path)
    # the last value of the last tensor, 'b.bias'
    for bad in (np.nan, np.inf):
        path.write_bytes(blob[:-8] + struct.pack("<d", bad))
        with pytest.raises(ConfigError, match=r"tensor 'b\.bias' holds non-finite values"):
            checkpoint.load(path)


def test_corrupted_bytes_fuzz_raise_only_config_error(tmp_path):
    path, blob = _toy_checkpoint_bytes(tmp_path)
    rng = np.random.default_rng(1234)
    loaded = 0
    for case in range(300):
        data = bytearray(blob)
        if case % 3 != 2:
            for _ in range(int(rng.integers(1, 4))):
                data[int(rng.integers(len(data)))] = int(rng.integers(256))
        if case % 3 != 0:
            data = data[:int(rng.integers(len(data)))]
        path.write_bytes(bytes(data))
        try:
            ckpt = checkpoint.load(path)
        except ConfigError as exc:
            assert str(path) in str(exc), exc
            continue
        loaded += 1
        try:
            ckpt.config()
        except ConfigError:
            pass
    assert 0 < loaded < 300
