"""Binary checkpoint format: config echo, RNG state, named float64 tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"PMAE"
    version u32
    config  u64 length + UTF-8 text (the flat key = value config)
    rng     u64 length + canonical JSON of the generator state
    count   u64 number of tensors, then per tensor in lexicographic name order:
        name    u32 length + UTF-8
        ndim    u32, then u64 per dimension
        payload raw little-endian float64, C order

Tensors are written sorted by name and the JSON is canonical (sorted keys, no
whitespace), so save -> load -> save reproduces the file byte for byte.
Writes go to a temp file in the target directory and are renamed into place.
They stream: the header goes out first, then each tensor's bytes straight
from its float64 array, so a save of a float64 store builds no copy of the
model in memory.  A float32 store is widened one tensor at a time.  The file
stays float64 whatever the compute dtype: widening is exact, so a float32
store saves and loads back bit for bit, and its dtype travels in the config
text (``dtype = float32``).  ``load`` keeps each tensor a read-only view of
the one buffer it reads the file into, and rejects a tensor holding a NaN
or an infinity as corrupt.  Loading (``load_into``) needs every
tensor of the receiving store, shape included, casts into the store's dtype
and ignores the rest, so a run builds the store it trains or reads and
creates anything fresh (a classification head) after loading.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .errors import ConfigError

MAGIC = b"PMAE"
VERSION = 1


@dataclass
class Checkpoint:
    version: int
    config_text: str
    rng_state: dict
    tensors: dict[str, np.ndarray]
    path: Path | None = None        # the file it was loaded from, if any

    def config(self) -> RunConfig:
        """The embedded config; an error in it names the checkpoint file."""
        try:
            return RunConfig.from_text(self.config_text)
        except ConfigError as exc:
            if self.path is None:
                raise
            raise ConfigError(f"{self.path}: embedded config: {exc}") from None


def from_store(store: ad.ParamStore, cfg: RunConfig,
               rng: np.random.Generator) -> Checkpoint:
    """An in-memory checkpoint holding the store's live arrays, not copies."""
    tensors = {name: t.values for name, t in store.items()}
    return Checkpoint(version=VERSION, config_text=cfg.to_text(),
                      rng_state=rng.bit_generator.state, tensors=tensors)


def write(path: str | Path, ckpt: Checkpoint) -> None:
    path = Path(path)
    config_bytes = ckpt.config_text.encode("utf-8")
    rng_bytes = json.dumps(ckpt.rng_state, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    names = sorted(ckpt.tensors)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", ckpt.version)
                     + struct.pack("<Q", len(config_bytes)) + config_bytes
                     + struct.pack("<Q", len(rng_bytes)) + rng_bytes
                     + struct.pack("<Q", len(names)))
            for name in names:
                arr = np.asarray(ckpt.tensors[name], dtype="<f8", order="C")
                name_bytes = name.encode("utf-8")
                fh.write(struct.pack("<I", len(name_bytes)) + name_bytes
                         + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
                fh.write(arr.reshape(-1).data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(path: str | Path, store: ad.ParamStore, cfg: RunConfig,
         rng: np.random.Generator) -> None:
    """Write the store's live values; no tensor is copied on the way."""
    write(path, from_store(store, cfg, rng))


class _Reader:
    def __init__(self, data: memoryview, path: Path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.data):
            raise ConfigError(f"truncated checkpoint {self.path} "
                              f"(wanted {n} bytes at offset {self.off})")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def text(self, n: int, what: str) -> str:
        raw = self.take(n)
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError:
            raise ConfigError(f"{self.path}: corrupt {what} (not UTF-8)") from None


def load(path: str | Path) -> Checkpoint:
    path = Path(path)
    try:
        data = memoryview(path.read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from None
    r = _Reader(data, path)
    if r.take(4) != MAGIC:
        raise ConfigError(f"{path} is not a checkpoint (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    config_text = r.text(r.u64(), "config text")
    try:
        rng_state = json.loads(str(r.take(r.u64()), "utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: corrupt RNG state: {exc}") from None
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.u64()):
        name = r.text(r.u32(), "tensor name")
        ndim = r.u32()
        shape = tuple(r.u64() for _ in range(ndim))
        payload = r.take(math.prod(shape) * 8)
        try:
            arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
        except ValueError as exc:
            raise ConfigError(f"{path}: tensor '{name}' has a bad shape: {exc}") from None
        if name in tensors:
            raise ConfigError(f"{path}: duplicate tensor '{name}'")
        if not np.isfinite(arr).all():
            raise ConfigError(f"{path}: tensor '{name}' holds non-finite values")
        tensors[name] = arr
    if r.off != len(data):
        raise ConfigError(f"{path}: {len(data) - r.off} trailing bytes")
    return Checkpoint(version=version, config_text=config_text,
                      rng_state=rng_state, tensors=tensors, path=path)


def load_into(store: ad.ParamStore, ckpt: Checkpoint) -> None:
    """Copy the checkpoint's tensors into every tensor of an initialised store,
    cast to the store's dtype.

    Every tensor the store holds must be in the checkpoint with the same
    shape; otherwise a ``ConfigError`` names every missing tensor, or else
    the first mis-shaped one in lexicographic order.  Checkpoint tensors the
    store does not hold are ignored, such as the decoder and the PPR head
    when a classifier loads a pre-training checkpoint.
    """
    missing = [name for name in store.names() if name not in ckpt.tensors]
    if missing:
        raise ConfigError("checkpoint has no tensor "
                          + ", ".join(f"'{name}'" for name in missing))
    for name in store.names():
        arr = ckpt.tensors[name]
        expected = store[name].values.shape
        if arr.shape != expected:
            raise ConfigError(f"tensor '{name}': checkpoint shape "
                              f"{arr.shape} != expected {expected}")
        store[name].values[...] = arr


def restore_rng(ckpt: Checkpoint) -> np.random.Generator:
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = ckpt.rng_state
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint RNG state not restorable: {exc}") from None
    return rng
