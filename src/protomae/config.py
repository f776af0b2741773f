"""Run configuration: one flat dataclass, three named presets, text round-trip.

The config file format is deliberately plain: one ``key = value`` pair per
line, ``#`` comments, no sections.  Unknown keys are an error so typos cannot
silently fall back to defaults.

A ``RunConfig`` is checked when it is built and cannot be changed, so every
config that exists is valid; derive a variant with ``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .autodiff import DTYPES
from .errors import ConfigError
from .masking import STRATEGIES, round_half_up
from .shapes import SHAPE_KINDS


@dataclass(frozen=True)
class RunConfig:
    """Everything a training or evaluation run needs, flat and serialisable."""

    preset: str = "paper-default"
    seed: int = 0
    dtype: str = "float64"          # compute dtype of the store, the tape and AdamW

    # geometry / tokens
    n_points: int = 1024
    n_patches: int = 64
    knn_k: int = 32
    dim: int = 384
    heads: int = 6
    encoder_blocks: int = 12
    decoder_blocks: int = 4
    mlp_ratio: float = 4.0
    embed_hidden1: int = 128
    embed_hidden2: int = 256

    # component semantic modelling
    n_prototypes: int = 8
    cont_temperature: float = 0.07
    knorm_k: int = 8
    knorm_enabled: bool = True

    # masking
    mask_ratio: float = 0.6
    mask_strategy: str = "csem"
    full_mask_components: int = 1

    # loss weights
    lambda_proto: float = 1.0
    lambda_cont: float = 1.0

    # optimisation
    learning_rate: float = 1e-3
    proto_learning_rate: float = 1e-3
    proto_lr_decay: float = 1.0   # factor reached at the last epoch, linear
    proto_weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.01
    epochs: int = 300
    batch_size: int = 32

    # data
    shape_kinds: str = "chair,plane,rocket,table"
    clouds_per_kind: int = 64

    # fine-tuning
    head_hidden: int = 256
    finetune_epochs: int = 50
    finetune_learning_rate: float = 5e-4
    stop_train_accuracy: float = 1.01   # > 1 disables early stop
    val_fraction: float = 0.2
    split_seed: int = 7

    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        self.validate()

    @property
    def recon_points(self) -> int:
        """Points reconstructed per token by the prototype-position head."""
        return max(1, round(self.n_points / self.n_patches))

    def kinds(self) -> list[str]:
        """The comma-separated ``shape_kinds``, stripped, empty entries dropped."""
        return [k.strip() for k in self.shape_kinds.split(",") if k.strip()]

    def validate(self) -> "RunConfig":
        """Raise ``ConfigError`` at the first failed check; return the config."""
        c = self
        unknown = [k for k in c.kinds() if k not in SHAPE_KINDS]
        checks = [
            *((getattr(c, k) >= 0, f"{k} must be >= 0, got {getattr(c, k)}")
              for k in ("seed", "split_seed")),
            (c.dtype in DTYPES, f"dtype must be one of {', '.join(DTYPES)}, got '{c.dtype}'"),
            (c.n_points >= 64, "n_points must be >= 64"),
            (1 <= c.n_patches <= c.n_points, "n_patches must be in [1, n_points]"),
            (1 <= c.knn_k <= c.n_points, "knn_k must be in [1, n_points]"),
            (c.dim >= 2, "dim must be >= 2"),
            (c.heads >= 1 and c.dim % c.heads == 0, "heads must divide dim"),
            (math.isfinite(c.mlp_ratio) and round(c.mlp_ratio * c.dim) >= 1,
             "mlp_ratio must be finite with round(mlp_ratio * dim) >= 1"),
            (c.encoder_blocks >= 1, "encoder_blocks must be >= 1"),
            (c.decoder_blocks >= 1, "decoder_blocks must be >= 1"),
            (c.embed_hidden1 >= 1 and c.embed_hidden2 >= 1, "embed widths must be positive"),
            (c.n_prototypes >= 2, "n_prototypes must be >= 2"),
            (1 <= c.knorm_k <= c.n_patches, "knorm_k must be in [1, n_patches]"),
            (0.0 < c.mask_ratio < 1.0
             and 0 < round_half_up(c.mask_ratio * c.n_patches) < c.n_patches,
             f"mask_ratio must mask 1..n_patches-1 of {c.n_patches} patches, got {c.mask_ratio}"),
            (c.mask_strategy in STRATEGIES,
             f"mask_strategy must be one of {', '.join(STRATEGIES)}, got '{c.mask_strategy}'"),
            (0 <= c.full_mask_components < c.n_prototypes,
             f"full_mask_components must be in [0, n_prototypes), got {c.full_mask_components}"),
            (0 < c.proto_lr_decay <= 1.0, "proto_lr_decay must be in (0, 1]"),
            (0 <= c.beta1 < 1 and 0 <= c.beta2 < 1, "betas must be in [0, 1)"),
            (c.epochs >= 1 and c.finetune_epochs >= 1, "epoch counts must be >= 1"),
            (c.batch_size >= 1, "batch_size must be >= 1"),
            (len(set(c.kinds())) >= 2, f"need at least two shape kinds, got '{c.shape_kinds}'"),
            (len(set(c.kinds())) == len(c.kinds()), f"repeated shape kind in '{c.shape_kinds}'"),
            (not unknown, f"unknown shape kinds {unknown} (have {', '.join(SHAPE_KINDS)})"),
            (c.clouds_per_kind >= 2, "clouds_per_kind must be >= 2"),
            (0.0 < c.val_fraction < 1.0, "val_fraction must be in (0, 1)"),
            (math.isfinite(c.stop_train_accuracy), "stop_train_accuracy must be finite"),
            *((math.isfinite(getattr(c, k)) and getattr(c, k) > 0, f"{k} must be finite and > 0")
              for k in ("cont_temperature", "learning_rate", "proto_learning_rate",
                        "finetune_learning_rate")),
            *((math.isfinite(getattr(c, k)) and getattr(c, k) >= 0, f"{k} must be finite and >= 0")
              for k in ("lambda_proto", "lambda_cont", "weight_decay", "proto_weight_decay")),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self

    # ------------------------------------------------------------------
    # text round-trip
    # ------------------------------------------------------------------

    def to_text(self) -> str:
        lines = ["# run configuration"]
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = f"{value:.17g}"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in fields:
                raise ConfigError(f"line {lineno}: unknown config key '{key}'")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate config key '{key}'")
            values[key] = _coerce(key, fields[key].type, val, lineno)
        base = preset(values["preset"]) if "preset" in values else cls()
        return dataclasses.replace(base, **values)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        return cls.from_text(text)


def _coerce(key: str, type_name: str, val: str, lineno: int):
    try:
        if type_name == "int":
            return int(val)
        if type_name == "float":
            return float(val)
        if type_name == "bool":
            if val.lower() in ("true", "1", "yes"):
                return True
            if val.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: '{val}'")
        return val
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from None


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_PRESETS: dict[str, dict] = {
    # full-size architecture, computed in float32 (float64 GEMMs and AdamW
    # passes bound a step at this width)
    "paper-default": dict(dtype="float32"),
    # small enough to pretrain end to end on one desktop core in minutes
    "test-small": dict(
        n_points=256, n_patches=32, knn_k=8, dim=64, heads=4,
        encoder_blocks=2, decoder_blocks=1,
        embed_hidden1=32, embed_hidden2=64,
        n_prototypes=4, knorm_k=4,
        cont_temperature=0.005,
        proto_learning_rate=0.5, proto_lr_decay=0.02, proto_weight_decay=0.01,
        epochs=30, batch_size=8,
        clouds_per_kind=64,
        finetune_epochs=50, stop_train_accuracy=0.9,
    ),
    # tiny nets for finite-difference gradient checks
    "toy": dict(
        n_points=64, n_patches=8, knn_k=4, dim=16, heads=2,
        encoder_blocks=1, decoder_blocks=1,
        embed_hidden1=8, embed_hidden2=16,
        n_prototypes=4, knorm_k=3, mask_ratio=0.5,
        epochs=2, batch_size=4, head_hidden=16,
        clouds_per_kind=4, finetune_epochs=2,
    ),
}


PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> RunConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset '{name}' (have {', '.join(PRESET_NAMES)})")
    return RunConfig(preset=name, **_PRESETS[name])
