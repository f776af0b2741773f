"""Command-line entry point.

Exit codes: 0 success, 2 configuration or input error (a bad config, cloud
file or argument value), 3 numeric error (including a failed verification
suite).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, geometry, pipeline, shapes, verification
from .config import PRESET_NAMES, RunConfig, preset
from .errors import ConfigError, InvalidArgument, NumericError
from .masking import STRATEGIES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protomae",
        description="Masked point-cloud autoencoder with prototype-based "
                    "component grouping")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file")
    parser.add_argument("--preset", metavar="NAME",
                        help=f"named preset ({', '.join(PRESET_NAMES)})")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override the run seed")
    parser.add_argument("--out", metavar="DIR", default="runs",
                        help="output directory (default: runs)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="per-epoch progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pretrain", help="self-supervised pre-training")

    p = sub.add_parser("finetune", help="classification fine-tuning")
    p.add_argument("--checkpoint", required=True, metavar="PATH",
                   help="pre-training checkpoint to start from")
    p.add_argument("--csep", action="store_true",
                   help="prototype-prompted head instead of the plain one")

    p = sub.add_parser("ablate", help="masking-strategy comparison")
    p.add_argument("--strategies", default=",".join(STRATEGIES),
                   help=f"comma list from {{{', '.join(STRATEGIES)}}}")

    p = sub.add_parser("export-groups",
                       help="write per-point component ids for one cloud")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--cloud", metavar="PATH",
                   help="input cloud file (x y z per line); omit to generate")
    p.add_argument("--kind", default="plane", choices=shapes.SHAPE_KINDS,
                   help="generated shape kind when --cloud is omitted")
    p.add_argument("--cloud-seed", type=int, default=pipeline.HELD_OUT_SEED_BASE,
                   help="generation seed when --cloud is omitted")

    sub.add_parser("gradcheck", help="finite-difference gradient suite")

    p = sub.add_parser("oracle-suite", help="brute-force geometry oracles")
    p.add_argument("--instances", type=int, default=200)
    return parser


def _load_config(args: argparse.Namespace,
                 ck: checkpoint.Checkpoint | None = None,
                 default: str = "test-small") -> RunConfig:
    """--config or --preset when given, else the config embedded in the
    checkpoint ``ck`` the command reads, else the ``default`` preset; then
    --seed."""
    if args.config and args.preset:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.config:
        cfg = RunConfig.from_file(args.config)
    elif args.preset or ck is None:
        cfg = preset(args.preset or default)
    else:
        cfg = ck.config()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _cmd_pretrain(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = Path(args.out) / "pretrain"
    res = pipeline.pretrain(cfg, out)
    final = res.metrics[-1]
    print(f"pretrain done: {cfg.epochs} epochs in {res.wall_seconds:.1f}s, "
          f"final total {final['total']:.6f} "
          f"(l_3d {final['l_3d']:.6f} l_proto {final['l_proto']:.6f} "
          f"l_cont {final['l_cont']:.6f})")
    print(f"checkpoint: {res.checkpoint_path}")
    return 0


def _cmd_finetune(args: argparse.Namespace) -> int:
    ck = checkpoint.load(args.checkpoint)
    cfg = _load_config(args, ck)
    out = Path(args.out) / "finetune"
    res = pipeline.finetune(cfg, ck, csep=args.csep, out_dir=out)
    print(f"finetune done after {len(res.metrics)} epochs: "
          f"train {res.train_accuracy:.3f} val {res.val_accuracy:.3f}")
    print(f"checkpoint: {res.checkpoint_path}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    out = Path(args.out) / "ablate"
    rows = pipeline.ablate(cfg, strategies, out)
    for row in rows:
        print(f"{row['strategy']}: total {row['total']:.6f} "
              f"purity {row['component_purity']:.3f} "
              f"accuracy {row['downstream_accuracy']:.3f}")
    print(f"table: {out / 'ablation.csv'}")
    return 0


def _cmd_export_groups(args: argparse.Namespace) -> int:
    if args.cloud_seed < 0:
        raise InvalidArgument(f"--cloud-seed must be >= 0, got {args.cloud_seed}")
    ck = checkpoint.load(args.checkpoint)
    cfg = _load_config(args, ck)
    store = pipeline.init_model(cfg, decoder=False, pcsm_branch=True)
    checkpoint.load_into(store, ck)
    coords = None
    if args.cloud:
        coords, _ = geometry.load_cloud(args.cloud)
        if len(coords) < max(cfg.n_patches, cfg.knn_k):
            raise InvalidArgument(f"{args.cloud}: cloud of {len(coords)} points cannot supply "
                                  f"{cfg.n_patches} patches of {cfg.knn_k} members")
        try:  # group the cloud at the corpus's scale, whatever the file's units
            points = geometry.normalize(coords)
        except InvalidArgument as exc:
            raise InvalidArgument(f"{args.cloud}: {exc}") from None
    else:  # already normalized, as make_corpus draws it
        points, _ = shapes.make_shape(args.kind, cfg.n_points, seed=args.cloud_seed)
    out_path = Path(args.out) / "groups.txt"
    labels = pipeline.export_groups(store, points, cfg, out_path, coords=coords)
    print(f"wrote {labels.size} points, {np.unique(labels).size} distinct "
          f"components: {out_path}")
    return 0


def _report(lines: list[tuple[bool, str]], suite: str) -> int:
    """Print each (ok, text) line with its status; raise if any failed."""
    for ok, text in lines:
        print(f"{'ok' if ok else 'FAIL'} {text}")
    if not all(ok for ok, _ in lines):
        raise NumericError(f"{suite} suite failed")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    reports = verification.gradient_suite(_load_config(args, default="toy"))
    return _report([(r.ok, f"{r.loss}: {r.tensors} tensors, {r.probes} probes "
                           f"({r.skipped} at kinks skipped), max rel err {r.max_rel_err:.3e}"
                           + (f" at {r.worst_parameter}" if r.worst_parameter else ""))
                    for r in reports], "gradient")


def _cmd_oracle_suite(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise InvalidArgument(f"--instances must be >= 1, got {args.instances}")
    reports = verification.oracle_suite(instances=args.instances)
    return _report([(r.ok, f"{r.op}: {r.instances} instances, "
                           f"{r.mismatches} mismatches, max deviation {r.max_deviation:.3e}")
                    for r in reports], "oracle")


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "ablate": _cmd_ablate,
    "export-groups": _cmd_export_groups,
    "gradcheck": _cmd_gradcheck,
    "oracle-suite": _cmd_oracle_suite,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s", stream=sys.stderr)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvalidArgument as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
