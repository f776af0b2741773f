"""Golden sha256 digests of the seed-0 toy training artifacts.

One toy pre-training under csem masking, a fine-tune with each head from
its checkpoint, and one grouping evaluation of the pre-trained store are
pinned byte for byte.  A refactor that keeps the arithmetic must leave
every digest unchanged.  A change that moves the arithmetic on purpose
(a new op order, a different random draw, a new default) re-records the
digests below and says so, with the reason, in CHANGES.md.
"""

import hashlib
import json

import pytest

from protomae import pipeline
from protomae.config import preset

GOLDEN = {
    "pretrain/metrics.jsonl":
        "2bd0d7ed28204a7921bb9f4403b236609578719fdfbd997354ff84a755a04e77",
    "pretrain/masks.jsonl":
        "c9eea88229876fe83958a951d71e1244756135da337d178a27c391acd4d2522d",
    "pretrain/checkpoint.bin":
        "8271e4d631ade032458911435e829b3e0a5426ca46a618330abf8a536104ad29",
    "finetune/finetune-baseline.jsonl":
        "b5844df94e6421c0064dac2df882dbe32cc8a9e056bdb96319663677cc4dde32",
    "finetune/finetune-baseline.bin":
        "94aca35e6ed7f50fdd5df1ae68e08415d508e413c88bba2ec64ccadcca738c58",
    "finetune/finetune-csep.jsonl":
        "a9ff5d72fce75f61167af81c53d2202de38a643849f745924afd1edfb5dff876",
    "finetune/finetune-csep.bin":
        "d235dcdc8dc5d031bfde93ea0f8d858db59bbdc7fb48002ded168f537de9d0e5",
    "evaluate_grouping":
        "c73500232ec8a6633e1813bc2d766fe71766d353d8bb804489dc8d2aaddfe25e",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    cfg = preset("toy")
    assert (cfg.seed, cfg.mask_strategy) == (0, "csem")
    out = tmp_path_factory.mktemp("golden")
    res = pipeline.pretrain(cfg, out / "pretrain")
    for csep in (False, True):
        pipeline.finetune(cfg, res.checkpoint_path, csep=csep, out_dir=out / "finetune")
    found = {name: _sha256((out / name).read_bytes())
             for name in GOLDEN if name != "evaluate_grouping"}
    grouping = pipeline.evaluate_grouping(res.store, cfg, n_clouds=4, draws=10)
    found["evaluate_grouping"] = _sha256(json.dumps(grouping, sort_keys=True).encode())
    return found


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed0_toy_artifact_digest(digests, name):
    assert digests[name] == GOLDEN[name]
