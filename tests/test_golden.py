"""Golden sha256 digests of the seed-0 toy training artifacts.

One toy pre-training under csem masking, a fine-tune with each head from
its checkpoint, and one grouping evaluation of the pre-trained store are
pinned byte for byte.  A refactor that keeps the arithmetic must leave
every digest unchanged.  A change that moves the arithmetic on purpose
(a new op order, a different random draw, a new default) re-records the
digests below and says so, with the reason, in CHANGES.md.

Which digests are portable.  Each OpenBLAS kernel sums a GEMM in its own
order, so float results differ in the last bits from kernel to kernel.
The mask log, the plain head's metric stream and the grouping evaluation
take none of those bits and are equal on every recorded kernel
(``PORTABLE``).  The loss stream and the three checkpoints take them, so
their digests are keyed by the kernel numpy's bundled OpenBLAS runs
(``PER_KERNEL``).  A kernel with no entry, or a numpy without that
OpenBLAS, fails and is named.  To record a kernel, force it in a child
process: ``python tests/test_golden.py Haswell Nehalem`` sets
``OPENBLAS_CORETYPE`` to each name in turn and prints the kernel the
child reports with its digests.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from protomae import pipeline
from protomae.config import preset

PORTABLE = {
    "pretrain/masks.jsonl":
        "c9eea88229876fe83958a951d71e1244756135da337d178a27c391acd4d2522d",
    "finetune/finetune-baseline.jsonl":
        "b5844df94e6421c0064dac2df882dbe32cc8a9e056bdb96319663677cc4dde32",
    "evaluate_grouping":
        "c73500232ec8a6633e1813bc2d766fe71766d353d8bb804489dc8d2aaddfe25e",
}

PER_KERNEL = {
    "SkylakeX": {
        "pretrain/metrics.jsonl":
            "2bd0d7ed28204a7921bb9f4403b236609578719fdfbd997354ff84a755a04e77",
        "pretrain/checkpoint.bin":
            "8271e4d631ade032458911435e829b3e0a5426ca46a618330abf8a536104ad29",
        "finetune/finetune-baseline.bin":
            "94aca35e6ed7f50fdd5df1ae68e08415d508e413c88bba2ec64ccadcca738c58",
        "finetune/finetune-csep.jsonl":
            "a9ff5d72fce75f61167af81c53d2202de38a643849f745924afd1edfb5dff876",
        "finetune/finetune-csep.bin":
            "d235dcdc8dc5d031bfde93ea0f8d858db59bbdc7fb48002ded168f537de9d0e5",
    },
    "Haswell": {
        "pretrain/metrics.jsonl":
            "2f8943bb768fe13137b52c65dc9c8eb17f6358f50ddd00b7c9c1e182d00ff13f",
        "pretrain/checkpoint.bin":
            "483d415bd8890d8734718f89b987bf76e2541db0358c264169ef7fccdf19c288",
        "finetune/finetune-baseline.bin":
            "293b499085844fe0b0cbd09bfb22bf598768a89fe6534a1a79e60839e6635827",
        "finetune/finetune-csep.jsonl":
            "e6c266b907e41cdb706e0fcf96cb3d2897f0dd35e0632feaefb0c768b7b28fef",
        "finetune/finetune-csep.bin":
            "467ca0e5f2ecd8d7bcd7b8c60d1fe83ad0b06867e12dfa3128f8284a7b3f7124",
    },
    "Sandybridge": {
        "pretrain/metrics.jsonl":
            "de38e51ccf7e3ca75adfa059e4b79305c4f92d45109b9c6cce81263adc037583",
        "pretrain/checkpoint.bin":
            "8cd726c03ab41e5ab6e9afeda4fdf78ecd472071a055aba73ac6ef06144ed8c2",
        "finetune/finetune-baseline.bin":
            "6fc74223376cece72d9bf1c3d070ba6b08d3ba6070e51b28c912c2392efe07bf",
        "finetune/finetune-csep.jsonl":
            "b049d82b7628abaf6b266fc8a8899a827eaa0507c5efb7b58af99954eb367eec",
        "finetune/finetune-csep.bin":
            "923cbc6763032e40faa4d1da017c188d5eedf8abbb17d0855b43792036e58f38",
    },
    "Nehalem": {
        "pretrain/metrics.jsonl":
            "13ff3438202c306cee264a8fdf238e7c5d998cd2bc6e0123b5e79bef3fdf1fb5",
        "pretrain/checkpoint.bin":
            "731692c10aa7fd84a06c3473ed2c850c9791d68443337c378b16310711c426ef",
        "finetune/finetune-baseline.bin":
            "e270f63a72b95f1816bffc7b7a3999620b17824fcb6107ea2b6d7b2946ad10e9",
        "finetune/finetune-csep.jsonl":
            "6340c494584a56e9c54389a49ce2e8250287c0d841c0b872457344b35a5bee0c",
        "finetune/finetune-csep.bin":
            "82314cfda1f112dd5b1b93a55713cff4b23b1397dda4dc4a7e00439e5f2a632f",
    },
    "Katmai": {
        "pretrain/metrics.jsonl":
            "84307a797d6508367b5b52a71ea60082ef500fd291a8560d1e23dd4d5b5b4d76",
        "pretrain/checkpoint.bin":
            "be8a54dd8c37fd68b4a79faa7f7db41ed02162d8e7004a96f4442989729b1ad2",
        "finetune/finetune-baseline.bin":
            "4de3f791517d01d0a4719dd9d7793155ff920c7bec998aff69531a3e574f48e3",
        "finetune/finetune-csep.jsonl":
            "890c8ba7cc32174447096926f0f168955d321f1572f79e8a6a55fda0936cd95e",
        "finetune/finetune-csep.bin":
            "5b0efd06c379a16fda7b1f0132eeeaa377d2144b3adcf911a5eb7a7aa6c47241",
    },
}

NAMES = sorted([*PORTABLE, *PER_KERNEL["SkylakeX"]])


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS selected in this process, by name."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return f"no bundled scipy-openblas64 (numpy {np.__version__})"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def artifact_digests(out: Path) -> dict[str, str]:
    cfg = preset("toy")
    assert (cfg.seed, cfg.mask_strategy) == (0, "csem")
    res = pipeline.pretrain(cfg, out / "pretrain")
    for csep in (False, True):
        pipeline.finetune(cfg, res.checkpoint_path, csep=csep, out_dir=out / "finetune")
    found = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
             for name in NAMES if name != "evaluate_grouping"}
    grouping = pipeline.evaluate_grouping(res.store, cfg, n_clouds=4, draws=10)
    found["evaluate_grouping"] = hashlib.sha256(
        json.dumps(grouping, sort_keys=True).encode()).hexdigest()
    return found


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return artifact_digests(tmp_path_factory.mktemp("golden"))


def expected_digest(name: str, kernel: str) -> str:
    if name in PORTABLE:
        return PORTABLE[name]
    if kernel not in PER_KERNEL:
        pytest.fail(f"no golden digests recorded for BLAS kernel {kernel!r} "
                    f"(recorded: {', '.join(PER_KERNEL)})")
    return PER_KERNEL[kernel][name]


@pytest.mark.parametrize("name", NAMES)
def test_seed0_toy_artifact_digest(digests, name):
    assert digests[name] == expected_digest(name, blas_kernel())


def test_an_unrecorded_kernel_fails_by_name():
    assert expected_digest("pretrain/masks.jsonl", "Zen5") == PORTABLE["pretrain/masks.jsonl"]
    with pytest.raises(pytest.fail.Exception, match="BLAS kernel 'Zen5'"):
        expected_digest("pretrain/checkpoint.bin", "Zen5")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:]:
        for coretype in sys.argv[1:]:
            env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
            child = subprocess.run([sys.executable, __file__], env=env, check=True,
                                   capture_output=True, text=True)
            print(f"OPENBLAS_CORETYPE={coretype}: {child.stdout.strip()}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps({"kernel": blas_kernel(),
                              "digests": artifact_digests(Path(tmp))}, sort_keys=True))
