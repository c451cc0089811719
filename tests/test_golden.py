"""Golden checksums of every deterministic output of one small end-to-end run.

The digests below were recorded once and must not move unless an output
format changes on purpose; a change that alters any of them changes what
the simulator decides or writes. ``compare_timing.csv`` holds wall-clock
times and is the one output left out. They hold on one numeric path:
numpy's AVX-512 loops and OpenBLAS's SkylakeX kernel. The inputs and the
noderank and random logs hold on every path; the hfl outputs, the
checkpoint and round log, and the compare tables built from them move with
numpy's SIMD loops and OpenBLAS's core type.
"""

import hashlib

from _helpers import config_flags
from fedvne import cli

CONFIG = dict(
    num_domains=4,
    nodes_per_domain=15,
    num_links=300,
    vnr_count=600,
    train_count=300,
    test_count=300,
    arrival_rate=0.1,
    batch_size=25,
    epochs=2,
    metrics_interval=50.0,
    seed=17,
)

GOLDEN = {
    "compare/compare_acc.csv": "4123349fbb4aaeb954c62ce667478a2d0b9e6d8b770e2dc84793a1550e9c3387",
    "compare/compare_ltar.csv": "e63aeb915b8d450debc7670da0a8ff822307c4d12c0c1387b839eed1c8fed5f3",
    "compare/compare_ltar2c.csv": "901a07309d08409776b246d30b9bd22083179d0cacfb24ddea4bb9e769a60978",
    "compare/decisions_hfl.csv": "b13e6826f3c93b58ae071755be2f7c52e6999deb6578327ee6559ee5378abb92",
    "compare/decisions_noderank.csv": "59dd30c786f1c4e9d0881bbab37a7ca725f06ae2cee7893743f512ef4732c491",
    "compare/decisions_random.csv": "112cb65ca1193f2d24809ff5474531eff512b3bcbba696881b0de8eab37e17ff",
    "data/substrate.txt": "ce7d697977bb21462bfeb17bf391f243fef635830918182c0a6aeb6df8be28d6",
    "data/vnrs.txt": "d40e92b6c34676fd005dc4cb0db2e33afaa730c18be3369f91504e9da26b48d7",
    "eval/decisions.csv": "b13e6826f3c93b58ae071755be2f7c52e6999deb6578327ee6559ee5378abb92",
    "eval/metrics.csv": "6ebdb8c6b74010cae64e141d22b67e5d395ad1d9396d4c9238f67e131ac176ee",
    "train/checkpoint.txt": "a3117f753f6b26072f825191101adc70e1bcd08378126fb1324b64f67288b35b",
    "train/round_log.csv": "582ef0c023670e65bc02bd8b2ee18abe71d0ec62aa72539f1a9182564a3a4669",
}


def run_pipeline(root):
    """generate -> train -> evaluate -> compare; returns {relative path: sha256}."""
    data, trained, evaluated, compared = (root / d for d in ("data", "train", "eval", "compare"))
    inputs = ["--substrate", str(data / "substrate.txt"), "--vnrs", str(data / "vnrs.txt")]
    checkpoint = ["--checkpoint", str(trained / "checkpoint.txt")]
    steps = (
        ["generate", "--out-dir", str(data)],
        ["train", *inputs, "--out-dir", str(trained)],
        ["evaluate", *inputs, *checkpoint, "--out-dir", str(evaluated)],
        ["compare", *inputs, *checkpoint, "--policies", "hfl,noderank,random",
         "--out-dir", str(compared)],
    )
    for argv in steps:
        assert cli.main(argv + config_flags(argv[0], CONFIG)) == 0, argv[0]
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "compare_timing.csv"
    }


def test_golden_checksums(tmp_path):
    assert run_pipeline(tmp_path) == GOLDEN
