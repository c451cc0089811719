"""Golden checksums of every deterministic output of one small end-to-end run.

The digests below move only when what the simulator decides or writes
changes on purpose. The hfl-dependent ones were last reset when a
federation round began to run at every batch boundary where any domain
trained. ``compare_timing.csv`` holds wall-clock times and is the one
output left out. They hold on one numeric path:
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
    "compare/compare_acc.csv": "269aae21148bfc561be13ee591707d2a38ee0da9af221e9e3bf4b78a84529d5b",
    "compare/compare_ltar.csv": "58b48240f65de785d228531054297e56a0958f2822c4628035eb46e892418771",
    "compare/compare_ltar2c.csv": "df4a7946af7c98fc945d5cfecfc22bb194ecc77d09361f99fc88035804bd77a0",
    "compare/decisions_hfl.csv": "d84e523dc19de38a86232ccc7b428e5ae868422cc689561b71a7482c50d3df07",
    "compare/decisions_noderank.csv": "59dd30c786f1c4e9d0881bbab37a7ca725f06ae2cee7893743f512ef4732c491",
    "compare/decisions_random.csv": "112cb65ca1193f2d24809ff5474531eff512b3bcbba696881b0de8eab37e17ff",
    "data/substrate.txt": "ce7d697977bb21462bfeb17bf391f243fef635830918182c0a6aeb6df8be28d6",
    "data/vnrs.txt": "d40e92b6c34676fd005dc4cb0db2e33afaa730c18be3369f91504e9da26b48d7",
    "eval/decisions.csv": "d84e523dc19de38a86232ccc7b428e5ae868422cc689561b71a7482c50d3df07",
    "eval/metrics.csv": "4a512bf671897dafd1bbeb39f1e158368039c6e08219b122991c6be57a4aee50",
    "train/checkpoint.txt": "2275958206ca2a725581e5bf69b94250a1b4696c308aea424837e2ac834c0892",
    "train/round_log.csv": "7fe4f0a60450bcb455326f9e31acc563cfa9562c09e2cde7def373ce38814a65",
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
