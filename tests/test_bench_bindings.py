"""The benchmark must find every fedvne name it binds, imports or patches.

A rename or deletion of such a name otherwise shows up only in a benchmark
run; these checks fail in about a second instead. A name can also resolve
while fedvne no longer calls it there, say when a module imports a bound
function by name; a run of every command with the spans installed sees that.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fedvne import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# (module, attribute path) of every fedvne name perfbench/run.py imports, calls
# through its module, or patches; it patches run_simulation in both modules
RUN_NAMES = [
    ("fedvne.cli", "main"),
    ("fedvne.workload", "load_substrate"),
    ("fedvne.workload", "load_vnrs"),
    ("fedvne.workload", "rebase_stream"),
    ("fedvne.agent", "DomainAgent"),
    ("fedvne.agent", "load_checkpoint"),
    ("fedvne.baselines", "NodeRankPolicy"),
    ("fedvne.baselines", "RandomPolicy"),
    ("fedvne.config", "ExperimentConfig"),
    ("fedvne.config", "apply_overrides"),
    ("fedvne.policies", "HflPolicy"),
    ("fedvne.training", "Trainer"),
    ("fedvne.engine", "read_decision_log"),
    ("fedvne.engine", "replay_validate"),
    ("fedvne.engine", "run_simulation"),
    ("fedvne.training", "run_simulation"),
    ("fedvne.substrate", "MultiDomainSubstrate.resource_vector"),
]


# the CI end-to-end run's tiny config, as config keys
TINY = dict(num_domains=2, nodes_per_domain=5, num_links=12, vnr_count=60, train_count=30, test_count=30)


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves():
    spans = load_spans()
    restore, missing = spans.install(spans.Tracer())
    try:
        assert missing == []
    finally:
        restore()


@pytest.mark.parametrize("module_name, path", RUN_NAMES)
def test_every_run_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_every_binding_is_called_by_the_commands(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    restore, missing = spans.install(tracer)
    tracer.rep = 0
    data, run = tmp_path / "data", tmp_path / "run"
    inputs = ["--substrate", str(data / "substrate.txt"), "--vnrs", str(data / "vnrs.txt")]
    tiny = [arg for key, value in TINY.items() for arg in (f"--{key.replace('_', '-')}", str(value))]
    try:
        assert cli.main(["generate", *tiny, "--out-dir", str(data)]) == 0
        assert cli.main(["train", *inputs, "--train-count", "30", "--epochs", "1", "--out-dir", str(run)]) == 0
        assert cli.main(["compare", *inputs, *tiny, "--checkpoint", str(run / "checkpoint.txt"),
                         "--out-dir", str(run)]) == 0
        assert cli.main(["validate", *inputs, "--decisions", str(run / "decisions_hfl.csv")]) == 0
    finally:
        tracer.rep = None
        restore()
    assert missing == []
    called = tracer.totals().get(0, {})
    assert [name for name, _, _ in spans.BINDINGS if name not in called] == []
