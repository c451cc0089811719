"""The benchmark must find every fedvne name it binds, imports or patches.

A rename or deletion of such a name otherwise shows up only in a benchmark
run; these checks fail in about a second instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
