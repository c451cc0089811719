"""The benchmark's tracer must find every fedvne name it binds.

A rename or deletion of a bound name otherwise shows up only in a traced
benchmark run; this check fails in about a second instead.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
