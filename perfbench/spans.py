"""Spans around fedvne's layer entry points, recorded from outside the package.

Each binding replaces a name in the module where fedvne's own callers look it
up (``fedvne.policies.extract_state``, not ``fedvne.agent.extract_state``), so
the wrapper sees every call the shipped code path makes. A span records its
name, start, end, parent span, the time its direct child spans covered, and
whether the call succeeded (returned something other than None, or did not
raise). Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import time
from dataclasses import dataclass

# (layer, module fedvne's callers look the name up in, attribute path there)
BINDINGS = (
    ("workload.load_substrate", "fedvne.workload", "load_substrate"),
    ("workload.load_vnrs", "fedvne.workload", "load_vnrs"),
    ("agent.extract_state", "fedvne.policies", "extract_state"),
    ("policies.HflPolicy", "fedvne.policies", "HflPolicy.__call__"),
    ("policies.ranked_by_score", "fedvne.baselines", "ranked_by_score"),
    ("baselines.noderank_scores", "fedvne.baselines", "noderank_scores"),
    ("engine.embed_nodes", "fedvne.engine", "embed_nodes"),
    ("engine.embed_links", "fedvne.engine", "embed_links"),
    ("engine.min_hop_path", "fedvne.engine", "min_hop_path"),
    ("substrate.release", "fedvne.substrate", "MultiDomainSubstrate.release"),
    ("agent.train_step", "fedvne.agent", "train_step"),
    ("federation.run_round", "fedvne.federation", "Coordinator.run_round"),
    ("engine.write_decision_log", "fedvne.engine", "write_decision_log"),
    ("engine.replay_validate", "fedvne.engine", "replay_validate"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    child_s: float
    ok: bool
    rep: int  # repetition of the timed command this span belongs to


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    not_ok: int = 0


class Tracer:
    """Records spans while ``rep`` is set; passes calls straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep: int | None = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        if self.rep is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, 0.0, False, self.rep)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span.ok = result is not None
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.end - span.start

    def totals(self) -> dict[int, dict[str, LayerTotals]]:
        """Per repetition, per layer: calls, busy time, self time, failed calls."""
        out: dict[int, dict[str, LayerTotals]] = {}
        for span in self.spans:
            t = out.setdefault(span.rep, {}).setdefault(span.name, LayerTotals())
            t.calls += 1
            t.seconds += span.end - span.start
            t.self_seconds += span.end - span.start - span.child_s
            t.not_ok += not span.ok
        return out

    def write(self, path, boundaries) -> None:
        """Write every span as CSV, keyed by the arrival it served.

        ``boundaries`` is a time-ordered list of (time, key): a span belongs to
        the first boundary at or after its start, and to key "-" after the last.
        """
        times = [t for t, _ in boundaries]
        origin = self.spans[0].start if self.spans else 0.0
        lines = ["id,name,start_s,end_s,parent,key"]
        for i, span in enumerate(self.spans):
            at = bisect.bisect_left(times, span.start)
            key = boundaries[at][1] if at < len(boundaries) else "-"
            lines.append(
                f"{i},{span.name},{span.start - origin:.9f},{span.end - origin:.9f},"
                f"{span.parent},{key}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(tracer: Tracer):
    """Wrap every binding; returns (undo, layers whose name could not be found)."""
    undo, missing = [], []
    for name, module_name, attr in BINDINGS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if not callable(fn):
            missing.append(name)
            continue
        setattr(owner, leaf, _wrap(tracer, name, fn))
        undo.append((owner, leaf, fn))

    def restore() -> None:
        for owner, leaf, fn in reversed(undo):
            setattr(owner, leaf, fn)

    return restore, missing
