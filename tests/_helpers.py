"""Shared builders for small test fixtures."""

from __future__ import annotations

import math
import random
import re

import numpy as np

from fedvne import training
from fedvne.agent import NUM_FEATURES, PolicyParams, scores
from fedvne.engine import EmbeddingRecord
from fedvne.substrate import MultiDomainSubstrate
from fedvne.workload import ParseError, ValidationError, VirtualNetworkRequest


def exactly(message: str) -> str:
    """A ``pytest.raises(match=...)`` pattern that accepts ``message`` and nothing else."""
    return "^" + re.escape(message) + "$"


def make_substrate(node_domains, cpu, links, num_domains=None, coords=None):
    """Build a substrate from per-node domains/cpu and (a, b, bw) links."""
    n = len(node_domains)
    if num_domains is None:
        num_domains = max(node_domains) + 1
    if coords is None:
        coords = [(float(i), 0.0) for i in range(n)]
    link_ends = [(a, b) for a, b, _ in links]
    bw = [w for _, _, w in links]
    return MultiDomainSubstrate(num_domains, node_domains, coords, cpu, link_ends, bw)


def make_vnr(vnr_id=0, node_demands=(10.0,), link_demands=(), t_s=0.0, t_e=10.0):
    return VirtualNetworkRequest(
        vnr_id=vnr_id,
        node_demands=tuple(float(d) for d in node_demands),
        link_demands=tuple((a, b, float(w)) for a, b, w in link_demands),
        t_s=t_s,
        t_e=t_e,
    )


def train_with_episodes(trainer):
    """Run ``trainer``; returns its result and every episode's (accepted, revenue, cost).

    Episodes are captured in order through the ``on_record`` callback of the
    simulations the trainer runs.
    """
    episodes = []
    run_simulation = training.run_simulation

    def capturing(*args, on_record, **kwargs):
        def both(vnr, record):
            episodes.append((record.accepted, record.revenue, record.cost))
            on_record(vnr, record)

        return run_simulation(*args, on_record=both, **kwargs)

    training.run_simulation = capturing
    try:
        return trainer.run(), episodes
    finally:
        training.run_simulation = run_simulation


def applied_record(vnr, node_map, link_paths):
    """An embedding record in the state it has right after allocation."""
    record = EmbeddingRecord(vnr_id=vnr.vnr_id)
    record.node_map = dict(node_map)
    record.link_paths = {k: tuple(v) for k, v in link_paths.items()}
    record.accepted = True
    record.outstanding = True
    return record


# -- oracles: definitions only the tests read


INTRA = "intra"
INTER = "inter"


def link_kind(substrate, link_id: int) -> str:
    """INTER when the link's endpoints lie in different domains, else INTRA."""
    a, b = substrate.link_ends[link_id]
    return INTRA if substrate.node_domain[a] == substrate.node_domain[b] else INTER


def forward(params: PolicyParams, state: np.ndarray) -> np.ndarray:
    """Allocation probabilities: softmax over the linear node scores."""
    z = scores(params, state)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def log_probs(params: PolicyParams, state: np.ndarray) -> np.ndarray:
    """Log allocation probabilities, shifted by the largest score."""
    z = scores(params, state)
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


def batch_loss(params: PolicyParams, traces, baseline: float | None = None) -> float:
    """Mean over chosen rows of -log p(row) * (reward - baseline)."""
    if not traces:
        raise ValueError("empty trace batch")
    if baseline is None:
        baseline = float(np.mean([t.reward for t in traces]))
    total = 0.0
    count = 0
    for trace in traces:
        advantage = trace.reward - baseline
        for chosen in trace.rows:
            total += -advantage * log_probs(params, trace.state)[chosen]
            count += 1
    return total / count if count else 0.0


def reference_train_step(params: PolicyParams, traces, learning_rate: float) -> tuple[PolicyParams, float]:
    """``train_step`` as one softmax per trace and one update per chosen row, in trace order."""
    if not traces:
        raise ValueError("empty trace batch")
    baseline = float(np.mean([t.reward for t in traces]))
    advantages = [t.reward - baseline for t in traces]
    n_samples = sum(len(t.rows) for t in traces)
    if n_samples == 0 or all(a == 0.0 for a in advantages):
        return params.copy(), 0.0

    grad_kernel = np.zeros(NUM_FEATURES)
    grad_bias = 0.0
    loss = 0.0
    for trace, advantage in zip(traces, advantages):
        state = trace.state
        lp = log_probs(params, state)
        p = np.exp(lp)
        expected_features = p @ state
        mass_error = p.sum() - 1.0
        for chosen in trace.rows:
            loss += -advantage * lp[chosen]
            grad_kernel += advantage * (expected_features - state[chosen])
            grad_bias += advantage * mass_error
    loss /= n_samples
    grad_kernel /= n_samples
    grad_bias /= n_samples
    updated = PolicyParams(
        kernel=params.kernel - learning_rate * grad_kernel,
        bias=params.bias - learning_rate * grad_bias,
    )
    return updated, float(loss)


def indicator_acceptance(vnr, record: EmbeddingRecord) -> int:
    """Product of per-node and per-link success indicators (1 or 0)."""
    for v in range(vnr.num_nodes):
        if v not in record.node_map:
            return 0
    for a, b, _ in vnr.link_demands:
        path = record.link_paths.get((a, b))
        if not path:
            return 0
    return 1


def reference_extract_state(substrate, domain_id):
    """One domain's node ids and state, built from that domain's rows alone."""
    ids = np.flatnonzero(substrate.node_domain == domain_id)
    raw = np.column_stack(
        [
            substrate.cpu_available[ids],
            substrate.available_bw_sums()[ids],
            substrate.incident_distance[ids],
        ]
    )
    lo = raw.min(axis=0)
    span = raw.max(axis=0) - lo
    features = np.full_like(raw, 0.5)
    for c in range(raw.shape[1]):
        if span[c] > 0:
            features[:, c] = (raw[:, c] - lo[c]) / span[c]
    return ids.tolist(), features


def feasible_view(substrate, vnr, candidates):
    """Each virtual node's candidates that have enough available cpu for it."""
    cpu = substrate.cpu_available
    return [
        [node_id for node_id in ranked if cpu[node_id] >= demand]
        for ranked, demand in zip(candidates, vnr.node_demands)
    ]


def reference_hfl_candidates(agents, substrate, vnr):
    """Domain-blocked feasible candidate lists built one Python list per demand and domain."""
    domains = sorted(agents)
    ranked = {}
    for d in domains:
        ids, state = reference_extract_state(substrate, d)
        probs = forward(agents[d].params, state)
        order = sorted(range(len(ids)), key=lambda r: (-probs[r], ids[r]))
        ranked[d] = [(ids[r], float(substrate.cpu_available[ids[r]]), float(probs[r])) for r in order]
    candidates = []
    for demand in vnr.node_demands:
        blocks = []
        for d in domains:
            feasible = [node_id for node_id, cpu, _ in ranked[d] if cpu >= demand]
            mass = sum(p for _, cpu, p in ranked[d] if cpu >= demand)
            blocks.append((-mass, d, feasible))
        blocks.sort(key=lambda b: (b[0], b[1]))
        candidates.append([node_id for _, _, ids in blocks for node_id in ids])
    return candidates


def reference_random_ranking(substrate, seed: int) -> list[float]:
    """The random scores as one ``random()`` call per node, in node id order."""
    rng = random.Random(seed)
    return [rng.random() for _ in range(substrate.num_nodes)]


def reference_noderank_scores(substrate) -> np.ndarray:
    """The noderank walk as two passes of per-pass degree counts and np.add.at."""

    def walk_pass(score):
        n = substrate.num_nodes
        out = np.zeros(n)
        if not substrate.num_links:
            return out
        ends = substrate.link_ends
        degree = np.bincount(ends.ravel(), minlength=n).astype(np.float64)
        share = np.divide(score, degree, out=np.zeros(n), where=degree > 0)
        np.add.at(out, ends[:, 1], share[ends[:, 0]])
        np.add.at(out, ends[:, 0], share[ends[:, 1]])
        return out

    return walk_pass(walk_pass(substrate.cpu_available * substrate.available_bw_sums()))


# -- reference loaders: the generator-based line reader, per-number checks and
# per-row adjacency build that the streaming loaders replaced; the
# differential test in test_fuzz.py holds the loaders to them


def reference_union_find(n: int, edges):
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return find


def reference_validate_vnr(vnr: VirtualNetworkRequest) -> None:
    if vnr.t_e <= vnr.t_s:
        raise ValidationError(f"vnr {vnr.vnr_id}: departure time must exceed arrival time")
    n = vnr.num_nodes
    if n < 1:
        raise ValidationError(f"vnr {vnr.vnr_id}: needs at least one virtual node")
    seen: set[tuple[int, int]] = set()
    for a, b, bw in vnr.link_demands:
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"vnr {vnr.vnr_id}: virtual link endpoint out of range")
        if a == b:
            raise ValidationError(f"vnr {vnr.vnr_id}: virtual self-loop at node {a}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValidationError(f"vnr {vnr.vnr_id}: duplicate virtual link {key}")
        seen.add(key)
        if bw < 0:
            raise ValidationError(f"vnr {vnr.vnr_id}: negative bandwidth demand")
    if any(d < 0 for d in vnr.node_demands):
        raise ValidationError(f"vnr {vnr.vnr_id}: negative cpu demand")
    find = reference_union_find(n, [(a, b) for a, b, _ in vnr.link_demands])
    root = find(0)
    if any(find(i) != root for i in range(1, n)):
        raise ValidationError(f"vnr {vnr.vnr_id}: virtual topology is not connected")


def reference_finite(path: str, line_no: int, text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"number must be finite, got {text}")
    return value


def reference_line_reader(path):
    path = str(path)
    last = 0

    def data_lines():
        nonlocal last
        with open(path) as fh:
            for last, raw in enumerate(fh, start=1):
                text = raw.strip()
                if text and not text.startswith("#"):
                    yield last, text.split()

    lines = data_lines()

    def next_line(what: str):
        try:
            return next(lines)
        except StopIteration:
            raise ParseError(path, last + 1, f"unexpected end of file, expected {what}") from None

    def end() -> None:
        for line_no, _ in lines:
            raise ParseError(path, line_no, "data after the last declared line")

    return next_line, end


class ReferenceSubstrate(MultiDomainSubstrate):
    """The substrate with its adjacency built row by row over numpy, as before ``link_ends.tolist()``."""

    def _build_indexes(self, ends) -> None:
        super()._build_indexes(ends)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        for lid, (a, b) in enumerate(self.link_ends):
            adj[int(a)].append((int(b), lid))
            adj[int(b)].append((int(a), lid))
        self.adjacency = [sorted(e) for e in adj]


def reference_load_substrate(path) -> MultiDomainSubstrate:
    next_line, end = reference_line_reader(path)
    path = str(path)

    header_line, header = next_line("header")
    if len(header) != 3:
        raise ParseError(path, header_line, "header must be '<nodes> <links> <domains>'")
    try:
        num_nodes, num_links, num_domains = (int(x) for x in header)
    except ValueError:
        raise ParseError(path, header_line, "header fields must be integers") from None
    if min(num_nodes, num_links, num_domains) < 0:
        raise ParseError(path, header_line, "header counts must be non-negative")

    node_domains, coords, cpu = [], [], []
    element_lines = []
    for i in range(num_nodes):
        line_no, fields = next_line("node line")
        if len(fields) != 5:
            raise ParseError(path, line_no, "node line must be '<id> <domain> <x> <y> <cpu>'")
        try:
            node_id = int(fields[0])
            domain = int(fields[1])
            x, y, capacity = (reference_finite(path, line_no, f) for f in fields[2:])
        except ValueError:
            raise ParseError(path, line_no, "malformed node line") from None
        if node_id != i:
            raise ValidationError(
                f"{path}:{line_no}: node ids must be sequential from 0, got {node_id} at position {i}"
            )
        element_lines.append(line_no)
        node_domains.append(domain)
        coords.append((x, y))
        cpu.append(capacity)

    link_ends, bw = [], []
    for _ in range(num_links):
        line_no, fields = next_line("link line")
        if len(fields) != 3:
            raise ParseError(path, line_no, "link line must be '<a> <b> <bw>'")
        try:
            a, b = int(fields[0]), int(fields[1])
            capacity = reference_finite(path, line_no, fields[2])
        except ValueError:
            raise ParseError(path, line_no, "malformed link line") from None
        element_lines.append(line_no)
        link_ends.append((a, b))
        bw.append(capacity)
    end()

    try:
        return ReferenceSubstrate(num_domains, node_domains, coords, cpu, link_ends, bw)
    except ValueError as exc:
        line_no = header_line if exc.element is None else element_lines[exc.element]
        raise ValidationError(f"{path}:{line_no}: {exc}") from None


def reference_load_vnrs(path) -> list[VirtualNetworkRequest]:
    next_line, end = reference_line_reader(path)
    path = str(path)

    line_no, header = next_line("request count")
    try:
        (count,) = (int(x) for x in header)
    except ValueError:
        raise ParseError(path, line_no, "first line must be the request count") from None
    if count < 0:
        raise ParseError(path, line_no, "request count must be non-negative")

    stream = []
    seen_ids: set[int] = set()
    for _ in range(count):
        header_line, fields = next_line("request header")
        if len(fields) != 5:
            raise ParseError(
                path, header_line, "request header must be '<id> <t_s> <t_e> <nodes> <links>'"
            )
        try:
            vnr_id = int(fields[0])
            t_s = reference_finite(path, header_line, fields[1])
            t_e = reference_finite(path, header_line, fields[2])
            n, m = int(fields[3]), int(fields[4])
        except ValueError:
            raise ParseError(path, header_line, "malformed request header") from None
        if m < 0:
            raise ParseError(path, header_line, "virtual link count must be non-negative")
        if vnr_id in seen_ids:
            raise ParseError(path, header_line, f"duplicate request id {vnr_id}")
        seen_ids.add(vnr_id)
        demands = []
        for _ in range(n):
            line_no, fields = next_line("cpu demand")
            if len(fields) != 1:
                raise ParseError(path, line_no, "cpu demand line must hold one number")
            try:
                demands.append(reference_finite(path, line_no, fields[0]))
            except ValueError:
                raise ParseError(path, line_no, "malformed cpu demand") from None
        links = []
        for _ in range(m):
            line_no, fields = next_line("virtual link")
            if len(fields) != 3:
                raise ParseError(path, line_no, "virtual link must be '<a> <b> <bw>'")
            try:
                links.append(
                    (int(fields[0]), int(fields[1]), reference_finite(path, line_no, fields[2]))
                )
            except ValueError:
                raise ParseError(path, line_no, "malformed virtual link") from None
        vnr = VirtualNetworkRequest(
            vnr_id=vnr_id,
            node_demands=tuple(demands),
            link_demands=tuple(links),
            t_s=t_s,
            t_e=t_e,
        )
        try:
            reference_validate_vnr(vnr)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{header_line}: {exc}") from None
        if stream and t_s < stream[-1].t_s:
            raise ValidationError(f"{path}:{header_line}: request stream is not sorted by arrival time")
        stream.append(vnr)
    end()
    return stream
