"""Shared builders for small test fixtures."""

from __future__ import annotations

import numpy as np

from fedvne import training
from fedvne.agent import StateMatrix, forward
from fedvne.engine import EmbeddingRecord
from fedvne.substrate import MultiDomainSubstrate
from fedvne.workload import VirtualNetworkRequest


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
    record.link_paths = {k: list(v) for k, v in link_paths.items()}
    record.cpu_demands = {v: vnr.node_demands[v] for v in record.node_map}
    record.bw_demands = {(a, b): w for a, b, w in vnr.link_demands}
    record.accepted = True
    record.outstanding = True
    return record


def reference_extract_state(substrate, domain_id):
    """One domain's state matrix, built from that domain's rows alone."""
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
    return StateMatrix(node_ids=ids.tolist(), raw=raw, features=features)


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
        state = reference_extract_state(substrate, d)
        probs = forward(agents[d].params, state)
        order = sorted(range(len(state.node_ids)), key=lambda r: (-probs[r], state.node_ids[r]))
        ranked[d] = [(state.node_ids[r], float(state.raw[r, 0]), float(probs[r])) for r in order]
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
