"""Discrete-event embedding engine.

Requests arrive in time order; at each arrival the engine flushes every
departure due at or before that instant, asks the policy provider for ranked
candidate nodes, then runs the two-stage embedding: greedy node placement
followed by minimum-hop link placement. A request is either fully embedded
or rolled back without trace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cache
from math import inf, isfinite

import numpy as np

from . import metrics
from .substrate import MultiDomainSubstrate


@dataclass(slots=True)
class EmbeddingRecord:
    """Outcome of one embedding attempt.

    ``t_s`` is the request's arrival time. ``node_map`` assigns each
    virtual node a substrate node id and ``link_paths`` assigns each virtual
    link an ordered substrate-link path, a tuple of link ids; the two stages
    fill them in place. The records of one ``run_simulation`` call share
    equal ``(a, b)`` keys, and node ids are the substrate's ``node_ids``
    ints; nothing may rely on that identity.
    ``outstanding`` is True while the record holds resources: from the start
    of the attempt until ``MultiDomainSubstrate.release(record, vnr)``, which
    reads the demands from the request. For rejected requests the maps keep
    what the stages placed before the failing element (the first one in its
    stage's order that is missing from them); release gave it all back.
    """

    vnr_id: int
    t_s: float = 0.0
    node_map: dict[int, int] = field(default_factory=dict)
    link_paths: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    revenue: float = 0.0
    cost: float = 0.0
    accepted: bool = False
    outstanding: bool = False


def min_hop_path(
    substrate: MultiDomainSubstrate, src: int, dst: int, bw_demand: float
) -> list[int] | None:
    """Minimum-hop path over links with enough available bandwidth.

    Returns the ordered link ids of the lexicographically smallest node
    sequence among minimum-hop paths, or None when no path is feasible.

    The search is bidirectional: it alternately grows the smaller of the two
    frontiers (from ``src`` and from ``dst``) by one full level, and stops at
    the first level whose new nodes the other side has already reached. Until
    then the two reached sets are disjoint, so every meeting node lies at the
    same pair of distances ``(a, b)`` from ``src`` and ``dst``, ``a + b`` is
    the shortest length, and the meeting nodes are exactly the nodes at
    position ``a`` of the shortest paths. The nodes at positions below ``a``
    are found by walking back from the meeting set one level at a time;
    beyond ``a`` a node is on a shortest path exactly when its distance to
    ``dst`` drops by one per hop. The path then follows, from ``src``, the
    first neighbor in ascending id order that stays on a shortest path, which
    is the lexicographically smallest choice at every position. Which
    frontier grows first affects only the running time: the result depends
    only on the subgraph of feasible links. Distances live in two per-call
    lists indexed by node id: 1 + the distance from that side, 0 if unreached.

    A link is feasible when its available bandwidth is at least the demand.
    Every link test reads one per-call mask, ``fits``, the bytes of
    ``bw_available >= bw_demand``: indexing it yields a cached small int, where
    a float read would build a new float per adjacency entry. It equals ``not
    bw < bw_demand`` for every finite value, and the loaders admit no other.

    The last level stops growing once the frontier node that found the first
    meeting node has been scanned. This is exact for two reasons. Every
    meeting node lies in the other side's current frontier: had a node of this
    frontier a feasible link to an earlier level of the other side, an earlier
    level would already have met. And nothing after the growth reads a
    non-meeting node of the last level: the walk back from the meeting set
    looks for ``src`` distances below the meeting nodes', and the walk on
    towards ``dst`` for ``dst`` distances below the meeting node's own.
    When ``dst``'s side grew the last level, the rest of its frontier is then
    scanned only to collect the other meeting nodes, any of which may be the
    answer's. When ``src``'s side grew it, no scan is needed: ``src``'s
    frontier is always in the lexicographic order of each node's smallest
    path from ``src``, since every level is grown in frontier order, each
    adjacency is read in ascending neighbor id and a node keeps its first
    discovery. So the first frontier node that meets carries the answer's
    prefix, and its meeting neighbors, all collected, hold the answer's
    meeting node. This makes the growth order load-bearing: sorting a level,
    or reading an adjacency in another order, changes the paths returned.

    Between two domains the search first reads the domains' border links
    (``substrate.node_borders``) and returns None when every border link of
    either domain has less bandwidth than the demand. This is exact: every
    path leaves src's domain over one of its border links and enters dst's
    domain over one of its own, so no feasible path exists then.
    """
    if src == dst:
        return []
    adjacency = substrate.adjacency
    fits = (substrate.bw_available >= bw_demand).tobytes()
    src_borders, dst_borders = substrate.node_borders[src], substrate.node_borders[dst]
    if src_borders is not dst_borders:
        for borders in (src_borders, dst_borders):
            for link_id in borders:
                if fits[link_id]:
                    break
            else:
                return None
    from_src = [0] * len(adjacency)
    from_dst = [0] * len(adjacency)
    from_src[src] = from_dst[dst] = 1
    src_frontier = [src]
    dst_frontier = [dst]
    meeting: set[int] = set()
    while not meeting:
        if len(src_frontier) <= len(dst_frontier):
            frontier, reached, other = src_frontier, from_src, from_dst
        else:
            frontier, reached, other = dst_frontier, from_dst, from_src
        tag = reached[frontier[0]] + 1
        grown = []
        nodes = iter(frontier)
        for here in nodes:
            for neighbor, link_id in adjacency[here]:
                if reached[neighbor] or not fits[link_id]:
                    continue
                reached[neighbor] = tag
                grown.append(neighbor)
                if other[neighbor]:
                    meeting.add(neighbor)
            if meeting:
                break
        if not grown:
            return None
        if frontier is src_frontier:
            src_frontier = grown
        else:
            dst_frontier = grown
    if reached is from_dst:
        # the rest of the last level only collects the other meeting nodes
        for here in nodes:
            for neighbor, link_id in adjacency[here]:
                if other[neighbor] and not reached[neighbor] and fits[link_id]:
                    reached[neighbor] = tag
                    meeting.add(neighbor)

    # on-path nodes at each distance from src, from the meeting set back to src
    meet_tag = from_src[next(iter(meeting))]
    on_path = [meeting]
    for tag in range(meet_tag - 1, 1, -1):
        layer: set[int] = set()
        for here in on_path[-1]:
            for neighbor, link_id in adjacency[here]:
                if from_src[neighbor] == tag and fits[link_id]:
                    layer.add(neighbor)
        on_path.append(layer)
    on_path.reverse()

    path = []
    here = src
    for layer in on_path:
        for neighbor, link_id in adjacency[here]:
            if neighbor in layer and fits[link_id]:
                path.append(link_id)
                here = neighbor
                break
    for tag in range(from_dst[here] - 1, 0, -1):
        for neighbor, link_id in adjacency[here]:
            if from_dst[neighbor] == tag and fits[link_id]:
                path.append(link_id)
                here = neighbor
                break
    return path


def embed_nodes(
    substrate: MultiDomainSubstrate, vnr, ranked_candidates, node_map: dict[int, int]
) -> dict[int, int] | None:
    """Greedy node placement into ``node_map``.

    Virtual nodes are processed in descending cpu demand, equal demands in
    ascending index order (the sort is stable); each walks its own order (an
    iterable, walked once) up to the first candidate not already used by
    this request that has enough cpu, and is allocated and mapped at once;
    orders must not share an iterator. Returns the filled map, or None at
    the first virtual node no candidate can host; the placements made before
    it stay allocated and mapped, for the caller to release. Cpu is read
    once, at entry, into a per-call list: during the stage only nodes this
    request took change, and each is marked taken there with -inf, which no
    demand fits (demands are non-negative).
    """
    cpu = substrate.cpu_available.tolist()
    node_ids = substrate.node_ids
    order = sorted(range(vnr.num_nodes), key=vnr.node_demands.__getitem__, reverse=True)
    for v in order:
        demand = vnr.node_demands[v]
        for node_id in ranked_candidates[v]:
            if cpu[node_id] >= demand:
                break
        else:
            return None
        substrate.allocate_node(node_id, demand)
        node_map[v] = node_ids[node_id]
        cpu[node_id] = -inf
    return node_map


def embed_links(
    substrate: MultiDomainSubstrate,
    vnr,
    node_map: dict[int, int],
    link_paths: dict[tuple[int, int], tuple[int, ...]],
    link_keys: dict[tuple[int, int], tuple[int, int]],
) -> dict[tuple[int, int], tuple[int, ...]] | None:
    """Minimum-hop link placement into ``link_paths``, one path per virtual link.

    Virtual links are processed in descending bandwidth demand, equal demands
    in ascending index order (the sort is stable), each path allocated and
    kept as it is found. Returns the filled map, or None at the first
    virtual link with no feasible path; the paths placed before it stay
    allocated, for the caller to release together with the nodes. Each path
    is stored under the one ``(a, b)`` tuple ``link_keys`` holds for its key.
    """
    order = sorted(range(vnr.num_links), key=lambda i: vnr.link_demands[i][2], reverse=True)
    for i in order:
        a, b, demand = vnr.link_demands[i]
        path = min_hop_path(substrate, node_map[a], node_map[b], demand)
        if path is None:
            return None
        substrate.allocate_path(path, demand)
        key = (a, b)
        link_paths[link_keys.setdefault(key, key)] = tuple(path)
    return link_paths


def attempt_embedding(
    substrate: MultiDomainSubstrate, vnr, ranked_candidates, link_keys: dict
) -> EmbeddingRecord:
    """Run both stages; returns a record either fully applied or fully released."""
    record = EmbeddingRecord(vnr_id=vnr.vnr_id, t_s=vnr.t_s, outstanding=True)
    if (
        embed_nodes(substrate, vnr, ranked_candidates, record.node_map) is None
        or embed_links(substrate, vnr, record.node_map, record.link_paths, link_keys) is None
    ):
        substrate.release(record, vnr)
        return record
    record.accepted = True
    record.revenue = metrics.vnr_revenue(vnr)
    record.cost = metrics.vnr_cost(vnr, record)
    return record


def run_simulation(
    substrate: MultiDomainSubstrate,
    vnrs,
    policy_provider,
    on_record=None,
):
    """Drive the request lifecycle over a sorted stream.

    Departures due at or before an arrival are released first; all remaining
    departures are drained at end of run. Individual embedding failures are
    recorded, never raised. Returns (substrate, ledger, records); the
    records share one ``(a, b)`` tuple per virtual-link key, local to the call.
    """
    ledger = metrics.MetricsLedger()
    records: list[EmbeddingRecord] = ledger.records
    link_keys: dict[tuple[int, int], tuple[int, int]] = {}
    pending = []  # (t_e, vnr_id, record, vnr); ids are unique, so ties never reach the record
    last_t = None
    for vnr in vnrs:
        if last_t is not None and vnr.t_s < last_t:
            raise ValueError("vnr stream is not sorted by arrival time")
        last_t = vnr.t_s
        while pending and pending[0][0] <= vnr.t_s:
            _, _, done, departed = heapq.heappop(pending)
            substrate.release(done, departed)
        record = attempt_embedding(substrate, vnr, policy_provider(substrate, vnr), link_keys)
        records.append(record)
        if record.accepted:
            heapq.heappush(pending, (vnr.t_e, vnr.vnr_id, record, vnr))
        if on_record is not None:
            on_record(vnr, record)
    while pending:
        _, _, done, departed = heapq.heappop(pending)
        substrate.release(done, departed)
    return substrate, ledger, records


# -- independent constraint checking ---------------------------------------


def _first_violation(vnr, record: EmbeddingRecord, cpu, bw, link_ends) -> str | None:
    """First structural fault of an accepted record against the replayed availability.

    Returns its message without the ``vnr <id>: `` prefix, or None when the
    node map, the cpu and every path hold.
    """
    if sorted(record.node_map) != list(range(vnr.num_nodes)):
        return "not every virtual node is mapped exactly once"
    if len(set(record.node_map.values())) != vnr.num_nodes:
        return "node map is not injective"
    for v, node_id in record.node_map.items():
        if not (0 <= node_id < len(cpu)):
            return f"mapped to missing node {node_id}"
        if vnr.node_demands[v] > cpu[node_id]:
            return f"cpu demand of virtual node {v} exceeds availability on node {node_id}"
    for a, b, _ in vnr.link_demands:
        path = record.link_paths.get((a, b))
        if not path:
            return f"virtual link ({a}, {b}) has no path"
        here = record.node_map[a]
        for link_id in path:
            if not (0 <= link_id < len(bw)):
                return f"path uses missing link {link_id}"
            x, y = (int(e) for e in link_ends[link_id])
            if here == x:
                here = y
            elif here == y:
                here = x
            else:
                return f"path for ({a}, {b}) is not a connected walk"
        if here != record.node_map[b]:
            return f"path for ({a}, {b}) does not reach the mapped endpoint"
    keys = {(a, b) for a, b, _ in vnr.link_demands}
    for key in record.link_paths:
        if key not in keys:
            return f"path for a link the request does not have: {key}"
    return None


def replay_validate(
    initial: MultiDomainSubstrate,
    vnrs,
    records,
    final_vector: np.ndarray | None = None,
) -> list[str]:
    """Re-check every embedding constraint by replaying the decision log.

    Record i belongs to request i of ``vnrs``, the stream the log was made
    from, so the log holds one record per request in stream order; requests
    after the last record are not checked. The replay keeps its own
    availability arrays (independent of the substrate's allocation methods),
    applies each accepted record at its request's arrival and returns it at
    departure. Returns a list of violation messages; empty means the log is
    sound. Each record reports at most one violation, the first one found in
    a fixed order: a record past the stream's end or at another request's
    place; then for a rejected record nonzero revenue or cost and every
    element placed, and for an accepted one the structural checks of
    ``_first_violation`` (node map, cpu, paths, in that order) and joint
    bandwidth per substrate link. A record that fails one of them is not
    applied. When ``final_vector`` is given it is compared against the
    replayed end-of-run resource vector, which must match exactly. Demands
    must be non-negative, as validate_vnr requires of every loaded or
    generated request: then an applied record leaves no availability below
    zero, so that is not checked.
    """
    violations: list[str] = []
    cpu = np.array(initial.cpu_capacity, dtype=np.float64)
    bw = np.array(initial.bw_capacity, dtype=np.float64)

    # (departure time, vnr id, record, request, demand per virtual link)
    departures: list[tuple[float, int, EmbeddingRecord, object, dict]] = []

    def release(record: EmbeddingRecord, vnr, demand_of: dict) -> None:
        for v, node_id in record.node_map.items():
            cpu[node_id] += vnr.node_demands[v]
        for key, path in record.link_paths.items():
            for link_id in path:
                bw[link_id] += demand_of[key]

    def replay(vnr, record: EmbeddingRecord) -> str | None:
        if vnr is None:
            return "logged after the last request"
        if record.vnr_id != vnr.vnr_id:
            return f"logged where request {vnr.vnr_id} arrives"
        while departures and departures[0][0] <= vnr.t_s:
            release(*heapq.heappop(departures)[2:])
        if not record.accepted:
            if record.revenue or record.cost:
                return "logged as rejected, with revenue or cost"
            placed = all(v in record.node_map for v in range(vnr.num_nodes))
            if placed and all(record.link_paths.get((a, b)) for a, b, _ in vnr.link_demands):
                return "logged as rejected, with every virtual node and link placed"
            return None
        fault = _first_violation(vnr, record, cpu, bw, initial.link_ends)
        if fault is not None:
            return fault

        # joint bandwidth feasibility across this request's paths
        demand_of = {(a, b): d for a, b, d in vnr.link_demands}
        demand_on_link: dict[int, float] = {}
        for key, path in record.link_paths.items():
            for link_id in path:
                demand_on_link[link_id] = demand_on_link.get(link_id, 0.0) + demand_of[key]
        for link_id, total in demand_on_link.items():
            if total > bw[link_id]:
                return f"joint bandwidth on link {link_id} exceeds availability"

        for v, node_id in record.node_map.items():
            cpu[node_id] -= vnr.node_demands[v]
        for link_id, total in demand_on_link.items():
            bw[link_id] -= total
        heapq.heappush(departures, (vnr.t_e, vnr.vnr_id, record, vnr, demand_of))
        return None

    requests = iter(vnrs)
    for record in records:
        fault = replay(next(requests, None), record)
        if fault is not None:
            violations.append(f"vnr {record.vnr_id}: {fault}")

    while departures:
        release(*heapq.heappop(departures)[2:])

    if np.any(cpu > initial.cpu_capacity) or np.any(bw > initial.bw_capacity):
        violations.append("replayed releases exceed capacity")
    if final_vector is not None:
        replayed = np.concatenate([cpu, bw])
        if replayed.tobytes() != np.asarray(final_vector, dtype=np.float64).tobytes():
            violations.append("replayed resource vector differs from the run's final state")
    return violations


# -- decision log -----------------------------------------------------------

DECISION_LOG_HEADER = "vnr_id,t_s,accepted,revenue,cost,node_map,link_paths"
DECISION_LOG_FIELDS = DECISION_LOG_HEADER.count(",") + 1


def _format_node_map(record: EmbeddingRecord) -> str:
    return "|".join(f"{v}:{record.node_map[v]}" for v in sorted(record.node_map))


def _format_paths(record: EmbeddingRecord) -> str:
    return "|".join(f"{a}-{b}:" + ">".join(map(str, path)) for (a, b), path in sorted(record.link_paths.items()))


def csv_cell(value) -> str:
    """A value as every fedvne CSV holds it: None as an empty cell, else ``str(value)``."""
    return "" if value is None else str(value)


def write_csv(path, header, rows) -> None:
    """Write the header, then each row as ``rows`` yields it, as newline-ended comma-joined lines."""
    with open(path, "w") as fh:
        fh.write("".join(",".join(map(csv_cell, row)) + "\n" for part in ([header], rows) for row in part))


def write_decision_log(path, records) -> None:
    rows = (
        (r.vnr_id, r.t_s, int(r.accepted), r.revenue, r.cost, _format_node_map(r), _format_paths(r))
        for r in records
    )
    write_csv(path, DECISION_LOG_HEADER.split(","), rows)


def _virtual_link(text: str) -> tuple[int, int]:
    a, b = (int(x) for x in text.split("-"))
    return a, b


def _parse_decision(line: str, ints, links) -> EmbeddingRecord:
    fields = line.split(",")
    if len(fields) != DECISION_LOG_FIELDS:
        raise ValueError(f"expected {DECISION_LOG_FIELDS} fields, found {len(fields)}")
    record = EmbeddingRecord(vnr_id=int(fields[0]), t_s=float(fields[1]))
    if fields[2] not in ("0", "1"):
        raise ValueError(f"accepted must be 0 or 1, got {fields[2]}")
    record.accepted = fields[2] == "1"
    record.revenue = float(fields[3])
    record.cost = float(fields[4])
    for name in ("t_s", "revenue", "cost"):
        if not isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite, got {getattr(record, name)}")
    if fields[5]:
        for pair in fields[5].split("|"):
            v, node = (ints(x) for x in pair.split(":"))
            if v in record.node_map:
                raise ValueError(f"node_map repeats virtual node {v}")
            record.node_map[v] = node
    if fields[6]:
        for chunk in fields[6].split("|"):
            key, seq = chunk.split(":")
            a, b = link = links(key)
            if link in record.link_paths:
                raise ValueError(f"link_paths repeats virtual link {a}-{b}")
            record.link_paths[link] = tuple(map(ints, seq.split(">"))) if seq else ()
    return record


def read_decision_log(path) -> list[EmbeddingRecord]:
    """Records of a decision log, in file order; a bad line raises ValueError with ``path:line``.

    The file is parsed line by line as it is read; blank lines are skipped,
    and the first other line must be the header (an empty log fails at line
    1). Node-id and link-id tokens and virtual-link keys are parsed through
    ``functools.cache`` wrappers local to the call, so equal text in one log
    yields the same objects; nothing may rely on their identity.
    """
    ints, links = cache(int), cache(_virtual_link)
    records = []
    with open(path, encoding="utf-8", errors="backslashreplace") as fh:
        lines = ((no, line.rstrip("\n")) for no, line in enumerate(fh, 1) if line.strip())
        line_no, header = next(lines, (1, None))
        if header != DECISION_LOG_HEADER:
            raise ValueError(f"{path}:{line_no}: not a decision log")
        for line_no, line in lines:
            try:
                records.append(_parse_decision(line, ints, links))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return records
