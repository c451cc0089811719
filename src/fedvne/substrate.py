"""Multi-domain physical network with CPU/bandwidth bookkeeping.

The substrate is mutated in place by a single owner (the simulation loop).
Policies and feature extractors may read the public arrays but must never
write them.
"""

from __future__ import annotations

import numpy as np


def union_find(n: int, edges) -> list[int]:
    """Join the endpoints of every edge over nodes 0..n-1; returns each node's root.

    Edges are joined in order with ``parent[root(a)] = root(b)``, so a
    component's root id is a function of the edge order.
    """
    parent = list(range(n))
    for a, b in edges:  # find both roots, halving the paths walked
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        parent[a] = b
    for x in range(n):
        root = x
        while parent[root] != root:
            root = parent[root]
        parent[x] = root
    return parent


class MultiDomainSubstrate:
    """Physical network partitioned into domains.

    Node ids are 0..num_nodes-1 and link ids 0..num_links-1 (the array index
    is the id). Every node belongs to exactly one domain; a link is "inter"
    exactly when its endpoints lie in different domains. Resource state lives
    in ``cpu_available`` / ``bw_available`` and changes only through the
    allocate and release methods.

    The numpy arrays are the one store; no list mirror is kept beside them.
    The loops of ``allocate_path`` and ``release`` index them through a
    ``memoryview`` taken once per call, whose items are plain Python floats
    (an array index builds a numpy scalar); ``engine.min_hop_path`` reads a
    per-call bytes mask of the links that fit its demand instead. No view is
    kept on the instance: a ``copy()`` shares all but the availability arrays.

    The border index is static like ``adjacency``: ``node_borders[i]`` lists
    the inter-domain link ids of node i's domain in ascending order, one list
    object per domain, so two nodes lie in one domain exactly when their lists
    are the same object.

    ``node_ids[i]`` is the one ``int`` object for node i, held by the
    adjacency tuples and by every record's node map; it is static too.
    """

    def __init__(
        self,
        num_domains: int,
        node_domains,
        coords,
        cpu_capacity,
        link_ends,
        bw_capacity,
    ):
        self.num_domains = int(num_domains)
        self._validate(node_domains, cpu_capacity, link_ends, bw_capacity)
        self.node_domain = np.asarray(node_domains, dtype=np.int64)
        self.coords = np.asarray(coords, dtype=np.float64).reshape(len(self.node_domain), 2)
        self.cpu_capacity = np.asarray(cpu_capacity, dtype=np.float64)
        self.link_ends = np.asarray(link_ends, dtype=np.int64).reshape(-1, 2)
        self.bw_capacity = np.asarray(bw_capacity, dtype=np.float64)
        self.cpu_available = self.cpu_capacity.copy()
        self.bw_available = self.bw_capacity.copy()
        self._build_indexes(self.link_ends.tolist())

    # -- structure -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_domain)

    @property
    def num_links(self) -> int:
        return len(self.bw_capacity)

    def _validate(self, node_domains, cpu_capacity, link_ends, bw_capacity) -> None:
        """Checks the inputs as given, before any array is built. A fault of one node
        or link sets the ValueError's ``element`` to its node-then-link index, else None."""
        def fault(message: str, element: int | None = None) -> ValueError:
            exc = ValueError(message)
            exc.element = element
            return exc

        if self.num_domains < 1:
            raise fault("substrate needs at least one domain")
        n = len(node_domains)
        if len(cpu_capacity) != n:
            raise fault("cpu capacity array does not match node count")
        if len(link_ends) != len(bw_capacity):
            raise fault("link endpoint array does not match link count")
        if n == 0:
            raise fault("substrate needs at least one node")
        for i, (domain, cpu) in enumerate(zip(node_domains, cpu_capacity)):
            if not 0 <= domain < self.num_domains:
                raise fault("node domain id out of range", i)
            if cpu < 0:
                raise fault("capacities must be non-negative", i)
        seen: set[tuple[int, int]] = set()
        for j, ((a, b), bw) in enumerate(zip(link_ends, bw_capacity), n):
            if not (0 <= a < n and 0 <= b < n):
                raise fault(f"link endpoint ({a}, {b}) out of range", j)
            if a == b:
                raise fault(f"self-loop link at node {a}", j)
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise fault(f"duplicate link between nodes {key}", j)
            seen.add(key)
            if bw < 0:
                raise fault("capacities must be non-negative", j)
        roots = union_find(n, link_ends)
        if roots.count(roots[0]) != n:
            raise fault("substrate graph is not connected")
        intra_roots = union_find(n, [(a, b) for a, b in link_ends if node_domains[a] == node_domains[b]])
        domain_roots: dict[int, set[int]] = {}
        for domain, root in zip(node_domains, intra_roots):
            domain_roots.setdefault(domain, set()).add(root)
        for d in range(self.num_domains):
            if d not in domain_roots:
                raise fault(f"domain {d} has no nodes")
            if len(domain_roots[d]) > 1:
                raise fault(f"domain {d} is not connected by intra-domain links")

    def _build_indexes(self, ends: list[list[int]]) -> None:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        self.node_ids = node_ids = list(range(self.num_nodes))
        for lid, (a, b) in enumerate(ends):
            adj[a].append((node_ids[b], lid))
            adj[b].append((node_ids[a], lid))
        # sorted by neighbor id so that path searches are deterministic
        self.adjacency: list[list[tuple[int, int]]] = [sorted(e) for e in adj]
        # node ids grouped by domain, ascending inside each domain: domain d owns
        # positions a:b of domain_order, (a, b) = domain_bounds[d]; domain_rows
        # holds each position's domain and row_in_domain each node's offset in
        # its domain's block, which is its row in that domain's state
        self.domain_order = np.argsort(self.node_domain, kind="stable")
        self.domain_rows = self.node_domain[self.domain_order]
        self.domain_starts = np.searchsorted(self.domain_rows, np.arange(self.num_domains + 1))
        starts = self.domain_starts.tolist()
        self.domain_bounds = list(zip(starts[:-1], starts[1:]))
        self.row_in_domain = np.empty(self.num_nodes, dtype=np.int64)
        self.row_in_domain[self.domain_order] = np.arange(self.num_nodes) - self.domain_starts[self.domain_rows]
        # per domain, its inter-domain link ids; each node holds its domain's list
        domains = self.node_domain.tolist()
        borders: list[list[int]] = [[] for _ in range(self.num_domains)]
        for lid, (a, b) in enumerate(ends):
            if domains[a] != domains[b]:
                borders[domains[a]].append(lid)
                borders[domains[b]].append(lid)
        self.node_borders = [borders[d] for d in domains]
        # per node, half the Euclidean length of every incident link (one hop away)
        delta = self.coords[self.link_ends[:, 0]] - self.coords[self.link_ends[:, 1]]
        self.incident_distance = self._incident_sums(np.hypot(delta[:, 0], delta[:, 1]) / 2.0)
        # the static part of the hfl ranking: each domain-order position's flat
        # cell in a (num_domains, widest_domain) layout padded past each domain's end
        self.widest_domain = max(b - a for a, b in self.domain_bounds)
        self.padded_cells = self.domain_rows * self.widest_domain + self.row_in_domain[self.domain_order]

    def _incident_sums(self, per_link: np.ndarray) -> np.ndarray:
        """Per node, the sum of ``per_link`` over its incident links. Float64 for
        every link count: a weighted bincount over no links gives int64 zeros."""
        sums = np.bincount(self.link_ends.ravel(), weights=np.repeat(per_link, 2), minlength=self.num_nodes)
        return sums.astype(np.float64, copy=False)

    # -- accessors -----------------------------------------------------

    def available_bw_sums(self) -> np.ndarray:
        """Per node, the sum of available bandwidth on incident links."""
        return self._incident_sums(self.bw_available)

    def resource_vector(self) -> np.ndarray:
        """Concatenated cpu/bw availability, for conservation checks."""
        return np.concatenate([self.cpu_available, self.bw_available])

    def copy(self) -> "MultiDomainSubstrate":
        """Fresh availability state over the shared (immutable) topology."""
        clone = object.__new__(MultiDomainSubstrate)
        clone.__dict__.update(self.__dict__)
        clone.cpu_available = self.cpu_available.copy()
        clone.bw_available = self.bw_available.copy()
        return clone

    # -- resource operations --------------------------------------------

    def allocate_node(self, node_id: int, cpu_demand: float) -> None:
        available = self.cpu_available[node_id]
        if cpu_demand > available:
            raise ValueError(f"node {node_id}: cpu demand {cpu_demand} exceeds available {float(available)}")
        self.cpu_available[node_id] = available - cpu_demand

    def allocate_path(self, path, bw_demand: float) -> None:
        """All-or-nothing allocation along an ordered list of link ids."""
        bw = memoryview(self.bw_available)
        for link_id in path:
            available = bw[link_id]
            if bw_demand > available:
                raise ValueError(f"link {link_id}: bw demand {bw_demand} exceeds available {available}")
        for link_id in path:
            bw[link_id] -= bw_demand

    def release(self, record, vnr) -> None:
        """Return every resource ``record`` holds for request ``vnr``.

        Serves both the rollback of a failed attempt, whose maps may be
        partial, and a departure. Each mapped virtual node gives back its cpu
        demand and each placed path its bandwidth demand, both read from
        ``vnr``. The record must currently hold resources on this substrate;
        releasing twice (or releasing a record that never held any), or
        freeing past a capacity, raises ValueError.
        """
        if not record.outstanding:
            raise ValueError(f"record for vnr {record.vnr_id} holds no resources")
        cpu, cpu_capacity = memoryview(self.cpu_available), memoryview(self.cpu_capacity)
        for v_node, node_id in record.node_map.items():
            amount = vnr.node_demands[v_node]
            restored = cpu[node_id] + amount
            if restored > cpu_capacity[node_id]:
                raise ValueError(f"freeing {amount} cpu on node {node_id} exceeds capacity")
            cpu[node_id] = restored
        bw, bw_capacity = memoryview(self.bw_available), memoryview(self.bw_capacity)
        demand_of = {(a, b): d for a, b, d in vnr.link_demands}
        for v_link, path in record.link_paths.items():
            amount = demand_of[v_link]
            for link_id in path:
                restored = bw[link_id] + amount
                if restored > bw_capacity[link_id]:
                    raise ValueError(f"freeing {amount} bw on link {link_id} exceeds capacity")
                bw[link_id] = restored
        record.outstanding = False
