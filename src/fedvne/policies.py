"""Policy-provider adapters for the embedding engine.

A policy provider is a callable (substrate, vnr) -> candidate orders, one
per virtual node: an iterable of substrate node ids by descending priority
that the engine's node stage walks once, up to the first node that fits. An
order may hold nodes that cannot host its virtual node: the node stage skips
those, along with nodes the request already uses, so providers do not filter.
Orders from one call never share an iterator, but they may share one list,
which nobody mutates; a provider may also hand out that list on later calls.

A provider may keep state between calls only if its output stays a function
of the substrate snapshot (the topology and the bytes of ``cpu_available``
and ``bw_available``), the request and, for the trained multi-domain policy,
the values of the domains' parameters. Both ranking providers keep their last
ranking and redo all of it when ``SubstrateSnapshot.changed`` says it is
stale; ``HflPolicy`` passes its parameter values as the snapshot's extra key.
``RandomPolicy`` is the one provider whose output is not a function of the
snapshot: it draws fresh scores per arrival.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .agent import DomainAgent, extract_state, scores
from .substrate import MultiDomainSubstrate


def ranked_by_score(score: np.ndarray) -> list[int]:
    """Node ids by descending score, ties by ascending node id."""
    return np.argsort(-score, kind="stable").tolist()


class SubstrateSnapshot:
    """Tells a provider whether the substrate changed since its last ranking.

    A snapshot is the topology, the bytes of both availability arrays and the
    caller's ``extra`` key, compared by value. ``MultiDomainSubstrate.copy()``
    shares every topology attribute, so the identity of the adjacency list
    stands for the topology. A held reference keeps that list alive, so its
    identity cannot be reused by another one.
    """

    def __init__(self):
        self._topology = self._key = None

    def changed(self, substrate: MultiDomainSubstrate, extra=None) -> bool:
        """True when ``substrate`` or ``extra`` differs from the last call's; remembers both."""
        key = (substrate.cpu_available.tobytes(), substrate.bw_available.tobytes(), extra)
        if substrate.adjacency is self._topology and key == self._key:
            return False
        self._topology, self._key = substrate.adjacency, key
        return True


class HflPolicy:
    """Multi-domain policy backed by one agent per domain.

    Each domain's state is turned into allocation probabilities with that
    domain's parameters. The global ranking is domain-blocked per virtual
    node: domains are ordered by the probability mass their feasible nodes
    carry, and inside each block all the domain's nodes follow its
    probabilities. Requests therefore pack into the domain whose agent
    currently offers the most allocatable probability instead of scattering
    across all domains. The states, probabilities and per-domain orders are
    built again, together, only when the substrate snapshot or a parameter
    value changed; the block order depends on the request and is computed on
    every call, and each virtual node gets a fresh lazy walk over its blocks.
    ``states`` holds the per-domain states the last ranking used.
    """

    def __init__(self, agents: dict[int, DomainAgent]):
        self.agents = agents
        self.states: list[np.ndarray] = []
        self._snapshot = SubstrateSnapshot()
        # padded per-domain cpu and probabilities in rank order; per-domain ranked ids
        self._cpu = self._prob = None
        self._lists: list[list[int]] = []

    def __call__(self, substrate: MultiDomainSubstrate, vnr):
        params = [self.agents[d].params for d in range(substrate.num_domains)]
        if self._snapshot.changed(substrate, [(p.kernel.tobytes(), p.bias) for p in params]):
            self.states = extract_state(substrate)
            self._rank(substrate, params)
        feasible = self._cpu >= np.array(vnr.node_demands)[:, None, None]
        mass = np.cumsum(np.where(feasible, self._prob, 0.0), axis=-1)[..., -1]
        blocks = np.argsort(-mass, axis=1, kind="stable").tolist()
        return [chain.from_iterable([self._lists[d] for d in b]) for b in blocks]

    def _rank(self, substrate: MultiDomainSubstrate, params) -> None:
        bounds, rows = substrate.domain_bounds, substrate.domain_rows
        # a softmax of the linear node scores per domain, computed in place in z;
        # only the scores and the sum stay per domain, because their all-node
        # forms round differently
        z = np.concatenate([scores(p, s) for s, p in zip(self.states, params)])
        z -= np.maximum.reduceat(z, substrate.domain_starts[:-1])[rows]
        np.exp(z, out=z)
        z /= np.array([z[a:b].sum() for a, b in bounds])[rows]
        # rows ascend by node id inside each domain, so stable ties go to the lower id
        order = np.lexsort((-z, rows))
        ids = substrate.domain_order[order]
        # per domain, in rank order and zero-padded to the widest domain: cumsum
        # adds the feasible probabilities strictly left to right, as the block
        # order's definition does (padding adds exact zeros); ties keep domain order
        shape = (len(bounds), substrate.widest_domain)
        self._cpu, self._prob = np.zeros(shape), np.zeros(shape)
        self._cpu.flat[substrate.padded_cells] = substrate.cpu_available[ids]
        self._prob.flat[substrate.padded_cells] = z[order]
        ranked = ids.tolist()
        self._lists = [ranked[a:b] for a, b in bounds]
