"""Policy-provider adapters for the embedding engine.

A policy provider is a callable (substrate, vnr) -> candidate orders, one
descending-priority list of substrate node ids per virtual node. An order
may hold nodes that cannot host its virtual node: the engine's node stage
skips those, along with nodes the request already uses, so providers do not
filter. Virtual nodes may share one list, and nobody mutates it. A provider
must be a pure function of the substrate snapshot; the trained multi-domain
policy and the baselines all satisfy the same contract.
"""

from __future__ import annotations

import numpy as np

from .agent import DecisionTrace, DomainAgent, StateMatrix, episode_reward, extract_state
from .substrate import MultiDomainSubstrate


def ranked_by_score(substrate: MultiDomainSubstrate, vnr, score: np.ndarray):
    """One order for every virtual node: descending score, ties by ascending node id."""
    order = np.argsort(-score, kind="stable").tolist()
    return [order] * vnr.num_nodes


class HflPolicy:
    """Multi-domain policy backed by one agent per domain.

    Each call extracts every domain's state and turns it into allocation
    probabilities with that domain's parameters. The global ranking is
    domain-blocked per virtual node: domains are ordered by the probability
    mass their feasible nodes carry, and inside each block all the domain's
    nodes follow its probabilities. Requests therefore pack into the domain
    whose agent currently offers the most allocatable probability instead of
    scattering across all domains. With ``record_traces`` enabled,
    ``finish_episode`` distributes the episode's decisions back to the
    owning domains' trace buffers.
    """

    def __init__(
        self,
        agents: dict[int, DomainAgent],
        record_traces: bool = False,
        reject_reward: float = 0.0,
    ):
        self.agents = agents
        self.record_traces = record_traces
        self.reject_reward = reject_reward
        self._last_vnr_id: int | None = None
        self._last_states: list[StateMatrix] = []
        self._node_domain = None

    def __call__(self, substrate: MultiDomainSubstrate, vnr):
        self._last_states = extract_state(substrate)
        self._last_vnr_id = vnr.vnr_id
        self._node_domain = substrate.node_domain
        bounds, rows = substrate.domain_bounds, substrate.domain_rows
        params = [self.agents[d].params for d in range(len(bounds))]
        # the softmax of forward() per domain; only the matrix product and the
        # sum stay per domain, because their all-node forms round differently
        z = np.concatenate([s.features @ p.kernel for s, p in zip(self._last_states, params)])
        z += np.array([p.bias for p in params])[rows]
        e = np.exp(z - np.maximum.reduceat(z, substrate.domain_starts[:-1])[rows])
        probs = e / np.array([e[a:b].sum() for a, b in bounds])[rows]
        # rows ascend by node id inside each domain, so stable ties go to the lower id
        order = np.lexsort((-probs, rows))
        ids = substrate.domain_order[order]
        # per domain, in rank order and zero-padded to the widest domain: cumsum
        # adds the feasible probabilities strictly left to right, as the block
        # order's definition does (padding adds exact zeros); ties keep domain order
        cells = (rows, np.arange(len(rows)) - substrate.domain_starts[rows])
        cpu = np.zeros((len(bounds), max(b - a for a, b in bounds)))
        cpu[cells] = substrate.cpu_available[ids]
        prob = np.zeros_like(cpu)
        prob[cells] = probs[order]
        feasible = cpu >= np.array(vnr.node_demands)[:, None, None]
        mass = np.cumsum(np.where(feasible, prob, 0.0), axis=-1)[..., -1]
        blocks = [tuple(b) for b in np.argsort(-mass, axis=1, kind="stable").tolist()]
        ranked = ids.tolist()
        lists = [ranked[a:b] for a, b in bounds]
        joined = {b: [node_id for d in b for node_id in lists[d]] for b in set(blocks)}
        return [joined[b] for b in blocks]

    def finish_episode(self, vnr, record) -> None:
        """Turn a finished embedding attempt into per-domain decision traces."""
        if not self.record_traces:
            return
        if record.vnr_id != self._last_vnr_id:
            raise ValueError("finish_episode must follow the matching ranking call")
        reward = episode_reward(record, self.reject_reward)
        samples: dict[int, list] = {}
        for v in sorted(record.node_map):
            node_id = record.node_map[v]
            d = int(self._node_domain[node_id])
            state = self._last_states[d]
            row = state.node_ids.index(node_id)
            samples.setdefault(d, []).append((state, row))
        for d, sample_list in samples.items():
            self.agents[d].add_trace(DecisionTrace(samples=sample_list, reward=reward))
