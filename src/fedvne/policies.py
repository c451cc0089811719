"""Policy-provider adapters for the embedding engine.

A policy provider is a callable (substrate, vnr) -> ranked candidate lists,
one descending-priority list of substrate node ids per virtual node. It must
be a pure function of the substrate snapshot; the trained multi-domain
policy and the baselines all satisfy the same contract.
"""

from __future__ import annotations

import numpy as np

from .agent import DecisionTrace, DomainAgent, StateMatrix, episode_reward, extract_state, forward
from .substrate import MultiDomainSubstrate


def ranked_by_score(substrate: MultiDomainSubstrate, vnr, score: np.ndarray):
    """Per-virtual-node candidate lists from one score per substrate node.

    Nodes without enough available cpu for a virtual node's demand are
    dropped from that node's list; survivors are ordered by descending
    score, ties broken by ascending node id.
    """
    order = np.argsort(-score, kind="stable")
    avail = substrate.cpu_available[order]
    return [order[avail >= demand].tolist() for demand in vnr.node_demands]


class HflPolicy:
    """Multi-domain policy backed by one agent per domain.

    Each call extracts every domain's state and turns it into allocation
    probabilities with that domain's parameters. The global ranking is
    domain-blocked per virtual node: domains are ordered by the probability
    mass their feasible nodes carry, and inside each block nodes follow the
    domain's probabilities. Requests therefore pack into the domain whose
    agent currently offers the most allocatable probability instead of
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
        self._last_states: dict[int, StateMatrix] = {}
        self._node_domain = None

    def __call__(self, substrate: MultiDomainSubstrate, vnr):
        self._last_states = {}
        self._node_domain = substrate.node_domain
        domains = sorted(self.agents)
        # per domain: node ids, available cpu and probabilities in rank order
        ranked: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for d in domains:
            agent = self.agents[d]
            state = extract_state(substrate, d)
            probs = forward(agent.params, state)
            # node ids ascend with the row, so a stable sort breaks ties by id
            order = np.argsort(-probs, kind="stable")
            ranked[d] = (
                substrate.domain_node_ids(d)[order],
                state.raw[order, 0],
                probs[order],
            )
            self._last_states[d] = state
        self._last_vnr_id = vnr.vnr_id
        candidates = []
        for demand in vnr.node_demands:
            blocks = []
            for d in domains:
                ids, cpu, probs = ranked[d]
                ok = cpu >= demand
                # summed left to right in rank order; the block order depends on it
                mass = sum(probs[ok].tolist())
                blocks.append((-mass, d, ids[ok].tolist()))
            blocks.sort(key=lambda b: (b[0], b[1]))
            candidates.append([node_id for _, _, ids in blocks for node_id in ids])
        return candidates

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
