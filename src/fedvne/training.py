"""Training loop: per-domain batches interleaved with federation rounds.

Each epoch replays the training stream on a fresh copy of the substrate.
Every ``batch_size`` completed episodes, each domain with buffered traces
takes one gradient step; a federation round runs as soon as every domain
has trained since the previous round (a domain that saw no placements keeps
the round deferred until it catches up). The result keeps each round with a
``Tally`` over the episodes of its window, not the episodes' records: a
domain that never trains holds every round back, so a window can span every
episode of every epoch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .agent import DecisionTrace, DomainAgent, PolicyParams, check_params, episode_reward, init_params
from .engine import run_simulation
from .federation import Coordinator, FederationRound, ParamUpload, aggregate
from .metrics import Tally
from .policies import HflPolicy
from .substrate import MultiDomainSubstrate


@dataclass
class TrainResult:
    domain_params: dict[int, PolicyParams]
    global_params: PolicyParams
    # each round with the tally of the episodes in its window
    round_rows: list[tuple[FederationRound, Tally]] = field(default_factory=list)


class Trainer:
    def __init__(
        self,
        substrate: MultiDomainSubstrate,
        vnrs,
        *,
        learning_rate: float,
        batch_size: int,
        epochs: int,
        seed: int,
        reject_reward: float = 0.0,
    ):
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if epochs < 1:
            raise ValueError("need at least one epoch")
        self.template = substrate
        self.vnrs = vnrs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.epochs = epochs
        rng = random.Random(seed)
        self.agents = {
            d: DomainAgent(d, init_params(rng)) for d in range(substrate.num_domains)
        }
        self.coordinator = Coordinator()
        self.reject_reward = reject_reward
        self.policy = HflPolicy(self.agents)
        self.round_rows: list[tuple[FederationRound, Tally]] = []
        self._window = Tally()
        self._since_boundary = 0
        # each node's domain and its row in that domain's state, as plain ints
        self._domain_of = substrate.node_domain.tolist()
        self._row_of = substrate.row_in_domain.tolist()

    # an overflow leaves a non-finite value for the checks to refuse, not a warning
    @np.errstate(over="ignore", invalid="ignore")
    def run(self) -> TrainResult:
        for epoch in range(1, self.epochs + 1):
            self._epoch = epoch
            run_simulation(self.template.copy(), self.vnrs, self.policy, on_record=self._on_record)
            self._boundary()  # flush a partial final batch of the epoch
        if self.round_rows:
            global_params = self.round_rows[-1][0].global_params
        else:
            # no round ever completed; fall back to a plain mean of the agents
            global_params = aggregate([ParamUpload(agent.params, 1, 0.0) for agent in self.agents.values()])
            check_params(global_params, self._diverged("global parameters"))
        return TrainResult(
            domain_params={d: a.params.copy() for d, a in self.agents.items()},
            global_params=global_params,
            round_rows=self.round_rows,
        )

    def _on_record(self, vnr, record) -> None:
        # one decision trace per domain the attempt placed nodes in, over the
        # states the policy ranked this request with: run_simulation reports
        # each record right after that ranking call
        reward = episode_reward(record, self.reject_reward)
        rows: dict[int, list[int]] = {}
        for v in sorted(record.node_map):
            node_id = record.node_map[v]
            rows.setdefault(self._domain_of[node_id], []).append(self._row_of[node_id])
        for d, chosen in rows.items():
            self.agents[d].buffer.append(DecisionTrace(self.policy.states[d], chosen, reward))
        self._window.add(record)
        self._since_boundary += 1
        if self._since_boundary >= self.batch_size:
            self._boundary()

    def _boundary(self) -> None:
        self._since_boundary = 0
        for d in sorted(self.agents):
            if self.agents[d].buffer:
                self.agents[d].train(self.learning_rate)
                check_params(self.agents[d].params, self._diverged(f"domain {d}"))
        if not self.coordinator.ready(self.agents):
            return
        fed_round = self.coordinator.run_round(self.agents)
        check_params(fed_round.global_params, self._diverged("global parameters"))
        if not np.isfinite([fed_round.global_loss, *fed_round.reward_means.values()]).all():
            raise ValueError(f"{self._diverged('round log')}: losses and mean rewards must be finite")
        self.round_rows.append((fed_round, self._window))
        self._window = Tally()

    def _diverged(self, whose: str) -> str:
        return f"training diverged in epoch {self._epoch}, round {len(self.round_rows) + 1}, {whose}"
