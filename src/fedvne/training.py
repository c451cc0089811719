"""Training loop: per-domain batches interleaved with federation rounds.

Each epoch replays the training stream on a fresh copy of the substrate.
The trainer keeps one trace buffer per domain. Every ``batch_size`` completed
episodes, each domain with buffered traces takes one gradient step on its
buffer and uploads the stepped parameters, sample count and loss; if any
domain did, a federation round aggregates the uploads and broadcasts to every
domain. The result keeps each round with its domains' mean trace rewards and
a ``Tally`` over the episodes since the previous round, not the episodes'
records. A run in which no round ran is refused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import agent
from .agent import DecisionTrace, DomainAgent, PolicyParams, check_params, episode_reward, init_params
from .engine import run_simulation
from .federation import Coordinator, FederationRound, ParamUpload
from .metrics import Tally
from .policies import HflPolicy
from .substrate import MultiDomainSubstrate


@dataclass
class TrainResult:
    # every round broadcasts to every domain, so each domain ends the run holding these
    global_params: PolicyParams
    # each round with its uploading domains' mean trace rewards and the tally of the episodes in its window
    round_rows: list[tuple[FederationRound, dict[int, float], Tally]] = field(default_factory=list)


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
        self.buffers: list[list[DecisionTrace]] = [[] for _ in self.agents]
        self.reject_reward = reject_reward
        self.policy = HflPolicy(self.agents)
        self.round_rows: list[tuple[FederationRound, dict[int, float], Tally]] = []
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
        if not self.round_rows:
            cause = "no request placed a node in any epoch" if self.vnrs else "the training split is empty"
            raise ValueError(f"no federation round ran: {cause}")
        return TrainResult(global_params=self.round_rows[-1][0].global_params, round_rows=self.round_rows)

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
            self.buffers[d].append(DecisionTrace(self.policy.states[d], chosen, reward))
        self._window.add(record)
        self._since_boundary += 1
        if self._since_boundary >= self.batch_size:
            self._boundary()

    def _boundary(self) -> None:
        self._since_boundary = 0
        uploads, reward_means = {}, {}
        for d, traces in enumerate(self.buffers):
            if not traces:
                continue
            # through the module, so a wrapper installed on agent.train_step sees the call
            params, loss = agent.train_step(self.agents[d].params, traces, self.learning_rate)
            check_params(params, self._diverged(f"domain {d}"))
            uploads[d] = ParamUpload(params, sum(len(t.rows) for t in traces), loss)
            reward_means[d] = float(np.mean([t.reward for t in traces]))
            self.buffers[d] = []
        if not uploads:
            return
        fed_round = Coordinator().run_round(self.agents, uploads)
        check_params(fed_round.global_params, self._diverged("global parameters"))
        if not np.isfinite([fed_round.global_loss, *reward_means.values()]).all():
            raise ValueError(f"{self._diverged('round log')}: losses and mean rewards must be finite")
        self.round_rows.append((fed_round, reward_means, self._window))
        self._window = Tally()

    def _diverged(self, whose: str) -> str:
        return f"training diverged in epoch {self._epoch}, round {len(self.round_rows) + 1}, {whose}"
