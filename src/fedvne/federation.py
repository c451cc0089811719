"""Synchronous parameter federation across domains.

Only parameter messages cross domain boundaries: uploads carry (params,
sample count, local loss) and the broadcast carries the aggregated global
parameters. Raw states, traces, and request contents never leave the domain
that produced them; for the round log, each round also reports every domain's
local loss and mean episode reward since the previous round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agent import DomainAgent, PolicyParams
from .metrics import left_sum


@dataclass(frozen=True)
class ParamUpload:
    params: PolicyParams
    sample_count: int
    local_loss: float


@dataclass
class FederationRound:
    global_params: PolicyParams
    global_loss: float
    local_losses: dict[int, float]
    reward_means: dict[int, float]


def weighted_mean(uploads, value):
    """Sample-count-weighted mean of ``value(upload)``, a float or an array, added left to right;
    where the weighted sum is not finite, the mean is taken over each upload's sample share instead."""
    total = sum(u.sample_count for u in uploads)
    if total <= 0:
        raise ValueError("uploads carry no samples")
    mean = left_sum(u.sample_count * value(u) for u in uploads) / total
    if not np.isfinite(mean).all():
        mean = left_sum(u.sample_count / total * value(u) for u in uploads)
    return mean


def aggregate(uploads) -> PolicyParams:
    """Sample-count-weighted mean of the uploaded parameters."""
    kernel = weighted_mean(uploads, lambda u: u.params.kernel)
    return PolicyParams(kernel=kernel, bias=weighted_mean(uploads, lambda u: u.params.bias))


def global_loss(uploads) -> float:
    """Sample-count-weighted mean of the uploaded local losses."""
    return weighted_mean(uploads, lambda u: u.local_loss)


class Coordinator:
    """Runs synchronous rounds over the domains whose agents it is handed."""

    def ready(self, agents: dict[int, DomainAgent]) -> bool:
        return all(agent.pending_samples > 0 for agent in agents.values())

    def run_round(self, agents: dict[int, DomainAgent]) -> FederationRound:
        """Collect uploads in ascending domain order, aggregate, and broadcast
        the global parameters to every agent.

        Raises ValueError (and leaves every agent untouched) if any domain has
        not trained since the previous round.
        """
        uploads = []
        local_losses = {}
        reward_means = {}
        for d in sorted(agents):
            agent = agents[d]
            if agent.pending_samples <= 0:
                raise ValueError(f"domain {d} has not produced a training batch")
            local_losses[d] = agent.pending_loss_weighted / agent.pending_samples
            uploads.append(ParamUpload(agent.params, agent.pending_samples, local_losses[d]))
            reward_means[d] = float(np.mean(agent.pending_rewards))
        params = aggregate(uploads)
        loss = global_loss(uploads)
        for agent in agents.values():
            agent.apply_global(params)
        return FederationRound(
            global_params=params,
            global_loss=loss,
            local_losses=local_losses,
            reward_means=reward_means,
        )
