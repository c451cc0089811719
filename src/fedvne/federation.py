"""Synchronous parameter federation across domains.

Only parameter messages cross domain boundaries: uploads carry (params,
sample count, local loss) and the broadcast carries the aggregated global
parameters; a domain that has not trained since the previous round uploads
nothing (weight 0) and still receives the broadcast. The coordinator reads
nothing but the uploads it is handed, so raw states, traces, and request
contents never leave the domain that produced them; for the round log, each
round also reports each uploading domain's local loss.
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
    """Runs synchronous rounds over the uploads and agents it is handed."""

    def run_round(self, agents: dict[int, DomainAgent], uploads: dict[int, ParamUpload]) -> FederationRound:
        """Aggregate the uploads, keyed by domain, in ascending domain order and
        broadcast a copy of the global parameters to every agent.

        Raises ValueError (and leaves every agent untouched) if no upload carries samples.
        """
        local_losses = {d: uploads[d].local_loss for d in sorted(uploads)}
        ordered = [uploads[d] for d in local_losses]
        params = aggregate(ordered)
        loss = global_loss(ordered)
        for agent in agents.values():
            agent.params = params.copy()
        return FederationRound(global_params=params, global_loss=loss, local_losses=local_losses)
