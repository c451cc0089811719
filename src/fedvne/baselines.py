"""Non-learning policy providers: a topology-resource ranking and a random floor.

The topology-resource ranking ("NodeRank-style" in all outputs) starts from
available-cpu x incident-bandwidth products and applies two passes of a
degree-normalized random-walk step, so well-connected resource-rich regions
score highest. It approximates, not reproduces, full random-walk ranking.
"""

from __future__ import annotations

import random

import numpy as np

from .policies import SubstrateSnapshot, ranked_by_score
from .substrate import MultiDomainSubstrate


def noderank_scores(substrate: MultiDomainSubstrate) -> np.ndarray:
    """Two walk passes over available-cpu x incident-available-bandwidth.

    In each pass every node spreads its score equally over its neighbors.
    """
    n = substrate.num_nodes
    if not substrate.num_links:
        return np.zeros(n)
    ends = substrate.link_ends
    # every link carries a share both ways: a -> b for all links, then b -> a,
    # so bincount adds each node's shares in the order np.add.at would
    senders = np.concatenate((ends[:, 0], ends[:, 1]))
    receivers = np.concatenate((ends[:, 1], ends[:, 0]))
    degree = np.bincount(senders, minlength=n)
    score = substrate.cpu_available * substrate.available_bw_sums()
    for _ in range(2):
        share = np.divide(score, degree, out=np.zeros(n), where=degree > 0)
        score = np.bincount(receivers, weights=share[senders], minlength=n)
    return score


def random_ranking(substrate: MultiDomainSubstrate, seed: int) -> np.ndarray:
    """One uniform score per node, drawn in node id order.

    The scores are the values ``random.Random(seed).random()`` gives in turn,
    drawn in one block: ``getrandbits(64 * n)`` holds the generator's next
    ``2 * n`` 32-bit outputs as little-endian words, in draw order, and each
    pair ``(a, b)`` gives CPython's ``random()`` value ``((a >> 5) * 2**26 +
    (b >> 6)) / 2**53``. Every step is exact in float64, so every score keeps
    its bits.
    """
    n = substrate.num_nodes
    words = np.frombuffer(random.Random(seed).getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


class NodeRankPolicy:
    """Deterministic provider ranking by the two-pass walk scores.

    The order is scored again only when the substrate snapshot changed.
    """

    def __init__(self):
        self._snapshot = SubstrateSnapshot()
        self._order: list[int] = []

    def __call__(self, substrate: MultiDomainSubstrate, vnr):
        if self._snapshot.changed(substrate):
            self._order = ranked_by_score(noderank_scores(substrate))
        return [self._order] * vnr.num_nodes


class RandomPolicy:
    """Seeded provider drawing fresh uniform scores per arrival."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def __call__(self, substrate: MultiDomainSubstrate, vnr):
        score = random_ranking(substrate, self._rng.randrange(2**32))
        return [ranked_by_score(score)] * vnr.num_nodes
