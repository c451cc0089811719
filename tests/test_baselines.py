import numpy as np
import pytest

from _helpers import make_substrate, make_vnr, reference_random_ranking
from fedvne.baselines import NodeRankPolicy, RandomPolicy, noderank_scores, random_ranking
from fedvne.engine import embed_nodes


def scores_array(substrate):
    return noderank_scores(substrate)


def test_symmetric_pair_scores_equal():
    sub = make_substrate([0, 0], [30.0, 30.0], [(0, 1, 20.0)])
    scores = scores_array(sub)
    assert scores[0] == scores[1]


def test_single_unlinked_node_scores_zero():
    sub = make_substrate([0], [30.0], [])
    assert scores_array(sub).tolist() == [0.0]


def test_star_center_outranks_leaves():
    # center 0 with four leaves, cpu 10 everywhere, bandwidth 5 per link.
    # base score: center 10*20=200, leaf 10*5=50. One spreading pass sends each
    # leaf's 50 to the center (total 200) and a quarter of the center's 200 to
    # each leaf (50); the second pass repeats it, so the hand result is stable.
    sub = make_substrate(
        [0] * 5,
        [10.0] * 5,
        [(0, 1, 5.0), (0, 2, 5.0), (0, 3, 5.0), (0, 4, 5.0)],
    )
    scores = scores_array(sub)
    assert scores[0] == 200.0
    assert np.allclose(scores[1:], 50.0)
    assert scores[0] > scores[1]


def test_scores_follow_availability():
    sub = make_substrate([0, 0, 0], [30.0] * 3, [(0, 1, 20.0), (1, 2, 20.0)])
    before = scores_array(sub)
    sub.allocate_node(2, 25.0)
    after = scores_array(sub)
    assert after[2] < before[2]


def test_permutation_equivariance():
    # relabel nodes of an asymmetric graph; scores must follow the relabeling
    domains = [0, 0, 1, 1]
    cpu = [10.0, 20.0, 30.0, 40.0]
    links = [(0, 1, 5.0), (1, 2, 7.0), (2, 3, 9.0), (0, 2, 11.0)]
    sub = make_substrate(domains, cpu, links, num_domains=2)
    perm = [2, 0, 3, 1]  # original i becomes perm[i]
    inverse = {perm[i]: i for i in range(4)}
    sub_permuted = make_substrate(
        [domains[inverse[j]] for j in range(4)],
        [cpu[inverse[j]] for j in range(4)],
        [(perm[a], perm[b], w) for a, b, w in links],
        num_domains=2,
    )
    base = scores_array(sub)
    permuted = scores_array(sub_permuted)
    for i in range(4):
        assert permuted[perm[i]] == base[i]


def test_random_ranking_determinism():
    sub = make_substrate([0, 0], [30.0, 30.0], [(0, 1, 20.0)])
    first = random_ranking(sub, 99)
    second = random_ranking(sub, 99)
    assert first.tobytes() == second.tobytes()
    different = random_ranking(sub, 100)
    assert different.tobytes() != first.tobytes()
    single = random_ranking(make_substrate([0], [30.0], []), 5)
    assert len(single) == 1


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1000, 2500])
def test_random_ranking_gives_the_per_value_draws_bits(n):
    sub = make_substrate([0] * n, [30.0] * n, [(i, i + 1, 20.0) for i in range(n - 1)])
    for seed in (0, 1, 99, 2**32 - 1):
        score = random_ranking(sub, seed)
        assert score.tobytes() == np.array(reference_random_ranking(sub, seed)).tobytes()


def test_policies_respect_provider_contract():
    sub = make_substrate([0, 0, 0], [30.0, 5.0, 30.0], [(0, 1, 20.0), (1, 2, 20.0)])
    vnr = make_vnr(node_demands=(10.0, 10.0))
    for policy in (NodeRankPolicy(), RandomPolicy(3)):
        candidates = policy(sub, vnr)
        assert len(candidates) == 2
        node_map = embed_nodes(sub.copy(), vnr, candidates, {})
        assert 1 not in node_map.values()  # node 1 cannot host the demand
        assert set(node_map.values()) == {0, 2}


def test_noderank_policy_is_pure_and_deterministic():
    sub = make_substrate([0, 0, 0], [30.0] * 3, [(0, 1, 20.0), (1, 2, 20.0)])
    vnr = make_vnr(node_demands=(10.0,))
    policy = NodeRankPolicy()
    before = sub.resource_vector()
    assert policy(sub, vnr) == policy(sub, vnr)
    assert sub.resource_vector().tobytes() == before.tobytes()
