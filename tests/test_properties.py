"""Property tests: the fast search and ranking routines against plain references.

Each reference is the straightforward definition the engine and the policies
must agree with exactly: a unidirectional breadth-first search that expands
neighbors in ascending id, per-domain state extraction, and filtered rankings
built by ``sorted`` with an explicit (-score, node id) key, and a training step
that computes one softmax per trace and adds each chosen row's terms one at a
time (the hfl ranking, the state extraction and the training step, shared with
other test modules, live in ``_helpers``).
Providers return unfiltered orders, so rankings are compared through their
feasible view and through the node stage that consumes them. Providers that
keep their last ranking are compared with freshly built ones.
"""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from _helpers import (
    applied_record,
    exactly,
    feasible_view,
    forward,
    make_substrate,
    make_vnr,
    reference_extract_state,
    reference_hfl_candidates,
    reference_noderank_scores,
    reference_train_step,
)
from fedvne import baselines, policies
from fedvne.agent import DecisionTrace, DomainAgent, PolicyParams, extract_state, train_step
from fedvne.baselines import NodeRankPolicy
from fedvne.config import ExperimentConfig
from fedvne.engine import attempt_embedding, embed_nodes, min_hop_path
from fedvne.policies import HflPolicy, ranked_by_score
from fedvne.substrate import MultiDomainSubstrate
from fedvne.workload import generate_substrate

SETTINGS = settings(max_examples=150, deadline=None)


def reference_min_hop_path(substrate, src, dst, bw_demand):
    """Unidirectional BFS; the first path found to dst is the lexicographically smallest."""
    if src == dst:
        return []
    bw = substrate.bw_available
    parent = {src: (-1, -1)}
    queue = deque([src])
    while queue:
        here = queue.popleft()
        for neighbor, link_id in substrate.adjacency[here]:
            if neighbor in parent or bw[link_id] < bw_demand:
                continue
            parent[neighbor] = (here, link_id)
            if neighbor == dst:
                path = []
                node = dst
                while node != src:
                    node, link_id = parent[node]
                    path.append(link_id)
                path.reverse()
                return path
            queue.append(neighbor)
    return None


def reference_ranked_by_score(substrate, vnr, score):
    order = sorted(range(substrate.num_nodes), key=lambda i: (-score[i], i))
    avail = substrate.cpu_available
    return [[nid for nid in order if avail[nid] >= demand] for demand in vnr.node_demands]


# -- substrates --------------------------------------------------------------


def build(node_domains, edges, draw, cpu_values=(0.0, 10.0, 20.0, 30.0), bw_values=None):
    """Substrate over ``edges`` with drawn availability and small integer coordinates."""
    n = len(node_domains)
    bw_values = bw_values or (0.0, 1.0, 2.0, 3.0, 5.0)
    bw = draw(st.lists(st.sampled_from(bw_values), min_size=len(edges), max_size=len(edges)))
    cpu = draw(st.lists(st.sampled_from(cpu_values), min_size=n, max_size=n))
    coord = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda c: (float(c[0]), float(c[1])))
    coords = draw(st.lists(coord, min_size=n, max_size=n))
    capacity = [c + 10.0 for c in cpu]
    sub = MultiDomainSubstrate(
        max(node_domains) + 1, node_domains, coords, capacity, edges, [b + 1.0 for b in bw]
    )
    sub.cpu_available[:] = cpu
    sub.bw_available[:] = bw
    return sub


@st.composite
def random_substrates(draw, max_nodes=24):
    """Connected multi-domain graph: a spanning tree per domain, a chain of
    inter-domain links, then random extra links."""
    num_domains = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, max(1, max_nodes // num_domains)),
                          min_size=num_domains, max_size=num_domains))
    node_domains = [d for d, size in enumerate(sizes) for _ in range(size)]
    n = len(node_domains)
    edges = set()
    start = 0
    for size in sizes:
        for i in range(start + 1, start + size):
            edges.add((draw(st.integers(start, i - 1)), i))
        start += size
    starts = [sum(sizes[:d]) for d in range(num_domains)]
    for d in range(1, num_domains):
        a = draw(st.integers(starts[d - 1], starts[d] - 1))
        b = draw(st.integers(starts[d], starts[d] + sizes[d] - 1))
        edges.add((a, b))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    for a, b in extra:
        if a != b and (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    # relabel nodes so that the id order is unrelated to the construction order
    perm = draw(st.permutations(range(n)))
    domains = [0] * n
    for i in range(n):
        domains[perm[i]] = node_domains[i]
    relabeled = sorted((perm[a], perm[b]) for a, b in edges)
    return build(domains, relabeled, draw)


@st.composite
def grid_substrates(draw):
    """Grid with relabeled nodes: many minimum-hop paths of equal length."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    perm = draw(st.permutations(range(rows * cols)))
    edges = []
    for r in range(rows):
        for c in range(cols):
            here = perm[r * cols + c]
            if c + 1 < cols:
                edges.append((here, perm[r * cols + c + 1]))
            if r + 1 < rows:
                edges.append((here, perm[(r + 1) * cols + c]))
    return build([0] * (rows * cols), edges, draw, bw_values=(1.0, 1.0, 1.0, 2.0, 0.0))


@st.composite
def bipartite_substrates(draw):
    """Complete bipartite graph with relabeled nodes: every cross pair is one hop apart,
    every same-side pair has one two-hop path per node on the other side."""
    left, right = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    perm = draw(st.permutations(range(left + right)))
    edges = [(perm[a], perm[left + b]) for a in range(left) for b in range(right)]
    return build([0] * (left + right), edges, draw, bw_values=(1.0, 1.0, 2.0, 0.0))


@st.composite
def layered_substrates(draw):
    """A root above 4-7 layers of 3-5 relabeled nodes; each node is linked to one or
    two nodes of the layer above (so all reach the root) and to at least one of the
    layer below, and every link carries every drawn demand. Many searches end with
    dst's side growing a level of several nodes whose meeting nodes hang under
    different ones of them."""
    widths = [1] + draw(st.lists(st.integers(3, 5), min_size=4, max_size=7))
    starts = [sum(widths[:i]) for i in range(len(widths) + 1)]
    layers = [range(starts[i], starts[i + 1]) for i in range(len(widths))]
    edges = set()
    for upper, lower in zip(layers, layers[1:]):
        for b in lower:
            edges.update((a, b) for a in draw(st.lists(st.sampled_from(upper), min_size=1, max_size=2, unique=True)))
        edges.update((a, draw(st.sampled_from(lower))) for a in upper)
    n = starts[-1]
    perm = draw(st.permutations(range(n)))
    relabeled = sorted((perm[a], perm[b]) for a, b in edges)
    return build([0] * n, relabeled, draw, bw_values=(6.0,))


any_substrate = st.one_of(random_substrates(), grid_substrates(), bipartite_substrates(), layered_substrates())


# -- min-hop search ------------------------------------------------------------


@SETTINGS
@given(sub=any_substrate, data=st.data())
def test_min_hop_path_matches_unidirectional_bfs(sub, data):
    node = st.integers(0, sub.num_nodes - 1)
    demand = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0])
    queries = data.draw(st.lists(st.tuples(node, node, demand), min_size=1, max_size=12))
    for src, dst, bw_demand in queries:
        assert min_hop_path(sub, src, dst, bw_demand) == reference_min_hop_path(
            sub, src, dst, bw_demand
        )


@SETTINGS
@given(sub=any_substrate, data=st.data())
def test_min_hop_path_is_a_feasible_walk(sub, data):
    node = st.integers(0, sub.num_nodes - 1)
    src, dst = data.draw(node), data.draw(node)
    path = min_hop_path(sub, src, dst, 1.0)
    if path is None:
        return
    here = src
    for link_id in path:
        assert sub.bw_available[link_id] >= 1.0
        a, b = (int(x) for x in sub.link_ends[link_id])
        assert here in (a, b)
        here = b if here == a else a
    assert here == dst


def test_min_hop_path_matches_unidirectional_bfs_at_benchmark_scale():
    # 1000 nodes and 6000 links, each link partly drained and 40% of them emptied:
    # long searches that switch sides many times, which the hypothesis substrates
    # (a few dozen nodes) cannot give
    sub = generate_substrate(ExperimentConfig(nodes_per_domain=250, num_links=6000), 7)
    rng = random.Random(7)
    sub.bw_available[:] = [bw * rng.random() if rng.random() < 0.6 else 0.0 for bw in sub.bw_capacity]
    failed, longest = 0, 0
    for _ in range(400):
        src, dst = rng.randrange(sub.num_nodes), rng.randrange(sub.num_nodes)
        bw_demand = rng.randint(1, 50)
        path = min_hop_path(sub, src, dst, bw_demand)
        assert path == reference_min_hop_path(sub, src, dst, bw_demand), (src, dst, bw_demand)
        if path is None:
            failed += 1
        else:
            longest = max(longest, len(path))
    assert failed >= 1 and longest >= 8, (failed, longest)


@pytest.mark.parametrize("drained", [(1,), (0, 3)])
def test_min_hop_path_matches_unidirectional_bfs_at_drained_borders(drained):
    # the benchmark-scale topology with the inter-domain links of the drained domains
    # left with at most 10 bandwidth, so that many demands find such a border sealed
    sub = generate_substrate(ExperimentConfig(nodes_per_domain=250, num_links=6000), 13)
    rng = random.Random(13)
    domain = sub.node_domain.tolist()
    borders = {d: [] for d in range(sub.num_domains)}
    for lid, (a, b) in enumerate(sub.link_ends.tolist()):
        if domain[a] != domain[b]:
            borders[domain[a]].append(lid)
            borders[domain[b]].append(lid)
    sub.bw_available[:] = [bw * rng.random() for bw in sub.bw_capacity]
    for d in drained:
        for lid in borders[d]:
            sub.bw_available[lid] = rng.uniform(0.0, 10.0)
    sealed = crossed = 0
    for _ in range(300):
        src, dst = rng.randrange(sub.num_nodes), rng.randrange(sub.num_nodes)
        bw_demand = rng.randint(1, 20)
        path = min_hop_path(sub, src, dst, bw_demand)
        assert path == reference_min_hop_path(sub, src, dst, bw_demand), (src, dst, bw_demand)
        if domain[src] != domain[dst]:
            if any(all(sub.bw_available[lid] < bw_demand for lid in borders[domain[x]]) for x in (src, dst)):
                sealed += 1
            elif path is not None:
                crossed += 1
    assert sealed >= 20 and crossed >= 20, (sealed, crossed)


# -- ranking ---------------------------------------------------------------------


@SETTINGS
@given(sub=random_substrates(), data=st.data())
def test_ranked_by_score_matches_sorted_definition(sub, data):
    n = sub.num_nodes
    score = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    demands = data.draw(st.lists(st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0, 40.0]),
                                 min_size=1, max_size=6))
    vnr = make_vnr(node_demands=demands)
    ranked = [ranked_by_score(score)] * vnr.num_nodes
    assert feasible_view(sub, vnr, ranked) == reference_ranked_by_score(sub, vnr, score)


@SETTINGS
@given(sub=random_substrates(), data=st.data())
def test_hfl_candidates_match_per_demand_lists(sub, data):
    weight = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 2.0])
    agents = {
        d: DomainAgent(d, PolicyParams(np.array(data.draw(st.lists(weight, min_size=3, max_size=3))), 0.0))
        for d in range(sub.num_domains)
    }
    demands = data.draw(st.lists(st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0, 40.0]),
                                 min_size=1, max_size=6))
    vnr = make_vnr(node_demands=demands)
    candidates = HflPolicy(agents)(sub, vnr)
    assert feasible_view(sub, vnr, candidates) == reference_hfl_candidates(agents, sub, vnr)


@SETTINGS
@given(sub=any_substrate, data=st.data())
def test_noderank_scores_match_add_at_reference(sub, data):
    fraction = st.sampled_from([0.0, 0.1, 0.37, 0.5, 1.0])
    sub.cpu_available[:] = sub.cpu_capacity * data.draw(
        st.lists(fraction, min_size=sub.num_nodes, max_size=sub.num_nodes))
    sub.bw_available[:] = sub.bw_capacity * data.draw(
        st.lists(fraction, min_size=sub.num_links, max_size=sub.num_links))
    scores = baselines.noderank_scores(sub)
    assert scores.dtype == np.float64
    assert scores.tobytes() == reference_noderank_scores(sub).tobytes()


@pytest.mark.parametrize("overrides", [{}, {"nodes_per_domain": 250, "num_links": 6000}])
def test_noderank_scores_match_add_at_reference_at_benchmark_scale(overrides):
    # the 100-node and the 1000-node benchmark topologies, drained at random:
    # every node sums many shares, so a change of summation order would show
    sub = generate_substrate(ExperimentConfig(**overrides), 11)
    rng = random.Random(11)
    for _ in range(40):
        sub.cpu_available[:] = [cpu * rng.random() for cpu in sub.cpu_capacity]
        sub.bw_available[:] = [bw * rng.random() if rng.random() < 0.8 else 0.0 for bw in sub.bw_capacity]
        assert baselines.noderank_scores(sub).tobytes() == reference_noderank_scores(sub).tobytes()


# -- all-domain state pass and unfiltered orders ----------------------------------

# non-dyadic weights and nonzero biases, so that every rounding step shows
weights = st.one_of(st.sampled_from([0.0, 0.37, -1.3, 2.0]), st.floats(-3.0, 3.0))
biases = st.one_of(st.sampled_from([0.25, -0.7, 1.1]), st.floats(-2.0, 2.0))


def draw_agents(data, num_domains):
    return {
        d: DomainAgent(
            d, PolicyParams(np.array(data.draw(st.lists(weights, min_size=3, max_size=3))),
                            data.draw(biases))
        )
        for d in range(num_domains)
    }


def node_stage(sub, vnr, candidates):
    """Whether the stage failed, the node map it filled (partial on failure) and
    the resources left."""
    copy = sub.copy()
    node_map = {}
    failed = embed_nodes(copy, vnr, candidates, node_map) is None
    return failed, node_map, copy.resource_vector().tobytes()


@SETTINGS
@given(sub=random_substrates(), data=st.data())
def test_extract_state_matches_per_domain_reference(sub, data):
    agents = draw_agents(data, sub.num_domains)
    states = extract_state(sub)
    assert len(states) == sub.num_domains
    for d, state in enumerate(states):
        ids, ref = reference_extract_state(sub, d)
        assert sub.row_in_domain[ids].tolist() == list(range(len(ids)))
        assert state.tobytes() == ref.tobytes()
        params = agents[d].params
        assert forward(params, state).tobytes() == forward(params, ref).tobytes()


@SETTINGS
@given(sub=random_substrates(), data=st.data())
def test_node_stage_matches_filtered_reference(sub, data):
    demand = st.one_of(st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0, 40.0]), st.floats(0.0, 40.0))
    vnr = make_vnr(node_demands=data.draw(st.lists(demand, min_size=1, max_size=6)))
    agents = draw_agents(data, sub.num_domains)
    assert node_stage(sub, vnr, HflPolicy(agents)(sub, vnr)) == node_stage(
        sub, vnr, reference_hfl_candidates(agents, sub, vnr)
    )
    n = sub.num_nodes
    score = np.array(data.draw(st.lists(st.sampled_from([-1.3, 0.0, 0.37, 2.0]),
                                        min_size=n, max_size=n)))
    assert node_stage(sub, vnr, [ranked_by_score(score)] * vnr.num_nodes) == node_stage(
        sub, vnr, reference_ranked_by_score(sub, vnr, score)
    )


@SETTINGS
@given(sub=random_substrates(), data=st.data())
def test_attempt_embedding_gives_back_exactly(sub, data):
    """A rejected attempt leaves the resource bytes as they were, an accepted one
    gets them back from release(record, vnr), and a second release is refused."""
    num_nodes = data.draw(st.integers(1, 5))
    node_demands = data.draw(st.lists(st.integers(0, 20), min_size=num_nodes, max_size=num_nodes))
    pairs = [(a, b) for a in range(num_nodes) for b in range(a + 1, num_nodes)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    # few distinct demands: paths compete for shared links, so the link stage
    # also fails after it has placed some paths
    link_demands = [(a, b, data.draw(st.sampled_from([2, 3]))) for a, b in chosen]
    vnr = make_vnr(node_demands=node_demands, link_demands=link_demands)
    ranked = [data.draw(st.permutations(range(sub.num_nodes))) for _ in range(num_nodes)]
    before = sub.resource_vector().tobytes()
    record = attempt_embedding(sub, vnr, ranked, {})
    assert record.outstanding == record.accepted
    if record.accepted:
        sub.release(record, vnr)
    assert sub.resource_vector().tobytes() == before
    with pytest.raises(ValueError, match=exactly(f"record for vnr {vnr.vnr_id} holds no resources")):
        sub.release(record, vnr)


# -- rankings kept across calls ------------------------------------------------

step_kinds = st.sampled_from(
    ["allocate", "rollback", "release", "replace", "kernel", "bias", "same", "copy"]
)


@settings(max_examples=100, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(sub=random_substrates(), data=st.data())
def test_kept_rankings_match_fresh_providers(sub, data):
    """Allocations, rollbacks, releases, parameter changes and fresh copies of the
    substrate, each followed by one call of a long-lived and of a fresh provider."""
    agents = draw_agents(data, sub.num_domains)
    hfl, noderank = HflPolicy(agents), NodeRankPolicy()
    work = sub.copy()
    held = []
    demand = st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0])
    amount = st.sampled_from([0.5, 1.0, 3.0, 10.0])
    for kind in data.draw(st.lists(step_kinds, min_size=1, max_size=10)):
        if kind in ("allocate", "rollback"):
            if sub.num_links and data.draw(st.booleans()):
                link = data.draw(st.integers(0, sub.num_links - 1))
                take = min(data.draw(amount), float(work.bw_available[link]))
                work.allocate_path([link], take)
                vnr = make_vnr(node_demands=(0.0, 0.0), link_demands=((0, 1, take),))
                held.append((applied_record(vnr, {}, {(0, 1): [link]}), vnr))
            else:
                node = data.draw(st.integers(0, sub.num_nodes - 1))
                take = min(data.draw(amount), float(work.cpu_available[node]))
                work.allocate_node(node, take)
                vnr = make_vnr(node_demands=(take,))
                held.append((applied_record(vnr, {0: node}, {}), vnr))
        if kind in ("rollback", "release") and held:
            last = len(held) - 1
            work.release(*held.pop(last if kind == "rollback" else data.draw(st.integers(0, last))))
        d = data.draw(st.integers(0, sub.num_domains - 1))
        if kind == "replace":
            agents[d].params = draw_agents(data, 1)[0].params
        elif kind == "kernel":
            agents[d].params.kernel[data.draw(st.integers(0, 2))] = data.draw(weights)
        elif kind == "bias":
            agents[d].params.bias = data.draw(biases)
        elif kind == "same":
            agents[d].params = agents[d].params.copy()
        elif kind == "copy":
            work, held = sub.copy(), []
        vnr = make_vnr(node_demands=data.draw(st.lists(demand, min_size=1, max_size=4)))
        fresh = HflPolicy(agents)
        assert [list(o) for o in hfl(work, vnr)] == [list(o) for o in fresh(work, vnr)]
        # a bias moves the probabilities by rounding only, so compare them bytewise
        assert hfl._prob.tobytes() == fresh._prob.tobytes()
        assert noderank(work, vnr) == NodeRankPolicy()(work, vnr)
        for state, ref in zip(hfl.states, extract_state(work), strict=True):
            assert state.tobytes() == ref.tobytes()


def test_rankings_are_redone_only_when_the_snapshot_or_the_parameters_change(monkeypatch):
    calls = {"extract_state": 0, "noderank_scores": 0}

    def counting(name, fn):
        def counted(substrate):
            calls[name] += 1
            return fn(substrate)

        return counted

    monkeypatch.setattr(policies, "extract_state", counting("extract_state", extract_state))
    monkeypatch.setattr(
        baselines, "noderank_scores", counting("noderank_scores", baselines.noderank_scores)
    )
    sub = make_substrate([0, 0, 0], [30.0, 20.0, 10.0], [(0, 1, 20.0), (1, 2, 20.0)])
    agents = {0: DomainAgent(0, PolicyParams(np.array([1.0, 0.0, 0.0]), 0.0))}
    hfl, noderank = HflPolicy(agents), NodeRankPolicy()
    vnr = make_vnr(node_demands=(5.0, 5.0))

    first = [list(o) for o in hfl(sub, vnr)], noderank(sub, vnr)
    assert ([list(o) for o in hfl(sub, vnr)], noderank(sub, vnr)) == first
    assert calls == {"extract_state": 1, "noderank_scores": 1}

    for available in (sub.cpu_available, sub.bw_available):
        available.view(np.uint8)[0] ^= 1  # the lowest mantissa bit of the first value
        hfl(sub, vnr), noderank(sub, vnr)
    assert calls == {"extract_state": 3, "noderank_scores": 3}

    # most cpu first, then, in the same PolicyParams object, least cpu first
    assert list(hfl(sub, vnr)[0]) == [0, 1, 2]
    agents[0].params.kernel[0] = -1.0
    assert list(hfl(sub, vnr)[0]) == [2, 1, 0]
    assert calls["extract_state"] == 4

    # the same availability bytes over another topology
    other = make_substrate([0, 0, 0], [30.0, 20.0, 10.0], [(0, 2, 20.0), (2, 1, 20.0)])
    other.cpu_available[:], other.bw_available[:] = sub.cpu_available, sub.bw_available
    assert noderank(other, vnr) == NodeRankPolicy()(other, vnr) != noderank(sub, vnr)
    hfl(other, vnr)
    assert hfl.states[0].tobytes() == extract_state(other)[0].tobytes()


def test_hfl_ranks_again_over_equal_links_in_other_domains():
    """Equal links do not mean equal domains or coordinates: the topology is
    told apart by identity, so a substrate with the same links, capacities and
    availability but another domain layout gets a fresh ranking."""
    links = [(0, 1, 20.0), (1, 2, 20.0), (2, 3, 20.0), (0, 3, 20.0)]
    cpu = [40.0, 30.0, 20.0, 10.0]
    agents = {d: DomainAgent(d, PolicyParams(np.array([1.0, 0.0, 0.0]), 0.0)) for d in (0, 1)}
    vnr = make_vnr(node_demands=(5.0, 5.0))
    hfl = HflPolicy(agents)
    hfl(make_substrate([0, 0, 1, 1], cpu, links), vnr)
    other = make_substrate([0, 1, 1, 0], cpu, links)
    assert [list(o) for o in hfl(other, vnr)] == [list(o) for o in HflPolicy(agents)(other, vnr)]


# -- training step -------------------------------------------------------------


@st.composite
def trace_batches(draw):
    """(params, traces, learning rate): traces over 1-4 states of mixed row counts, often
    sharing one state object, some without rows, with rewards that may all be equal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.sampled_from([1, 2, 9, 13, 25, 40, 77]), min_size=1, max_size=4))
    grid = [draw(st.booleans()) for _ in sizes]  # many exact ties, or none
    states = [rng.choice([0.0, 0.5, 1.0], size=(n, 3)) if g else rng.random((n, 3)) for n, g in zip(sizes, grid)]
    rewards = st.sampled_from([0.0, 0.5, 1.0, 1.75])
    same_reward = draw(st.one_of(st.none(), rewards))
    traces = []
    for _ in range(draw(st.integers(1, 12))):
        state = states[draw(st.integers(0, len(states) - 1))]
        rows = draw(st.lists(st.integers(0, len(state) - 1), max_size=6))
        traces.append(DecisionTrace(state, rows, draw(rewards) if same_reward is None else same_reward))
    params = PolicyParams(np.array(draw(st.lists(weights, min_size=3, max_size=3))), draw(biases))
    return params, traces, draw(st.sampled_from([0.01, 0.5]))


ONE_ROW = np.array([[0.25, 0.5, 1.0]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(batch=trace_batches())
# a one-row state has log-probability 0.0, so its one chosen row at a positive
# advantage makes the batch's only loss term -0.0; the leading 0.0 turns it into 0.0
@example(batch=(PolicyParams(np.array([0.37, -1.3, 2.0]), 0.25),
                [DecisionTrace(ONE_ROW, [0], 1.0), DecisionTrace(ONE_ROW, [], 0.0)], 0.5))
def test_train_step_matches_per_trace_reference(batch):
    params, traces, learning_rate = batch
    updated, loss = train_step(params, traces, learning_rate)
    expected, expected_loss = reference_train_step(params, traces, learning_rate)
    assert updated.kernel.tobytes() == expected.kernel.tobytes()
    assert np.float64(updated.bias).tobytes() == np.float64(expected.bias).tobytes()
    assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
