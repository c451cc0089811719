import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import applied_record, exactly, link_kind, make_substrate, make_vnr, reference_union_find
from fedvne.agent import extract_state
from fedvne.engine import min_hop_path
from fedvne.substrate import MultiDomainSubstrate, union_find


def two_node_substrate(cpu=(80.0, 80.0), bw=50.0):
    return make_substrate([0, 0], list(cpu), [(0, 1, bw)])


def test_allocate_node_decrements_available():
    sub = two_node_substrate()
    sub.allocate_node(0, 30.0)
    assert sub.cpu_available[0] == 50.0
    assert sub.cpu_available[1] == 80.0


def test_allocate_node_boundary_to_zero():
    sub = two_node_substrate(cpu=(30.0, 80.0))
    sub.allocate_node(0, 30.0)
    assert sub.cpu_available[0] == 0.0


def test_allocate_node_insufficient():
    sub = two_node_substrate(cpu=(10.0, 80.0))
    with pytest.raises(ValueError, match=exactly("node 0: cpu demand 30.0 exceeds available 10.0")):
        sub.allocate_node(0, 30.0)
    assert sub.cpu_available[0] == 10.0


def test_allocate_path_two_hops():
    sub = make_substrate([0, 0, 0], [50.0] * 3, [(0, 1, 50.0), (1, 2, 50.0)])
    sub.allocate_path([0, 1], 20.0)
    assert list(sub.bw_available) == [30.0, 30.0]


def test_allocate_path_empty_is_identity():
    sub = two_node_substrate()
    before = sub.resource_vector()
    sub.allocate_path([], 100.0)
    assert np.array_equal(sub.resource_vector(), before)


def test_allocate_path_all_or_nothing():
    sub = make_substrate([0, 0, 0], [50.0] * 3, [(0, 1, 50.0), (1, 2, 10.0)])
    before = sub.resource_vector()
    with pytest.raises(ValueError, match=exactly("link 1: bw demand 20.0 exceeds available 10.0")):
        sub.allocate_path([0, 1], 20.0)
    assert sub.resource_vector().tobytes() == before.tobytes()


def test_release_restores_exactly():
    sub = make_substrate([0, 0], [80.0, 60.0], [(0, 1, 40.0)])
    before = sub.resource_vector()
    vnr = make_vnr(node_demands=(30.0, 20.0), link_demands=((0, 1, 15.0),))
    sub.allocate_node(0, 30.0)
    sub.allocate_node(1, 20.0)
    sub.allocate_path([0], 15.0)
    record = applied_record(vnr, {0: 0, 1: 1}, {(0, 1): [0]})
    sub.release(record, vnr)
    assert sub.resource_vector().tobytes() == before.tobytes()


def test_double_release_rejected():
    sub = make_substrate([0, 0], [80.0, 60.0], [(0, 1, 40.0)])
    vnr = make_vnr(node_demands=(30.0,))
    sub.allocate_node(0, 30.0)
    record = applied_record(vnr, {0: 0}, {})
    sub.release(record, vnr)
    with pytest.raises(ValueError, match=exactly("record for vnr 0 holds no resources")):
        sub.release(record, vnr)


def test_release_of_never_applied_record_rejected():
    sub = two_node_substrate()
    vnr = make_vnr(node_demands=(30.0,))
    record = applied_record(vnr, {0: 0}, {})
    record.outstanding = False  # never actually applied
    with pytest.raises(ValueError, match=exactly("record for vnr 0 holds no resources")):
        sub.release(record, vnr)


def test_release_past_capacity_rejected():
    # the records claim resources that were never allocated on this substrate
    sub = two_node_substrate()
    vnr = make_vnr(node_demands=(30.0,))
    with pytest.raises(ValueError, match=exactly("freeing 30.0 cpu on node 0 exceeds capacity")):
        sub.release(applied_record(vnr, {0: 0}, {}), vnr)
    vnr = make_vnr(node_demands=(10.0, 10.0), link_demands=((0, 1, 15.0),))
    with pytest.raises(ValueError, match=exactly("freeing 15.0 bw on link 0 exceeds capacity")):
        sub.release(applied_record(vnr, {}, {(0, 1): [0]}), vnr)


def test_interleaved_allocations_match_replay_ledger():
    # allocate A, allocate B, release A: only B's consumption outstanding
    sub = make_substrate([0, 0, 0], [100.0] * 3, [(0, 1, 100.0), (1, 2, 100.0)])
    vnr_a = make_vnr(0, node_demands=(10.0, 20.0), link_demands=((0, 1, 5.0),))
    vnr_b = make_vnr(1, node_demands=(7.0,), link_demands=())
    sub.allocate_node(0, 10.0)
    sub.allocate_node(1, 20.0)
    sub.allocate_path([0], 5.0)
    rec_a = applied_record(vnr_a, {0: 0, 1: 1}, {(0, 1): [0]})
    sub.allocate_node(2, 7.0)
    rec_b = applied_record(vnr_b, {0: 2}, {})
    sub.release(rec_a, vnr_a)

    # oracle: replay only the outstanding allocation on fresh arrays
    cpu = np.array([100.0] * 3)
    bw = np.array([100.0, 100.0])
    cpu[2] -= 7.0
    assert np.array_equal(sub.cpu_available, cpu)
    assert np.array_equal(sub.bw_available, bw)
    sub.release(rec_b, vnr_b)
    assert np.array_equal(sub.resource_vector(), np.array([100.0] * 5))


def test_fuzz_conservation_and_bounds():
    rng = random.Random(7)
    sub = make_substrate(
        [0, 0, 1, 1],
        [40.0, 40.0, 40.0, 40.0],
        [(0, 1, 30.0), (2, 3, 30.0), (1, 2, 30.0)],
        num_domains=2,
    )
    outstanding = []
    for step in range(400):
        if outstanding and rng.random() < 0.4:
            sub.release(*outstanding.pop(rng.randrange(len(outstanding))))
        else:
            node = rng.randrange(4)
            demand = float(rng.randint(1, 15))
            link = rng.randrange(3)
            bw_demand = float(rng.randint(1, 10))
            vnr = make_vnr(step, node_demands=(demand,), link_demands=((0, 1, bw_demand),))
            try:
                sub.allocate_node(node, demand)
            except ValueError as exc:
                assert str(exc).startswith(f"node {node}: cpu demand {demand} exceeds available ")
                continue
            record = applied_record(vnr, {0: node}, {})
            try:
                sub.allocate_path([link], bw_demand)
            except ValueError as exc:
                assert str(exc).startswith(f"link {link}: bw demand {bw_demand} exceeds available ")
                sub.release(record, vnr)  # roll back the node alone
                continue
            record.link_paths[(0, 1)] = [link]
            outstanding.append((record, vnr))
        assert np.all(sub.cpu_available >= 0) and np.all(sub.bw_available >= 0)
        assert np.all(sub.cpu_available <= sub.cpu_capacity)
        assert np.all(sub.bw_available <= sub.bw_capacity)
        # ledger identity: capacity minus outstanding demand equals availability
        cpu = sub.cpu_capacity.copy()
        bw = sub.bw_capacity.copy()
        for rec, req in outstanding:
            for v, node_id in rec.node_map.items():
                cpu[node_id] -= req.node_demands[v]
            for link_id in rec.link_paths[(0, 1)]:
                bw[link_id] -= req.link_demands[0][2]
        assert np.array_equal(cpu, sub.cpu_available)
        assert np.array_equal(bw, sub.bw_available)


def test_structural_validation():
    with pytest.raises(ValueError, match=exactly("self-loop link at node 0")):
        make_substrate([0, 0], [10.0, 10.0], [(0, 0, 5.0)])
    with pytest.raises(ValueError, match=exactly("duplicate link between nodes (0, 1)")):
        make_substrate([0, 0], [10.0, 10.0], [(0, 1, 5.0), (1, 0, 5.0)])
    with pytest.raises(ValueError, match=exactly("substrate graph is not connected")):
        make_substrate([0, 0, 0], [10.0] * 3, [(0, 1, 5.0)])
    with pytest.raises(ValueError, match=exactly("domain 1 is not connected by intra-domain links")):
        # domain 1 internally disconnected even though the graph is connected
        make_substrate([0, 1, 1], [10.0] * 3, [(0, 1, 5.0), (0, 2, 5.0)], num_domains=2)
    with pytest.raises(ValueError, match=exactly("substrate needs at least one domain")):
        make_substrate([0], [10.0], [], num_domains=0)
    with pytest.raises(ValueError, match=exactly("substrate needs at least one node")):
        make_substrate([], [], [], num_domains=1)
    with pytest.raises(ValueError, match=exactly("cpu capacity array does not match node count")):
        MultiDomainSubstrate(1, [0, 0], [(0.0, 0.0), (1.0, 0.0)], [10.0], [(0, 1)], [5.0])
    with pytest.raises(ValueError, match=exactly("link endpoint array does not match link count")):
        MultiDomainSubstrate(1, [0, 0], [(0.0, 0.0), (1.0, 0.0)], [10.0, 10.0], [(0, 1)], [5.0, 5.0])
    with pytest.raises(ValueError, match=exactly("node domain id out of range")):
        make_substrate([0, 2], [10.0, 10.0], [(0, 1, 5.0)], num_domains=2)
    with pytest.raises(ValueError, match=exactly("capacities must be non-negative")):
        make_substrate([0, 0], [10.0, -1.0], [(0, 1, 5.0)])
    with pytest.raises(ValueError, match=exactly("capacities must be non-negative")):
        make_substrate([0, 0], [10.0, 10.0], [(0, 1, -5.0)])
    with pytest.raises(ValueError, match=exactly("link endpoint (0, 2) out of range")):
        make_substrate([0, 0], [10.0, 10.0], [(0, 2, 5.0)])
    # checked on the inputs as given: no int64 overflow, and the range before the self-loop
    with pytest.raises(ValueError, match=exactly("node domain id out of range")):
        make_substrate([0, 99999999999999999999], [10.0, 10.0], [(0, 1, 5.0)], num_domains=2)
    with pytest.raises(ValueError, match=exactly("link endpoint (0, 99999999999999999999) out of range")):
        make_substrate([0, 0], [10.0, 10.0], [(0, 99999999999999999999, 5.0)])
    with pytest.raises(ValueError, match=exactly("link endpoint (7, 7) out of range")):
        make_substrate([0, 0], [10.0, 10.0], [(0, 1, 5.0), (7, 7, 5.0)])


@pytest.mark.parametrize(
    "node_domains, cpu, links, element",
    [
        ([0, 1], [10.0, 10.0], [(0, 1, 5.0)], 1),  # domain 1 of 1 declared
        ([0, 0], [10.0, -1.0], [(0, 1, 5.0)], 1),
        ([0, 0, 0], [10.0] * 3, [(0, 1, 5.0), (1, 1, 5.0)], 4),
        ([0, 0, 0], [10.0] * 3, [(0, 1, 5.0), (1, 2, 5.0), (2, 1, 5.0)], 5),
        ([0, 0, 0], [10.0] * 3, [(0, 1, 5.0), (1, 2, -5.0)], 4),
        ([0, 0, 0], [10.0] * 3, [(0, 1, 5.0)], None),  # not connected: the whole substrate
    ],
)
def test_faults_name_their_element(node_domains, cpu, links, element):
    # nodes are elements 0..n-1, link k is element n + k
    with pytest.raises(ValueError) as info:
        make_substrate(node_domains, cpu, links, num_domains=1)
    assert info.value.element == element


def test_domain_without_nodes_rejected():
    # the two nodes use domains 0 and 1 of the three declared
    with pytest.raises(ValueError, match="domain 2 has no nodes"):
        make_substrate([0, 1], [10.0] * 2, [(0, 1, 5.0)], num_domains=3)


def test_link_kind_derivation():
    sub = make_substrate([0, 0, 1], [10.0] * 3, [(0, 1, 5.0), (1, 2, 5.0)], num_domains=2)
    assert link_kind(sub, 0) == "intra"
    assert link_kind(sub, 1) == "inter"


def test_row_in_domain_counts_each_domain_in_node_order():
    # domain 0 holds nodes 1, 3, 4 and domain 1 nodes 0, 2
    links = [(1, 3, 5.0), (3, 4, 5.0), (0, 2, 5.0), (0, 1, 5.0)]
    sub = make_substrate([1, 0, 1, 0, 0], [10.0, 20.0, 30.0, 40.0, 50.0], links)
    assert sub.row_in_domain.dtype == np.int64
    assert sub.row_in_domain.tolist() == [0, 0, 1, 1, 2]
    states = extract_state(sub)
    # rows follow node ids: cpu 20, 40, 50 in domain 0 and 10, 30 in domain 1
    assert states[0][:, 0].tolist() == [0.0, 2 / 3, 1.0]
    assert states[1][:, 0].tolist() == [0.0, 1.0]


def test_copy_isolates_availability():
    # a triangle: link 2 is the one single-hop path from node 0 to node 2
    sub = make_substrate([0, 0, 0], [80.0] * 3, [(0, 1, 50.0), (1, 2, 50.0), (0, 2, 50.0)])
    before = sub.resource_vector().tobytes()
    clone = sub.copy()
    vnr = make_vnr(node_demands=(10.0, 5.0), link_demands=[(0, 1, 20.0)])
    clone.allocate_node(0, 10.0)
    clone.allocate_node(1, 5.0)
    clone.allocate_path([0], 20.0)
    clone.allocate_path([2], 50.0)
    assert clone.resource_vector().tolist() == [70.0, 75.0, 80.0, 30.0, 50.0, 0.0]
    assert sub.resource_vector().tobytes() == before
    # the link saturated on the clone still carries the original's search
    assert min_hop_path(clone, 0, 2, 10.0) == [0, 1]
    assert min_hop_path(sub, 0, 2, 10.0) == [2]
    clone.release(applied_record(vnr, {0: 0, 1: 1}, {(0, 1): [0]}), vnr)
    assert clone.resource_vector().tolist() == [80.0, 80.0, 80.0, 50.0, 50.0, 0.0]
    assert sub.resource_vector().tobytes() == before


def test_copy_shares_the_static_rank_pieces():
    # domain 0 holds nodes 1, 4 and domain 1 nodes 0, 2, 3: in the 2 x 3 padded
    # layout, domain 0 takes cells 0-1 and domain 1 cells 3-5
    links = [(1, 4, 5.0), (0, 2, 5.0), (2, 3, 5.0), (0, 1, 5.0)]
    coords = [(0.0, 0.0), (3.0, 4.0), (1.0, 0.0), (1.0, 2.0), (0.0, 0.0)]
    sub = make_substrate([1, 0, 1, 1, 0], [10.0, 20.0, 30.0, 40.0, 50.0], links, coords=coords)
    assert sub.widest_domain == 3
    assert sub.padded_cells.tolist() == [0, 1, 3, 4, 5]
    # half lengths: 2.5 + 2.5 and 2.5 in domain 0; 2.5 + 0.5, 0.5 + 1 and 1 in domain 1
    assert sub.incident_distance.tolist() == [3.0, 5.0, 1.5, 1.0, 2.5]
    static = sub.incident_distance.tobytes(), sub.padded_cells.tobytes()
    # the states' distance column in domain order: nodes 1, 4, then 0, 2, 3
    distance = [1.0, 0.0, 1.0, 0.25, 0.0]
    assert [x for state in extract_state(sub) for x in state[:, 2].tolist()] == distance
    clone = sub.copy()
    assert clone.incident_distance is sub.incident_distance
    assert clone.padded_cells is sub.padded_cells
    vnr = make_vnr(node_demands=(10.0, 5.0), link_demands=[(0, 1, 2.0)])
    for target in (clone, sub):
        target.allocate_node(1, 10.0)
        target.allocate_node(2, 5.0)
        target.allocate_path([3, 1], 2.0)
        assert [x for state in extract_state(target) for x in state[:, 2].tolist()] == distance
        target.release(applied_record(vnr, {0: 1, 1: 2}, {(0, 1): [3, 1]}), vnr)
        assert (sub.incident_distance.tobytes(), sub.padded_cells.tobytes()) == static


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=20))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph=edge_lists())
def test_union_find_roots_match_the_reference(graph):
    # the generator orders components by root id, so the roots themselves must not move
    n, edges = graph
    find = reference_union_find(n, edges)
    assert union_find(n, edges) == [find(x) for x in range(n)]
