import copy
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import exactly, indicator_acceptance, make_substrate, make_vnr
from fedvne import cli, engine, workload
from fedvne.baselines import NodeRankPolicy
from fedvne.config import ExperimentConfig
from fedvne.engine import (
    attempt_embedding,
    embed_links,
    embed_nodes,
    min_hop_path,
    read_decision_log,
    replay_validate,
    run_simulation,
    write_decision_log,
)


def all_simple_paths(substrate, src, dst, bw_demand):
    """Exhaustive simple-path enumeration used as the minimum-hop oracle."""
    paths = []

    def walk(node, seen, links):
        if node == dst:
            paths.append(list(links))
            return
        for neighbor, link_id in substrate.adjacency[node]:
            if neighbor in seen or substrate.bw_available[link_id] < bw_demand:
                continue
            seen.add(neighbor)
            links.append(link_id)
            walk(neighbor, seen, links)
            links.pop()
            seen.remove(neighbor)

    walk(src, {src}, [])
    return paths


def test_min_hop_adjacent():
    sub = make_substrate([0, 0, 0], [10.0] * 3, [(0, 1, 10.0), (1, 2, 10.0)])
    assert min_hop_path(sub, 0, 1, 5.0) == [0]


def test_min_hop_respects_bandwidth_filter():
    sub = make_substrate([0, 0], [10.0] * 2, [(0, 1, 10.0)])
    assert min_hop_path(sub, 0, 1, 50.0) is None


def test_min_hop_prefers_fewer_hops():
    # 5 nodes, a 2-hop route and a 3-hop route between 0 and 4
    sub = make_substrate(
        [0] * 5,
        [10.0] * 5,
        [(0, 1, 10.0), (1, 4, 10.0), (0, 2, 10.0), (2, 3, 10.0), (3, 4, 10.0)],
    )
    path = min_hop_path(sub, 0, 4, 5.0)
    oracle = min(len(p) for p in all_simple_paths(sub, 0, 4, 5.0))
    assert len(path) == oracle == 2


def test_min_hop_lexicographic_tie_break():
    # two 2-hop routes 0-1-3 and 0-2-3; the node sequence through 1 is smaller
    sub = make_substrate(
        [0] * 4,
        [10.0] * 4,
        [(0, 1, 10.0), (0, 2, 10.0), (1, 3, 10.0), (2, 3, 10.0)],
    )
    assert min_hop_path(sub, 0, 3, 5.0) == [0, 2]


@pytest.mark.parametrize(
    "links, expected",
    [
        # dst 6's side grows the last level from [4, 5]: 4 meets 2 first, then 5 meets 1,
        # and 0-1-5-6 is smaller than 0-2-4-6
        ([(0, 1), (0, 2), (0, 3), (1, 5), (2, 4), (4, 6), (5, 6)], [0, 3, 6]),
        # dst 9's side grows the last level from [7, 8]: 7 meets 5 first, then 6, and
        # 0-1-6-7-9 is smaller than 0-2-5-7-9
        ([(0, 1), (0, 2), (1, 3), (1, 4), (1, 6), (2, 5), (5, 7), (6, 7), (7, 9), (8, 9)], [0, 4, 7, 8]),
        # src 0's side grows the last level from [4, 3], in discovery order: 4 meets 5
        # first, and 0-1-4-5-7 is smaller than 0-2-3-6-7; a frontier sorted by id
        # would meet through 3 first
        ([(0, 1), (0, 2), (1, 4), (2, 3), (4, 5), (3, 6), (5, 7), (6, 7)], [0, 2, 4, 6]),
        # the same growth, but 4 meets both 5 and 6; the path takes the smaller
        ([(0, 1), (0, 2), (1, 4), (2, 3), (4, 6), (4, 5), (3, 6), (5, 7), (6, 7)], [0, 2, 5, 7]),
    ],
    ids=[
        "meeting-from-a-later-frontier-node",
        "meeting-later-in-one-adjacency",
        "src-frontier-in-discovery-order",
        "src-meets-two-neighbors",
    ],
)
def test_min_hop_picks_the_smallest_path_through_the_last_level(links, expected):
    n = 1 + max(max(link) for link in links)
    sub = make_substrate([0] * n, [10.0] * n, [(a, b, 10.0) for a, b in links])
    assert min_hop_path(sub, 0, n - 1, 5.0) == expected
    assert len(expected) == min(len(p) for p in all_simple_paths(sub, 0, n - 1, 5.0))


def two_domains(border_bw):
    # domain 0 is the path 0-1-2 and domain 1 the path 3-4; link 2 (2-3) is the only border link
    return make_substrate(
        [0, 0, 0, 1, 1], [10.0] * 5, [(0, 1, 10.0), (1, 2, 10.0), (2, 3, border_bw), (3, 4, 10.0)]
    )


def test_min_hop_crosses_a_border_link_that_carries_exactly_the_demand():
    sub = two_domains(5.0)
    assert min_hop_path(sub, 0, 4, 5) == [0, 1, 2, 3]
    assert min_hop_path(sub, 4, 1, 5) == [3, 2, 1]


def test_min_hop_between_domains_fails_at_a_sealed_border():
    sub = two_domains(5.0)
    just_above = math.nextafter(5.0, math.inf)
    assert min_hop_path(sub, 0, 4, just_above) is None
    assert min_hop_path(sub, 3, 2, just_above) is None


def test_min_hop_inside_a_domain_whose_border_is_sealed():
    sub = two_domains(0.0)
    assert min_hop_path(sub, 0, 2, 5.0) == [0, 1]
    assert min_hop_path(sub, 4, 3, 5.0) == [3]
    assert min_hop_path(sub, 2, 3, 5.0) is None


def test_embed_nodes_highest_priority_wins():
    sub = make_substrate([0] * 2, [50.0, 50.0], [(0, 1, 10.0)])
    vnr = make_vnr(node_demands=(10.0,))
    node_map = embed_nodes(sub, vnr, [[1, 0]], {})
    assert node_map == {0: 1}
    assert sub.cpu_available[1] == 40.0


def test_embed_nodes_injectivity():
    # virtual node 1 may not reuse node 0: the stage stops with the partial map
    # filled and its allocation left for the caller to release
    sub = make_substrate([0] * 2, [50.0, 0.0], [(0, 1, 10.0)])
    vnr = make_vnr(node_demands=(10.0, 10.0))
    node_map = {}
    assert embed_nodes(sub, vnr, [[0], [0]], node_map) is None
    assert node_map == {0: 0}
    assert list(sub.cpu_available) == [40.0, 0.0]


def test_embed_nodes_greedy_rule_matches_enumeration():
    # demands {40, 10}; node 0 has 45 available, node 1 has 60
    sub = make_substrate([0] * 2, [45.0, 60.0], [(0, 1, 10.0)])
    vnr = make_vnr(node_demands=(40.0, 10.0))
    ranked = [[1, 0], [0, 1]]  # ranking puts the bigger node first for vnode 0
    node_map = embed_nodes(sub, vnr, ranked, {})
    assert node_map == {0: 1, 1: 0}
    # every injective assignment satisfying the demands:
    feasible = [
        dict(zip((0, 1), perm))
        for perm in itertools.permutations((0, 1))
        if 40.0 <= [45.0, 60.0][perm[0]] and 10.0 <= [45.0, 60.0][perm[1]]
    ]
    assert node_map in feasible


def test_embed_links_one_hop():
    sub = make_substrate([0] * 2, [50.0] * 2, [(0, 1, 30.0)])
    vnr = make_vnr(node_demands=(10.0, 10.0), link_demands=((0, 1, 20.0),))
    paths = embed_links(sub, vnr, {0: 0, 1: 1}, {}, {})
    assert paths == {(0, 1): (0,)}
    assert sub.bw_available[0] == 10.0


def test_embed_links_failure_rolls_back_links():
    sub = make_substrate(
        [0] * 3, [50.0] * 3, [(0, 1, 30.0), (1, 2, 5.0)]
    )
    vnr = make_vnr(node_demands=(1.0, 1.0, 1.0), link_demands=((0, 1, 20.0), (1, 2, 20.0)))
    before = sub.resource_vector()
    record = engine.EmbeddingRecord(vnr_id=0, node_map={0: 0, 1: 1, 2: 2}, outstanding=True)
    for node_id in record.node_map.values():
        sub.allocate_node(node_id, 1.0)
    assert embed_links(sub, vnr, record.node_map, record.link_paths, {}) is None
    # the path placed before the failure stays allocated until the caller releases it
    assert record.link_paths == {(0, 1): (0,)}
    assert list(sub.bw_available) == [10.0, 5.0]
    sub.release(record, vnr)
    assert sub.resource_vector().tobytes() == before.tobytes()


def test_attempt_embedding_rollback_is_byte_identical():
    sub = make_substrate([0] * 3, [50.0] * 3, [(0, 1, 30.0), (1, 2, 5.0)])
    before = sub.resource_vector()
    vnr = make_vnr(node_demands=(10.0, 10.0, 10.0), link_demands=((0, 1, 20.0), (1, 2, 20.0)))
    ranked = [[0, 1, 2]] * 3
    record = attempt_embedding(sub, vnr, ranked, {})
    assert not record.accepted
    assert not record.outstanding
    assert sub.resource_vector().tobytes() == before.tobytes()


def test_attempt_embedding_node_stage_failure_after_partial_placement():
    # the two larger virtual nodes are placed before the third finds no host
    sub = make_substrate([0] * 3, [50.0, 40.0, 5.0], [(0, 1, 30.0), (1, 2, 30.0)])
    before = sub.resource_vector()
    vnr = make_vnr(node_demands=(30.0, 20.0, 10.0), link_demands=((0, 1, 5.0),))
    record = attempt_embedding(sub, vnr, [[0, 1, 2], [0, 1, 2], [0, 1, 2]], {})
    assert not record.accepted and not record.outstanding
    assert record.node_map == {0: 0, 1: 1} and record.link_paths == {}
    assert sub.resource_vector().tobytes() == before.tobytes()


def shared_key_run():
    """A noderank run over 300 nodes, so that most node ids lie past the ints Python caches."""
    config = dataclasses.replace(
        ExperimentConfig(), num_domains=2, nodes_per_domain=150, num_links=700, vnr_count=120
    )
    sub = workload.generate_substrate(config, 3)
    return sub, run_simulation(sub, workload.generate_vnr_stream(config, 4), NodeRankPolicy())[2]


def test_one_run_shares_its_link_keys_and_the_substrates_node_ids():
    sub, records = shared_key_run()
    first_seen = {}
    for record in records:
        for key in record.link_paths:
            assert first_seen.setdefault(key, key) is key
        for node_id in record.node_map.values():
            assert node_id is sub.node_ids[node_id]
    # some virtual link is placed twice, and some node id is past the cached ints
    assert len(first_seen) < sum(len(r.link_paths) for r in records)
    assert max(n for r in records for n in r.node_map.values()) > 256


def test_two_runs_share_no_key_object():
    first = shared_key_run()[1]
    second = shared_key_run()[1]
    first_keys = {id(key) for r in first for key in r.link_paths}
    assert first_keys
    assert not first_keys & {id(key) for r in second for key in r.link_paths}


def test_run_simulation_empty_stream():
    sub = make_substrate([0] * 2, [50.0] * 2, [(0, 1, 30.0)])
    before = sub.resource_vector()
    _, ledger, records = run_simulation(sub, [], lambda s, v: [])
    assert records == [] and ledger.records == []
    assert sub.resource_vector().tobytes() == before.tobytes()


def test_run_simulation_single_feasible_vnr():
    sub = make_substrate([0] * 2, [50.0] * 2, [(0, 1, 30.0)])
    initial = sub.resource_vector()
    vnr = make_vnr(node_demands=(10.0,), t_s=1.0, t_e=100.0)
    _, ledger, records = run_simulation(sub, [vnr], lambda s, v: [[0, 1]])
    assert ledger.summary()[2] == 1.0
    assert records[0].accepted
    assert not records[0].outstanding  # departure drained at end of run
    assert sub.resource_vector().tobytes() == initial.tobytes()


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="float availability: 1.0 - 0.2 - 0.1 + 0.2 + 0.1 is 1.0000000000000002, "
    "so the last release is refused until resources are held in integer units",
)
def test_run_simulation_gives_back_fractional_bandwidth_exactly():
    sub = make_substrate([0] * 2, [10.0] * 2, [(0, 1, 1.0)])
    initial = sub.resource_vector()
    vnrs = [
        make_vnr(0, node_demands=(1.0, 1.0), link_demands=((0, 1, 0.2),), t_s=0.0, t_e=5.0),
        make_vnr(1, node_demands=(1.0, 1.0), link_demands=((0, 1, 0.1),), t_s=1.0, t_e=10.0),
    ]
    _, _, records = run_simulation(sub, vnrs, NodeRankPolicy())
    assert [r.accepted for r in records] == [True, True]
    assert sub.resource_vector().tobytes() == initial.tobytes()


def test_run_simulation_matches_hand_event_trace():
    # One node of 50 cpu; vnr 0 occupies it on [0, 10); vnr 1 arrives at 5 and
    # must be rejected; vnr 2 arrives at 10, exactly when vnr 0 departs, and
    # fits because departures are released before arrivals.
    sub = make_substrate([0, 0], [50.0, 1.0], [(0, 1, 30.0)])
    vnrs = [
        make_vnr(0, node_demands=(40.0,), t_s=0.0, t_e=10.0),
        make_vnr(1, node_demands=(40.0,), t_s=5.0, t_e=50.0),
        make_vnr(2, node_demands=(40.0,), t_s=10.0, t_e=20.0),
    ]
    provider = lambda s, v: [[0]]
    _, ledger, records = run_simulation(sub, vnrs, provider)
    assert [r.accepted for r in records] == [True, False, True]
    assert ledger.records == records and ledger.summary()[2] == 2 / 3


def test_run_simulation_runs_simultaneous_arrivals():
    sub = make_substrate([0] * 2, [50.0] * 2, [(0, 1, 30.0)])
    vnrs = [make_vnr(0, t_s=5.0, t_e=6.0), make_vnr(1, t_s=5.0, t_e=7.0)]
    _, _, records = run_simulation(sub, vnrs, lambda s, v: [[0, 1]])
    assert [r.accepted for r in records] == [True, True]


def test_run_simulation_rejects_unsorted_stream():
    sub = make_substrate([0] * 2, [50.0] * 2, [(0, 1, 30.0)])
    vnrs = [make_vnr(0, t_s=5.0, t_e=6.0), make_vnr(1, t_s=1.0, t_e=2.0)]
    with pytest.raises(ValueError):
        run_simulation(sub, vnrs, lambda s, v: [[0, 1]])


def test_indicator_acceptance_matches_flags():
    sub = make_substrate([0] * 3, [50.0] * 3, [(0, 1, 30.0), (1, 2, 30.0)])
    vnrs = [
        make_vnr(0, node_demands=(10.0, 10.0), link_demands=((0, 1, 5.0),), t_s=0.0, t_e=9.0),
        make_vnr(1, node_demands=(45.0, 45.0, 45.0), t_s=1.0, t_e=9.0),
    ]
    _, _, records = run_simulation(sub, vnrs, lambda s, v: [[0, 1, 2]] * v.num_nodes)
    for vnr, record in zip(vnrs, records):
        assert bool(indicator_acceptance(vnr, record)) == record.accepted


def test_decision_log_round_trip(tmp_path):
    sub = make_substrate([0] * 3, [50.0] * 3, [(0, 1, 30.0), (1, 2, 30.0)])
    vnrs = [
        make_vnr(0, node_demands=(10.0, 10.0), link_demands=((0, 1, 5.0),), t_s=0.0, t_e=9.0),
        make_vnr(1, node_demands=(45.0, 45.0, 45.0), t_s=1.0 / 3.0, t_e=9.0),
    ]
    _, _, records = run_simulation(sub, vnrs, lambda s, v: [[0, 1, 2]] * v.num_nodes)
    path = tmp_path / "decisions.csv"
    write_decision_log(path, records)
    loaded = read_decision_log(path)
    assert [r.vnr_id for r in loaded] == [r.vnr_id for r in records]
    assert [r.t_s for r in loaded] == [v.t_s for v in vnrs]
    for got, want in zip(loaded, records):
        assert got.accepted == want.accepted
        assert got.node_map == want.node_map
        assert got.link_paths == want.link_paths
        assert got.revenue == want.revenue and got.cost == want.cost



def test_read_decision_log_gives_back_the_records_compare_wrote(tmp_path, monkeypatch):
    # 300 nodes and 700 links, so that most ids lie past the ints Python caches
    flags = ["--num-domains", "2", "--nodes-per-domain", "150", "--num-links", "700",
             "--vnr-count", "80", "--train-count", "20", "--test-count", "60", "--seed", "3"]
    assert cli.main(["generate", "--out-dir", str(tmp_path)] + flags) == 0
    checkpoint = tmp_path / "checkpoint.txt"
    checkpoint.write_text("0.1 0.2 0.3 0.0\n" * 3)
    written = {}
    write = engine.write_decision_log

    def keep(path, records):
        written[path] = list(records)
        write(path, records)

    monkeypatch.setattr(engine, "write_decision_log", keep)
    assert cli.main(
        ["compare", "--substrate", str(tmp_path / "substrate.txt"), "--vnrs", str(tmp_path / "vnrs.txt"),
         "--checkpoint", str(checkpoint), "--policies", "hfl,noderank,random",
         "--out-dir", str(tmp_path / "cmp")] + flags
    ) == 0
    assert len(written) == 3
    for path, records in written.items():
        assert any(r.accepted for r in records)
        assert read_decision_log(path) == records


SHARED_LOG = (
    engine.DECISION_LOG_HEADER + "\n"
    "0,0.0,1,1.0,1.0,0:300|1:301,0-1:1000>301\n"
    "1,1.0,1,1.0,1.0,0:301|1:300,0-1:301>1000\n"
)


def test_read_decision_log_shares_equal_tokens_within_one_read(tmp_path):
    path = tmp_path / "decisions.csv"
    path.write_text(SHARED_LOG)
    first, second = read_decision_log(path)
    assert first.node_map == {0: 300, 1: 301} and first.link_paths == {(0, 1): (1000, 301)}
    assert first.node_map[0] is second.node_map[1]
    # one table for node and link ids
    assert first.node_map[1] is second.link_paths[(0, 1)][0] is first.link_paths[(0, 1)][1]
    assert first.link_paths[(0, 1)][0] is second.link_paths[(0, 1)][1]
    assert next(iter(first.link_paths)) is next(iter(second.link_paths))
    # the table lives for one call: a second read shares nothing with the first
    again = read_decision_log(path)
    assert again == [first, second]
    assert again[0].node_map[0] is not first.node_map[0]
    assert again[0].link_paths[(0, 1)][0] is not first.link_paths[(0, 1)][0]


@pytest.mark.parametrize(
    "bad, message",
    [
        # a key of three ids, refused by the a, b unpack
        ("2,2.0,1,1.0,1.0,0:300|1:301,0-1-2:1000", "too many values to unpack (expected 2)"),
        # a bad link id after tokens that hit the table
        ("2,2.0,1,1.0,1.0,0:300|1:301,0-1:1000>301>30l", "invalid literal for int() with base 10: '30l'"),
        ("2,2.0,1,1.0,1.0,0:300|1:301,0-1:1000>301|0-1:301>1000", "link_paths repeats virtual link 0-1"),
    ],
    ids=["three-id-key", "bad-link-id", "repeated-key"],
)
def test_read_decision_log_names_a_bad_line_after_shared_tokens(tmp_path, bad, message):
    path = tmp_path / "decisions.csv"
    path.write_text(SHARED_LOG + bad + "\n")
    for _ in range(2):
        with pytest.raises(ValueError, match=exactly(f"{path}:4: {message}")):
            read_decision_log(path)


GOOD_LINE = "0,0.0,1,1.0,1.0,0:3|1:4,0-1:7"


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("", 1, "not a decision log"),
        ("\n  \n\t\n", 1, "not a decision log"),
        ("\n\nvnr_id,t_s\n" + GOOD_LINE + "\n", 3, "not a decision log"),
        # the format with a hop count per path before the paths
        (
            "vnr_id,t_s,accepted,revenue,cost,node_map,path_hops,link_paths\n0,0.0,1,1.0,1.0,0:3|1:4,1,0-1:7\n",
            1,
            "not a decision log",
        ),
        # blank lines before the header and between records are skipped, and
        # the last line has no newline
        ("\n\n" + engine.DECISION_LOG_HEADER + "\n" + GOOD_LINE + "\n\n1,1.0,1", 6, "expected 7 fields, found 3"),
    ],
    ids=["empty", "blank-lines-only", "blank-lines-before-the-header", "hop-count-column", "bad-last-line"],
)
def test_read_decision_log_names_the_line_of_a_bad_log(tmp_path, text, line_no, message):
    path = tmp_path / "decisions.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=exactly(f"{path}:{line_no}: {message}")):
        read_decision_log(path)


def test_a_failed_parse_leaves_nothing_in_the_caches():
    ints, links = functools.cache(int), functools.cache(engine._virtual_link)
    cases = [
        ("0,0.0,1,1.0,1.0,0:3|1:4,0-1-2:7", "too many values to unpack (expected 2)"),
        ("0,0.0,1,1.0,1.0,0:3|1:4,0-1:7>7x", "invalid literal for int() with base 10: '7x'"),
    ]
    for line, message in cases * 2:
        with pytest.raises(ValueError, match=exactly(message)):
            engine._parse_decision(line, ints, links)
    # "0", "1", "3", "4", "7" and "0-1"
    assert ints.cache_info().currsize == 5
    assert links.cache_info().currsize == 1

def test_replay_validate_clean_run():
    sub = make_substrate([0] * 3, [50.0] * 3, [(0, 1, 30.0), (1, 2, 30.0)])
    initial = sub.copy()
    vnrs = [
        make_vnr(0, node_demands=(10.0, 10.0), link_demands=((0, 1, 5.0),), t_s=0.0, t_e=9.0),
        make_vnr(1, node_demands=(20.0,), t_s=1.0, t_e=4.0),
    ]
    final, _, records = run_simulation(sub, vnrs, lambda s, v: [[0, 1, 2]] * v.num_nodes)
    violations = replay_validate(initial, vnrs, records, final.resource_vector())
    assert violations == []


def test_replay_validate_accepts_exact_fills_and_departures_at_an_arrival():
    # vnr 0 fills node 0 and link 0 to exactly 0 and leaves at 10, exactly when
    # vnr 1 arrives needing all of both: the replay must free vnr 0 first
    sub = make_substrate([0] * 3, [50.0, 50.0, 0.0], [(0, 1, 30.0), (1, 2, 30.0)])
    initial = sub.copy()
    vnrs = [
        make_vnr(0, node_demands=(50.0, 10.0), link_demands=((0, 1, 30.0),), t_s=0.0, t_e=10.0),
        make_vnr(1, node_demands=(50.0, 10.0), link_demands=((0, 1, 30.0),), t_s=10.0, t_e=20.0),
    ]
    final, _, records = run_simulation(sub, vnrs, lambda s, v: [[0, 1, 2]] * v.num_nodes)
    assert [r.accepted for r in records] == [True, True]
    assert all(r.link_paths == {(0, 1): (0,)} for r in records)
    assert replay_validate(initial, vnrs, records, final.resource_vector()) == []


def test_replay_validate_flags_tampering():
    sub = make_substrate([0] * 3, [50.0] * 3, [(0, 1, 30.0), (1, 2, 30.0)])
    initial = sub.copy()
    vnrs = [make_vnr(0, node_demands=(10.0, 10.0), link_demands=((0, 1, 5.0),), t_s=0.0, t_e=9.0)]
    _, _, records = run_simulation(sub, vnrs, lambda s, v: [[0, 1, 2]] * v.num_nodes)
    records[0].node_map[1] = records[0].node_map[0]  # break injectivity
    assert any("injective" in v for v in replay_validate(initial, vnrs, records))

    records[0].node_map[1] = 2
    records[0].link_paths[(0, 1)] = [1]  # path no longer touches the mapped endpoint
    assert replay_validate(initial, vnrs, records) != []

    # a decision logged twice, or a path for a link the request lacks, is
    # reported and not applied, so the replayed end state still matches
    final, _, records = run_simulation(initial.copy(), vnrs, lambda s, v: [[0, 1, 2]] * v.num_nodes)
    end = final.resource_vector()
    twice = copy.deepcopy(records[0])
    twice.revenue += 1.0
    assert replay_validate(initial, vnrs, records + [twice], end) == ["vnr 0: logged after the last request"]
    records[0].link_paths[(5, 6)] = [0]
    assert replay_validate(initial, vnrs, records, end) == [
        "vnr 0: path for a link the request does not have: (5, 6)"
    ]


@pytest.mark.parametrize(
    "change, expected",
    [
        ({"node_map": {0: 0}}, ["vnr 0: not every virtual node is mapped exactly once"]),
        ({"node_map": {0: 0, 1: 0}}, ["vnr 0: node map is not injective"]),
        # ids equal to the node and link counts: the first past each end
        ({"node_map": {0: 0, 1: 3}}, ["vnr 0: mapped to missing node 3"]),
        (
            {"cpu": (60.0, 10.0)},
            ["vnr 0: cpu demand of virtual node 0 exceeds availability on node 0"],
        ),
        ({"path": []}, ["vnr 0: virtual link (0, 1) has no path"]),
        ({"path": [2]}, ["vnr 0: path uses missing link 2"]),
        ({"path": [1]}, ["vnr 0: path for (0, 1) is not a connected walk"]),
        (
            {"node_map": {0: 0, 1: 2}},
            ["vnr 0: path for (0, 1) does not reach the mapped endpoint"],
        ),
        (
            {"bw": 20.0, "path": [0, 0, 0]},
            ["vnr 0: joint bandwidth on link 0 exceeds availability"],
        ),
        ({"vnr_id": 7}, ["vnr 7: logged where request 0 arrives"]),
        # 0.1 + 0.1 + 0.1 subtracted as one joint total, then given back link
        # by link, leaves link 0 above its capacity (float rounding)
        (
            {"bw": 0.1, "path": [0, 0, 0]},
            [
                "replayed releases exceed capacity",
                "replayed resource vector differs from the run's final state",
            ],
        ),
        (
            {"final": np.zeros(5)},
            ["replayed resource vector differs from the run's final state"],
        ),
        # the stream C, A, D logged as C, D, A: D and A each sit where the other arrives
        (
            {"earlier": ((1, 0.0, 5.0, 20.0), (2, 6.0, 7.0, 1.0)), "t": (1.0, 100.0), "final": None},
            ["vnr 2: logged where request 0 arrives", "vnr 0: logged where request 2 arrives"],
        ),
        ({"earlier": ((1, 0.0, 5.0, 1.0),), "final": None}, []),
        # a rejected record holds nothing, so it earns nothing and leaves an element unplaced
        ({"rejected": (0.0, 0.0)}, ["vnr 0: logged as rejected, with every virtual node and link placed"]),
        ({"rejected": (123.0, 45.0), "node_map": {0: 0}}, ["vnr 0: logged as rejected, with revenue or cost"]),
        ({"rejected": (0.0, 0.0), "node_map": {0: 0}}, []),
    ],
    ids=[
        "unmapped",
        "not-injective",
        "missing-node",
        "cpu",
        "no-path",
        "missing-link",
        "broken-walk",
        "wrong-endpoint",
        "joint-bw",
        "unknown-id",
        "release-rounding",
        "final-vector",
        "out-of-arrival-order",
        "equal-arrivals",
        "rejected-placed",
        "rejected-paid",
        "rejected-partial",
    ],
)
def test_replay_validate_names_each_violation(change, expected):
    sub = make_substrate([0] * 3, [50.0] * 3, [(0, 1, 30.0), (1, 2, 30.0)])
    vnr = make_vnr(0, node_demands=(10.0, 10.0), link_demands=((0, 1, 5.0),), t_s=0.0, t_e=9.0)
    final, _, records = run_simulation(sub.copy(), [vnr], lambda s, v: [[0, 1, 2]] * v.num_nodes)
    assert records[0].node_map == {0: 0, 1: 1} and records[0].link_paths == {(0, 1): (0,)}
    record = copy.deepcopy(records[0])
    record.vnr_id = change.get("vnr_id", 0)
    record.node_map = dict(change.get("node_map", record.node_map))
    if "path" in change:
        record.link_paths[(0, 1)] = list(change["path"])
    if "rejected" in change:
        record.accepted = False
        record.revenue, record.cost = change["rejected"]
    t_s, t_e = change.get("t", (0.0, 9.0))
    edited = make_vnr(
        0,
        node_demands=change.get("cpu", (10.0, 10.0)),
        link_demands=((0, 1, change.get("bw", 5.0)),),
        t_s=t_s,
        t_e=t_e,
    )
    # requests logged before vnr 0, each placed as vnr 0 was; the stream holds
    # them all in arrival order
    earlier = [
        make_vnr(vnr_id, node_demands=(10.0, 10.0), link_demands=((0, 1, bw),), t_s=arrival, t_e=departure)
        for vnr_id, arrival, departure, bw in change.get("earlier", ())
    ]
    logged = [dataclasses.replace(records[0], vnr_id=v.vnr_id) for v in earlier]
    end = change.get("final", final.resource_vector())
    stream = sorted([*earlier, edited], key=lambda v: v.t_s)
    assert replay_validate(sub, stream, [*logged, record], end) == expected


@st.composite
def small_streams(draw):
    """2-6 requests of 1-3 nodes in a chain, sorted by arrival, some arriving together."""
    arrivals = sorted(draw(st.lists(st.integers(0, 6), min_size=2, max_size=6)))
    stream = []
    for vnr_id, t_s in enumerate(arrivals):
        cpu = draw(st.lists(st.sampled_from([5.0, 10.0, 20.0]), min_size=1, max_size=3))
        links = [(a, a + 1, draw(st.sampled_from([5.0, 10.0, 15.0]))) for a in range(len(cpu) - 1)]
        stream.append(make_vnr(vnr_id, cpu, links, t_s=float(t_s), t_e=float(t_s + draw(st.integers(1, 6)))))
    return stream


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vnrs=small_streams())
def test_replay_validate_names_the_first_displaced_record(vnrs):
    """Record i belongs to request i: a deleted, repeated or swapped record is refused at
    the first place where the log and the stream part."""
    sub = make_substrate([0, 0, 1, 1], [30.0] * 4, [(0, 1, 20.0), (1, 2, 20.0), (2, 3, 20.0), (0, 3, 20.0)])
    final, _, records = run_simulation(sub.copy(), vnrs, NodeRankPolicy())
    assert replay_validate(sub, vnrs, records, final.resource_vector()) == []

    def first_verdict(edited):
        return next(iter(replay_validate(sub, vnrs, edited)), None)

    ids = [r.vnr_id for r in records]
    for i in range(len(records)):
        place = f"logged where request {ids[i + 1]} arrives" if i + 1 < len(ids) else "logged after the last request"
        assert first_verdict([*records[: i + 1], records[i], *records[i + 1 :]]) == f"vnr {ids[i]}: {place}"
        if i + 1 < len(ids):
            displaced = f"vnr {ids[i + 1]}: logged where request {ids[i]} arrives"
            assert first_verdict([*records[:i], *records[i + 1 :]]) == displaced
            assert first_verdict([*records[:i], records[i + 1], records[i], *records[i + 2 :]]) == displaced
