import dataclasses
import hashlib
import math

import pytest

from _helpers import exactly, link_kind, reference_load_vnrs
from fedvne import workload
from fedvne.config import ConfigError, ExperimentConfig
from fedvne.workload import (
    ParseError,
    ValidationError,
    generate_substrate,
    generate_vnr_stream,
    load_substrate,
    load_vnrs,
    rebase_stream,
    save_substrate,
    save_vnrs,
)


def small_config(**overrides):
    base = dict(
        num_domains=2,
        nodes_per_domain=5,
        num_links=16,
        vnr_count=40,
        train_count=20,
        test_count=20,
        vn_nodes_min=2,
        vn_nodes_max=4,
    )
    base.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **base)


def test_generate_substrate_default_scale():
    cfg = ExperimentConfig()
    sub = generate_substrate(cfg, 11)
    assert sub.num_nodes == 100
    assert sub.num_links == 600
    assert sub.num_domains == 4
    for d in range(4):
        assert sub.node_domain.tolist().count(d) == 25
    kinds = {link_kind(sub, i) for i in range(sub.num_links)}
    assert kinds == {"intra", "inter"}
    assert all(50 <= c <= 100 for c in sub.cpu_capacity)
    assert all(50 <= b <= 100 for b in sub.bw_capacity)


def test_generate_substrate_minimal():
    cfg = small_config(num_domains=1, nodes_per_domain=2, num_links=1)
    sub = generate_substrate(cfg, 5)
    assert sub.num_nodes == 2 and sub.num_links == 1
    assert {int(x) for x in sub.link_ends[0]} == {0, 1}


def test_generate_substrate_deterministic(tmp_path):
    cfg = small_config()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_substrate(a, generate_substrate(cfg, 3))
    save_substrate(b, generate_substrate(cfg, 3))
    assert a.read_bytes() == b.read_bytes()
    save_substrate(b, generate_substrate(cfg, 4))
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize(
    "shape, digest",
    [
        # both candidate lists at the compare-10x scale
        (
            dict(num_domains=4, nodes_per_domain=250, num_links=6000),
            "6835cfe72554fccfff42d1ce949f15677c11b691df079654eb1c2346462a7a6b",
        ),
        # intra-domain candidates only
        (
            dict(num_domains=1, nodes_per_domain=20, num_links=60),
            "7913129788cee085ef5be5dd58ead26fa5c02da02e1606c2955a2e6523db9eda",
        ),
        # full domains: the intra links they cannot hold spill over to inter-domain links
        (
            dict(num_domains=6, nodes_per_domain=3, num_links=30),
            "a3f43db0fd6820b8e61cd3165cb6b694692da24fe157941e26ef1477b597ba55",
        ),
        # inter-domain candidates only
        (
            dict(num_domains=4, nodes_per_domain=10, num_links=80, inter_link_ratio=0.9),
            "de260c51ea8e97aad8b9a8c245f08e9b12993a7b0325ecb06f4a79d45ae1a4d7",
        ),
    ],
    ids=["4x250", "one-domain", "6x3", "inter-0.9"],
)
def test_generated_substrate_keeps_its_bytes(tmp_path, shape, digest):
    # shapes the golden run lacks; the candidate lists are drawn from in a fixed order
    path = tmp_path / "substrate.txt"
    save_substrate(path, generate_substrate(dataclasses.replace(ExperimentConfig(), **shape), 5))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_generate_substrate_infeasible():
    with pytest.raises(ConfigError, match=exactly("5 links cannot connect 2 domains of 5 nodes")):
        generate_substrate(small_config(num_links=5), 1)  # below spanning minimum
    with pytest.raises(ConfigError, match=exactly("100 links exceed the simple-graph maximum")):
        generate_substrate(small_config(num_links=100), 1)  # above simple-graph max


def test_vnr_stream_default_scale():
    cfg = ExperimentConfig()
    stream = generate_vnr_stream(cfg, 9)
    assert len(stream) == 2000
    assert all(1 <= d <= 50 for v in stream for d in v.node_demands)
    assert all(1 <= w <= 50 for v in stream for _, _, w in v.link_demands)
    assert all(a.t_s <= b.t_s for a, b in zip(stream, stream[1:]))
    assert all(v.t_e > v.t_s for v in stream)
    for v in stream:
        workload.validate_vnr(v)
    assert all(2 <= v.num_nodes <= 10 for v in stream)


def test_vnr_stream_empty():
    assert generate_vnr_stream(small_config(vnr_count=0, train_count=0, test_count=0), 1) == []


def test_inter_arrival_mean_close_to_rate_inverse():
    cfg = small_config(vnr_count=10001, train_count=0, test_count=0)
    stream = generate_vnr_stream(cfg, 123)
    gaps = [b.t_s - a.t_s for a, b in zip(stream, stream[1:])]
    mean = sum(gaps) / len(gaps)
    expected = 1.0 / cfg.arrival_rate
    assert abs(mean - expected) / expected < 0.05


def test_substrate_round_trip(tmp_path):
    sub = generate_substrate(small_config(), 21)
    path = tmp_path / "sub.txt"
    save_substrate(path, sub)
    loaded = load_substrate(path)
    assert loaded.num_nodes == sub.num_nodes
    assert loaded.num_links == sub.num_links
    assert loaded.resource_vector().tobytes() == sub.resource_vector().tobytes()
    assert (loaded.coords == sub.coords).all()
    assert (loaded.link_ends == sub.link_ends).all()
    path2 = tmp_path / "sub2.txt"
    save_substrate(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_vnrs_round_trip(tmp_path):
    stream = generate_vnr_stream(small_config(), 22)
    path = tmp_path / "vnrs.txt"
    save_vnrs(path, stream)
    loaded = load_vnrs(path)
    assert loaded == stream


def test_load_vnrs_rejects_bad_lifecycle(tmp_path):
    path = tmp_path / "vnrs.txt"
    path.write_text("1\n0 5.0 5.0 1 0\n10.0\n")
    with pytest.raises(ValidationError):
        load_vnrs(path)


def test_load_substrate_rejects_dangling_endpoint(tmp_path):
    path = tmp_path / "sub.txt"
    path.write_text("2 1 1\n0 0 0.0 0.0 10.0\n1 0 1.0 0.0 10.0\n0 7 5.0\n")
    with pytest.raises(ValidationError):
        load_substrate(path)


def test_load_substrate_parse_error_carries_line(tmp_path):
    path = tmp_path / "sub.txt"
    path.write_text("2 1 1\n0 0 0.0 0.0 10.0\nnot a node line\n0 1 5.0\n")
    with pytest.raises(ParseError) as exc:
        load_substrate(path)
    assert str(exc.value).startswith(f"{path}:3: ")


def test_comment_lines_ignored(tmp_path):
    path = tmp_path / "sub.txt"
    path.write_text(
        "# substrate\n2 1 1\n# nodes\n0 0 0.0 0.0 10.0\n1 0 1.0 0.0 12.0\n0 1 5.0\n"
    )
    sub = load_substrate(path)
    assert sub.num_nodes == 2
    assert sub.cpu_capacity[1] == 12.0


def test_load_vnrs_rejects_disconnected_topology(tmp_path):
    path = tmp_path / "vnrs.txt"
    path.write_text("1\n0 0.0 5.0 3 1\n10.0\n10.0\n10.0\n0 1 4.0\n")
    with pytest.raises(ValidationError):
        load_vnrs(path)


def test_load_vnrs_rejects_unsorted_stream(tmp_path):
    path = tmp_path / "vnrs.txt"
    path.write_text("2\n0 5.0 9.0 1 0\n10.0\n1 1.0 2.0 1 0\n10.0\n")
    with pytest.raises(ValidationError):
        load_vnrs(path)


def test_load_vnrs_rejects_duplicate_id(tmp_path):
    path = tmp_path / "vnrs.txt"
    path.write_text("2\n0 1.0 2.0 1 0\n10.0\n0 3.0 4.0 1 0\n10.0\n")
    with pytest.raises(ParseError) as exc:
        load_vnrs(path)
    assert str(exc.value).startswith(f"{path}:4: ")
    assert "duplicate request id 0" in str(exc.value)


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("1\n0 0.0 5.0 1 0\n10.0 99.0\n", 3),  # surplus field on a cpu-demand line
        ("1\n0 0.0 5.0 1 0\nnan\n", 3),
        ("1\n0 0.0 5.0 2 1\n10.0\n10.0\n0 1 inf\n", 5),
        ("1\n0 0.0 inf 1 0\n10.0\n", 2),
        ("1 99\n0 0.0 5.0 1 0\n10.0\n", 1),  # surplus field on the count line
        ("-3\n", 1),  # negative request count
        ("1\n0 0.0 5.0 1 -1\n10.0\n", 2),  # negative virtual link count
        ("1\n0 0.0 5.0 1 0\n10.0\n1 1.0 5.0 1 0\n10.0\n", 4),  # undeclared request
        ("1\n0 0.0 5.0 2 1\n10.0\n10.0\n0 1 5.0\n0 1 5.0\n", 6),  # undeclared link
        ("1\n0 0.0 5.0 1 0\n10.0\n\nx\n", 5),  # garbage after the last request
    ],
)
def test_load_vnrs_rejects_surplus_fields_and_non_finite_numbers(tmp_path, text, line_no):
    path = tmp_path / "vnrs.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_vnrs(path)
    assert str(exc.value).startswith(f"{path}:{line_no}: ")


@pytest.mark.parametrize(
    "node_line, link_line, line_no",
    [
        ("0 0 0.0 nan 10.0", "0 1 5.0", 2),
        ("0 0 0.0 0.0 nan", "0 1 5.0", 2),
        ("0 0 0.0 0.0 10.0", "0 1 inf", 4),
        ("0 0 0.0 0.0 10.0", "0 1 5.0\n1 0 5.0", 5),  # undeclared link
        ("0 0 0.0 0.0 10.0", "0 1 5.0\n# comment\ngarbage", 6),
    ],
)
def test_load_substrate_rejects_non_finite_numbers(tmp_path, node_line, link_line, line_no):
    path = tmp_path / "sub.txt"
    path.write_text(f"2 1 1\n{node_line}\n1 0 1.0 0.0 10.0\n{link_line}\n")
    with pytest.raises(ParseError) as exc:
        load_substrate(path)
    assert str(exc.value).startswith(f"{path}:{line_no}: ")


@pytest.mark.parametrize("header", ["1 -1 1", "-1 0 1", "1 0 -1"])
def test_load_substrate_rejects_negative_counts(tmp_path, header):
    path = tmp_path / "sub.txt"
    path.write_text(f"{header}\n0 0 0.0 0.0 10.0\n")
    with pytest.raises(ParseError) as exc:
        load_substrate(path)
    assert str(exc.value).startswith(f"{path}:1: ")
    assert "header counts must be non-negative" in str(exc.value)


def test_load_reports_end_of_file_after_the_last_line(tmp_path):
    path = tmp_path / "vnrs.txt"
    path.write_text("2\n0 0.0 5.0 1 0\n10.0\n\n")
    with pytest.raises(ParseError) as exc:
        load_vnrs(path)
    assert str(exc.value) == f"{path}:5: unexpected end of file, expected request header"


def test_load_vnrs_accepts_boundary_values(tmp_path):
    # endpoint 0 on the far side, zero demands, and two requests arriving at once
    path = tmp_path / "vnrs.txt"
    path.write_text("2\n0 1.0 5.0 2 1\n0.0\n3.0\n1 0 0.0\n1 1.0 6.0 1 0\n2.0\n")
    first, second = load_vnrs(path)
    assert first.node_demands == (0.0, 3.0)
    assert first.link_demands == ((1, 0, 0.0),)
    assert second.t_s == first.t_s


def test_load_vnrs_shares_repeated_demands_and_links_by_their_text(tmp_path):
    path = tmp_path / "vnrs.txt"
    path.write_text(
        "3\n"
        "0 0.0 5.0 3 2\n23.0\n0.0\n-0.0\n0 1 7.0\n1 2 -0.0\n"
        "1 1.0 6.0 3 2\n23.0\n-0.0\n0.0\n0 1 7.0\n1 2 0.0\n"
        "2 2.0 7.0 3 2\n 23.0\n23.0 \n\t23.0\n0  1 7.0\n1 2 7.0 "  # no newline at the end
    )
    first, second, third = load_vnrs(path)
    assert first.node_demands[0] is second.node_demands[0]
    assert first.link_demands[0] is second.link_demands[0]
    # equal values from different text stay apart: zeros keep their sign
    assert [math.copysign(1.0, d) for d in first.node_demands[1:]] == [1.0, -1.0]
    assert [math.copysign(1.0, d) for d in second.node_demands[1:]] == [-1.0, 1.0]
    assert math.copysign(1.0, first.link_demands[1][2]) == -1.0
    assert math.copysign(1.0, second.link_demands[1][2]) == 1.0
    # other spacing around equal numbers gives equal values
    assert third.node_demands == (23.0, 23.0, 23.0)
    assert third.link_demands == ((0, 1, 7.0), (1, 2, 7.0))
    assert [first, second, third] == reference_load_vnrs(path)


def load_outcome(load, path):
    try:
        return load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "second, message",
    [
        # a line taken as a virtual link, then met where a cpu demand is due
        ("1 1.0 6.0 2 0\n0 1 5.0\n5.0", "7: cpu demand line must hold one number"),
        # a line taken as a cpu demand, then met where a virtual link is due
        ("1 1.0 6.0 2 1\n5.0\n5.0\n5.0", "9: virtual link must be '<a> <b> <bw>'"),
    ],
)
def test_load_vnrs_checks_a_line_seen_as_the_other_kind(tmp_path, second, message):
    path = tmp_path / "vnrs.txt"
    path.write_text(f"2\n0 0.0 5.0 2 1\n5.0\n5.0\n0 1 5.0\n{second}\n")
    with pytest.raises(ParseError, match=exactly(f"{path}:{message}")):
        load_vnrs(path)
    assert load_outcome(reference_load_vnrs, path) == (ParseError, f"{path}:{message}")


REPEATS = (
    "2\n0 0.0 5.0 2 1\n5.0\n# c\n\n5.0\n# c\n0 1 5.0\n"
    "# c\n1 1.0 6.0 2 1\n  # c 5.0\n5.0\n\n5.0\n# 0 1 5.0\n0 1 5.0\n\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        (REPEATS, None),
        (REPEATS + "x\n", "18: data after the last declared line"),
        (
            REPEATS.replace("\n# 0 1 5.0\n0 1 5.0\n", "\n# 0 1 5.0\n"),
            "17: unexpected end of file, expected virtual link",
        ),
        (REPEATS.replace("5.0\n\n5.0\n#", "5.0\n\n5.0x\n#"), "14: malformed cpu demand"),
        ("1\n0 0.0 5.0 2 0\n5.0\n# c\n", "5: unexpected end of file, expected cpu demand"),
        ("2\n0 0.0 5.0 1 0\n10.0\n", "4: unexpected end of file, expected request header"),
        ("1\n0 0.0 5.0 1 0\n10.0\n#\n10.0\n", "5: data after the last declared line"),
    ],
)
def test_load_vnrs_counts_comment_and_blank_lines_between_repeats(tmp_path, text, message):
    path = tmp_path / "vnrs.txt"
    path.write_text(text)
    loaded = load_outcome(load_vnrs, path)
    assert loaded == load_outcome(reference_load_vnrs, path)
    if message is None:
        assert [v.node_demands for v in loaded] == [(5.0, 5.0), (5.0, 5.0)]
        assert [v.link_demands for v in loaded] == [((0, 1, 5.0),), ((0, 1, 5.0),)]
    else:
        assert loaded == (ParseError, f"{path}:{message}")


@pytest.mark.parametrize("nodes", [0, -1])
def test_load_vnrs_reads_no_cpu_demand_for_a_request_without_nodes(tmp_path, nodes):
    path = tmp_path / "vnrs.txt"
    path.write_text(f"1\n0 0.0 5.0 {nodes} 1\n0 1 5.0\n")
    message = f"{path}:2: vnr 0: needs at least one virtual node"
    with pytest.raises(ValidationError, match=exactly(message)):
        load_vnrs(path)
    assert load_outcome(reference_load_vnrs, path) == (ValidationError, message)


@pytest.mark.parametrize(
    "lines, message",
    [
        ("23.0\n23.0x\n0 1 5.0\n1 0 5.0", "11: malformed cpu demand"),
        ("23.0\n1e999\n0 1 5.0\n1 0 5.0", "11: number must be finite, got 1e999"),
        ("1.0\n1.0\n0 1 23.0x\n1 0 5.0", "12: malformed virtual link"),
        ("1.0\n1.0\n0 1 1e999\n1 0 5.0", "12: number must be finite, got 1e999"),
        ("1.0\n1.0\n0 1 23.0\n0 1 23.0", "9: vnr 0: duplicate virtual link (0, 1)"),
        ("1.0\n1.0\n0 1 23.0\n1 2 23.0", "9: vnr 0: virtual link endpoint out of range"),
        ("1.0\n1.0\n0 1 23.0\n2 0 23.0", "9: vnr 0: virtual link endpoint out of range"),
    ],
)
def test_load_vnrs_checks_text_that_resembles_an_earlier_line(tmp_path, lines, message):
    # the 3-node request before holds the good tokens and link lines, so a memo
    # of parsed text must neither hide a bad one nor skip the checks of the
    # 2-node request it lands in
    path = tmp_path / "vnrs.txt"
    path.write_text(
        "2\n9 0.0 1.0 3 3\n23.0\n23.0\n23.0\n0 1 23.0\n1 2 23.0\n2 0 23.0\n"
        f"0 0.0 5.0 2 2\n{lines}\n"
    )
    with pytest.raises((ParseError, ValidationError), match=exactly(f"{path}:{message}")):
        load_vnrs(path)


def test_rebase_stream_shifts_clock():
    stream = generate_vnr_stream(small_config(), 31)[10:]
    shifted = rebase_stream(stream)
    assert shifted[0].t_s == 0.0
    assert len(shifted) == len(stream)
    for before, after in zip(stream, shifted):
        assert after.t_e - after.t_s == pytest.approx(before.t_e - before.t_s)
    assert rebase_stream([]) == []
