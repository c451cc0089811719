import pytest

from _helpers import applied_record, exactly, make_vnr
from fedvne import metrics
from fedvne.engine import EmbeddingRecord
from fedvne.metrics import (
    MAX_SERIES_ROWS,
    MetricsLedger,
    left_sum,
    vnr_cost,
    vnr_revenue,
)


def test_revenue_direct():
    vnr = make_vnr(node_demands=(10, 20), link_demands=((0, 1, 15),), t_s=0.0, t_e=5.0)
    assert vnr_revenue(vnr) == 225.0


def test_revenue_zero_lifetime():
    vnr = make_vnr(node_demands=(10, 20), link_demands=((0, 1, 15),), t_s=3.0, t_e=3.0)
    assert vnr_revenue(vnr) == 0.0


def test_revenue_single_node():
    vnr = make_vnr(node_demands=(50,), t_s=0.0, t_e=2.0)
    assert vnr_revenue(vnr) == 100.0


def test_cost_with_two_hop_path():
    vnr = make_vnr(node_demands=(10, 20), link_demands=((0, 1, 15),), t_s=0.0, t_e=5.0)
    record = applied_record(vnr, {0: 0, 1: 2}, {(0, 1): [0, 1]})
    assert vnr_cost(vnr, record) == 300.0


def test_cost_equals_revenue_for_one_hop_paths():
    vnr = make_vnr(node_demands=(10, 20), link_demands=((0, 1, 15),), t_s=0.0, t_e=5.0)
    record = applied_record(vnr, {0: 0, 1: 1}, {(0, 1): [0]})
    assert vnr_cost(vnr, record) == vnr_revenue(vnr) == 225.0


def test_cost_without_links_equals_revenue():
    vnr = make_vnr(node_demands=(10, 20), t_s=0.0, t_e=5.0)
    record = applied_record(vnr, {0: 0, 1: 1}, {})
    assert vnr_cost(vnr, record) == vnr_revenue(vnr)


def test_cost_rejected_record():
    vnr = make_vnr(node_demands=(10,))
    record = EmbeddingRecord(vnr_id=vnr.vnr_id)
    with pytest.raises(ValueError, match=exactly("vnr 0 was rejected; cost is undefined")):
        vnr_cost(vnr, record)


def make_ledger(events):
    """A ledger over one record per (t_s, revenue, cost, accepted) event."""
    return MetricsLedger(
        [
            EmbeddingRecord(vnr_id=i, t_s=t, revenue=revenue, cost=cost, accepted=accepted)
            for i, (t, revenue, cost, accepted) in enumerate(events)
        ]
    )


def test_ltar_single_event():
    ledger = make_ledger([(10.0, 225.0, 225.0, True)])
    assert ledger.series(100.0) == [(100.0, 2.25, 1.0, 1.0)]
    assert ledger.summary()[0] == 22.5


def test_all_rejections():
    ledger = make_ledger([(1.0, 0.0, 0.0, False), (2.0, 0.0, 0.0, False)])
    assert ledger.series(10.0) == [(10.0, 0.0, None, 0.0)]
    assert ledger.summary() == (0.0, None, 0.0)


def test_ltar2c_direct():
    ledger = make_ledger([(1.0, 100.0, 100.0, True), (2.0, 200.0, 400.0, True)])
    assert ledger.series(10.0)[0][2] == pytest.approx(0.6)
    assert ledger.summary()[1] == pytest.approx(0.6)


def test_window_excludes_later_events():
    ledger = make_ledger([(1.0, 100.0, 100.0, True), (50.0, 200.0, 400.0, True)])
    rows = ledger.series(10.0)
    assert rows[0] == (10.0, 10.0, 1.0, 1.0)
    assert rows[-1] == (50.0, 6.0, 0.6, 1.0)


def test_undefined_metrics():
    ledger = MetricsLedger()
    with pytest.raises(ValueError):
        ledger.series(0.0)
    assert ledger.series(10.0) == []
    with pytest.raises(ValueError, match=exactly("summary is undefined for an empty ledger")):
        ledger.summary()


def test_identities_hold():
    ledger = make_ledger(
        [(1.0, 100.0, 120.0, True), (2.0, 0.0, 0.0, False), (3.0, 50.0, 50.0, True)]
    )
    for ltar2c, acc in [row[2:] for row in ledger.series(1.0)] + [ledger.summary()[1:]]:
        assert 0.0 <= acc <= 1.0
        assert 0.0 < ltar2c <= 1.0
    # revenue 150 of cost 170 over 3 time units; 2 of 3 accepted
    assert ledger.summary() == (150.0 / 3.0, 150.0 / 170.0, 2 / 3)


def test_series_sampling():
    ledger = make_ledger([(150.0, 200.0, 400.0, True), (260.0, 0.0, 0.0, False)])
    rows = ledger.series(100.0)
    # first sample with events is t=200; the final sample covers the last event
    assert [r[0] for r in rows] == [200.0, 300.0]
    t, ltar, ltar2c, acc = rows[0]
    assert ltar == 1.0 and ltar2c == 0.5 and acc == 1.0
    assert rows[1][3] == 0.5


def test_series_empty_and_undefined_ratio():
    assert MetricsLedger().series(100.0) == []
    ledger = make_ledger([(10.0, 0.0, 0.0, False)])
    rows = ledger.series(100.0)
    assert len(rows) == 1
    assert rows[0][2] is None  # no cost accumulated yet


def test_series_refuses_too_many_rows_before_building_any():
    ledger = make_ledger([(150.0, 200.0, 400.0, True), (260.0, 0.0, 0.0, False)])
    with pytest.raises(ValueError) as exc:
        ledger.series(1e-9)  # 2.6e11 sampling points: refused at once, not after a MemoryError
    assert "2.6e+11 rows" in str(exc.value)
    assert f"limit of {MAX_SERIES_ROWS}" in str(exc.value)


def test_series_row_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(metrics, "MAX_SERIES_ROWS", 3)
    ledger = make_ledger([(150.0, 200.0, 400.0, True), (300.0, 0.0, 0.0, False)])
    assert [r[0] for r in ledger.series(100.0)] == [200.0, 300.0]
    with pytest.raises(ValueError):
        ledger.series(99.0)


# summed left to right these give 0.0 (1e16 + 1.0 rounds back to 1e16); the
# builtin sum compensates from Python 3.12 on and gives 1.0
UNCOMPENSATED = [1e16, 1.0, -1e16]


def test_float_sums_run_left_to_right():
    assert left_sum(UNCOMPENSATED) == 0.0
    assert left_sum([]) == 0.0
    vnr = make_vnr(node_demands=UNCOMPENSATED, link_demands=((0, 1, 2.0),), t_s=0.0, t_e=1.0)
    assert vnr_revenue(vnr) == 2.0
    record = applied_record(vnr, {0: 0, 1: 1, 2: 2}, {(0, 1): [0, 1, 2]})
    assert vnr_cost(vnr, record) == 6.0
