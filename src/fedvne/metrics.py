"""Per-request revenue/cost and the long-term evaluation indicators.

The long-term indicators are event-time sums over a run's embedding records:
revenue and cost accrue at the arrival instant of each accepted request, and
the time series reports the cumulative values at a fixed sampling interval.
Records are added one at a time in arrival order from 0.0, and every other
float sum runs left to right through ``left_sum``: the builtin ``sum``
compensates float rounding from Python 3.12 on, so the outputs would depend on
the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# the most sampling points ``MetricsLedger.series`` builds; a finer interval is refused
MAX_SERIES_ROWS = 1_000_000


def left_sum(values) -> float:
    """``values`` added one at a time from 0.0, left to right, uncompensated."""
    total = 0.0
    for value in values:
        total += value
    return total


def check_series_rows(end: float, interval: float) -> None:
    """Refuse, with ValueError, sampling every ``interval`` up to ``end`` when that
    needs more than ``MAX_SERIES_ROWS`` sampling points."""
    points = end / interval
    if points > MAX_SERIES_ROWS:
        raise ValueError(
            f"sampling every {interval} up to t={end} needs about {points:.6g} rows, "
            f"above the limit of {MAX_SERIES_ROWS}"
        )


def vnr_revenue(vnr) -> float:
    """Lifetime-weighted sum of all requested resources."""
    duration = vnr.t_e - vnr.t_s
    resources = left_sum(vnr.node_demands) + left_sum(bw for _, _, bw in vnr.link_demands)
    return duration * resources


def vnr_cost(vnr, record) -> float:
    """Like revenue, but each link demand is multiplied by its mapped hop count."""
    if not record.accepted:
        raise ValueError(f"vnr {vnr.vnr_id} was rejected; cost is undefined")
    duration = vnr.t_e - vnr.t_s
    total = left_sum(vnr.node_demands)
    for a, b, bw in vnr.link_demands:
        total += bw * len(record.link_paths[(a, b)])
    return duration * total


@dataclass
class Tally:
    """Running sums over embedding records, added one record at a time from 0.0.

    A rejected record carries zero revenue and zero cost.
    """

    records: int = 0
    accepted: int = 0
    revenue: float = 0.0
    cost: float = 0.0

    def add(self, record) -> None:
        self.records += 1
        self.accepted += int(record.accepted)
        self.revenue += record.revenue
        self.cost += record.cost

    @property
    def acc(self) -> float:
        return self.accepted / self.records if self.records else 0.0

    @property
    def ltar2c(self) -> float | None:
        """None while the cost is still zero."""
        return self.revenue / self.cost if self.cost > 0 else None


@dataclass
class MetricsLedger:
    """The embedding records of one run, in arrival order."""

    records: list = field(default_factory=list)

    def series(self, interval: float) -> list[tuple[float, float, float | None, float]]:
        """Sample (t, ltar, ltar2c, acc) every ``interval`` time units.

        Rows begin at the first sampling point with at least one record;
        ltar2c is None while cumulative cost is still zero. An interval that
        would need more than ``MAX_SERIES_ROWS`` sampling points is refused
        by ``check_series_rows`` before any row is built.
        """
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        records = self.records
        if not records:
            return []
        end = records[-1].t_s
        check_series_rows(end, interval)
        rows = []
        tally = Tally()
        t = interval
        while True:
            while tally.records < len(records) and records[tally.records].t_s <= t:
                tally.add(records[tally.records])
            if tally.records:
                rows.append((t, tally.revenue / t, tally.ltar2c, tally.acc))
            if t >= end:
                break
            t += interval
        return rows

    def summary(self) -> tuple[float, float | None, float]:
        """(ltar, ltar2c, acc) over the whole recorded horizon."""
        if not self.records:
            raise ValueError("summary is undefined for an empty ledger")
        tally = Tally()
        for record in self.records:
            tally.add(record)
        end = self.records[-1].t_s
        ltar = tally.revenue / end if end > 0 else 0.0
        return ltar, tally.ltar2c, tally.acc
