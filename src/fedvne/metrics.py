"""Per-request revenue/cost and the long-term evaluation indicators.

The long-term indicators are event-time sums: revenue and cost accrue at the
arrival instant of each accepted request, and the time series reports the
cumulative values at a fixed sampling interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class UndefinedMetric(Exception):
    pass


class RejectedRecord(Exception):
    pass


def vnr_revenue(vnr) -> float:
    """Lifetime-weighted sum of all requested resources."""
    duration = vnr.t_e - vnr.t_s
    resources = sum(vnr.node_demands) + sum(bw for _, _, bw in vnr.link_demands)
    return duration * resources


def vnr_cost(vnr, record) -> float:
    """Like revenue, but each link demand is multiplied by its mapped hop count."""
    if not record.accepted:
        raise RejectedRecord(f"vnr {vnr.vnr_id} was rejected; cost is undefined")
    duration = vnr.t_e - vnr.t_s
    total = sum(vnr.node_demands)
    for a, b, bw in vnr.link_demands:
        total += bw * len(record.link_paths[(a, b)])
    return duration * total


@dataclass(frozen=True)
class MetricEvent:
    t: float
    revenue: float
    cost: float
    accepted: bool


@dataclass
class MetricsLedger:
    """Time-ordered accumulator of embedding outcomes."""

    events: list[MetricEvent] = field(default_factory=list)
    revenue_sum: float = 0.0
    cost_sum: float = 0.0
    accepted_count: int = 0
    total_count: int = 0

    def record_vnr(self, t: float, revenue: float, cost: float, accepted: bool) -> None:
        if self.events and t < self.events[-1].t:
            raise ValueError("ledger events must be recorded in time order")
        self.events.append(MetricEvent(t, revenue, cost, accepted))
        self.revenue_sum += revenue
        self.cost_sum += cost
        self.total_count += 1
        if accepted:
            self.accepted_count += 1

    def series(self, interval: float) -> list[tuple[float, float, float | None, float]]:
        """Sample (t, ltar, ltar2c, acc) every ``interval`` time units.

        Rows begin at the first sampling point with at least one event;
        ltar2c is None while cumulative cost is still zero.
        """
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        if not self.events:
            return []
        end = self.events[-1].t
        rows = []
        revenue = cost = 0.0
        accepted = total = 0
        idx = 0
        t = interval
        while True:
            while idx < len(self.events) and self.events[idx].t <= t:
                event = self.events[idx]
                revenue += event.revenue
                cost += event.cost
                total += 1
                accepted += int(event.accepted)
                idx += 1
            if total > 0:
                ratio = revenue / cost if cost > 0 else None
                rows.append((t, revenue / t, ratio, accepted / total))
            if t >= end:
                break
            t += interval
        return rows

    def summary(self) -> tuple[float, float | None, float]:
        """(ltar, ltar2c, acc) over the whole recorded horizon."""
        if not self.events:
            raise UndefinedMetric("summary is undefined for an empty ledger")
        end = self.events[-1].t
        ltar = self.revenue_sum / end if end > 0 else 0.0
        ratio = self.revenue_sum / self.cost_sum if self.cost_sum > 0 else None
        return ltar, ratio, self.accepted_count / self.total_count
