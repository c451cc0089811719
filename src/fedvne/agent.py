"""Per-domain policy: state extraction, scoring, ranking, and training.

Each domain runs the same tiny model: a 3-feature linear layer (kernel plus
bias) over the domain's state, followed by a softmax that turns node
scores into allocation probabilities. Training is one policy-gradient step
per batch of completed episodes, with the batch-mean reward as baseline.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import numpy as np

from .metrics import left_sum
from .substrate import MultiDomainSubstrate

NUM_FEATURES = 3
# features lie in [0, 1], so a node score is at most the sum of the parameters'
# magnitudes; under this bound neither a score nor its shift by the domain's
# largest score overflows
MAX_PARAM_MAGNITUDE = sys.float_info.max / 4


@dataclass
class PolicyParams:
    kernel: np.ndarray
    bias: float

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.kernel.copy(), self.bias)


@dataclass
class DecisionTrace:
    """One episode's placement decisions inside a single domain.

    ``rows`` are the rows of ``state`` chosen for the domain's embedded
    virtual nodes, in virtual-node order; they share the episode reward.
    ``state`` is the domain state the policy ranked the request with; traces
    of requests ranked on one snapshot hold the same array, which nobody
    mutates. A domain's states all have one row per node, so one agent's
    traces share one row count.
    """

    state: np.ndarray
    rows: list[int]
    reward: float


def check_params(params: PolicyParams, where: str) -> None:
    """Refuse, with a ValueError that begins with ``where``, what no checkpoint may hold."""
    values = [*params.kernel.tolist(), float(params.bias)]
    if not np.isfinite(values).all():
        raise ValueError(f"{where}: checkpoint values must be finite")
    if left_sum(abs(v) for v in values) > MAX_PARAM_MAGNITUDE:
        limit = f"{MAX_PARAM_MAGNITUDE!r}"
        raise ValueError(f"{where}: the magnitudes of checkpoint values must sum to at most {limit}")


def init_params(rng: random.Random) -> PolicyParams:
    kernel = np.array([rng.uniform(-0.1, 0.1) for _ in range(NUM_FEATURES)])
    return PolicyParams(kernel=kernel, bias=0.0)


def extract_state(substrate: MultiDomainSubstrate) -> list[np.ndarray]:
    """Build every domain's state from one substrate snapshot.

    A domain's state is one row per node, in ascending node-id order (node
    ``i`` is row ``substrate.row_in_domain[i]``), over the columns [available
    cpu, incident available bandwidth, incident distance sum], min-max
    normalized per column (constant columns map to 0.5). Incident sums
    include inter-domain links. The distance column weights each incident
    link's Euclidean length by 1/(1 + hops); incident links are one hop away,
    so each contributes half its length, summed once per topology into
    ``substrate.incident_distance``. The states are row slices of one matrix
    in ``substrate.domain_order``; every column is normalized in one pass.
    """
    raw = np.column_stack([substrate.cpu_available, substrate.available_bw_sums(), substrate.incident_distance])
    raw = raw.take(substrate.domain_order, axis=0)  # rows in domain order
    starts, rows = substrate.domain_starts[:-1], substrate.domain_rows
    lo = np.minimum.reduceat(raw, starts)
    # take, not [rows]: a fancy index of a 2-D array costs several times more
    span = (np.maximum.reduceat(raw, starts) - lo).take(rows, axis=0)
    features = np.full_like(raw, 0.5)
    np.divide(raw - lo.take(rows, axis=0), span, out=features, where=span > 0)
    return [features[a:b] for a, b in substrate.domain_bounds]


def scores(params: PolicyParams, state: np.ndarray) -> np.ndarray:
    return state @ params.kernel + params.bias


def episode_reward(record, reject_reward: float = 0.0) -> float:
    """Revenue-to-cost ratio of an accepted request; reject_reward otherwise."""
    if not record.accepted or record.cost <= 0:
        return reject_reward
    return record.revenue / record.cost


def train_step(params: PolicyParams, traces, learning_rate: float) -> tuple[PolicyParams, float]:
    """One gradient-descent step on the batch loss; returns (params, loss).

    The gradient is computed analytically through the softmax and linear
    layer. A batch whose rewards all equal their mean has zero advantage
    everywhere and returns a copy of ``params`` with loss 0.0.

    The softmax of every trace with chosen rows is computed in one pass per
    state row count: the states are stacked, and each numpy call gives every
    state the bits its own per-state call would. One agent's traces share one
    row count, so a training batch is one pass. Each chosen row's loss, kernel
    and bias terms then go to their slot in trace order and are added left to
    right onto 0.0, as a per-row loop would add them.
    """
    if not traces:
        raise ValueError("empty trace batch")
    baseline = float(np.mean([t.reward for t in traces]))
    advantages = [t.reward - baseline for t in traces]
    n_samples = sum(len(t.rows) for t in traces)
    if n_samples == 0 or all(a == 0.0 for a in advantages):
        return params.copy(), 0.0

    # row 0 stays zero and row 1 + k holds the k-th chosen row's terms in trace order
    loss_terms = np.zeros(n_samples + 1)
    kernel_terms = np.zeros((n_samples + 1, NUM_FEATURES))
    bias_terms = np.zeros(n_samples + 1)
    slots, groups = 1, {}
    for trace, advantage in zip(traces, advantages):
        if trace.rows:
            groups.setdefault(len(trace.state), []).append((trace, advantage, slots))
            slots += len(trace.rows)
    for members in groups.values():
        states = np.stack([trace.state for trace, _, _ in members])
        z = scores(params, states)
        shifted = z - z.max(axis=1)[:, None]
        lp = shifted - np.log(np.exp(shifted).sum(axis=1))[:, None]
        p = np.exp(lp)
        expected_features = np.matmul(p[:, None, :], states)[:, 0]
        mass_error = p.sum(axis=1) - 1.0
        # per chosen row: its trace's place in the group, the row and its slot
        local, chosen, where = np.array(
            [(t, row, slot + k) for t, (trace, _, slot) in enumerate(members) for k, row in enumerate(trace.rows)]
        ).T
        advantage = np.array([a for trace, a, _ in members for _ in trace.rows])
        loss_terms[where] = -advantage * lp[local, chosen]
        kernel_terms[where] = advantage[:, None] * (expected_features[local] - states[local, chosen])
        bias_terms[where] = advantage * mass_error[local]
    # cumsum adds the terms strictly left to right, onto the leading 0.0
    loss = np.cumsum(loss_terms)[-1] / n_samples
    grad_kernel = np.cumsum(kernel_terms, axis=0)[-1] / n_samples
    grad_bias = np.cumsum(bias_terms)[-1] / n_samples
    updated = PolicyParams(
        kernel=params.kernel - learning_rate * grad_kernel,
        bias=params.bias - learning_rate * grad_bias,
    )
    return updated, float(loss)


class DomainAgent:
    """Holds one domain's parameters, trace buffer, and upload bookkeeping.

    Traces accumulate between training steps; training consumes the buffer
    and stashes the step's statistics for the next federation round. The
    coordinator reads the pending fields to build an upload and calls
    ``apply_global`` to install the broadcast parameters.
    """

    def __init__(self, domain_id: int, params: PolicyParams):
        self.domain_id = domain_id
        self.params = params
        self.buffer: list[DecisionTrace] = []
        self.pending_samples = 0
        self.pending_loss_weighted = 0.0
        self.pending_rewards: list[float] = []

    def train(self, learning_rate: float) -> None:
        self.params, loss = train_step(self.params, self.buffer, learning_rate)
        samples = sum(len(t.rows) for t in self.buffer)
        self.pending_samples += samples
        self.pending_loss_weighted += loss * samples
        self.pending_rewards.extend(t.reward for t in self.buffer)
        self.buffer = []

    def apply_global(self, params: PolicyParams) -> None:
        self.params = params.copy()
        self.pending_samples = 0
        self.pending_loss_weighted = 0.0
        self.pending_rewards = []


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(path, domain_params: dict[int, PolicyParams], global_params: PolicyParams) -> None:
    """One line per domain (in id order) then one line for the global model."""
    params = [domain_params[d] for d in sorted(domain_params)] + [global_params]
    lines = [" ".join(repr(float(x)) for x in [*p.kernel, p.bias]) for p in params]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[dict[int, PolicyParams], PolicyParams]:
    with open(path, encoding="utf-8", errors="backslashreplace") as fh:
        rows = [(no, line.split()) for no, line in enumerate(fh, 1) if line.strip()]
    if len(rows) < 2:
        where = f"{path}:{rows[-1][0] + 1 if rows else 1}"  # where the missing line belongs
        raise ValueError(f"{where}: checkpoint needs at least one domain and a global line")
    params = []
    for line_no, row in rows:
        where = f"{path}:{line_no}"
        if len(row) != NUM_FEATURES + 1:
            raise ValueError(f"{where}: each checkpoint line needs {NUM_FEATURES + 1} values")
        try:
            values = [float(x) for x in row]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        params.append(PolicyParams(kernel=np.array(values[:NUM_FEATURES]), bias=values[-1]))
        check_params(params[-1], where)
    domains = {d: p for d, p in enumerate(params[:-1])}
    return domains, params[-1]
