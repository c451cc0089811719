import math
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (
    applied_record,
    batch_loss,
    exactly,
    feasible_view,
    forward,
    log_probs,
    make_substrate,
    make_vnr,
)
from fedvne.agent import (
    MAX_PARAM_MAGNITUDE,
    DecisionTrace,
    DomainAgent,
    PolicyParams,
    check_params,
    episode_reward,
    extract_state,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from fedvne.engine import EmbeddingRecord
from fedvne.policies import HflPolicy


def params_of(kernel, bias=0.0):
    return PolicyParams(np.array(kernel, dtype=float), float(bias))


def random_state(rng, n_rows):
    return np.array([[rng.random() for _ in range(3)] for _ in range(n_rows)])


def random_batch(rng, n_groups=4):
    """One-row traces in groups of 1-3, each group sharing one drawn reward."""
    traces = []
    for _ in range(n_groups):
        drawn = []
        for _ in range(rng.randint(1, 3)):
            state = random_state(rng, rng.randint(2, 6))
            drawn.append((state, rng.randrange(len(state))))
        reward = rng.random()
        traces.extend(DecisionTrace(state, [row], reward) for state, row in drawn)
    return traces


def finite_difference_gradient(params, traces, epsilon=1e-5):
    """Central differences of the batch loss, the independent gradient oracle."""
    baseline = float(np.mean([t.reward for t in traces]))
    grad = np.zeros(4)
    for i in range(3):
        up = params_of(params.kernel, params.bias)
        up.kernel = params.kernel.copy()
        up.kernel[i] += epsilon
        down = params_of(params.kernel, params.bias)
        down.kernel = params.kernel.copy()
        down.kernel[i] -= epsilon
        grad[i] = (batch_loss(up, traces, baseline) - batch_loss(down, traces, baseline)) / (
            2 * epsilon
        )
    up = params_of(params.kernel, params.bias + epsilon)
    down = params_of(params.kernel, params.bias - epsilon)
    grad[3] = (batch_loss(up, traces, baseline) - batch_loss(down, traces, baseline)) / (
        2 * epsilon
    )
    return grad


def analytic_gradient(params, traces, learning_rate=1.0):
    updated, _ = train_step(params, traces, learning_rate)
    grad_kernel = (params.kernel - updated.kernel) / learning_rate
    grad_bias = (params.bias - updated.bias) / learning_rate
    return np.append(grad_kernel, grad_bias)


# -- state extraction ---------------------------------------------------------


def test_extract_state_single_isolated_node():
    sub = make_substrate([0], [40.0], [])
    state = extract_state(sub)[0]
    assert state.shape == (1, 3)
    # float zeros, as for a linked node: a weighted bincount over no links would give int64
    assert sub.available_bw_sums().dtype == np.float64
    assert sub.incident_distance.dtype == np.float64
    assert sub.available_bw_sums()[0] == 0.0 and sub.incident_distance[0] == 0.0
    assert (state[0] == 0.5).all()  # constant columns normalize to 0.5


def test_extract_state_two_node_domain():
    sub = make_substrate([0, 0], [40.0, 40.0], [(0, 1, 40.0)], coords=[(0.0, 0.0), (3.0, 4.0)])
    assert extract_state(sub)[0].shape == (2, 3)
    assert sub.available_bw_sums().tolist() == [40.0, 40.0]
    assert sub.incident_distance.tolist() == [2.5, 2.5]  # distance 5 over 1 + 1 hop


def test_extract_state_uses_available_not_capacity():
    sub = make_substrate([0, 0], [40.0, 40.0], [(0, 1, 40.0)])
    sub.allocate_node(0, 10.0)
    sub.allocate_path([0], 5.0)
    assert extract_state(sub)[0][:, 0].tolist() == [0.0, 1.0]  # cpu 30 against 40
    assert sub.cpu_available[0] == 30.0
    assert sub.available_bw_sums()[0] == 35.0


def test_extract_state_includes_inter_domain_links():
    sub = make_substrate(
        [0, 0, 1], [40.0] * 3, [(0, 1, 10.0), (1, 2, 20.0)], num_domains=2
    )
    assert extract_state(sub)[0][:, 1].tolist() == [0.0, 1.0]  # bw 10 against 30
    assert sub.available_bw_sums()[1] == 30.0  # node 1 counts its inter-domain link


def test_extract_state_default_scale_shape():
    from fedvne.config import ExperimentConfig
    from fedvne.workload import generate_substrate

    sub = generate_substrate(ExperimentConfig(), 2)
    for d in range(4):
        state = extract_state(sub)[d]
        assert state.shape == (25, 3)
        assert np.isfinite(state).all()
        assert state.min() >= 0.0 and state.max() <= 1.0


# -- forward pass -------------------------------------------------------------


def test_forward_uniform_for_equal_rows():
    state = np.ones((3, 3)) * 0.5
    p = forward(params_of([1.0, -2.0, 0.5], 0.3), state)
    assert np.allclose(p, 1 / 3)


def test_forward_uniform_for_zero_kernel():
    rng = random.Random(0)
    state = random_state(rng, 4)
    p = forward(params_of([0.0, 0.0, 0.0], 7.0), state)
    assert np.allclose(p, 0.25)


def test_forward_matches_independent_softmax():
    # rows engineered so scores come out as {1, 2, 3}
    state = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    p = forward(params_of([1.0, 0.0, 0.0]), state)
    denominator = math.exp(1) + math.exp(2) + math.exp(3)
    expected = [math.exp(1) / denominator, math.exp(2) / denominator, math.exp(3) / denominator]
    assert np.allclose(p, expected, atol=1e-10)
    assert np.allclose(p, [0.0900, 0.2447, 0.6652], atol=5e-5)


def test_forward_properties():
    rng = random.Random(3)
    for _ in range(25):
        state = random_state(rng, rng.randint(1, 8))
        params = params_of([rng.uniform(-4, 4) for _ in range(3)], rng.uniform(-2, 2))
        p = forward(params, state)
        assert (p > 0).all()
        assert abs(p.sum() - 1.0) <= 1e-9
        shifted = forward(params_of(params.kernel, params.bias + 123.0), state)
        assert np.allclose(p, shifted, atol=1e-12)


# -- ranking ------------------------------------------------------------------


def hfl_ranking(substrate, params, demand):
    """The feasible HflPolicy candidates for one virtual node on a one-domain substrate."""
    policy = HflPolicy({0: DomainAgent(0, params)})
    vnr = make_vnr(node_demands=(demand,))
    return feasible_view(substrate, vnr, policy(substrate, vnr))[0]


def path_substrate(cpu):
    return make_substrate([0] * len(cpu), cpu, [(i, i + 1, 10.0) for i in range(len(cpu) - 1)])


def test_rank_candidates_all_infeasible():
    assert hfl_ranking(path_substrate([5.0, 7.0]), params_of([1, 0, 0]), 10.0) == []


def test_rank_candidates_tie_breaks_by_node_id():
    # nodes 0 and 2 carry exactly the same probability
    assert hfl_ranking(path_substrate([10.0, 20.0, 10.0]), params_of([1, 0, 0]), 1.0) == [1, 0, 2]


def test_rank_candidates_filters_then_sorts():
    # node 0 carries the top probability but cannot host the demand
    sub = path_substrate([5.0, 20.0, 15.0])
    assert hfl_ranking(sub, params_of([-1, 0, 0]), 10.0) == [2, 1]


def test_rank_candidates_invariant_under_monotone_transform():
    rng = random.Random(11)
    links = [(i, i + 1, rng.uniform(10, 50)) for i in range(5)] + [(0, 3, 20.0), (1, 5, 35.0)]
    coords = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(6)]
    cpu = [rng.uniform(10, 50) for _ in range(6)]
    sub = make_substrate([0] * 6, cpu, links, coords=coords)
    params = params_of([1.5, -0.5, 0.25], 0.1)
    base = hfl_ranking(sub, params, 0.0)
    scaled = params_of(params.kernel * 3.0, params.bias * 3.0)  # order-preserving
    assert hfl_ranking(sub, scaled, 0.0) == base
    assert sorted(base) == list(range(6))


# -- rewards ------------------------------------------------------------------


def test_episode_reward_one_hop():
    vnr = make_vnr(node_demands=(10.0, 20.0), link_demands=((0, 1, 15.0),), t_s=0.0, t_e=5.0)
    record = applied_record(vnr, {0: 0, 1: 1}, {(0, 1): [0]})
    record.revenue, record.cost = 225.0, 225.0
    assert episode_reward(record) == 1.0


def test_episode_reward_rejected():
    record = EmbeddingRecord(vnr_id=0)
    assert episode_reward(record) == 0.0
    assert episode_reward(record, reject_reward=-1.0) == -1.0


def test_episode_reward_two_hop():
    record = EmbeddingRecord(vnr_id=0, revenue=225.0, cost=300.0, accepted=True)
    assert episode_reward(record) == 0.75


# -- training -----------------------------------------------------------------


def test_train_step_refuses_an_empty_batch():
    with pytest.raises(ValueError, match=exactly("empty trace batch")):
        train_step(params_of([0.1, 0.2, 0.3]), [], 0.1)


def test_train_step_zero_rewards_is_noop():
    rng = random.Random(5)
    traces = [DecisionTrace(random_state(rng, 4), [1], 0.0) for _ in range(3)]
    params = params_of([0.5, 0.5, 0.5], 0.1)
    updated, loss = train_step(params, traces, 0.1)
    assert loss == 0.0
    assert np.array_equal(updated.kernel, params.kernel)
    assert updated.bias == params.bias
    assert updated is not params


def test_train_step_single_trace_is_noop():
    # the baseline is the batch mean, so a lone trace has zero advantage
    rng = random.Random(6)
    trace = DecisionTrace(random_state(rng, 5), [2], 1.0)
    params = params_of([0.2, -0.3, 0.4], 0.0)
    updated, loss = train_step(params, [trace], 1.0)
    assert loss == 0.0
    assert np.array_equal(updated.kernel, params.kernel)


def test_train_step_without_samples_is_noop():
    params = params_of([0.2, -0.3, 0.4], 0.1)
    state = np.full((2, 3), 0.5)
    updated, loss = train_step(params, [DecisionTrace(state, [], 0.2), DecisionTrace(state, [], 0.8)], 1.0)
    assert loss == 0.0
    assert np.array_equal(updated.kernel, params.kernel) and updated.bias == params.bias
    assert updated is not params


def test_train_step_duplicate_traces_same_loss():
    rng = random.Random(7)
    first = DecisionTrace(random_state(rng, 4), [0], 0.8)
    second = DecisionTrace(random_state(rng, 4), [1], 0.2)
    params = params_of([0.1, 0.2, 0.3], 0.0)
    single, single_loss = train_step(params, [first, second], 0.5)
    double, double_loss = train_step(params, [first, first, second, second], 0.5)
    assert single_loss == pytest.approx(double_loss, rel=1e-12)
    assert np.allclose(single.kernel, double.kernel, rtol=1e-12, atol=0.0)


def test_train_step_baseline_is_batch_mean():
    rng = random.Random(8)
    traces = [DecisionTrace(random_state(rng, 4), [1], r) for r in (0.2, 0.8)]
    params = params_of([0.3, 0.3, 0.3], 0.0)
    _, loss = train_step(params, traces, 0.5)
    assert loss == pytest.approx(batch_loss(params, traces, baseline=0.5), rel=1e-12)
    assert loss != pytest.approx(batch_loss(params, traces, baseline=0.0), rel=1e-6)


def test_train_step_reuse_never_crosses_states():
    rng = random.Random(12)
    a, b = random_state(rng, 4), random_state(rng, 4)
    # consecutive traces over different states, the first and last over the same one
    traces = [
        DecisionTrace(a, [0, 2], 0.9),
        DecisionTrace(b, [3, 0, 1], 0.2),
        DecisionTrace(a, [1], 0.5),
    ]
    params = params_of([0.37, -1.3, 0.8], 0.25)
    # the softmax recomputed for every row, accumulated in the same order
    baseline = float(np.mean([t.reward for t in traces]))
    loss, grad_kernel, grad_bias = 0.0, np.zeros(3), 0.0
    for trace in traces:
        advantage = trace.reward - baseline
        state = trace.state
        for chosen in trace.rows:
            lp = log_probs(params, state)
            p = np.exp(lp)
            loss += -advantage * lp[chosen]
            grad_kernel += advantage * (p @ state - state[chosen])
            grad_bias += advantage * (p.sum() - 1.0)
    updated, step_loss = train_step(params, traces, 0.1)
    assert step_loss == float(loss / 6)
    assert updated.kernel.tobytes() == (params.kernel - 0.1 * (grad_kernel / 6)).tobytes()
    assert updated.bias == params.bias - 0.1 * (grad_bias / 6)


def test_gradient_matches_finite_differences():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(30):
        traces = random_batch(rng)
        params = params_of([rng.uniform(-1, 1) for _ in range(3)], rng.uniform(-0.5, 0.5))
        analytic = analytic_gradient(params, traces)
        numeric = finite_difference_gradient(params, traces)
        error = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6
        )
        worst = max(worst, error)
    assert worst < 1e-4


def test_bias_gradient_vanishes_through_softmax():
    rng = random.Random(9)
    traces = random_batch(rng)
    params = params_of([0.4, -0.2, 0.1], 0.3)
    updated, _ = train_step(params, traces, 1.0)
    assert updated.bias == params.bias


def test_init_params_range_and_determinism():
    a = init_params(random.Random(1))
    b = init_params(random.Random(1))
    assert np.array_equal(a.kernel, b.kernel)
    assert (np.abs(a.kernel) <= 0.1).all()
    assert a.bias == 0.0


def test_checkpoint_round_trip(tmp_path):
    domains = {
        0: params_of([0.1, -0.2, 0.3], 0.05),
        1: params_of([1.5, 2.5, -3.5], -0.125),
    }
    global_params = params_of([0.7, 0.8, 0.9], 1.0)
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(path, domains, global_params)
    loaded_domains, loaded_global = load_checkpoint(path)
    assert set(loaded_domains) == {0, 1}
    for d in domains:
        assert np.array_equal(loaded_domains[d].kernel, domains[d].kernel)
        assert loaded_domains[d].bias == domains[d].bias
    assert np.array_equal(loaded_global.kernel, global_params.kernel)
    assert loaded_global.bias == global_params.bias


def expected_fault(values):
    """The fault text the parameter check gives ``values``, or None inside the bound."""
    if not all(math.isfinite(v) for v in values):
        return "checkpoint values must be finite"
    if sum(abs(v) for v in values) > MAX_PARAM_MAGNITUDE:
        return f"the magnitudes of checkpoint values must sum to at most {MAX_PARAM_MAGNITUDE!r}"
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.floats(), min_size=4, max_size=4), min_size=2, max_size=4))
@example([[MAX_PARAM_MAGNITUDE, 0.0, -0.0, 0.0], [-MAX_PARAM_MAGNITUDE / 2, 0.0, 0.0, MAX_PARAM_MAGNITUDE / 2]])
@example([[0.1, 0.2, 0.3, 0.0], [0.0, 0.0, -MAX_PARAM_MAGNITUDE, 1e292]])
@example([[sys.float_info.max, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
def test_checkpoint_keeps_bounded_values_bit_for_bit_and_refuses_the_rest(lines):
    params = [params_of(values[:3], values[3]) for values in lines]
    faults = [expected_fault(values) for values in lines]
    for p, fault in zip(params, faults):
        if fault is None:
            check_params(p, "here")
        else:
            with pytest.raises(ValueError, match=exactly(f"here: {fault}")):
                check_params(p, "here")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.txt"
        save_checkpoint(path, dict(enumerate(params[:-1])), params[-1])
        refused = [(line_no, fault) for line_no, fault in enumerate(faults, 1) if fault is not None]
        if refused:
            line_no, fault = refused[0]
            with pytest.raises(ValueError, match=exactly(f"{path}:{line_no}: {fault}")):
                load_checkpoint(path)
            return
        domains, global_params = load_checkpoint(path)
    for loaded, p in zip([*domains.values(), global_params], params):
        assert loaded.kernel.tobytes() == p.kernel.tobytes()
        assert np.float64(loaded.bias).tobytes() == np.float64(p.bias).tobytes()
