import dataclasses
import random

import numpy as np
import pytest

from _helpers import exactly
from fedvne.agent import DecisionTrace, DomainAgent, PolicyParams, check_params
from fedvne.federation import (
    Coordinator,
    ParamUpload,
    aggregate,
    global_loss,
)


def upload(kernel, bias, count, loss=0.0):
    return ParamUpload(PolicyParams(np.array(kernel, dtype=float), bias), count, loss)


def agent_with_pending(domain_id, kernel, bias, reward=0.5):
    """An agent that has trained once and is ready to upload."""
    agent = DomainAgent(domain_id, PolicyParams(np.array(kernel, dtype=float), bias))
    state = np.full((2, 3), 0.5)
    agent.buffer.append(DecisionTrace(state, [0], reward))
    agent.train(0.0)  # zero step: upload bookkeeping without moving params
    return agent


def test_aggregate_idempotent_on_identical_uploads():
    uploads = [upload([0.3, -0.2, 0.5], 0.7, count) for count in (5, 9, 2)]
    merged = aggregate(uploads)
    assert np.allclose(merged.kernel, [0.3, -0.2, 0.5], atol=1e-12)
    assert merged.bias == pytest.approx(0.7, abs=1e-12)


def test_aggregate_symmetry_cancels():
    uploads = [upload([1.0, -2.0, 3.0], 0.0, 10), upload([-1.0, 2.0, -3.0], 0.0, 10)]
    merged = aggregate(uploads)
    assert np.allclose(merged.kernel, 0.0, atol=1e-12)


def test_aggregate_weighted_mean():
    uploads = [upload([0, 0, 0], 1.0, 25), upload([0, 0, 0], 2.0, 75)]
    assert aggregate(uploads).bias == pytest.approx(1.75, abs=1e-12)


def test_weighted_mean_of_finite_uploads_is_finite_where_the_weighted_sum_overflows():
    # magnitude sums 9.8e306 (84 samples) and 5.1e306 (53), as in a training run at learning rate 1e308
    uploads = [
        upload([-3e306, -3e306, 1e305], -3.7e306, 84, loss=1.7e308),
        upload([-1.5e306, -1.5e306, 1e305], -2e306, 53, loss=1.7e308),
    ]
    for u in uploads:
        check_params(u.params, "upload")
    with np.errstate(over="ignore", invalid="ignore"):  # as training runs it
        merged, loss = aggregate(uploads), global_loss(uploads)
    check_params(merged, "global parameters")
    shares = (84 / 137, 53 / 137)
    kernel = shares[0] * uploads[0].params.kernel + shares[1] * uploads[1].params.kernel
    assert merged.kernel.tolist() == kernel.tolist()
    assert merged.bias == shares[0] * -3.7e306 + shares[1] * -2e306
    assert loss == shares[0] * 1.7e308 + shares[1] * 1.7e308


def test_aggregate_requires_uploads():
    # an empty round carries no samples either
    for uploads in ([], [upload([0, 0, 0], 1.0, 0), upload([0, 0, 0], 2.0, 0)]):
        with pytest.raises(ValueError, match=exactly("uploads carry no samples")):
            aggregate(uploads)


def test_aggregate_permutation_invariant():
    rng = random.Random(13)
    uploads = [
        upload([rng.uniform(-2, 2) for _ in range(3)], rng.uniform(-1, 1), rng.randint(1, 99))
        for _ in range(6)
    ]
    base = aggregate(uploads)
    shuffled = uploads[:]
    rng.shuffle(shuffled)
    permuted = aggregate(shuffled)
    assert np.allclose(base.kernel, permuted.kernel, atol=1e-12)
    assert base.bias == pytest.approx(permuted.bias, abs=1e-12)


def test_aggregate_homogeneous_degree_one():
    rng = random.Random(14)
    uploads = [
        upload([rng.uniform(-2, 2) for _ in range(3)], rng.uniform(-1, 1), rng.randint(1, 9))
        for _ in range(4)
    ]
    scaled = [
        dataclasses.replace(
            u, params=PolicyParams(u.params.kernel * 2.5, u.params.bias * 2.5)
        )
        for u in uploads
    ]
    assert np.allclose(aggregate(scaled).kernel, aggregate(uploads).kernel * 2.5, atol=1e-12)
    assert aggregate(scaled).bias == pytest.approx(aggregate(uploads).bias * 2.5, abs=1e-12)


def test_global_loss_cases():
    assert global_loss([upload([0, 0, 0], 0.0, 7, loss=0.42)]) == pytest.approx(0.42)
    equal = [upload([0, 0, 0], 0.0, 5, 0.2), upload([0, 0, 0], 0.0, 5, 0.4)]
    assert global_loss(equal) == pytest.approx(0.3)
    weighted = [upload([0, 0, 0], 0.0, 1, 0.0), upload([0, 0, 0], 0.0, 3, 1.0)]
    assert global_loss(weighted) == pytest.approx(0.75)
    for uploads in ([], [upload([0, 0, 0], 0.0, 0, 0.5)]):
        with pytest.raises(ValueError, match=exactly("uploads carry no samples")):
            global_loss(uploads)


def test_coordinator_requires_a_domain():
    with pytest.raises(ValueError, match=exactly("uploads carry no samples")):
        Coordinator().run_round({})


def test_run_round_single_domain_is_identity():
    agent = agent_with_pending(0, [0.4, 0.5, 0.6], 0.25)
    before = agent.params.copy()
    coordinator = Coordinator()
    fed_round = coordinator.run_round({0: agent})
    assert np.allclose(fed_round.global_params.kernel, before.kernel, atol=1e-12)
    assert fed_round.global_params.bias == pytest.approx(before.bias, abs=1e-12)


def test_run_round_broadcast_equalizes_exactly():
    agents = {d: agent_with_pending(d, [d, d * 2.0, -d], 0.1 * d) for d in range(4)}
    coordinator = Coordinator()
    fed_round = coordinator.run_round(agents)
    for agent in agents.values():
        assert np.array_equal(agent.params.kernel, fed_round.global_params.kernel)
        assert agent.params.bias == fed_round.global_params.bias
    # infinity-norm gap is exactly zero after broadcast
    gap = max(
        float(np.max(np.abs(a.params.kernel - fed_round.global_params.kernel)))
        for a in agents.values()
    )
    assert gap == 0.0


def test_run_round_missing_upload_aborts():
    agents = {0: agent_with_pending(0, [1, 1, 1], 0.0), 1: DomainAgent(1, PolicyParams(np.zeros(3), 0.0))}
    coordinator = Coordinator()
    before = agents[0].params.copy()
    with pytest.raises(ValueError, match=exactly("domain 1 has not produced a training batch")):
        coordinator.run_round(agents)
    assert np.array_equal(agents[0].params.kernel, before.kernel)  # round left no trace
    # after the lagging domain trains, the retried round succeeds
    agents[1] = agent_with_pending(1, [0, 0, 0], 0.0)
    fed_round = coordinator.run_round(agents)
    assert np.array_equal(agents[1].params.kernel, fed_round.global_params.kernel)


def test_two_round_trace_matches_hand_computation():
    # synthetic local step: move one quarter of the way toward kernel 2
    target = 2.0

    def local_step(agent):
        agent.params.kernel = agent.params.kernel - 0.25 * (agent.params.kernel - target)
        state = np.full((1, 3), 0.5)
        agent.buffer.append(DecisionTrace(state, [0], 1.0))
        agent.train(0.0)

    agents = {
        0: DomainAgent(0, PolicyParams(np.zeros(3), 0.0)),
        1: DomainAgent(1, PolicyParams(np.full(3, 4.0), 0.0)),
    }
    coordinator = Coordinator()

    local_step(agents[0])  # 0   -> 0.5
    local_step(agents[1])  # 4   -> 3.5
    first = coordinator.run_round(agents)
    assert np.allclose(first.global_params.kernel, 2.0)  # equal counts: (0.5 + 3.5) / 2

    local_step(agents[0])  # 2 -> 2 (already at the optimum)
    local_step(agents[1])
    second = coordinator.run_round(agents)
    assert np.allclose(second.global_params.kernel, 2.0)


def test_run_round_reports_mean_pending_reward_per_domain():
    agents = {0: agent_with_pending(0, [0, 0, 0], 0.0, reward=0.25)}
    state = np.full((2, 3), 0.5)
    agents[0].buffer.append(DecisionTrace(state, [1], 1.0))
    agents[0].train(0.0)
    agents[1] = agent_with_pending(1, [0, 0, 0], 0.0, reward=0.0)
    fed_round = Coordinator().run_round(agents)
    assert fed_round.reward_means == {0: 0.625, 1: 0.0}
    assert all(not a.pending_rewards for a in agents.values())


def test_run_round_does_not_depend_on_the_order_agents_are_handed_in():
    # 0.2 + 0.4 + 0.6 rounds differently taken from the right: the sums run in domain order
    state = np.array([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]])

    def agents():
        ready = {}
        for d, value in enumerate((0.1, 0.2, 0.3)):
            ready[d] = DomainAgent(d, PolicyParams(np.full(3, value), value))
            ready[d].buffer += [DecisionTrace(state, [0], d + 1.0), DecisionTrace(state, [1], 0.0)]
            ready[d].train(0.0)
        return ready

    forward = Coordinator().run_round(agents())
    backward = Coordinator().run_round(dict(reversed(agents().items())))
    assert forward.global_params.kernel.tobytes() == backward.global_params.kernel.tobytes()
    assert forward.global_params.bias.hex() == backward.global_params.bias.hex()
    assert forward.global_loss.hex() == backward.global_loss.hex()
    assert list(forward.local_losses.items()) == list(backward.local_losses.items())
    assert list(forward.reward_means.items()) == list(backward.reward_means.items())


def test_uploads_carry_only_parameter_messages():
    # the upload type is the whole cross-domain surface: params, count, loss
    field_names = {f.name for f in dataclasses.fields(ParamUpload)}
    assert field_names == {"params", "sample_count", "local_loss"}


def test_global_loss_sums_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16; a compensated sum would give 1.0 / 3
    uploads = [upload([0.0, 0.0, 0.0], 0.0, 1, loss) for loss in [1e16, 1.0, -1e16]]
    assert global_loss(uploads) == 0.0
