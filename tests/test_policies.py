import dataclasses

import numpy as np
import pytest

from _helpers import (
    exactly,
    feasible_view,
    make_substrate,
    make_vnr,
    reference_hfl_candidates,
    train_with_episodes,
)
from fedvne import engine, workload
from fedvne.agent import DomainAgent, PolicyParams
from fedvne.config import ExperimentConfig
from fedvne.metrics import Tally
from fedvne.policies import HflPolicy, ranked_by_score
from fedvne.training import Trainer


def small_config(**overrides):
    base = dict(
        num_domains=2,
        nodes_per_domain=5,
        num_links=14,
        vnr_count=60,
        train_count=30,
        test_count=30,
        vn_nodes_min=1,
        vn_nodes_max=3,
        batch_size=10,
        epochs=2,
    )
    base.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **base)


def fresh_agents(substrate, kernel=(0.2, 0.1, -0.1), bias=0.0):
    return {
        d: DomainAgent(d, PolicyParams(np.array(kernel, dtype=float), bias))
        for d in range(substrate.num_domains)
    }


def test_ranked_by_score_orders_and_filters():
    sub = make_substrate([0, 0, 0], [30.0, 5.0, 30.0], [(0, 1, 20.0), (1, 2, 20.0)])
    vnr = make_vnr(node_demands=(10.0, 2.0))
    order = ranked_by_score(np.array([0.5, 0.9, 0.5]))
    candidates = feasible_view(sub, vnr, [order] * vnr.num_nodes)
    assert candidates[0] == [0, 2]  # node 1 infeasible for demand 10
    assert candidates[1] == [1, 0, 2]  # feasible for demand 2; ties by node id


def test_hfl_policy_block_matches_domain_ranking():
    cfg = small_config()
    sub = workload.generate_substrate(cfg, 17)
    agents = fresh_agents(sub)
    policy = HflPolicy(agents)
    vnr = make_vnr(node_demands=(12.0, 30.0))
    assert feasible_view(sub, vnr, policy(sub, vnr)) == reference_hfl_candidates(agents, sub, vnr)


def test_hfl_policy_is_deterministic():
    cfg = small_config()
    sub = workload.generate_substrate(cfg, 18)
    policy = HflPolicy(fresh_agents(sub))
    vnr = make_vnr(node_demands=(10.0, 20.0))
    assert [list(o) for o in policy(sub, vnr)] == [list(o) for o in policy(sub, vnr)]


def test_hfl_policy_walks_each_virtual_node_independently():
    """Two virtual nodes of equal demand get the same block order; each must
    still walk it from the start, so no two orders may share one iterator."""
    # domain 0 (nodes 0-2) fits both virtual nodes; node 4 of domain 1 fits neither
    sub = make_substrate(
        [0, 0, 0, 1, 1], [40.0, 40.0, 40.0, 40.0, 5.0],
        [(0, 1, 20.0), (1, 2, 20.0), (2, 3, 20.0), (3, 4, 20.0)], num_domains=2,
    )
    agents = fresh_agents(sub)
    hfl = HflPolicy(agents)
    vnr = make_vnr(node_demands=(10.0, 10.0), link_demands=((0, 1, 5.0),))
    walked = [list(o) for o in hfl(sub, vnr)]
    assert walked[0] == walked[1]
    assert feasible_view(sub, vnr, walked) == reference_hfl_candidates(agents, sub, vnr)
    record = engine.attempt_embedding(sub, vnr, hfl(sub, vnr), {})
    assert record.accepted
    assert len(set(record.node_map.values())) == 2
    assert set(record.node_map.values()) <= {0, 1, 2}


def test_trainer_routes_traces_to_owning_domains():
    cfg = small_config()
    sub = workload.generate_substrate(cfg, 19)
    vnr = make_vnr(node_demands=(10.0, 12.0), link_demands=((0, 1, 5.0),), t_s=0.0, t_e=4.0)
    trainer = Trainer(sub, [vnr], learning_rate=1.0, batch_size=10, epochs=1, seed=19)
    agents = trainer.agents
    record = engine.attempt_embedding(sub, vnr, trainer.policy(sub, vnr), {})
    assert record.accepted
    trainer._on_record(vnr, record)
    placed = 0
    for d, agent in agents.items():
        for trace in agent.buffer:
            assert trace.reward == record.revenue / record.cost
            assert trace.state is trainer.policy.states[d]
            for row in trace.rows:
                node_id = int(np.flatnonzero(sub.node_domain == d)[row])
                assert node_id in record.node_map.values()
                placed += 1
    assert placed == vnr.num_nodes


def test_trainer_is_deterministic():
    cfg = small_config()
    sub = workload.generate_substrate(cfg, 23)
    vnrs = workload.generate_vnr_stream(cfg, 24)[: cfg.train_count]

    def run():
        trainer = Trainer(
            sub,
            vnrs,
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            epochs=cfg.epochs,
            seed=5,
        )
        return train_with_episodes(trainer)

    (first, first_episodes), (second, second_episodes) = run(), run()
    assert np.array_equal(first.global_params.kernel, second.global_params.kernel)
    assert [r.global_loss for r, _ in first.round_rows] == [
        r.global_loss for r, _ in second.round_rows
    ]
    assert first_episodes == second_episodes


@pytest.mark.parametrize(
    "overrides, message",
    [({"batch_size": 0}, "batch size must be at least 1"), ({"epochs": 0}, "need at least one epoch")],
)
def test_trainer_refuses_empty_batches_and_epochs(overrides, message):
    cfg = small_config()
    sub = workload.generate_substrate(cfg, 23)
    settings = {"learning_rate": 1.0, "batch_size": 10, "epochs": 1, "seed": 5, **overrides}
    with pytest.raises(ValueError, match=exactly(message)):
        Trainer(sub, [], **settings)


def test_trainer_single_domain_collapse():
    cfg = small_config(num_domains=1, nodes_per_domain=8, num_links=12)
    sub = workload.generate_substrate(cfg, 25)
    vnrs = workload.generate_vnr_stream(cfg, 26)[: cfg.train_count]
    trainer = Trainer(sub, vnrs, learning_rate=1.0, batch_size=10, epochs=1, seed=6)
    result = trainer.run()
    # with one participant the global model is that participant's model
    assert np.array_equal(result.global_params.kernel, result.domain_params[0].kernel)
    assert result.global_params.bias == result.domain_params[0].bias
    assert len(result.round_rows) >= 1


def test_trainer_round_windows_cover_episodes():
    cfg = small_config()
    sub = workload.generate_substrate(cfg, 27)
    vnrs = workload.generate_vnr_stream(cfg, 28)[: cfg.train_count]
    trainer = Trainer(sub, vnrs, learning_rate=1.0, batch_size=10, epochs=2, seed=7)
    result, episodes = train_with_episodes(trainer)
    start = 0
    for _, window in result.round_rows:
        # the windows split the episodes in order; each tally holds its slice's
        # running sums, added one episode at a time from 0.0
        chunk = episodes[start : start + window.records]
        assert chunk
        revenue = cost = 0.0
        for _, episode_revenue, episode_cost in chunk:
            revenue += episode_revenue
            cost += episode_cost
        assert window == Tally(len(chunk), sum(accepted for accepted, _, _ in chunk), revenue, cost)
        start += window.records
        assert 0.0 <= window.acc <= 1.0
        if window.ltar2c is not None:
            assert 0.0 < window.ltar2c <= 1.0
    assert start == len(episodes) == 2 * len(vnrs)  # every episode of both epochs
