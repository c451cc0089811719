"""Acceptance suite: every criterion at its stated tolerance.

Runs the full pipeline at the reference scale (4 domains x 25 nodes, 600
links, 2000 requests) over ten fixed seeds and prints one PASS line per
criterion. Training uses the packaged defaults with six epochs so the whole
suite stays within a few minutes on a desktop CPU.
"""

import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

from _helpers import batch_loss, indicator_acceptance, train_with_episodes
from fedvne import cli, engine, workload
from fedvne.agent import (
    DecisionTrace,
    DomainAgent,
    PolicyParams,
    train_step,
)
from fedvne.baselines import NodeRankPolicy, RandomPolicy
from fedvne.config import ExperimentConfig
from fedvne.federation import Coordinator, ParamUpload, aggregate, global_loss
from fedvne.policies import HflPolicy
from fedvne.substrate import MultiDomainSubstrate
from fedvne.training import Trainer

SEEDS = tuple(range(101, 111))
EPOCHS = 6


def reference_config():
    return dataclasses.replace(ExperimentConfig(), epochs=EPOCHS)


def summarize(ledger):
    ltar, ltar2c, acc = ledger.summary()
    return ltar, ltar2c, acc


@pytest.fixture(scope="session")
def instances():
    cfg = reference_config()
    out = {}
    for seed in SEEDS:
        substrate = workload.generate_substrate(cfg, seed)
        vnrs = workload.generate_vnr_stream(cfg, seed + 1000)
        out[seed] = (substrate, vnrs)
    return out


@pytest.fixture(scope="session")
def trained(instances):
    cfg = reference_config()
    out = {}
    for seed in SEEDS:
        substrate, vnrs = instances[seed]
        trainer = Trainer(
            substrate,
            vnrs[: cfg.train_count],
            learning_rate=cfg.learning_rate,
            batch_size=cfg.batch_size,
            epochs=cfg.epochs,
            seed=seed,
            reject_reward=cfg.reject_reward,
        )
        out[seed] = train_with_episodes(trainer)
    return out


@pytest.fixture(scope="session")
def evaluations(instances, trained):
    cfg = reference_config()
    out = {}
    for seed in SEEDS:
        substrate, vnrs = instances[seed]
        test = workload.rebase_stream(vnrs[cfg.train_count : cfg.train_count + cfg.test_count])
        per_policy = {}
        result, _ = trained[seed]
        agents = {d: DomainAgent(d, result.global_params.copy()) for d in range(substrate.num_domains)}
        for name, policy in (
            ("hfl", HflPolicy(agents)),
            ("noderank", NodeRankPolicy()),
            ("random", RandomPolicy(cfg.seed)),
        ):
            _, ledger, records = engine.run_simulation(substrate.copy(), test, policy)
            per_policy[name] = (ledger, records)
        out[seed] = (test, per_policy)
    return out


# -- criterion 1: constraint soundness through the CLI ------------------------


def test_c1_constraint_soundness(tmp_path_factory, capsys):
    cfg = reference_config()
    flags = ["--train-count", "0", "--test-count", str(cfg.vnr_count)]
    worst = 0.0
    for seed in SEEDS:
        out_dir = tmp_path_factory.mktemp(f"c1_{seed}")
        started = time.perf_counter()
        assert cli.main(
            ["generate", "--out-dir", str(out_dir), "--seed", str(seed)] + flags
        ) == 0
        substrate_path = out_dir / "substrate.txt"
        vnrs_path = out_dir / "vnrs.txt"
        assert cli.main(
            ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
             "--policy", "noderank", "--out-dir", str(out_dir), "--seed", str(seed)] + flags
        ) == 0
        code = cli.main(
            ["validate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
             "--decisions", str(out_dir / "decisions.csv")]
        )
        elapsed = time.perf_counter() - started
        output = capsys.readouterr().out
        assert code == 0, f"seed {seed}: validate reported violations"
        assert "0 violations" in output
        assert elapsed < 120.0, f"seed {seed}: run took {elapsed:.1f}s"
        worst = max(worst, elapsed)
    print(f"[acceptance] criterion 1 (constraint soundness): PASS "
          f"(10/10 runs clean, worst wall time {worst:.1f}s < 120s)")


# -- criterion 2: conservation -------------------------------------------------


def test_c2_conservation(instances):
    cfg = reference_config()
    for seed in SEEDS:
        substrate, vnrs = instances[seed]
        stream = workload.rebase_stream(vnrs[: cfg.vnr_count])
        initial = substrate.copy()
        final, _, records = engine.run_simulation(substrate.copy(), stream, NodeRankPolicy())
        violations = engine.replay_validate(initial, stream, records, final.resource_vector())
        assert violations == [], f"seed {seed}: {violations[:3]}"
        # all departures are drained before the run ends, so the final vector
        # must equal the initial one bit for bit
        assert final.resource_vector().tobytes() == initial.resource_vector().tobytes()
    print("[acceptance] criterion 2 (conservation): PASS "
          "(replayed logs reproduce final vectors exactly; substrate restored)")


# -- criterion 3: oracle equivalence on tiny instances -------------------------


def tiny_instance(rng):
    n = rng.randint(2, 6)
    num_domains = 1 if n < 4 else rng.choice((1, 2))
    domains = sorted(rng.randrange(num_domains) for _ in range(n))
    for d in range(num_domains):  # keep every domain populated
        if d not in domains:
            domains[rng.randrange(n)] = d
            domains.sort()
    used = set()
    # random tree per domain, bridges between domains, then extra links
    members = {d: [i for i in range(n) if domains[i] == d] for d in range(num_domains)}
    for d, ids in members.items():
        order = ids[:]
        rng.shuffle(order)
        for i in range(1, len(order)):
            a, b = rng.choice(order[:i]), order[i]
            used.add((min(a, b), max(a, b)))
    for d in range(1, num_domains):
        a, b = rng.choice(members[d - 1]), rng.choice(members[d])
        used.add((min(a, b), max(a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in used and rng.random() < 0.35:
                used.add((a, b))
    links = [(a, b, float(rng.randint(4, 12))) for a, b in sorted(used)]
    cpu = [float(rng.randint(4, 12)) for _ in range(n)]
    coords = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    substrate = MultiDomainSubstrate(
        num_domains, domains, coords, cpu, [(a, b) for a, b, _ in links], [w for _, _, w in links]
    )
    vnrs = []
    t = 0.0
    for vnr_id in range(3):
        t += rng.uniform(0.5, 3.0)
        size = rng.randint(1, min(3, n))
        edges = [
            (i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.5
        ]
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(a)] = find(b)
        roots = sorted({find(i) for i in range(size)})
        for extra in roots[1:]:
            edges.append((roots[0], extra))
        vnrs.append(
            workload.VirtualNetworkRequest(
                vnr_id=vnr_id,
                node_demands=tuple(float(rng.randint(1, 6)) for _ in range(size)),
                link_demands=tuple((a, b, float(rng.randint(1, 6))) for a, b in sorted(edges)),
                t_s=t,
                t_e=t + rng.uniform(1.0, 6.0),
            )
        )
    return substrate, vnrs


def simple_paths(adjacency, bw, src, dst, demand):
    found = []

    def walk(node, seen, links):
        if node == dst:
            found.append(tuple(links))
            return
        for neighbor, link_id in adjacency[node]:
            if neighbor in seen or bw[link_id] < demand:
                continue
            seen.add(neighbor)
            links.append(link_id)
            walk(neighbor, seen, links)
            links.pop()
            seen.remove(neighbor)

    walk(src, {src}, [])
    return found


def enumerate_feasible(substrate, cpu, bw, vnr):
    """Every constraint-satisfying embedding, by brute force."""
    feasible = set()
    for assignment in itertools.permutations(range(substrate.num_nodes), vnr.num_nodes):
        if any(vnr.node_demands[v] > cpu[assignment[v]] for v in range(vnr.num_nodes)):
            continue
        options = []
        for a, b, demand in vnr.link_demands:
            paths = simple_paths(substrate.adjacency, bw, assignment[a], assignment[b], demand)
            if not paths:
                options = None
                break
            options.append(paths)
        if options is None:
            continue
        for combo in itertools.product(*options) if options else [()]:
            load = {}
            for (_, _, demand), path in zip(vnr.link_demands, combo):
                for link_id in path:
                    load[link_id] = load.get(link_id, 0.0) + demand
            if all(total <= bw[link_id] for link_id, total in load.items()):
                feasible.add((assignment, combo))
    return feasible


def test_c3_oracle_equivalence():
    rng = random.Random(4242)
    checked = 0
    accepted_checked = 0
    for _ in range(200):
        substrate, vnrs = tiny_instance(rng)
        snapshots = []
        policy = RandomPolicy(rng.randrange(2**32))

        def snapshotting(sub, vnr, _policy=policy):
            snapshots.append((sub.cpu_available.copy(), sub.bw_available.copy()))
            return _policy(sub, vnr)

        _, _, records = engine.run_simulation(substrate.copy(), vnrs, snapshotting)
        for vnr, record, (cpu, bw) in zip(vnrs, records, snapshots):
            checked += 1
            if not record.accepted:
                continue
            accepted_checked += 1
            assignment = tuple(record.node_map[v] for v in range(vnr.num_nodes))
            combo = tuple(tuple(record.link_paths[(a, b)]) for a, b, _ in vnr.link_demands)
            feasible = enumerate_feasible(substrate, cpu, bw, vnr)
            assert (assignment, combo) in feasible, "accepted embedding outside feasible set"
            # minimum-hop check in the engine's allocation order (descending demand)
            residual = bw.copy()
            order = sorted(
                range(vnr.num_links), key=lambda i: (-vnr.link_demands[i][2], i)
            )
            for i in order:
                a, b, demand = vnr.link_demands[i]
                candidates = simple_paths(
                    substrate.adjacency, residual, assignment[a], assignment[b], demand
                )
                best = min(len(p) for p in candidates)
                taken = record.link_paths[(a, b)]
                assert len(taken) == best, "mapped path is not minimum-hop"
                for link_id in taken:
                    residual[link_id] -= demand
    assert accepted_checked > 100  # the sample must actually exercise acceptances
    print(f"[acceptance] criterion 3 (oracle equivalence): PASS "
          f"({accepted_checked} accepted embeddings over {checked} attempts, 0 tolerance)")


# -- criterion 4: gradient check ------------------------------------------------


def random_state(rng, rows):
    return np.array([[rng.random() for _ in range(3)] for _ in range(rows)])


def test_c4_gradient_check():
    rng = random.Random(77)
    epsilon = 1e-5
    worst = 0.0
    for _ in range(100):
        traces = []
        for _ in range(rng.randint(2, 5)):
            state = random_state(rng, rng.randint(2, 7))
            rows = [rng.randrange(len(state)) for _ in range(rng.randint(1, 3))]
            traces.append(DecisionTrace(state, rows, rng.random()))
        params = PolicyParams(
            np.array([rng.uniform(-1, 1) for _ in range(3)]), rng.uniform(-0.5, 0.5)
        )
        baseline = float(np.mean([t.reward for t in traces]))
        if all(t.reward == baseline for t in traces):
            continue  # zero advantage everywhere: train_step returns the params unchanged
        updated, _ = train_step(params, traces, learning_rate=1.0)
        analytic = np.append(params.kernel - updated.kernel, params.bias - updated.bias)
        numeric = np.zeros(4)
        for i in range(3):
            up = PolicyParams(params.kernel.copy(), params.bias)
            up.kernel[i] += epsilon
            down = PolicyParams(params.kernel.copy(), params.bias)
            down.kernel[i] -= epsilon
            numeric[i] = (
                batch_loss(up, traces, baseline) - batch_loss(down, traces, baseline)
            ) / (2 * epsilon)
        numeric[3] = (
            batch_loss(PolicyParams(params.kernel.copy(), params.bias + epsilon), traces, baseline)
            - batch_loss(PolicyParams(params.kernel.copy(), params.bias - epsilon), traces, baseline)
        ) / (2 * epsilon)
        error = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6
        )
        assert error < 1e-4
        worst = max(worst, error)
    print(f"[acceptance] criterion 4 (gradient check): PASS "
          f"(100 random batches, worst relative error {worst:.2e} < 1e-4)")


# -- criterion 5: federation algebra --------------------------------------------


def ready_agent(domain_id, kernel, bias):
    """An agent and the upload of its one zero step, which has not moved its params."""
    agent = DomainAgent(domain_id, PolicyParams(np.array(kernel, dtype=float), float(bias)))
    params, loss = train_step(agent.params, [DecisionTrace(np.full((2, 3), 0.5), [0], 1.0)], 0.0)
    return agent, ParamUpload(params, 1, loss)


def test_c5_federation_algebra():
    rng = random.Random(55)
    for _ in range(100):
        uploads = [
            ParamUpload(
                PolicyParams(np.array([rng.uniform(-3, 3) for _ in range(3)]), rng.uniform(-2, 2)),
                rng.randint(1, 500),
                rng.uniform(0, 2),
            )
            for _ in range(rng.randint(1, 8))
        ]
        merged = aggregate(uploads)
        # exact weighted mean
        total = sum(u.sample_count for u in uploads)
        kernel = sum(u.sample_count * u.params.kernel for u in uploads) / total
        bias = sum(u.sample_count * u.params.bias for u in uploads) / total
        assert np.max(np.abs(merged.kernel - kernel)) <= 1e-12
        assert abs(merged.bias - bias) <= 1e-12
        loss = sum(u.sample_count * u.local_loss for u in uploads) / total
        assert abs(global_loss(uploads) - loss) <= 1e-12
        # permutation invariance
        shuffled = uploads[:]
        rng.shuffle(shuffled)
        permuted = aggregate(shuffled)
        assert np.max(np.abs(merged.kernel - permuted.kernel)) <= 1e-12
        assert abs(merged.bias - permuted.bias) <= 1e-12
        # idempotence on identical uploads
        same = [
            ParamUpload(uploads[0].params.copy(), u.sample_count, u.local_loss)
            for u in uploads
        ]
        merged_same = aggregate(same)
        assert np.max(np.abs(merged_same.kernel - uploads[0].params.kernel)) <= 1e-12
        assert abs(merged_same.bias - uploads[0].params.bias) <= 1e-12

    ready = {d: ready_agent(d, [rng.uniform(-2, 2) for _ in range(3)], rng.uniform(-1, 1))
             for d in range(4)}
    agents = {d: agent for d, (agent, _) in ready.items()}
    fed_round = Coordinator().run_round(agents, {d: upload for d, (_, upload) in ready.items()})
    gap = max(
        float(np.max(np.abs(a.params.kernel - fed_round.global_params.kernel)))
        for a in agents.values()
    )
    bias_gap = max(abs(a.params.bias - fed_round.global_params.bias) for a in agents.values())
    assert gap == 0.0 and bias_gap == 0.0
    print("[acceptance] criterion 5 (federation algebra): PASS "
          "(weighted mean exact to 1e-12; broadcast equality exact)")


# -- criterion 6: training convergence trend -------------------------------------


def third_stats(episodes):
    third = len(episodes) // 3

    def stats(chunk):
        acc = sum(accepted for accepted, _, _ in chunk) / len(chunk)
        revenue = sum(revenue for _, revenue, _ in chunk)
        cost = sum(cost for _, _, cost in chunk)
        return acc, revenue / cost if cost > 0 else 0.0

    return stats(episodes[:third]), stats(episodes[-third:])


def test_c6_training_convergence_trend(trained):
    improved = 0
    detail = []
    for seed in SEEDS:
        (acc_first, r2c_first), (acc_final, r2c_final) = third_stats(trained[seed][1])
        ok = acc_final > acc_first and r2c_final > r2c_first
        improved += ok
        detail.append(f"{seed}:{'+' if ok else '-'}")
    assert improved >= 8, f"improvement in only {improved}/10 seeds ({' '.join(detail)})"
    print(f"[acceptance] criterion 6 (training convergence trend): PASS "
          f"({improved}/10 seeds improved on both window indicators)")


# -- criterion 7: test-phase depletion trend --------------------------------------


def test_c7_test_phase_depletion_trend(evaluations):
    cfg = reference_config()
    declining = 0
    for seed in SEEDS:
        _, per_policy = evaluations[seed]
        ledger, _ = per_policy["hfl"]
        rows = ledger.series(cfg.metrics_interval)
        t = np.array([r[0] for r in rows])
        ltar = np.array([r[1] for r in rows])
        acc = np.array([r[3] for r in rows])
        ltar_slope = np.polyfit(t, ltar, 1)[0]
        acc_slope = np.polyfit(t, acc, 1)[0]
        declining += (ltar_slope <= 0.0) and (acc_slope <= 0.0)
    assert declining >= 8, f"non-positive slopes in only {declining}/10 seeds"
    print(f"[acceptance] criterion 7 (test-phase depletion trend): PASS "
          f"({declining}/10 seeds with non-positive ltar and acc slopes)")


# -- criterion 8: baseline dominance ----------------------------------------------


def test_c8_baseline_dominance(evaluations):
    beats_noderank = 0
    beats_random = 0
    for seed in SEEDS:
        _, per_policy = evaluations[seed]
        _, hfl_r2c, hfl_acc = summarize(per_policy["hfl"][0])
        _, nr_r2c, nr_acc = summarize(per_policy["noderank"][0])
        _, rnd_r2c, rnd_acc = summarize(per_policy["random"][0])
        beats_noderank += (hfl_r2c > nr_r2c) and (hfl_acc >= nr_acc)
        beats_random += (hfl_r2c > rnd_r2c) and (hfl_acc > rnd_acc)
    assert beats_noderank >= 6, f"dominates the ranking baseline in only {beats_noderank}/10"
    assert beats_random >= 8, f"dominates the random baseline in only {beats_random}/10"
    print(f"[acceptance] criterion 8 (baseline dominance): PASS "
          f"(vs ranking baseline {beats_noderank}/10 >= 6; vs random {beats_random}/10 >= 8)")


# -- criterion 9: metric identities ------------------------------------------------


def test_c9_metric_identities(evaluations):
    cfg = reference_config()
    ledgers = 0
    records_checked = 0
    for seed in SEEDS:
        test, per_policy = evaluations[seed]
        by_id = {v.vnr_id: v for v in test}
        for name, (ledger, records) in per_policy.items():
            ledgers += 1
            _, ltar2c, acc = ledger.summary()
            assert 0.0 <= acc <= 1.0
            if ltar2c is not None:
                assert 0.0 < ltar2c <= 1.0
            for row in ledger.series(cfg.metrics_interval):
                assert 0.0 <= row[3] <= 1.0
                if row[2] is not None:
                    assert 0.0 < row[2] <= 1.0
            for record in records:
                vnr = by_id[record.vnr_id]
                assert bool(indicator_acceptance(vnr, record)) == record.accepted
                records_checked += 1
    assert records_checked == len(SEEDS) * 3 * cfg.test_count
    print(f"[acceptance] criterion 9 (metric identities): PASS "
          f"({ledgers} ledgers, {records_checked} indicator products match engine flags)")


# -- auxiliary: round-log loss trend ----------------------------------------------


def test_round_log_loss_trend(trained):
    # the policy-gradient surrogate loss is signed and oscillates around zero,
    # so the non-increasing trend over the last half of rounds is a
    # majority-of-seeds property rather than a per-seed guarantee
    non_increasing = 0
    for seed in SEEDS:
        result, _ = trained[seed]
        losses = np.array([r.global_loss for r, _, _ in result.round_rows])
        half = losses[len(losses) // 2 :]
        slope = np.polyfit(np.arange(len(half)), half, 1)[0]
        non_increasing += slope <= 0.0
    assert non_increasing > len(SEEDS) // 2
    print(f"[acceptance] round-log loss trend: PASS "
          f"({non_increasing}/10 seeds non-increasing over the final half of rounds)")
