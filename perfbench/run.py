"""fedvne benchmark: replay one workload through the fedvne CLI and report metrics.

Run from the repository root:

    python3 perfbench/run.py --workload compare-10x --seed 1 --seconds 10 --trace 0

From ``--seed`` the run derives one seed per input instance of the workload
and generates each instance's inputs in a child process, so that their memory
stays out of ``peak_rss_mb``. It times loading the inputs and building the
policies (``setup_s``, the median of several set-ups), then calls
``fedvne.cli.main`` in this process for the workload's ``train`` or
``compare`` command on every instance in turn (one repetition), and repeats
until ``--seconds`` of command time have passed. Arrivals are a
pre-generated Poisson stream replayed back to back, so the only rate is
throughput. Host times are rescaled to a reference host speed measured
alongside them (see ``host_sample``); the unscaled values are printed too.

After every command the run replays each decision log through
``fedvne.engine.replay_validate`` with the simulation's final resource
vector, and compares the sha256 of every deterministic output with the first
repetition and with the last run of the same workload and seed in this
checkout. ``--trace 1`` wraps fedvne's layer entry points (see ``spans.py``)
and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (repetitions run), ``failed`` (repetitions that
failed a check) and ``metrics``. Work files go to ``.perfbench-work/`` in
the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from spans import LayerTotals, Tracer, install
from workloads import CHECKPOINT_CONFIG, POLICIES, WORKLOADS, config_flags

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
# set-ups timed before the first repetition and after each one
SETUPS_PER_POINT = 2
# host-speed samples: one every SAMPLE_EVERY arrivals, and SETUP_SAMPLES before each set-up
SAMPLE_EVERY = 5
SETUP_SAMPLES = 21
# host times are rescaled to a host on which host_sample() takes this long
REFERENCE_SAMPLE_S = 50e-6
GENERATE_TIMEOUT_S = 150
# outputs that are not a function of the inputs
NONDETERMINISTIC_OUTPUTS = {"compare_timing.csv"}

# (metric, layer, statistic) reported by a traced run, per repetition
PER_LAYER = (
    ("workload.load_substrate.s", "workload.load_substrate", "s"),
    ("workload.load_vnrs.s", "workload.load_vnrs", "s"),
    ("agent.extract_state.calls", "agent.extract_state", "calls"),
    ("agent.extract_state.s", "agent.extract_state", "s"),
    ("policies.HflPolicy.calls", "policies.HflPolicy", "calls"),
    ("policies.HflPolicy.self_s", "policies.HflPolicy", "self_s"),
    ("policies.ranked_by_score.calls", "policies.ranked_by_score", "calls"),
    ("policies.ranked_by_score.s", "policies.ranked_by_score", "s"),
    ("baselines.noderank_scores.s", "baselines.noderank_scores", "s"),
    ("engine.min_hop_path.calls", "engine.min_hop_path", "calls"),
    ("engine.min_hop_path.s", "engine.min_hop_path", "s"),
    ("engine.min_hop_path.found_ratio", "engine.min_hop_path", "found_ratio"),
    ("engine.embed_links.calls", "engine.embed_links", "calls"),
    ("engine.embed_links.self_s", "engine.embed_links", "self_s"),
    ("engine.embed_links.failed", "engine.embed_links", "failed"),
    ("engine.embed_nodes.calls", "engine.embed_nodes", "calls"),
    ("engine.embed_nodes.s", "engine.embed_nodes", "s"),
    ("engine.embed_nodes.failed", "engine.embed_nodes", "failed"),
    ("agent.train_step.calls", "agent.train_step", "calls"),
    ("agent.train_step.s", "agent.train_step", "s"),
    ("federation.run_round.calls", "federation.run_round", "calls"),
    ("federation.run_round.s", "federation.run_round", "s"),
    ("substrate.release.calls", "substrate.release", "calls"),
    ("substrate.release.s", "substrate.release", "s"),
    ("engine.write_decision_log.s", "engine.write_decision_log", "s"),
    ("engine.replay_validate.s", "engine.replay_validate", "s"),
)
STAT_UNITS = {"calls": "count", "failed": "count", "s": "s", "self_s": "s", "found_ratio": "ratio"}


class RunFailed(Exception):
    """The benchmark could not run at all; no result is printed."""


def import_fedvne() -> None:
    src = ROOT / "src"
    if not (src / "fedvne" / "__init__.py").is_file():
        raise RunFailed(f"no fedvne sources under {src}")
    sys.path.insert(0, str(src))
    import fedvne

    if Path(fedvne.__file__).resolve().parent != (src / "fedvne").resolve():
        raise RunFailed(f"imported fedvne from {fedvne.__file__}, not from {src}")


def digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file() and p.name not in NONDETERMINISTIC_OUTPUTS
    }


def instance_seed(seed: int, index: int) -> int:
    # generate draws the substrate from a seed and the stream from seed + 1
    return 1000 * seed + 2 * index


@dataclass
class Instance:
    """One generated set of inputs, the command's output directory, and its loaded inputs."""

    seed: int
    inputs: Path
    out: Path
    config: object = None
    substrate: object = None  # as loaded, never simulated on: the replay's initial state
    vnrs: list = field(default_factory=list)


def host_sample() -> float:
    """Seconds that one fixed piece of dict, tuple and integer work takes now.

    The benchmark's host shares its physical cores with other machines and
    runs at very different speeds from one second to the next (see
    DESIGN.md). fedvne's own host time moves with the time of this sample
    (correlation 0.93 to 0.98 over 1 s to 4 s commands), so host times are
    divided by the median sample taken while they ran.
    """
    started = time.perf_counter()
    table = {}
    for i in range(200):
        table[i] = (i, i + 1)
    total = len([k for k in table if table[k][0] & 1])
    for i in range(400):
        total += i * i
    return time.perf_counter() - started


def speed_scale(samples: list[float]) -> float:
    """Factor that rescales host time measured alongside ``samples`` to the reference host."""
    return REFERENCE_SAMPLE_S / statistics.median(samples)


# -- inputs --------------------------------------------------------------------


def cli_quiet(argv) -> int:
    from fedvne import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def generate(workload, instance: Instance) -> int:
    """Write substrate.txt, vnrs.txt and, for compare, checkpoint.txt."""
    seed_flags = ["--seed", instance.seed]
    inputs = instance.inputs
    rc = cli_quiet(["generate", "--out-dir", inputs, *config_flags(workload.config), *seed_flags])
    if rc or workload.command != "compare":
        return rc
    # the hfl checkpoint: a short untimed training run on default-scale inputs of the same seed
    scratch = inputs / "checkpoint-run"
    rc = cli_quiet(["generate", "--out-dir", scratch, *seed_flags]) or cli_quiet(
        [
            "train",
            "--substrate", scratch / "substrate.txt",
            "--vnrs", scratch / "vnrs.txt",
            "--out-dir", scratch,
            *config_flags(CHECKPOINT_CONFIG),
            *seed_flags,
        ]
    )
    if rc == 0:
        shutil.copyfile(scratch / "checkpoint.txt", inputs / "checkpoint.txt")
        shutil.rmtree(scratch)
    return rc


def generate_in_child(workload, seed: int, inputs: Path) -> None:
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    argv = [sys.executable, __file__, "--generate", str(inputs)]
    argv += ["--workload", workload.name, "--seed", str(seed)]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=GENERATE_TIMEOUT_S)
    if child.returncode != 0:
        raise RunFailed(f"input generation failed ({child.returncode}): {child.stderr.strip()}")


def set_up(workload, instance: Instance) -> None:
    """What the command does before its first arrival: load, validate, build policies."""
    from fedvne import workload as fedvne_workload
    from fedvne.agent import DomainAgent, load_checkpoint
    from fedvne.baselines import NodeRankPolicy, RandomPolicy
    from fedvne.config import ExperimentConfig, apply_overrides
    from fedvne.policies import HflPolicy
    from fedvne.training import Trainer

    config = apply_overrides(ExperimentConfig(), {**workload.config, "seed": instance.seed})
    substrate = fedvne_workload.load_substrate(instance.inputs / "substrate.txt")
    vnrs = fedvne_workload.load_vnrs(instance.inputs / "vnrs.txt")
    if workload.command == "train":
        Trainer(
            substrate,
            vnrs[: config.train_count],
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            epochs=config.epochs,
            seed=config.seed,
            reject_reward=config.reject_reward,
        )
    else:
        fedvne_workload.rebase_stream(vnrs[config.train_count : config.train_count + config.test_count])
        domain_params, _ = load_checkpoint(instance.inputs / "checkpoint.txt")
        HflPolicy({d: DomainAgent(d, p) for d, p in domain_params.items()})
        NodeRankPolicy()
        RandomPolicy(config.seed)
    instance.config, instance.substrate, instance.vnrs = config, substrate, vnrs


# -- the timed command ---------------------------------------------------------


class Probe:
    """Stands in for ``run_simulation`` where fedvne looks it up.

    It keeps each simulation's (final substrate, ledger, records) for the
    checks, times every arrival as the host time from the end of the previous
    ``on_record`` callback to the start of this one (so a training batch
    boundary, which runs inside the callback, is not counted), takes a
    host-speed sample after every ``SAMPLE_EVERY`` arrivals and, when
    tracing, notes the boundaries that key spans to arrivals. Times are kept
    in flat arrays so that the memory they take hardly grows with the number
    of repetitions, which ``peak_rss_mb`` would otherwise show.
    """

    def __init__(self, label, traced: bool):
        self.label = label  # simulation index within a command -> "hfl", "epoch0", ...
        self.key = ""  # repetition and instance of the command running
        self.sims: list = []
        self.gaps = array("d")
        self.samples = array("d")  # host_sample() times, taken between arrivals
        self.boundaries: list[tuple[float, str]] | None = [] if traced else None

    def wrap(self, run_simulation):
        @functools.wraps(run_simulation)
        def probed(*args, on_record=None, **kwargs):
            key = f"{self.key}/{self.label(len(self.sims))}"
            last = time.perf_counter()
            self.note(last, "-")

            def timed(vnr, record):
                nonlocal last
                self.gaps.append(time.perf_counter() - last)
                if on_record is not None:
                    on_record(vnr, record)
                if len(self.gaps) % SAMPLE_EVERY == 0:
                    self.samples.append(host_sample())
                last = time.perf_counter()
                self.note(last, f"{key}/{vnr.vnr_id}")

            result = run_simulation(*args, on_record=timed, **kwargs)
            self.note(time.perf_counter(), f"{key}/drain")
            self.sims.append(result)
            return result

        return probed

    def note(self, at: float, key: str) -> None:
        if self.boundaries is not None:
            self.boundaries.append((at, key))

    def install(self) -> None:
        import fedvne.engine
        import fedvne.training

        probed = self.wrap(fedvne.engine.run_simulation)
        for module in (fedvne.engine, fedvne.training):
            if hasattr(module, "run_simulation"):
                module.run_simulation = probed


def command_argv(workload, instance: Instance) -> list[str]:
    inputs = instance.inputs
    argv = [workload.command, "--substrate", inputs / "substrate.txt", "--vnrs", inputs / "vnrs.txt"]
    if workload.command == "compare":
        argv += ["--checkpoint", inputs / "checkpoint.txt", "--policies", ",".join(POLICIES)]
    argv += ["--out-dir", instance.out, "--seed", instance.seed, *config_flags(workload.config)]
    return [str(a) for a in argv]


def check_command(workload, instance: Instance, sims) -> dict:
    """Replay-validate one command's decisions and collect its outputs' digests.

    ``tallies`` holds, per simulation, [accepted, arrivals, revenue, cost];
    ``node_failed`` and ``link_failed`` count rejections by embedding stage.
    """
    from fedvne import engine

    config, vnrs = instance.config, instance.vnrs
    if workload.command == "train":
        labels = [f"epoch{i}" for i in range(config.epochs)]
        stream = vnrs[: config.train_count]
        logs = {label: (stream, records, final) for label, (final, _, records) in zip(labels, sims)}
    else:
        labels = list(POLICIES)
        logs = {}
        for label, (final, _, _) in zip(labels, sims):
            records = engine.read_decision_log(instance.out / f"decisions_{label}.csv")
            logged = {r.vnr_id for r in records}
            logs[label] = ([v for v in vnrs if v.vnr_id in logged], records, final)
    problems = []
    if len(sims) != len(labels):
        problems.append(f"expected {len(labels)} simulations, saw {len(sims)}")
    tallies = {}
    node_failed = link_failed = 0
    for label, (stream, records, final) in logs.items():
        violations = engine.replay_validate(instance.substrate, stream, records, final.resource_vector())
        problems += [f"seed {instance.seed} {label}: {v}" for v in violations]
        sizes = {v.vnr_id: v.num_nodes for v in stream}
        for r in records:
            if not r.accepted:
                if len(r.node_map) < sizes[r.vnr_id]:
                    node_failed += 1
                else:
                    link_failed += 1
        accepted = [r for r in records if r.accepted]
        tallies[label] = [
            len(accepted),
            len(records),
            sum(r.revenue for r in accepted),
            sum(r.cost for r in accepted),
        ]
    return {
        "problems": problems,
        "digests": digests(instance.out),
        "tallies": tallies,
        "node_failed": node_failed,
        "link_failed": link_failed,
    }


def run_repetition(workload, instances, probe: Probe, rep: int):
    """Run the command once per instance.

    Returns (command seconds, the same rescaled to the reference host, the
    rescaled time of every arrival, checks, problems). Each command is
    rescaled by the host-speed samples taken while it ran; the time of the
    samples themselves is not counted.
    """
    seconds = scaled_seconds = 0.0
    scaled_gaps = array("d")
    merged = {"digests": {}, "tallies": {}, "node_failed": 0, "link_failed": 0}
    problems: list[str] = []
    for index, instance in enumerate(instances):
        shutil.rmtree(instance.out, ignore_errors=True)
        probe.key, probe.sims = f"rep{rep}/seed{instance.seed}", []
        first_gap, first_sample = len(probe.gaps), len(probe.samples)
        started = time.perf_counter()
        try:
            rc = cli_quiet(command_argv(workload, instance))
        except Exception:
            traceback.print_exc()
            rc = None
        samples = probe.samples[first_sample:]
        elapsed = time.perf_counter() - started - sum(samples)
        seconds += elapsed
        if samples:
            scale = speed_scale(samples)
            scaled_seconds += elapsed * scale
            scaled_gaps.extend(gap * scale for gap in probe.gaps[first_gap:])
        elif rc == 0:
            problems.append(f"no host-speed sample during the command on seed {instance.seed}")
            break
        if rc != 0:
            problems.append(f"fedvne {workload.command} on seed {instance.seed} exited with {rc}")
            break
        try:
            checked = check_command(workload, instance, probe.sims)
        except Exception:
            problems.append(f"checking seed {instance.seed} raised:\n{traceback.format_exc()}")
            break
        problems += checked["problems"]
        merged["digests"].update({f"{index}/{k}": v for k, v in checked["digests"].items()})
        for label, tally in checked["tallies"].items():
            total = merged["tallies"].setdefault(label, [0, 0, 0.0, 0.0])
            merged["tallies"][label] = [a + b for a, b in zip(total, tally)]
        merged["node_failed"] += checked["node_failed"]
        merged["link_failed"] += checked["link_failed"]
    probe.sims = []
    return seconds, scaled_seconds, scaled_gaps, merged, problems


# -- metrics -------------------------------------------------------------------


def layer_metrics(tracer: Tracer, reps: int, scale: float, problems: list[str]):
    """Per-layer metrics of one repetition.

    Counts come from the first repetition and must repeat exactly in every
    later one; times are averaged over the repetitions and multiplied by
    ``scale``, the run's host-speed factor.
    """
    by_rep = tracer.totals()

    def counts(rep):
        return {n: (t.calls, t.not_ok) for n, t in by_rep.get(rep, {}).items()}

    for rep in range(1, reps):
        if counts(rep) != counts(0):
            problems.append(f"traced call counts of repetition {rep} differ from repetition 0")
    metrics = {}
    for metric, layer, stat in PER_LAYER:
        totals = [by_rep.get(rep, {}).get(layer, LayerTotals()) for rep in range(reps)]
        calls, not_ok = counts(0).get(layer, (0, 0))
        if stat == "calls":
            value = calls
        elif stat == "failed":
            value = not_ok
        elif stat == "found_ratio":
            value = (calls - not_ok) / calls if calls else 0.0
        elif stat == "s":
            value = sum(t.seconds for t in totals) / reps * scale
        else:
            value = sum(t.self_seconds for t in totals) / reps * scale
        metrics[metric] = (value, STAT_UNITS[stat])
    return metrics


def self_check(workload, tracer: Tracer, missing: list[str]) -> list[str]:
    """Fail a traced run whose bindings no longer see the layers the workload drives."""
    first = tracer.totals().get(0, {})
    problems = [f"no fedvne name to wrap for layer {name}" for name in missing]
    for layer in workload.expected_layers:
        if layer not in first:
            problems.append(f"{layer} recorded no calls on {workload.name}")
    for layer in workload.forbidden_layers:
        if layer in first:
            problems.append(f"{layer} recorded calls on {workload.name}")
    return problems


def indicators(tallies: dict) -> dict[str, tuple[float, float]]:
    """Per simulation label, (acc, ltar2c) pooled over the instances."""
    return {
        label: (accepted / arrivals, revenue / cost if cost else 0.0)
        for label, (accepted, arrivals, revenue, cost) in tallies.items()
    }


def guards(workload, first: dict, layers: dict | None) -> list[str]:
    """Fail a run whose workload no longer does what it is there for."""
    problems = []
    if workload.max_acc is not None:
        for label, (acc, _) in indicators(first["tallies"]).items():
            if acc >= workload.max_acc:
                problems.append(f"{label} accepts {acc:.3f} of requests (limit {workload.max_acc})")
    if workload.needs_stage_failures:
        counts = {"node stage": first["node_failed"], "link stage": first["link_failed"]}
        if layers is not None:
            counts["engine.embed_nodes.failed"] = layers["engine.embed_nodes.failed"][0]
            counts["engine.embed_links.failed"] = layers["engine.embed_links.failed"][0]
        problems += [f"no rejection counted at {what}" for what, n in counts.items() if not n]
    return problems


def quantile_ms(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] * 1000.0 if len(values) > 1 else 0.0


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    import_fedvne()
    work = WORK / workload.name / f"seed-{args.seed}"
    shutil.rmtree(work / "out", ignore_errors=True)
    instances = [
        Instance(instance_seed(args.seed, i), work / "inputs" / str(i), work / "out" / str(i))
        for i in range(workload.instances)
    ]
    generate_in_child(workload, args.seed, work / "inputs")

    setups: list[float] = []
    scaled_setups: list[float] = []

    def time_setups() -> None:
        for _ in range(SETUPS_PER_POINT):
            scale = speed_scale([host_sample() for _ in range(SETUP_SAMPLES)])
            started = time.perf_counter()
            for instance in instances:
                set_up(workload, instance)
            setups.append(time.perf_counter() - started)
            scaled_setups.append(setups[-1] * scale)

    time_setups()

    if workload.command == "train":
        probe = Probe(lambda i: f"epoch{i}", args.trace)
    else:
        probe = Probe(lambda i: POLICIES[i] if i < len(POLICIES) else f"sim{i}", args.trace)
    probe.install()
    tracer = Tracer()
    missing = install(tracer)[1] if args.trace else []

    reps = 0
    timed = scaled_timed = 0.0
    scaled_gaps = array("d")
    first = None
    problems: list[str] = []
    while not problems and (reps == 0 or timed < args.seconds):
        tracer.rep = reps if args.trace else None
        seconds, scaled, gaps, checked, problems = run_repetition(workload, instances, probe, reps)
        tracer.rep = None
        timed += seconds
        scaled_timed += scaled
        scaled_gaps += gaps
        if first is None:
            first = checked
        elif not problems and checked["digests"] != first["digests"]:
            problems.append(f"outputs of repetition {reps} differ from repetition 0")
        reps += 1
        time_setups()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = 1 if problems else 0
    throughput = len(scaled_gaps) / scaled_timed if scaled_timed else 0.0

    # outputs must also match the last run of this workload and seed in this checkout
    record = {"inputs": {}, "outputs": first["digests"]}
    for i, instance in enumerate(instances):
        record["inputs"].update({f"{i}/{k}": v for k, v in digests(instance.inputs).items()})
    stored_path = work / "digests.json"
    if not problems:
        stored = json.loads(stored_path.read_text()) if stored_path.is_file() else None
        if stored and stored["inputs"] == record["inputs"] and stored["outputs"] != record["outputs"]:
            problems.append(f"outputs differ from the previous run recorded in {stored_path}")
            failed = reps
        else:
            stored_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    layers = None
    if args.trace:
        scale = speed_scale(probe.samples) if probe.samples else 1.0
        layers = layer_metrics(tracer, reps, scale, problems)
        layers["traced.arrivals_per_s"] = (throughput, "1/s")
        problems += self_check(workload, tracer, missing)
        tracer.write(work / "spans.csv", probe.boundaries)
    if not problems:
        problems += guards(workload, first, layers)

    # simulated indicators: deterministic for a seed, so the digests gate them
    extra = {}
    pooled = indicators(first["tallies"])
    if workload.command == "train":
        acc, ltar2c = pooled.get(f"epoch{instances[0].config.epochs - 1}", (0.0, 0.0))
        extra.update({"train_acc": (acc, "ratio"), "train_ltar2c": (ltar2c, "ratio")})
    else:
        for label, (acc, ltar2c) in pooled.items():
            extra.update({f"acc.{label}": (acc, "ratio"), f"ltar2c.{label}": (ltar2c, "ratio")})
    extra["rejected_at_node_stage"] = (first["node_failed"], "count")
    extra["rejected_at_link_stage"] = (first["link_failed"], "count")
    extra["latency_samples"] = (len(scaled_gaps), "count")
    # the same host times before rescaling to the reference host
    extra["host_sample_us"] = (statistics.median(probe.samples) * 1e6 if probe.samples else 0.0, "us")
    extra["unscaled.setup_s"] = (statistics.median(setups), "s")
    extra["unscaled.arrivals_per_s"] = (len(probe.gaps) / timed, "1/s")
    extra["unscaled.arrival_p50_ms"] = (quantile_ms(probe.gaps, 50), "ms")
    extra["unscaled.arrival_p99_ms"] = (quantile_ms(probe.gaps, 99), "ms")

    if args.trace:
        metrics = layers
    else:
        metrics = {
            "setup_s": (statistics.median(scaled_setups), "s"),
            "arrivals_per_s": (throughput, "1/s"),
            "arrival_p50_ms": (quantile_ms(scaled_gaps, 50), "ms"),
            "arrival_p99_ms": (quantile_ms(scaled_gaps, 99), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value} {unit}")
    for name, digest in {**record["inputs"], **record["outputs"]}.items():
        print(f"sha256 {name} = {digest}")
    for message in problems:
        print(f"problem: {message}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": reps,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    details.update({"extra": extra, "digests": record, "problems": problems})
    (work / f"result-trace{args.trace}.json").write_text(json.dumps({**result, **details}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.generate:
            workload = WORKLOADS[args.workload]
            import_fedvne()
            for i in range(workload.instances):
                inputs = Path(args.generate) / str(i)
                rc = generate(workload, Instance(instance_seed(args.seed, i), inputs, inputs))
                if rc:
                    return rc
            return 0
        result = run(args)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
