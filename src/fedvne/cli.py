"""Experiment harness: generate, train, evaluate, compare, validate.

Every subcommand is reproducible on one host: the config, the seed and the
files a command loads determine the emitted metric and log files. The
generated inputs and the noderank and random logs are the same on every
host; the hfl outputs also depend on the CPU path numpy and OpenBLAS take.
Wall-clock timings from ``compare`` are the one exception and go to their
own file.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from . import engine, metrics, workload
from .agent import DomainAgent, load_checkpoint, save_checkpoint
from .baselines import NodeRankPolicy, RandomPolicy
from .config import ConfigError, ExperimentConfig, apply_overrides, field_types
from .policies import HflPolicy
from .training import Trainer

class _StoreOnce(argparse.Action):
    """Stores a flag's value, and refuses the flag when it is given again."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given_flags", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Takes every flag by its full name only, and at most once; subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.register("action", None, _StoreOnce)

    def error(self, message):  # bad flags are configuration errors
        raise ConfigError(message)


# the config keys each command takes as flags: the ones it reads, but generate and
# compare take every key until the benchmark passes each command only the keys it reads
CONFIG_KEYS = {
    "generate": tuple(field_types()),
    "train": ("train_count", "learning_rate", "batch_size", "epochs", "reject_reward", "seed"),
    "evaluate": ("train_count", "test_count", "metrics_interval", "seed"),
    "compare": tuple(field_types()),
    "validate": (),
}


def _add_config_flags(parser: argparse.ArgumentParser, keys) -> None:
    defaults = ExperimentConfig()
    types = field_types()
    for name in keys:
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=types[name],
            default=None,
            help=f"config key {name} (default {getattr(defaults, name)})",
        )


def _resolve_config(args) -> ExperimentConfig:
    overrides = {
        name: getattr(args, name)
        for name in CONFIG_KEYS[args.command]
        if getattr(args, name) is not None
    }
    return apply_overrides(ExperimentConfig(), overrides)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


POLICIES = ("hfl", "noderank", "random")


def _check_policies(names: list[str], checkpoint) -> None:
    """Refuse a run's policy names, and a checkpoint they do not match, before any input is read."""
    if not names:
        raise ConfigError("--policies needs at least one policy name")
    for position, name in enumerate(names):
        if name not in POLICIES:
            raise ConfigError(f"unknown policy '{name}', expected one of {', '.join(POLICIES)}")
        if name in names[:position]:
            raise ConfigError(f"policy '{name}' is given more than once")
    if "hfl" in names and checkpoint is None:
        raise ConfigError("the hfl policy needs --checkpoint")
    if "hfl" not in names and checkpoint is not None:
        raise ConfigError("--checkpoint is read only by the hfl policy, which is not run")


def _build_policy(name: str, config: ExperimentConfig, checkpoint, num_domains: int):
    if name == "noderank":
        return NodeRankPolicy()
    if name == "random":
        return RandomPolicy(config.seed)
    domain_params, _ = load_checkpoint(checkpoint)
    if len(domain_params) != num_domains:
        raise ConfigError(
            f"{checkpoint}: checkpoint has {len(domain_params)} domain lines, "
            f"the substrate has {num_domains} domains"
        )
    return HflPolicy({d: DomainAgent(d, p) for d, p in domain_params.items()})


def _require_requests(vnrs_path, vnrs, needed: int) -> None:
    """Refuse a split that overruns the loaded stream."""
    if len(vnrs) < needed:
        raise ValueError(f"{vnrs_path}: holds {len(vnrs)} requests; the split needs {needed}")


def _test_split(config: ExperimentConfig, vnrs_path, vnrs):
    """The rebased test split, refused before any policy runs when the stream
    does not hold it or its metrics series would need too many sampling points."""
    if config.test_count:
        _require_requests(vnrs_path, vnrs, config.train_count + config.test_count)
    split = workload.rebase_stream(vnrs[config.train_count : config.train_count + config.test_count])
    if split:
        try:
            metrics.check_series_rows(split[-1].t_s, config.metrics_interval)
        except ValueError as exc:
            raise ValueError(f"{vnrs_path}: test split ends with request {split[-1].vnr_id}: {exc}") from None
    return split


def _summary_line(name: str, ledger) -> str:
    if not ledger.records:
        return f"{name}: no requests processed"
    ltar, ltar2c, acc = map(engine.csv_cell, ledger.summary())
    return f"{name}: ltar={ltar} ltar2c={ltar2c} acc={acc}"


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    config = _resolve_config(args)
    substrate = workload.generate_substrate(config, config.seed)
    vnrs = workload.generate_vnr_stream(config, config.seed + 1)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    substrate_path = out_dir / "substrate.txt"
    vnrs_path = out_dir / "vnrs.txt"
    workload.save_substrate(substrate_path, substrate)
    workload.save_vnrs(vnrs_path, vnrs)
    print(f"{substrate_path} sha256={_sha256(substrate_path)}")
    print(f"{vnrs_path} sha256={_sha256(vnrs_path)}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_config(args)
    substrate = workload.load_substrate(args.substrate)
    vnrs = workload.load_vnrs(args.vnrs)
    _require_requests(args.vnrs, vnrs, config.train_count)
    train_vnrs = vnrs[: config.train_count]
    trainer = Trainer(
        substrate,
        train_vnrs,
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        epochs=config.epochs,
        seed=config.seed,
        reject_reward=config.reject_reward,
    )
    result = trainer.run()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.txt"
    # the last round broadcast the global parameters to every domain
    domains = range(substrate.num_domains)
    save_checkpoint(checkpoint_path, {d: result.global_params for d in domains}, result.global_params)

    header = ["round_id", "global_loss", *(f"local_loss_d{d}" for d in domains)]
    header += [*(f"reward_mean_d{d}" for d in domains), "window_acc", "window_ltar2c"]
    rows = [
        [round_id, fed_round.global_loss, *(fed_round.local_losses.get(d) for d in domains),
         *(reward_means.get(d) for d in domains), window.acc, window.ltar2c]
        for round_id, (fed_round, reward_means, window) in enumerate(result.round_rows, 1)
    ]
    round_log_path = out_dir / "round_log.csv"
    engine.write_csv(round_log_path, header, rows)

    print(f"{checkpoint_path}")
    print(f"{round_log_path} rounds={len(result.round_rows)}")
    print(f"final global_loss={engine.csv_cell(result.round_rows[-1][0].global_loss)}")
    return 0


def _run_policies(args, config: ExperimentConfig, names):
    """Run each policy _check_policies accepted over the test split, one at a
    time, yielding its (ledger, records, elapsed seconds). Every policy is built
    before the output directory is created, so a config error leaves nothing behind."""
    substrate = workload.load_substrate(args.substrate)
    vnrs = workload.load_vnrs(args.vnrs)
    test_vnrs = _test_split(config, args.vnrs, vnrs)
    policies = [_build_policy(name, config, args.checkpoint, substrate.num_domains) for name in names]
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    for policy in policies:
        started = time.perf_counter()
        _, ledger, records = engine.run_simulation(substrate.copy(), test_vnrs, policy)
        yield ledger, records, time.perf_counter() - started


def cmd_evaluate(args) -> int:
    config = _resolve_config(args)
    _check_policies([args.policy], args.checkpoint)
    out_dir = Path(args.out_dir)
    for ledger, records, _ in _run_policies(args, config, [args.policy]):
        series = ledger.series(config.metrics_interval)
        engine.write_csv(out_dir / "metrics.csv", ["t", "ltar", "ltar2c", "acc"], series)
        engine.write_decision_log(out_dir / "decisions.csv", records)
        print(_summary_line(args.policy, ledger))
    return 0


def cmd_compare(args) -> int:
    config = _resolve_config(args)
    names = [p.strip() for p in args.policies.split(",") if p.strip()]
    _check_policies(names, args.checkpoint)
    out_dir = Path(args.out_dir)
    series_by_policy = {}
    timing = []
    for name, (ledger, records, elapsed) in zip(names, _run_policies(args, config, names)):
        series_by_policy[name] = ledger.series(config.metrics_interval)
        engine.write_decision_log(out_dir / f"decisions_{name}.csv", records)
        timing.append((name, elapsed / max(1, len(records))))
        print(_summary_line(name, ledger))

    # every policy sees the same test stream, one record per request, so the
    # series share one time grid
    for metric_index, metric in enumerate(("ltar", "ltar2c", "acc"), 1):
        rows = [(at_t[0][0], *(row[metric_index] for row in at_t)) for at_t in zip(*series_by_policy.values())]
        engine.write_csv(out_dir / f"compare_{metric}.csv", ["t", *series_by_policy], rows)
    engine.write_csv(out_dir / "compare_timing.csv", ["policy", "seconds_per_arrival"], timing)
    return 0


def cmd_validate(args) -> int:
    substrate = workload.load_substrate(args.substrate)
    vnrs = workload.load_vnrs(args.vnrs)
    records = engine.read_decision_log(args.decisions)
    # the requests from the earliest one logged to the file's end, on evaluate's and compare's clock;
    # replay_validate also takes unrebased streams, so the logged fields are checked here
    logged = {r.vnr_id for r in records}
    start = next((i for i, v in enumerate(vnrs) if v.vnr_id in logged), 0)
    stream = workload.rebase_stream(vnrs[start:])
    violations = engine.replay_validate(substrate, stream, records)
    for vnr, record in zip(stream, records):
        if record.vnr_id != vnr.vnr_id:
            continue
        if record.t_s != vnr.t_s:
            violations.append(f"vnr {vnr.vnr_id}: logged arrival differs from the request's")
        elif (record.accepted and all((a, b) in record.link_paths for a, b, _ in vnr.link_demands)
              and (record.revenue, record.cost) != (metrics.vnr_revenue(vnr), metrics.vnr_cost(vnr, record))):
            violations.append(f"vnr {vnr.vnr_id}: logged revenue or cost differs from the request's")
    for message in violations:
        print(message)
    print(_summary_line(args.decisions, metrics.MetricsLedger(records)))
    print(f"{len(violations)} violations in {args.decisions}")
    return 0 if not violations else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedvne", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write substrate and request-stream files")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the federated policy on the first split")
    p.add_argument("--substrate", required=True)
    p.add_argument("--vnrs", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="frozen-policy run over the held-out split")
    p.add_argument("--substrate", required=True)
    p.add_argument("--vnrs", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--policy", default="hfl", help=f"one of {', '.join(POLICIES)} (default hfl)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="run several policies on the same workload")
    p.add_argument("--substrate", required=True)
    p.add_argument("--vnrs", required=True)
    p.add_argument("--checkpoint", default=None)
    policies_help = f"comma-separated, each one of {', '.join(POLICIES)} (default %(default)s)"
    p.add_argument("--policies", default="hfl,noderank,random", help=policies_help)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="re-check every constraint over a decision log")
    p.add_argument("--substrate", required=True)
    p.add_argument("--vnrs", required=True)
    p.add_argument("--decisions", required=True)
    p.set_defaults(func=cmd_validate)

    for command, p in sub.choices.items():
        _add_config_flags(p, CONFIG_KEYS[command])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (workload.ParseError, workload.ValidationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
