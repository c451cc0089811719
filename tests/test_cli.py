import argparse
import contextlib
import dataclasses
import importlib
import inspect
import io
import math
import pkgutil
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedvne
from _helpers import config_flags, exactly
from fedvne import cli
from fedvne.config import ConfigError, ExperimentConfig, apply_overrides

TINY = dict(
    num_domains=2,
    nodes_per_domain=5,
    num_links=14,
    vnr_count=40,
    train_count=20,
    test_count=20,
    vn_nodes_min=1,
    vn_nodes_max=3,
    batch_size=10,
    epochs=2,
    seed=7,
)


def tiny_flags(command, **overrides):
    """TINY as ``command``'s flags, each key once; ``overrides`` replace or add values."""
    return config_flags(command, {**TINY, **overrides})


def generate_tiny(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["generate", "--out-dir", str(out)] + tiny_flags("generate")) == 0
    return out / "substrate.txt", out / "vnrs.txt"


# -- config -------------------------------------------------------------------


def test_default_config_is_valid():
    ExperimentConfig().validate()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"cpu_min": 80, "cpu_max": 20}, "cpu_min must not exceed cpu_max"),
        # one bound alone can empty a range: the default vnode_cpu_max is 50
        ({"vnode_cpu_min": 60}, "vnode_cpu_min must not exceed vnode_cpu_max"),
    ],
)
def test_config_rejects_bad_range(overrides, message):
    with pytest.raises(ConfigError, match=exactly(message)):
        apply_overrides(ExperimentConfig(), overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"epochs": 0}, "epochs must be at least 1"),
        ({"test_count": -1}, "test_count must not be negative"),
        ({"inter_link_ratio": 1.5}, "inter_link_ratio must lie in [0, 1]"),
        ({"vlink_prob": -0.1}, "vlink_prob must lie in [0, 1]"),
        ({"learning_rate": 0.0}, "learning_rate must be positive"),
        # every float key must be finite: nan passes each comparison, inf passes "positive"
        ({"inter_link_ratio": math.nan}, "inter_link_ratio must be finite"),
        ({"vlink_prob": math.nan}, "vlink_prob must be finite"),
        ({"arrival_rate": math.nan}, "arrival_rate must be finite"),
        ({"mean_lifetime": math.inf}, "mean_lifetime must be finite"),
        ({"learning_rate": math.nan}, "learning_rate must be finite"),
        ({"reject_reward": math.inf}, "reject_reward must be finite"),
        ({"metrics_interval": -math.inf}, "metrics_interval must be finite"),
        ({"policy": "greedy"}, "policy must be one of hfl, noderank, random"),
    ],
)
def test_config_rejects_each_bad_value(overrides, message):
    with pytest.raises(ConfigError, match=exactly(message)):
        apply_overrides(ExperimentConfig(), overrides)


def test_config_rejects_unknown_key(tmp_path, capsys):
    args = ["generate", "--not-a-key", "1", "--out-dir", str(tmp_path / "out")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "config error: unrecognized arguments: --not-a-key 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("generate", ["--num-dom", "2"], "unrecognized arguments: --num-dom 2"),
        ("train", ["--epochs", "1", "--epoch", "2"], "unrecognized arguments: --epoch 2"),
        ("train", ["--epochs", "1", "--epochs", "2"], "argument --epochs: given more than once"),
        ("generate", ["--seed", "3", "--seed", "3"], "argument --seed: given more than once"),
        ("evaluate", ["--vnrs", "other.txt"], "argument --vnrs: given more than once"),
    ],
    ids=["abbreviated", "abbreviated-after-full", "repeated", "repeated-same-value", "repeated-input"],
)
def test_every_flag_is_taken_by_its_full_name_once(tmp_path, capsys, command, flags, message):
    inputs = []
    if command != "generate":
        substrate_path, vnrs_path = generate_tiny(tmp_path)
        capsys.readouterr()
        inputs = ["--substrate", str(substrate_path), "--vnrs", str(vnrs_path)]
    assert cli.main([command, *inputs, "--out-dir", str(tmp_path / "out"), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_the_split_is_checked_against_the_loaded_stream_not_vnr_count(tmp_path, capsys):
    """vnr_count sizes only what generate draws: evaluate splits the loaded stream and does not take it."""
    drawn = tmp_path / "drawn"
    # the default split, 1000 + 1000, is more than generate draws
    assert cli.main(["generate", "--vnr-count", "40", "--out-dir", str(drawn)]) == 0
    assert (drawn / "vnrs.txt").read_text().startswith("40\n")
    substrate_path, vnrs_path = generate_tiny(tmp_path)  # 40 requests, split 20 + 20
    args = ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path), "--policy",
            "noderank"] + tiny_flags("evaluate")
    # the default vnr_count, 2000, does not refuse the 40-request file
    assert cli.main(args + ["--out-dir", str(tmp_path / "eval")]) == 0
    capsys.readouterr()
    assert cli.main(args + ["--out-dir", str(tmp_path / "refused"), "--vnr-count", "40"]) == 1
    assert capsys.readouterr().err == "config error: unrecognized arguments: --vnr-count 40\n"
    assert not (tmp_path / "refused").exists()


def test_config_flags_are_checked_together(tmp_path, capsys):
    """A flag the other flags make valid is accepted; one they cannot mend is refused."""
    assert cli.main(["generate", "--cpu-max", "40", "--cpu-min", "30", "--out-dir", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    assert cli.main(["generate", "--cpu-max", "40", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: cpu_min must not exceed cpu_max\n"
    assert not (tmp_path / "out").exists()


ALL_KEYS = {
    "num_domains", "nodes_per_domain", "num_links", "cpu_min", "cpu_max", "bw_min", "bw_max",
    "inter_link_ratio", "vnr_count", "train_count", "test_count", "vn_nodes_min", "vn_nodes_max",
    "vnode_cpu_min", "vnode_cpu_max", "vlink_bw_min", "vlink_bw_max", "vlink_prob", "arrival_rate",
    "mean_lifetime", "learning_rate", "batch_size", "epochs", "reject_reward", "metrics_interval",
    "seed", "policy",
}
# the config keys each command takes: train and evaluate the ones they read, generate
# and compare every key, validate none
TAKEN_KEYS = {
    "generate": ALL_KEYS,
    "train": {"train_count", "learning_rate", "batch_size", "epochs", "reject_reward", "seed"},
    "evaluate": {"train_count", "test_count", "metrics_interval", "policy", "seed"},
    "compare": ALL_KEYS,
    "validate": set(),
}


def test_settings_come_only_from_flags_and_validate_takes_none(tmp_path, capsys):
    """The flags are the one source of a run's settings: a config file is an
    unknown argument, each command takes the config keys of TAKEN_KEYS, and
    validate, whose replay no setting changes, takes none."""
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    log = tmp_path / "eval" / "decisions.csv"
    assert cli.main(["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
                     "--policy", "noderank", "--out-dir", str(log.parent)] + tiny_flags("evaluate")) == 0
    validate = ["validate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path), "--decisions", str(log)]
    assert cli.main(validate) == 0
    capsys.readouterr()
    assert cli.main(validate + ["--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "config error: unrecognized arguments: --seed 1\n"

    assert ALL_KEYS == {f.name for f in dataclasses.fields(ExperimentConfig)}
    own_flags = {
        "generate": {"--out-dir"},
        "train": {"--substrate", "--vnrs", "--out-dir"},
        "evaluate": {"--substrate", "--vnrs", "--checkpoint", "--out-dir"},
        "compare": {"--substrate", "--vnrs", "--checkpoint", "--policies", "--out-dir"},
        "validate": {"--substrate", "--vnrs", "--decisions"},
    }
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(own_flags)
    for command, sub in commands.items():
        options = {option for action in sub._actions for option in action.option_strings}
        config = {"--" + key.replace("_", "-") for key in TAKEN_KEYS[command]}
        assert options == {"-h", "--help"} | own_flags[command] | config, command


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_train_and_evaluate_refuse_every_key_they_do_not_read(tmp_path, capsys, command):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    defaults = ExperimentConfig()
    out = tmp_path / "out"
    argv = [command, "--substrate", str(substrate_path), "--vnrs", str(vnrs_path), "--out-dir", str(out)]
    for key in sorted(ALL_KEYS - TAKEN_KEYS[command]):
        # even the default value
        flag = ["--" + key.replace("_", "-"), str(getattr(defaults, key))]
        capsys.readouterr()
        assert cli.main(argv + flag) == 1, key
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: unrecognized arguments: {' '.join(flag)}\n"
        assert not out.exists(), key


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("generate", []),
        ("train", ["--substrate", "s.txt", "--vnrs", "v.txt"]),
        ("evaluate", ["--substrate", "s.txt", "--vnrs", "v.txt"]),
        ("compare", ["--substrate", "s.txt", "--vnrs", "v.txt"]),
        ("validate", ["--substrate", "s.txt", "--vnrs", "v.txt", "--decisions", "d.csv"]),
    ],
)
def test_each_command_refuses_a_config_file(tmp_path, capsys, command, inputs):
    config = tmp_path / "run.cfg"
    config.write_text("seed=3\n")
    out = [] if command == "validate" else ["--out-dir", str(tmp_path / "out")]
    assert cli.main([command, *inputs, *out, "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: unrecognized arguments: --config {config}\n"
    assert not (tmp_path / "out").exists()


def test_help_names_the_default_of_each_config_flag(capsys):
    """With no config file to read them from, the defaults are stated in each command's help."""
    defaults = ExperimentConfig()
    for command, keys in TAKEN_KEYS.items():
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for key in ALL_KEYS:
            listed = f"config key {key} (default {getattr(defaults, key)})" in text
            assert listed == (key in keys), (command, key)


# -- subcommands --------------------------------------------------------------


def test_generate_writes_files_and_checksums(tmp_path, capsys):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    out = capsys.readouterr().out
    assert substrate_path.exists() and vnrs_path.exists()
    assert "sha256=" in out


def test_generate_deterministic(tmp_path):
    a1, v1 = generate_tiny(tmp_path / "one")
    a2, v2 = generate_tiny(tmp_path / "two")
    assert a1.read_bytes() == a2.read_bytes()
    assert v1.read_bytes() == v2.read_bytes()


def test_generate_zero_vnrs(tmp_path):
    flags = dict(TINY, vnr_count=0, train_count=0, test_count=0)
    args = ["generate", "--out-dir", str(tmp_path)]
    for key, value in flags.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    assert cli.main(args) == 0
    assert (tmp_path / "vnrs.txt").read_text().splitlines()[0] == "0"


@pytest.mark.parametrize(
    "flags",
    [
        ["--cpu-min", "90", "--cpu-max", "10"],
        # the range keys are integers in [0, 2^43]
        ["--cpu-min", "50.7", "--cpu-max", "51.2"],
        ["--vnode-cpu-min", "0.5", "--vnode-cpu-max", "0.7"],
        ["--bw-min", "1", "--bw-max", str(2**43 + 1)],
        ["--vlink-bw-min", "-1"],
        ["--cpu-min", "50.0"],
    ],
)
def test_generate_invalid_range_exits_one(tmp_path, capsys, flags):
    code = cli.main(["generate", "--out-dir", str(tmp_path / "out")] + flags)
    assert code == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--num-links", "5"], "5 links cannot connect 4 domains of 25 nodes"),
        (["--num-domains", "1", "--nodes-per-domain", "1", "--num-links", "1"],
         "1 links exceed the simple-graph maximum"),
        # the drawn lifetime vanishes when added to the arrival time
        (["--mean-lifetime", "1e-300", "--vnr-count", "8", "--train-count", "4", "--test-count", "4"],
         "generated vnr 0: departure time must exceed arrival time"),
        # a drawn lifetime overflows; its loader would refuse the infinite departure time
        (["--mean-lifetime", "1e308", "--vnr-count", "8", "--train-count", "4", "--test-count", "4"],
         "generated vnr 1: arrival and departure times must be finite"),
    ],
)
def test_generate_infeasible_topology_exits_one(tmp_path, capsys, flags, message):
    code = cli.main(["generate", "--out-dir", str(tmp_path / "out")] + flags)
    assert code == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_too_fine_metrics_interval_exits_two(tmp_path, capsys):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    capsys.readouterr()
    code = cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--metrics-interval", "1e-9", "--out-dir", str(tmp_path / "out")]
        + tiny_flags("evaluate")
    )
    assert code == 2
    assert "above the limit of 1000000" in capsys.readouterr().err


def test_evaluate_nan_metrics_interval_exits_one(tmp_path, capsys):
    # no series bound holds for nan: sampling would never end
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    capsys.readouterr()
    code = cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--metrics-interval", "nan", "--out-dir", str(tmp_path / "out")]
        + tiny_flags("evaluate")
    )
    assert code == 1
    assert capsys.readouterr().err == "config error: metrics_interval must be finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["evaluate", "--policy", "noderank"],
                                     ["compare", "--policies", "noderank,random"]])
def test_too_long_horizon_is_refused_before_any_policy_runs(tmp_path, capsys, monkeypatch, command):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    lines = vnrs_path.read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if len(line.split()) == 5)
    vnr_id, _, _, n, m = lines[last].split()
    lines[last] = f"{vnr_id} 99999999999999999999 199999999999999999999 {n} {m}"
    vnrs_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    def no_run(*args, **kwargs):
        raise AssertionError("a policy ran")

    monkeypatch.setattr(cli.engine, "run_simulation", no_run)
    out = tmp_path / "out"
    code = cli.main(command[:1] + ["--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
                                   "--out-dir", str(out)] + command[1:] + tiny_flags(command[0]))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {vnrs_path}: test split ends with request {vnr_id}: ")
    assert "above the limit of 1000000" in captured.err
    assert not out.exists()


def package_exception_types():
    """Every Exception subclass defined in a fedvne module."""
    found = []
    for info in pkgutil.iter_modules(fedvne.__path__):
        module = importlib.import_module(f"fedvne.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, Exception) and obj.__module__ == module.__name__:
                found.append(obj)
    return found


def test_every_package_exception_exits_one_or_two(monkeypatch, capsys):
    types = package_exception_types()
    assert ConfigError in types
    for exc_type in types:

        def raising(args, exc_type=exc_type):
            # bypass the type's own constructor: only the type decides the exit code
            exc = exc_type.__new__(exc_type)
            Exception.__init__(exc, "boom")
            raise exc

        monkeypatch.setattr(cli, "cmd_generate", raising)
        code = cli.main(["generate"])
        err = capsys.readouterr().err
        assert code in (1, 2), exc_type
        assert (code == 1) == issubclass(exc_type, ConfigError), exc_type
        assert err == ("config error: boom\n" if code == 1 else "error: boom\n"), exc_type


def test_unknown_flag_exits_one(tmp_path):
    assert cli.main(["generate", "--no-such-flag"]) == 1


def test_missing_file_exits_two(tmp_path):
    code = cli.main(
        ["evaluate", "--substrate", "/nonexistent", "--vnrs", "/nonexistent",
         "--policy", "random", "--out-dir", str(tmp_path)]
    )
    assert code == 2


def test_train_emits_checkpoint_and_round_log(tmp_path, capsys):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    out = tmp_path / "train"
    code = cli.main(
        ["train", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--out-dir", str(out)] + tiny_flags("train")
    )
    assert code == 0
    checkpoint = (out / "checkpoint.txt").read_text().splitlines()
    assert len(checkpoint) == TINY["num_domains"] + 1
    header = (out / "round_log.csv").read_text().splitlines()[0]
    assert header.startswith("round_id,global_loss,local_loss_d0")
    assert header.endswith("window_acc,window_ltar2c")


def test_train_deterministic(tmp_path):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(
            ["train", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
             "--out-dir", str(out)] + tiny_flags("train")
        ) == 0
        outs.append(out)
    assert (outs[0] / "round_log.csv").read_bytes() == (outs[1] / "round_log.csv").read_bytes()
    assert (outs[0] / "checkpoint.txt").read_bytes() == (outs[1] / "checkpoint.txt").read_bytes()


def test_train_bad_input_leaves_no_output_dir(tmp_path, capsys):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    lines = substrate_path.read_text().splitlines()
    lines[1] = "0 0 1.0 2.0 x"
    substrate_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "train"
    code = cli.main(
        ["train", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--out-dir", str(out)] + tiny_flags("train")
    )
    assert code == 2
    assert f"{substrate_path}:2: malformed node line" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        ("--learning-rate 1e308", "global parameters: checkpoint values must be finite"),
        # the parameters stay finite, but the rewards overflow the losses and their means
        ("--learning-rate 1 --reject-reward 1e300", "round log: losses and mean rewards must be finite"),
    ],
)
def test_train_overflow_exits_two_and_leaves_no_output_dir(tmp_path, capsys, flags, message):
    # the README quick start's tiny config, as CI runs it
    tiny = "--num-domains 2 --nodes-per-domain 5 --num-links 12 --vnr-count 60 --train-count 30 --test-count 30"
    data, out = tmp_path / "data", tmp_path / "train"
    assert cli.main(["generate", "--out-dir", str(data), *tiny.split()]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(
            ["train", "--substrate", str(data / "substrate.txt"), "--vnrs", str(data / "vnrs.txt"),
             "--out-dir", str(out), "--epochs", "3", "--train-count", "30", *flags.split()]
        )
    assert code == 2
    assert capsys.readouterr().err == f"error: training diverged in epoch 2, round 2, {message}\n"
    assert not out.exists()


def test_evaluate_full_cycle(tmp_path, capsys):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    train_out = tmp_path / "train"
    cli.main(
        ["train", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--out-dir", str(train_out)] + tiny_flags("train")
    )
    capsys.readouterr()
    eval_out = tmp_path / "eval"
    code = cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--checkpoint", str(train_out / "checkpoint.txt"), "--out-dir", str(eval_out)]
        + tiny_flags("evaluate")
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ltar=" in out and "acc=" in out
    metrics_lines = (eval_out / "metrics.csv").read_text().splitlines()
    assert metrics_lines[0] == "t,ltar,ltar2c,acc"
    assert len(metrics_lines) > 1
    assert (eval_out / "decisions.csv").exists()

    # same checkpoint twice: identical bytes
    second = tmp_path / "eval2"
    cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--checkpoint", str(train_out / "checkpoint.txt"), "--out-dir", str(second)]
        + tiny_flags("evaluate")
    )
    assert (eval_out / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()


def test_evaluate_hfl_requires_checkpoint(tmp_path):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    code = cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--out-dir", str(tmp_path / "eval")] + tiny_flags("evaluate")
    )
    assert code == 1


def test_evaluate_empty_test_set(tmp_path):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    eval_out = tmp_path / "eval"
    args = ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
            "--policy", "random", "--out-dir", str(eval_out)] + tiny_flags("evaluate", test_count=0)
    assert cli.main(args) == 0
    assert (eval_out / "metrics.csv").read_text() == "t,ltar,ltar2c,acc\n"


@pytest.mark.parametrize(
    "command, flags, needed",
    [
        # the default counts, train 1000 and test 1000
        ("evaluate", ["--policy", "noderank"], 2000),
        ("evaluate", ["--policy", "noderank", "--train-count", "50", "--test-count", "1000"], 1050),
        # train needs only its own split
        ("train", ["--train-count", "100"], 100),
    ],
    ids=["evaluate-default-counts", "evaluate-test-overrun", "train-overrun"],
)
def test_a_split_that_overruns_the_stream_exits_two(tmp_path, capsys, command, flags, needed):
    # the README quick start's tiny inputs: 60 requests
    tiny = "--num-domains 2 --nodes-per-domain 5 --num-links 12 --vnr-count 60 --train-count 30 --test-count 30"
    data, out = tmp_path / "data", tmp_path / "out"
    assert cli.main(["generate", "--out-dir", str(data), *tiny.split()]) == 0
    capsys.readouterr()
    vnrs_path = data / "vnrs.txt"
    code = cli.main(
        [command, "--substrate", str(data / "substrate.txt"), "--vnrs", str(vnrs_path),
         "--out-dir", str(out), *flags]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {vnrs_path}: holds 60 requests; the split needs {needed}\n"
    assert not out.exists()


def test_compare_single_policy_matches_evaluate(tmp_path):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    eval_out, cmp_out = tmp_path / "eval", tmp_path / "cmp"
    cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "random", "--out-dir", str(eval_out)] + tiny_flags("evaluate")
    )
    assert cli.main(
        ["compare", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policies", "random", "--out-dir", str(cmp_out)] + tiny_flags("compare")
    ) == 0
    eval_rows = (eval_out / "metrics.csv").read_text().splitlines()[1:]
    acc_rows = (cmp_out / "compare_acc.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in acc_rows] == [r.split(",")[0] for r in eval_rows]
    assert [r.split(",")[1] for r in acc_rows] == [r.split(",")[3] for r in eval_rows]
    assert (cmp_out / "compare_timing.csv").exists()


def test_compare_all_policies_with_checkpoint(tmp_path):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    train_out = tmp_path / "train"
    cli.main(
        ["train", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--out-dir", str(train_out)] + tiny_flags("train")
    )
    cmp_out = tmp_path / "cmp"
    assert cli.main(
        ["compare", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--checkpoint", str(train_out / "checkpoint.txt"),
         "--policies", "hfl,noderank,random", "--out-dir", str(cmp_out)] + tiny_flags("compare")
    ) == 0
    for metric in ("ltar", "ltar2c", "acc"):
        header = (cmp_out / f"compare_{metric}.csv").read_text().splitlines()[0]
        assert header == "t,hfl,noderank,random"
    timing = (cmp_out / "compare_timing.csv").read_text().splitlines()
    assert timing[0] == "policy,seconds_per_round"
    assert len(timing) == 4


def test_compare_timing_rows_are_a_column_and_a_finite_float(tmp_path):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    cmp_out = tmp_path / "cmp"
    assert cli.main(
        ["compare", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policies", "noderank,random,noderank", "--out-dir", str(cmp_out)] + tiny_flags("compare")
    ) == 0
    text = (cmp_out / "compare_timing.csv").read_text()
    header, *rows = text.removesuffix("\n").split("\n")
    assert text.endswith("\n") and header == "policy,seconds_per_round"
    assert [row.split(",")[0] for row in rows] == ["noderank#0", "random", "noderank#2"]
    for row in rows:
        _, seconds = row.split(",")
        assert math.isfinite(float(seconds)) and repr(float(seconds)) == seconds


def test_compare_duplicate_policy_gives_identical_columns(tmp_path):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    cmp_out = tmp_path / "cmp"
    assert cli.main(
        ["compare", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policies", "noderank,noderank", "--out-dir", str(cmp_out)] + tiny_flags("compare")
    ) == 0
    for metric in ("ltar", "ltar2c", "acc"):
        rows = (cmp_out / f"compare_{metric}.csv").read_text().splitlines()
        assert rows[0] == "t,noderank#0,noderank#1"
        for row in rows[1:]:
            _, first, second = row.split(",")
            assert first == second


@pytest.mark.parametrize(
    "policies, checkpoint_domains, message",
    [
        ("hfl", None, "the hfl policy needs --checkpoint"),
        ("noderank,hfl", 3, "checkpoint has 3 domain lines, the substrate has 2 domains"),
        ("noderank,bogus", None, "unknown policy 'bogus', expected one of hfl, noderank, random"),
        (" , ", None, "--policies needs at least one policy name"),
    ],
)
def test_compare_config_errors_write_nothing(tmp_path, capsys, policies, checkpoint_domains, message):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    argv = ["compare", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path), "--policies", policies]
    if checkpoint_domains:
        checkpoint = tmp_path / "checkpoint.txt"
        checkpoint.write_text("0.1 0.2 0.3 0.0\n" * (checkpoint_domains + 1))
        argv += ["--checkpoint", str(checkpoint)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(argv + ["--out-dir", str(out)] + tiny_flags("compare")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.endswith(f"{message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["evaluate", "--policy", "noderank"],
                                     ["compare", "--policies", "noderank,random"]])
def test_a_checkpoint_without_the_hfl_policy_is_refused(tmp_path, capsys, command):
    """Only the hfl policy reads a checkpoint: one given to a run without it is a config error."""
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = command[:1] + ["--substrate", str(substrate_path), "--vnrs", str(vnrs_path), *command[1:],
                          "--checkpoint", str(tmp_path / "missing" / "checkpoint.txt"), "--out-dir", str(out)]
    assert cli.main(argv + tiny_flags(command[0])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --checkpoint is read only by the hfl policy, which is not run\n"
    assert not out.exists()


def test_validate_clean_log(tmp_path, capsys):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    eval_out = tmp_path / "eval"
    cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--out-dir", str(eval_out)] + tiny_flags("evaluate")
    )
    capsys.readouterr()
    code = cli.main(
        ["validate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--decisions", str(eval_out / "decisions.csv")]
    )
    assert code == 0
    assert "0 violations" in capsys.readouterr().out


def test_validate_flags_tampered_log(tmp_path, capsys):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    eval_out = tmp_path / "eval"
    cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--out-dir", str(eval_out)] + tiny_flags("evaluate")
    )
    decisions = eval_out / "decisions.csv"
    lines = decisions.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if fields[2] == "1" and fields[5].count("|") >= 1:
            first = fields[5].split("|")[0]
            v, node = first.split(":")
            rest = fields[5].split("|")[1:]
            fields[5] = "|".join([f"{v}:{rest[0].split(':')[1]}"] + rest)  # duplicate a host
            lines[i] = ",".join(fields)
            break
    decisions.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(
        ["validate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--decisions", str(decisions)]
    )
    assert code == 2


NODES, LINKS = TINY["num_domains"] * TINY["nodes_per_domain"], TINY["num_links"]


@pytest.mark.parametrize(
    "fault, message",
    [
        ("logged_twice", "logged more than once"),
        ("foreign_path", "path for a link the request does not have"),
        # the first id past the end: an off-by-one bound would index past the arrays
        ("node_at_count", f"mapped to missing node {NODES}"),
        ("link_at_count", f"path uses missing link {LINKS}"),
    ],
)
def test_validate_names_the_request_of_a_hand_edited_log(tmp_path, capsys, fault, message):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    eval_out = tmp_path / "eval"
    cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--out-dir", str(eval_out)] + tiny_flags("evaluate")
    )
    decisions = eval_out / "decisions.csv"
    lines = decisions.read_text().splitlines()
    # an accepted record that has a path
    i, fields = next((i, f) for i, f in enumerate(line.split(",") for line in lines) if f[2] == "1" and f[7])
    if fault == "logged_twice":
        fields[3] = "123.5"  # the same decision with another revenue
        lines.append(",".join(fields))
    elif fault == "foreign_path":
        fields[6] = f"{fields[6]}|1"
        fields[7] = f"{fields[7]}|5-6:8"
        lines[i] = ",".join(fields)
    elif fault == "node_at_count":
        fields[5] = re.sub(r":\d+", f":{NODES}", fields[5], count=1)  # virtual node 0's host
        lines[i] = ",".join(fields)
    else:
        fields[7] = re.sub(r":\d+", f":{LINKS}", fields[7], count=1)  # the first link of a path
        lines[i] = ",".join(fields)
    decisions.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(
        ["validate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--decisions", str(decisions)]
    )
    assert code == 2
    assert f"vnr {fields[0]}: {message}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, value, message",
    [
        (3, "abc", "could not convert string to float: 'abc'"),
        (2, "5", "accepted must be 0 or 1, got 5"),
        (6, "7", "path_hops 7 do not match link_paths"),
        (1, "nan", "t_s must be finite, got nan"),
        (4, "inf", "cost must be finite, got inf"),
        # a repeated entry would otherwise keep only its last value
        (5, "0:999|0:1", "node_map repeats virtual node 0"),
        (7, "0-1:3|0-1:3", "link_paths repeats virtual link 0-1"),
    ],
)
def test_validate_malformed_log_names_file_and_line(tmp_path, capsys, field, value, message):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    eval_out = tmp_path / "eval"
    cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--out-dir", str(eval_out)] + tiny_flags("evaluate")
    )
    decisions = eval_out / "decisions.csv"
    lines = decisions.read_text().splitlines()
    fields = lines[2].split(",")
    fields[field] = value
    lines[2] = ",".join(fields)
    decisions.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(
        ["validate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--decisions", str(decisions)]
    )
    assert code == 2
    assert f"{decisions}:3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("text, line_no", [("", 1), ("\nvnr_id,t_s\n", 2)])
def test_validate_non_log_names_file_and_line(tmp_path, capsys, text, line_no):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    decisions = tmp_path / "decisions.csv"
    decisions.write_text(text)
    capsys.readouterr()
    code = cli.main(
        ["validate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--decisions", str(decisions)]
    )
    assert code == 2
    assert f"{decisions}:{line_no}: not a decision log" in capsys.readouterr().err


def train_tiny(tmp_path):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    train_out = tmp_path / "train"
    assert cli.main(
        ["train", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--out-dir", str(train_out)] + tiny_flags("train")
    ) == 0
    return substrate_path, vnrs_path, train_out / "checkpoint.txt"


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("domain_lines", [1, 3])
def test_checkpoint_domain_count_must_match_substrate(tmp_path, capsys, command, domain_lines):
    substrate_path, vnrs_path, checkpoint = train_tiny(tmp_path)
    lines = checkpoint.read_text().splitlines()
    domain_rows, global_row = lines[:-1], lines[-1]
    assert len(domain_rows) == TINY["num_domains"] == 2
    rows = (domain_rows * 2)[:domain_lines] + [global_row]
    mismatched = tmp_path / "mismatched.txt"
    mismatched.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    code = cli.main(
        [command, "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--checkpoint", str(mismatched), "--out-dir", str(tmp_path / "out")] + tiny_flags(command)
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(mismatched) in err
    assert f"{domain_lines} domain lines" in err and "2 domains" in err


BOUND_MESSAGE = "the magnitudes of checkpoint values must sum to at most 4.4942328371557893e+307"


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("abc 0.0 0.0 0.0", "could not convert string to float: 'abc'"),
        ("nan 0.0 0.0 0.0", "checkpoint values must be finite"),
        ("0.1 inf 0.0 0.0", "checkpoint values must be finite"),
        ("0.1 0.2 0.3", "each checkpoint line needs 4 values"),
        # finite, but a node score or its shift by the domain maximum would overflow
        ("1e308 1e308 1e308 0.0", BOUND_MESSAGE),
        ("0.0 0.0 -4.4942328371557893e+307 1e292", BOUND_MESSAGE),
    ],
)
def test_bad_checkpoint_line_names_file_and_line(tmp_path, capsys, command, bad_line, message):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    checkpoint = tmp_path / "checkpoint.txt"
    checkpoint.write_text(f"0.1 0.2 0.3 0.0\n{bad_line}\n0.1 0.2 0.3 0.0\n")
    capsys.readouterr()
    code = cli.main(
        [command, "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--checkpoint", str(checkpoint), "--out-dir", str(tmp_path / "out")] + tiny_flags(command)
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{checkpoint}:2: {message}" in err


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_checkpoint_at_the_magnitude_bound_runs_without_overflow(tmp_path, capsys, command):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    checkpoint = tmp_path / "checkpoint.txt"
    # each line's magnitudes sum to sys.float_info.max / 4 exactly
    checkpoint.write_text(
        "4.4942328371557893e+307 0.0 0.0 0.0\n"
        "-2.2471164185778946e+307 2.2471164185778946e+307 0.0 0.0\n"
        "0.0 0.0 -2.2471164185778946e+307 2.2471164185778946e+307\n"
    )
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(
            [command, "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
             "--checkpoint", str(checkpoint), "--out-dir", str(tmp_path / "out")] + tiny_flags(command)
        )
    assert code == 0


@pytest.mark.parametrize("text, line_no", [("\n", 1), ("0.1 0.2 0.3 0.0\n\n", 2)])
def test_short_checkpoint_names_file_and_line(tmp_path, capsys, text, line_no):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    checkpoint = tmp_path / "checkpoint.txt"
    checkpoint.write_text(text)
    capsys.readouterr()
    code = cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--checkpoint", str(checkpoint), "--out-dir", str(tmp_path / "out")] + tiny_flags("evaluate")
    )
    assert code == 2
    message = "checkpoint needs at least one domain and a global line"
    assert f"{checkpoint}:{line_no}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate", "validate"])
def test_duplicate_request_id_names_file_and_line(tmp_path, capsys, command):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    lines = vnrs_path.read_text().splitlines()
    headers = [i for i, line in enumerate(lines) if len(line.split()) == 5]
    fields = lines[headers[1]].split()
    fields[0] = "0"
    lines[headers[1]] = " ".join(fields)
    vnrs_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = [command, "--substrate", str(substrate_path), "--vnrs", str(vnrs_path)]
    if command == "validate":
        argv += ["--decisions", str(tmp_path / "decisions.csv")]
    else:
        argv += ["--out-dir", str(tmp_path / "out")] + tiny_flags(command, policy="noderank")
    code = cli.main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{vnrs_path}:{headers[1] + 1}: duplicate request id 0" in err


@pytest.mark.parametrize("command", ["train", "compare"])
def test_domain_without_nodes_names_file_and_line(tmp_path, capsys, command):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    lines = substrate_path.read_text().splitlines()
    nodes, links, domains = lines[0].split()
    lines[0] = f"{nodes} {links} {int(domains) + 1}"
    substrate_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = [command, "--substrate", str(substrate_path), "--vnrs", str(vnrs_path)]
    if command == "compare":
        argv += ["--policies", "noderank"]
    code = cli.main(argv + ["--out-dir", str(tmp_path / "out")] + tiny_flags(command))
    assert code == 2
    assert f"{substrate_path}:1: domain {domains} has no nodes" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["substrate", "vnrs"])
def test_non_finite_input_names_file_and_line(tmp_path, capsys, which):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    path = substrate_path if which == "substrate" else vnrs_path
    lines = path.read_text().splitlines()
    # the last line is a link of the substrate or a cpu demand or link of the last request
    fields = lines[-1].split()
    fields[-1] = "nan"
    lines[-1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--out-dir", str(tmp_path / "out")] + tiny_flags("evaluate")
    )
    assert code == 2
    assert f"{path}:{len(lines)}: number must be finite" in capsys.readouterr().err


def _set_fields(path, line_no, changes):
    """Replace whitespace-separated fields of the file's line ``line_no``: {field: value}."""
    lines = path.read_text().splitlines()
    fields = lines[line_no - 1].split()
    for field, value in changes.items():
        fields[field] = value
    lines[line_no - 1] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "fault, message",
    [
        ("missing_endpoint", "link endpoint (10, "),
        ("node_out_of_sequence", "node ids must be sequential from 0, got 7 at position 1"),
        ("departure_first", "vnr 0: departure time must exceed arrival time"),
        ("unsorted", "request stream is not sorted by arrival time"),
        ("negative_request_count", "request count must be non-negative"),
        ("negative_link_count", "header counts must be non-negative"),
        ("huge_domain_id", "node domain id out of range"),
        ("undeclared_domain_id", "node domain id out of range"),
        ("negative_cpu", "capacities must be non-negative"),
        ("self_loop", "self-loop link at node "),
        ("duplicate_link", "duplicate link between nodes ("),
        ("negative_bandwidth", "capacities must be non-negative"),
    ],
)
def test_input_faults_name_file_and_line(tmp_path, capsys, fault, message):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    num_nodes = TINY["num_domains"] * TINY["nodes_per_domain"]
    lines = vnrs_path.read_text().splitlines()
    second_header = [no for no, line in enumerate(lines, 1) if len(line.split()) == 5][1]
    # link k (from 0) is on line num_nodes + 2 + k; the last link is the file's last line
    links = [line.split() for line in substrate_path.read_text().splitlines()[num_nodes + 1 :]]
    last_link = num_nodes + 1 + len(links)
    path, line_no, changes = {
        "missing_endpoint": (substrate_path, num_nodes + 2, {0: str(num_nodes)}),
        "node_out_of_sequence": (substrate_path, 3, {0: "7"}),
        "departure_first": (vnrs_path, 2, {1: "1e6"}),
        "unsorted": (vnrs_path, second_header, {1: "0.0"}),
        "negative_request_count": (vnrs_path, 1, {0: "-3"}),
        "negative_link_count": (substrate_path, 1, {1: "-1"}),
        "huge_domain_id": (substrate_path, 2, {1: "99999999999999999999"}),
        "undeclared_domain_id": (substrate_path, 2, {1: str(TINY["num_domains"])}),
        "negative_cpu": (substrate_path, 3, {4: "-1.0"}),
        "self_loop": (substrate_path, num_nodes + 3, {1: links[1][0]}),
        "duplicate_link": (substrate_path, last_link, {0: links[0][1], 1: links[0][0]}),
        "negative_bandwidth": (substrate_path, last_link, {2: "-5.0"}),
    }[fault]
    _set_fields(path, line_no, changes)
    capsys.readouterr()
    code = cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--out-dir", str(tmp_path / "out")] + tiny_flags("evaluate")
    )
    assert code == 2
    assert f"{path}:{line_no}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("which, line_no", [("substrate", 2), ("vnrs", 2), ("checkpoint", 1), ("decisions", 2)])
def test_a_byte_that_is_not_utf8_names_file_and_line(tmp_path, capsys, which, line_no):
    """A 0xff byte at the end of a line fails the field it lands in, and the message is ASCII."""
    substrate_path, vnrs_path, checkpoint = train_tiny(tmp_path)
    inputs = ["--substrate", str(substrate_path), "--vnrs", str(vnrs_path)]
    eval_out = tmp_path / "eval"
    evaluate = ["evaluate", *inputs, "--checkpoint", str(checkpoint), "--out-dir", str(eval_out)]
    evaluate += tiny_flags("evaluate")
    assert cli.main(evaluate) == 0
    decisions = eval_out / "decisions.csv"
    path = {"substrate": substrate_path, "vnrs": vnrs_path, "checkpoint": checkpoint, "decisions": decisions}[which]
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    command = ["validate", *inputs, "--decisions", str(decisions)] if which == "decisions" else evaluate
    assert cli.main(command) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line_no}: " in err
    assert err.isascii() and err.count("\n") == 1


@pytest.mark.parametrize("which", ["substrate", "vnrs"])
def test_data_after_the_last_line_names_file_and_line(tmp_path, capsys, which):
    substrate_path, vnrs_path = generate_tiny(tmp_path)
    path = substrate_path if which == "substrate" else vnrs_path
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")
    capsys.readouterr()
    code = cli.main(
        ["evaluate", "--substrate", str(substrate_path), "--vnrs", str(vnrs_path),
         "--policy", "noderank", "--out-dir", str(tmp_path / "out")] + tiny_flags("evaluate")
    )
    assert code == 2
    assert f"{path}:{len(lines) + 1}: data after the last declared line" in capsys.readouterr().err


# -- the whole pipeline over drawn configs ------------------------------------

# 0, 1 and the 2^43 bound of every range key, and a value in between
RANGE_VALUES = (0, 1, 50, 2**43)


@st.composite
def pipeline_configs(draw):
    """Config keys of a small run: 1-3 domains of 1-6 nodes, a link budget
    between a spanning tree and the complete graph, boundary range keys, and a
    split that may leave training empty or smaller than one batch."""
    domains = draw(st.integers(1, 3))
    per_domain = draw(st.integers(1, 6))
    n = domains * per_domain
    config = dict(
        num_domains=domains,
        nodes_per_domain=per_domain,
        num_links=draw(st.integers(max(1, n - 1), max(1, n * (n - 1) // 2))),
        inter_link_ratio=draw(st.sampled_from((0.0, 0.1, 1.0))),
        vlink_prob=draw(st.sampled_from((0.0, 0.5, 1.0))),
        mean_lifetime=draw(st.sampled_from((1e-300, 1.0, 1000.0))),
        seed=draw(st.integers(0, 2**16)),
    )
    for key in ("cpu", "bw", "vnode_cpu", "vlink_bw"):
        lo, hi = sorted(draw(st.lists(st.sampled_from(RANGE_VALUES), min_size=2, max_size=2)))
        config.update({f"{key}_min": lo, f"{key}_max": hi})
    config["vn_nodes_min"] = draw(st.integers(1, 3))
    config["vn_nodes_max"] = draw(st.integers(config["vn_nodes_min"], 4))
    config["vnr_count"] = draw(st.integers(0, 12))
    config["train_count"] = draw(st.integers(0, config["vnr_count"]))
    config["test_count"] = draw(st.integers(0, config["vnr_count"] - config["train_count"]))
    config["batch_size"] = draw(st.sampled_from((1, config["train_count"] + 1)))
    return config


def run_pipeline(root: Path, config: dict) -> dict[str, bytes]:
    """generate, train, compare and validate under ``root``, each with the keys of
    ``config`` it takes; returns every deterministic output by its path relative to ``root``."""
    data, trained, compared = root / "data", root / "trained", root / "compared"
    code = cli.main(["generate", "--out-dir", str(data)] + config_flags("generate", config))
    assert code in (0, 1)
    if code == 0:
        inputs = ["--substrate", str(data / "substrate.txt"), "--vnrs", str(data / "vnrs.txt")]
        train = ["train", *inputs, "--epochs", "1", "--out-dir", str(trained)]
        assert cli.main(train + config_flags("train", config)) == 0
        assert cli.main(
            ["compare", *inputs, "--checkpoint", str(trained / "checkpoint.txt"),
             "--out-dir", str(compared)] + config_flags("compare", config)
        ) == 0
        for log in sorted(compared.glob("decisions_*.csv")):
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                assert cli.main(["validate", *inputs, "--decisions", str(log)]) == 0
            assert report.getvalue().endswith(f"0 violations in {log}\n")
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "compare_timing.csv"
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(config=pipeline_configs())
def test_pipeline_runs_cleanly_and_reproducibly(config):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            first = run_pipeline(Path(tmp) / "first", config)
            second = run_pipeline(Path(tmp) / "second", config)
    assert first == second
