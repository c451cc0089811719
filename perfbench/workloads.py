"""The benchmark's workloads: which fedvne command each replays, and on what inputs.

Every input instance of a workload comes from ``fedvne generate`` with the workload's
config overrides and the run's seed. The compare workloads also need an hfl
checkpoint; it comes from a short untimed ``fedvne train --epochs 1`` on the
default-scale inputs generated from the same seed (see ``CHECKPOINT_CONFIG``).
"""

from __future__ import annotations

from dataclasses import dataclass

POLICIES = ("hfl", "noderank", "random")

# overrides for the untimed training run that produces the compare checkpoint
CHECKPOINT_CONFIG = {"epochs": 1}

# layers every workload drives; a traced run fails if one records no calls
COMMON_LAYERS = (
    "workload.load_substrate",
    "workload.load_vnrs",
    "agent.extract_state",
    "policies.HflPolicy",
    "engine.embed_nodes",
    "engine.embed_links",
    "engine.min_hop_path",
    "substrate.release",
    "engine.replay_validate",
)
TRAIN_LAYERS = ("agent.train_step", "federation.run_round")
COMPARE_LAYERS = (
    "policies.ranked_by_score",
    "baselines.noderank_scores",
    "engine.write_decision_log",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the fedvne subcommand replayed: "train" or "compare"
    config: dict  # ExperimentConfig overrides, passed to generate and to the command
    instances: int  # independently generated input sets, each run once per repetition
    expected_layers: tuple[str, ...]
    forbidden_layers: tuple[str, ...] = ()
    # guard: the run fails if any policy's acceptance ratio reaches this
    max_acc: float | None = None
    # guard: the run fails unless both the node and the link stage reject requests
    needs_stage_failures: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-default",
            command="train",
            config={"epochs": 1},
            instances=4,
            expected_layers=COMMON_LAYERS + TRAIN_LAYERS,
        ),
        Workload(
            name="compare-10x",
            command="compare",
            config={"nodes_per_domain": 250, "num_links": 6000, "arrival_rate": 0.5},
            instances=2,
            expected_layers=COMMON_LAYERS + COMPARE_LAYERS,
            forbidden_layers=TRAIN_LAYERS,
            max_acc=0.95,
        ),
        Workload(
            name="compare-overload",
            command="compare",
            config={"arrival_rate": 0.2, "vnr_count": 3000, "test_count": 2000},
            instances=3,
            expected_layers=COMMON_LAYERS + COMPARE_LAYERS,
            forbidden_layers=TRAIN_LAYERS,
            needs_stage_failures=True,
        ),
    )
}


def config_flags(config: dict) -> list[str]:
    """``{"num_links": 6000}`` -> ``["--num-links", "6000"]``, as the CLI takes them."""
    flags = []
    for key, value in config.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags
