"""Experiment configuration: defaults plus CLI overrides, checked as a whole."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    # physical network
    num_domains: int = 4
    nodes_per_domain: int = 25
    num_links: int = 600
    cpu_min: int = 50
    cpu_max: int = 100
    bw_min: int = 50
    bw_max: int = 100
    inter_link_ratio: float = 0.1
    # request stream
    vnr_count: int = 2000
    train_count: int = 1000
    test_count: int = 1000
    vn_nodes_min: int = 2
    vn_nodes_max: int = 10
    vnode_cpu_min: int = 1
    vnode_cpu_max: int = 50
    vlink_bw_min: int = 1
    vlink_bw_max: int = 50
    vlink_prob: float = 0.5
    arrival_rate: float = 0.05
    mean_lifetime: float = 1000.0
    # training
    learning_rate: float = 2.0
    batch_size: int = 50
    epochs: int = 30
    reject_reward: float = 0.0
    # evaluation / run
    metrics_interval: float = 100.0
    seed: int = 42

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        positive = (
            "num_domains",
            "nodes_per_domain",
            "num_links",
            "vn_nodes_min",
            "batch_size",
            "epochs",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("vnr_count", "train_count", "test_count", "reject_reward"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative")
        ranges = (
            ("cpu_min", "cpu_max"),
            ("bw_min", "bw_max"),
            ("vn_nodes_min", "vn_nodes_max"),
            ("vnode_cpu_min", "vnode_cpu_max"),
            ("vlink_bw_min", "vlink_bw_max"),
        )
        for lo, hi in ranges:
            if getattr(self, lo) > getattr(self, hi):
                raise ConfigError(f"{lo} must not exceed {hi}")
            # generated amounts are integers of at most 2^43, so every availability value the
            # engine forms from them is exact in float64; ROADMAP item 1 sets this bound with its grid
            if lo != "vn_nodes_min" and not 0 <= getattr(self, lo) <= getattr(self, hi) <= 2**43:
                raise ConfigError(f"{lo} and {hi} must lie in [0, 2^43]")
        if not 0.0 <= self.inter_link_ratio <= 1.0:
            raise ConfigError("inter_link_ratio must lie in [0, 1]")
        if not 0.0 <= self.vlink_prob <= 1.0:
            raise ConfigError("vlink_prob must lie in [0, 1]")
        for name in ("arrival_rate", "mean_lifetime", "learning_rate", "metrics_interval"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


def field_types() -> dict[str, type]:
    types = {"int": int, "float": float}
    return {f.name: types[f.type] for f in dataclasses.fields(ExperimentConfig)}


def apply_overrides(config: ExperimentConfig, overrides: dict[str, object]) -> ExperimentConfig:
    """The config with the overrides applied, checked once as a whole."""
    updated = dataclasses.replace(config, **overrides)
    updated.validate()
    return updated
