"""Unimodal multi-armed bandits: IMED-UB and baselines, exact divergence
tools, instance constants, per-step invariant checking, and a reproducible
Monte Carlo experiment harness."""

from .env import (
    BanditConfig,
    PullStats,
    leader,
)
from .errors import ConfigError, ParameterError, StateError
from .expfam import Bernoulli, Exponential, Family, Gaussian, make_family
from .graph import UnimodalGraph, UnimodalityReport, line_graph, validate_unimodal
from .invariants import ViolationReport, check_log, check_step, transport_kl
from .policies import (
    Imed,
    ImedUB,
    Osub,
    PolicySpec,
    Uts,
    make_policy,
)
from .runner import (
    ExperimentConfig,
    RegretCurves,
    check_trace_dir,
    emit_outputs,
    grid_regret,
    load_config,
    log_grid,
    parse_config,
    read_trace,
    run_experiment,
    seed_sequence,
    simulate_policy_run,
    write_trace,
)
from .theory import TheoryReport, epsilon_nu, lower_bound_constant

__version__ = "0.1.0"

__all__ = [
    "BanditConfig",
    "Bernoulli",
    "ConfigError",
    "Exponential",
    "ExperimentConfig",
    "Family",
    "Gaussian",
    "Imed",
    "ImedUB",
    "Osub",
    "ParameterError",
    "PolicySpec",
    "PullStats",
    "RegretCurves",
    "StateError",
    "TheoryReport",
    "UnimodalGraph",
    "UnimodalityReport",
    "Uts",
    "ViolationReport",
    "check_log",
    "check_step",
    "check_trace_dir",
    "emit_outputs",
    "epsilon_nu",
    "grid_regret",
    "leader",
    "line_graph",
    "load_config",
    "log_grid",
    "lower_bound_constant",
    "make_family",
    "make_policy",
    "parse_config",
    "read_trace",
    "run_experiment",
    "seed_sequence",
    "simulate_policy_run",
    "transport_kl",
    "validate_unimodal",
    "write_trace",
]
