"""Experiment configuration: JSON files, defaults, validation, builders.

A config file is one JSON object with optional nested sections; command-line
flags override individual values.  Validation errors always name the exact
field (``simulation.seed: ...``) so grid experiments fail loudly and early.
The fully resolved config (every default materialized) is embedded in every
output file and echoed next to it, which is what makes reruns reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .friction import FrictionSpec, constant_matrix, constant_scalar, hessian_sqrt
from .potentials import (
    COSINE,
    LOG_COSH,
    Potential,
    perturbed_diagonal,
    quadratic_diagonal,
    quadratic_general,
)

__all__ = [
    "ExperimentConfig",
    "PotentialConfig",
    "FrictionConfig",
    "SimulationConfig",
    "CertificateConfig",
    "OracleConfig",
    "AuditConfig",
    "load_config",
    "config_from_dict",
    "build_potential",
    "build_friction",
]

KINDS = ("oracle-ou", "simulate", "certify", "compare", "audit")

_PERTURBATIONS = {"log_cosh": LOG_COSH, "cosine": COSINE}


def _require(section: dict, allowed: Sequence[str], prefix: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(
                f"{prefix}{key}: unknown field (allowed: {', '.join(allowed)})"
            )


def _tuple_of_floats(value, name: str):
    if value is None:
        return None
    try:
        out = tuple(float(x) for x in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected a list of numbers, got {value!r}")
    return out


@dataclass(frozen=True)
class PotentialConfig:
    family: str = "quadratic_diagonal"
    v: Optional[tuple] = (1.0,)
    matrix: Optional[tuple] = None
    eps: float = 0.0
    perturbation: str = "log_cosh"

    @staticmethod
    def from_dict(section: dict) -> "PotentialConfig":
        _require(section, ("family", "v", "matrix", "eps", "perturbation"),
                 "potential.")
        defaults = PotentialConfig()
        out = PotentialConfig(
            family=section.get("family", defaults.family),
            v=_tuple_of_floats(section.get("v", defaults.v), "potential.v"),
            matrix=tuple(map(tuple, section["matrix"]))
            if section.get("matrix") is not None else None,
            eps=float(section.get("eps", defaults.eps)),
            perturbation=section.get("perturbation", defaults.perturbation),
        )
        if out.family not in ("quadratic_diagonal", "quadratic_general",
                              "perturbed_diagonal"):
            raise ConfigError(
                f"potential.family: unknown family {out.family!r}"
            )
        if out.family == "quadratic_general" and out.matrix is None:
            raise ConfigError(
                "potential.matrix: required for family quadratic_general"
            )
        if out.family != "quadratic_general" and not out.v:
            raise ConfigError("potential.v: must be a nonempty vector")
        if out.family == "perturbed_diagonal":
            if out.perturbation not in _PERTURBATIONS:
                raise ConfigError(
                    f"potential.perturbation: unknown kind "
                    f"{out.perturbation!r} (allowed: log_cosh, cosine)"
                )
            if not out.eps > 0:
                raise ConfigError(
                    f"potential.eps: must be > 0 for perturbed_diagonal, "
                    f"got {out.eps}"
                )
        return out


@dataclass(frozen=True)
class FrictionConfig:
    kind: str = "hessian_sqrt"
    s: float = 2.0
    lam: Optional[float] = None
    matrix: Optional[tuple] = None

    @staticmethod
    def from_dict(section: dict) -> "FrictionConfig":
        _require(section, ("kind", "s", "lam", "matrix"), "friction.")
        defaults = FrictionConfig()
        out = FrictionConfig(
            kind=section.get("kind", defaults.kind),
            s=float(section.get("s", defaults.s)),
            lam=None if section.get("lam") is None else float(section["lam"]),
            matrix=tuple(map(tuple, section["matrix"]))
            if section.get("matrix") is not None else None,
        )
        if out.kind not in ("hessian_sqrt", "constant_scalar",
                            "constant_matrix"):
            raise ConfigError(f"friction.kind: unknown kind {out.kind!r}")
        if out.kind == "constant_scalar" and (out.lam is None or out.lam <= 0):
            raise ConfigError(
                f"friction.lam: must be > 0 for constant_scalar, got {out.lam}"
            )
        if out.kind == "constant_matrix" and out.matrix is None:
            raise ConfigError(
                "friction.matrix: required for kind constant_matrix"
            )
        if out.kind == "hessian_sqrt" and not out.s > 0:
            raise ConfigError(f"friction.s: must be > 0, got {out.s}")
        return out


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 1e-3
    n_steps: int = 1000
    n_particles: int = 10_000
    seed: Optional[int] = None
    record_every: int = 10
    init_q: Optional[tuple] = None
    init_p: Optional[tuple] = None

    @staticmethod
    def from_dict(section: dict) -> "SimulationConfig":
        _require(section, ("dt", "n_steps", "n_particles", "seed",
                           "record_every", "init_q", "init_p"), "simulation.")
        defaults = SimulationConfig()
        out = SimulationConfig(
            dt=float(section.get("dt", defaults.dt)),
            n_steps=int(section.get("n_steps", defaults.n_steps)),
            n_particles=int(section.get("n_particles", defaults.n_particles)),
            seed=None if section.get("seed") is None else int(section["seed"]),
            record_every=int(section.get("record_every",
                                         defaults.record_every)),
            init_q=_tuple_of_floats(section.get("init_q"), "simulation.init_q"),
            init_p=_tuple_of_floats(section.get("init_p"), "simulation.init_p"),
        )
        if not out.dt > 0:
            raise ConfigError(f"simulation.dt: must be > 0, got {out.dt}")
        if out.n_steps < 1:
            raise ConfigError(
                f"simulation.n_steps: must be >= 1, got {out.n_steps}"
            )
        if out.n_particles < 1:
            raise ConfigError(
                f"simulation.n_particles: must be >= 1, got {out.n_particles}"
            )
        if out.record_every < 1:
            raise ConfigError(
                f"simulation.record_every: must be >= 1, got {out.record_every}"
            )
        if out.seed is not None and out.seed < 0:
            raise ConfigError(f"simulation.seed: must be >= 0, got {out.seed}")
        return out


@dataclass(frozen=True)
class CertificateConfig:
    x0: float = 1000.0
    s_grid: tuple = (1.0, 1.5, 2.0, 3.0, 4.0)
    x0_grid: tuple = (1.0, 10.0, 100.0, 1000.0)
    lambda_grid: tuple = tuple(np.round(np.linspace(0.1, 10.0, 25), 10))
    eps_rates: tuple = (1.0, 0.5, 0.1)

    @staticmethod
    def from_dict(section: dict) -> "CertificateConfig":
        _require(section, ("x0", "s_grid", "x0_grid", "lambda_grid",
                           "eps_rates"), "certificate.")
        defaults = CertificateConfig()
        out = CertificateConfig(
            x0=float(section.get("x0", defaults.x0)),
            s_grid=_tuple_of_floats(section.get("s_grid", defaults.s_grid),
                                    "certificate.s_grid"),
            x0_grid=_tuple_of_floats(section.get("x0_grid", defaults.x0_grid),
                                     "certificate.x0_grid"),
            lambda_grid=_tuple_of_floats(
                section.get("lambda_grid", defaults.lambda_grid),
                "certificate.lambda_grid"),
            eps_rates=_tuple_of_floats(
                section.get("eps_rates", defaults.eps_rates),
                "certificate.eps_rates"),
        )
        if not out.x0 > 0:
            raise ConfigError(f"certificate.x0: must be > 0, got {out.x0}")
        for name, grid in (("s_grid", out.s_grid), ("x0_grid", out.x0_grid)):
            if not grid:
                raise ConfigError(f"certificate.{name}: must be nonempty")
        if not out.lambda_grid or any(v <= 0 for v in out.lambda_grid):
            raise ConfigError(
                "certificate.lambda_grid: must be nonempty with entries > 0"
            )
        for e in out.eps_rates:
            if not 0.0 < e < 2.0:
                raise ConfigError(
                    f"certificate.eps_rates: entries must lie in (0, 2), "
                    f"got {e}"
                )
        return out


@dataclass(frozen=True)
class OracleConfig:
    w: float = 1.0
    lambda_grid: tuple = (1.0, 2.0, 3.0)
    v: Optional[tuple] = None
    n_times: int = 51

    @staticmethod
    def from_dict(section: dict) -> "OracleConfig":
        _require(section, ("w", "lambda_grid", "v", "n_times"), "oracle.")
        defaults = OracleConfig()
        out = OracleConfig(
            w=float(section.get("w", defaults.w)),
            lambda_grid=_tuple_of_floats(
                section.get("lambda_grid", defaults.lambda_grid),
                "oracle.lambda_grid"),
            v=_tuple_of_floats(section.get("v"), "oracle.v"),
            n_times=int(section.get("n_times", defaults.n_times)),
        )
        if not out.w > 0:
            raise ConfigError(f"oracle.w: must be > 0, got {out.w}")
        if not out.lambda_grid or any(l <= 0 for l in out.lambda_grid):
            raise ConfigError(
                "oracle.lambda_grid: must be nonempty with entries > 0"
            )
        if out.n_times < 8:
            raise ConfigError(
                f"oracle.n_times: need at least 8 points for a rate fit, "
                f"got {out.n_times}"
            )
        if out.v is not None and (not out.v or any(x <= 0 for x in out.v)):
            raise ConfigError("oracle.v: must be nonempty with entries > 0")
        return out


@dataclass(frozen=True)
class AuditConfig:
    x0: float = 1.0
    t_max: float = 10.0
    n_times: int = 200
    init_q_mean: float = 0.5
    init_cov_scale: float = 0.95

    @staticmethod
    def from_dict(section: dict) -> "AuditConfig":
        _require(section, ("x0", "t_max", "n_times", "init_q_mean",
                           "init_cov_scale"), "audit.")
        defaults = AuditConfig()
        out = AuditConfig(
            x0=float(section.get("x0", defaults.x0)),
            t_max=float(section.get("t_max", defaults.t_max)),
            n_times=int(section.get("n_times", defaults.n_times)),
            init_q_mean=float(section.get("init_q_mean",
                                          defaults.init_q_mean)),
            init_cov_scale=float(section.get("init_cov_scale",
                                             defaults.init_cov_scale)),
        )
        if not out.t_max > 0:
            raise ConfigError(f"audit.t_max: must be > 0, got {out.t_max}")
        if out.n_times < 3:
            raise ConfigError(
                f"audit.n_times: must be >= 3, got {out.n_times}"
            )
        if not 0 < out.init_cov_scale:
            raise ConfigError(
                f"audit.init_cov_scale: must be > 0, got {out.init_cov_scale}"
            )
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    out_dir: str
    potential: PotentialConfig = field(default_factory=PotentialConfig)
    friction: FrictionConfig = field(default_factory=FrictionConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    certificate: CertificateConfig = field(default_factory=CertificateConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    audit: AuditConfig = field(default_factory=AuditConfig)

    def resolved(self) -> dict:
        """The fully materialized config embedded in every output."""
        return asdict(self)


_TOP_LEVEL = ("kind", "out_dir", "potential", "friction", "simulation",
              "certificate", "oracle", "audit")


def config_from_dict(raw: dict, kind: Optional[str] = None,
                     out_dir: Optional[str] = None,
                     seed: Optional[int] = None) -> ExperimentConfig:
    """Build and validate a config; keyword arguments override file values."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    _require(raw, _TOP_LEVEL, "")
    resolved_kind = kind or raw.get("kind")
    if resolved_kind is None:
        raise ConfigError("kind: required (one of " + ", ".join(KINDS) + ")")
    if resolved_kind not in KINDS:
        raise ConfigError(f"kind: unknown experiment kind {resolved_kind!r}")
    if kind is not None and raw.get("kind") not in (None, kind):
        raise ConfigError(
            f"kind: config file says {raw['kind']!r} but the {kind!r} "
            "subcommand was invoked"
        )
    sim_section = dict(raw.get("simulation", {}))
    if seed is not None:
        sim_section["seed"] = seed
    cfg = ExperimentConfig(
        kind=resolved_kind,
        out_dir=out_dir or raw.get("out_dir") or f"runs/{resolved_kind}",
        potential=PotentialConfig.from_dict(dict(raw.get("potential", {}))),
        friction=FrictionConfig.from_dict(dict(raw.get("friction", {}))),
        simulation=SimulationConfig.from_dict(sim_section),
        certificate=CertificateConfig.from_dict(dict(raw.get("certificate", {}))),
        oracle=OracleConfig.from_dict(dict(raw.get("oracle", {}))),
        audit=AuditConfig.from_dict(dict(raw.get("audit", {}))),
    )
    _validate_for_kind(cfg)
    return cfg


def _validate_for_kind(cfg: ExperimentConfig):
    if cfg.kind == "simulate" and cfg.simulation.seed is None:
        raise ConfigError(
            "simulation.seed: a seed is mandatory for stochastic runs"
        )
    if cfg.kind == "audit" and cfg.friction.kind != "hessian_sqrt":
        raise ConfigError(
            "friction.kind: the decay audit certifies the hessian_sqrt "
            "friction; got " + cfg.friction.kind
        )


def load_config(path, kind: Optional[str] = None, out_dir: Optional[str] = None,
                seed: Optional[int] = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return config_from_dict(raw, kind=kind, out_dir=out_dir, seed=seed)


def build_potential(cfg: PotentialConfig) -> Potential:
    if cfg.family == "quadratic_diagonal":
        return quadratic_diagonal(cfg.v)
    if cfg.family == "quadratic_general":
        try:
            return quadratic_general(np.asarray(cfg.matrix, dtype=float))
        except Exception as exc:
            raise ConfigError(f"potential.matrix: {exc}")
    if cfg.family == "perturbed_diagonal":
        try:
            return perturbed_diagonal(cfg.v, cfg.eps,
                                      perturbation=_PERTURBATIONS[cfg.perturbation])
        except Exception as exc:
            raise ConfigError(f"potential: {exc}")
    raise ConfigError(f"potential.family: unknown family {cfg.family!r}")


def build_friction(cfg: FrictionConfig) -> FrictionSpec:
    if cfg.kind == "hessian_sqrt":
        return hessian_sqrt(cfg.s)
    if cfg.kind == "constant_scalar":
        return constant_scalar(cfg.lam)
    if cfg.kind == "constant_matrix":
        try:
            return constant_matrix(np.asarray(cfg.matrix, dtype=float))
        except Exception as exc:
            raise ConfigError(f"friction.matrix: {exc}")
    raise ConfigError(f"friction.kind: unknown kind {cfg.kind!r}")
