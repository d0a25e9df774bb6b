"""Experiment configuration: JSON files, defaults, validation, builders.

A config file is one JSON object with optional nested sections; command-line
flags override individual values.  Each section is a frozen dataclass, and
its fields are the schema: a section accepts exactly the keys its dataclass
declares, and each value must have the field's type.

- A float field takes a JSON number; an integer is read as a float.
- An int field takes an integer, or a float with an integral value such as
  ``1000.0``; ``2.7`` and ``true`` are rejected.
- A str field takes a string, a vector field a list of numbers, and a
  matrix field a list of rows of numbers.
- Numbers must be JSON numbers: ``"1.0"`` and ``true`` are not numbers.
- ``null`` is allowed only for the optional fields, where it means "unset".

The range rules live in each section's ``__post_init__``, so a section built
directly in Python is checked the same way.  Validation errors always name
the exact field (``simulation.seed: ...``) so grid experiments fail loudly
and early.  The fully resolved config (every default materialized) is
embedded in every output file and echoed next to it, which is what makes
reruns reproducible.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, KinlangError
from .friction import FrictionSpec, constant_matrix, constant_scalar, hessian_sqrt
from .potentials import (
    PERTURBATIONS,
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

#: family or kind -> (builder, the fields it is called with); a builder's
#: error is reported against the first of those fields
_POTENTIALS = {
    "quadratic_diagonal": (quadratic_diagonal, ("v",)),
    "quadratic_general": (quadratic_general, ("matrix",)),
    "perturbed_diagonal": (perturbed_diagonal, ("v", "eps", "perturbation")),
}
_FRICTIONS = {
    "hessian_sqrt": (hessian_sqrt, ("s",)),
    "constant_scalar": (constant_scalar, ("lam",)),
    "constant_matrix": (constant_matrix, ("matrix",)),
}


@dataclass(frozen=True)
class PotentialConfig:
    family: str = "quadratic_diagonal"
    v: Optional[tuple[float, ...]] = (1.0,)
    matrix: Optional[tuple[tuple[float, ...], ...]] = None
    eps: float = 0.0
    perturbation: str = "log_cosh"

    def __post_init__(self):
        if self.family not in _POTENTIALS:
            raise ConfigError(
                f"potential.family: unknown family {self.family!r}"
            )
        if self.family == "quadratic_general" and self.matrix is None:
            raise ConfigError(
                "potential.matrix: required for family quadratic_general"
            )
        if self.family != "quadratic_general" and not self.v:
            raise ConfigError("potential.v: must be a nonempty vector")
        if self.family == "perturbed_diagonal":
            if self.perturbation not in PERTURBATIONS:
                raise ConfigError(
                    f"potential.perturbation: unknown kind "
                    f"{self.perturbation!r} "
                    f"(allowed: {', '.join(PERTURBATIONS)})"
                )
            if not self.eps > 0:
                raise ConfigError(
                    f"potential.eps: must be > 0 for perturbed_diagonal, "
                    f"got {self.eps}"
                )


@dataclass(frozen=True)
class FrictionConfig:
    kind: str = "hessian_sqrt"
    s: float = 2.0
    lam: Optional[float] = None
    matrix: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self):
        if self.kind not in _FRICTIONS:
            raise ConfigError(f"friction.kind: unknown kind {self.kind!r}")
        if self.kind == "constant_scalar" and (self.lam is None
                                               or self.lam <= 0):
            raise ConfigError(
                f"friction.lam: must be > 0 for constant_scalar, got {self.lam}"
            )
        if self.kind == "constant_matrix" and self.matrix is None:
            raise ConfigError(
                "friction.matrix: required for kind constant_matrix"
            )
        if self.kind == "hessian_sqrt" and not self.s > 0:
            raise ConfigError(f"friction.s: must be > 0, got {self.s}")


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 1e-3
    n_steps: int = 1000
    n_particles: int = 10_000
    seed: Optional[int] = None
    record_every: int = 10
    init_q: Optional[tuple[float, ...]] = None
    init_p: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigError(f"simulation.dt: must be > 0, got {self.dt}")
        for name in ("n_steps", "n_particles", "record_every"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"simulation.{name}: must be >= 1, "
                    f"got {getattr(self, name)}"
                )
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"simulation.seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CertificateConfig:
    x0: float = 1000.0
    s_grid: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.0)
    x0_grid: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    lambda_grid: tuple[float, ...] = tuple(np.round(np.linspace(0.1, 10.0, 25), 10))
    eps_rates: tuple[float, ...] = (1.0, 0.5, 0.1)

    def __post_init__(self):
        if not self.x0 > 0:
            raise ConfigError(f"certificate.x0: must be > 0, got {self.x0}")
        for name in ("s_grid", "x0_grid"):
            if not getattr(self, name):
                raise ConfigError(f"certificate.{name}: must be nonempty")
        if not self.lambda_grid or any(v <= 0 for v in self.lambda_grid):
            raise ConfigError(
                "certificate.lambda_grid: must be nonempty with entries > 0"
            )
        for e in self.eps_rates:
            if not 0.0 < e < 2.0:
                raise ConfigError(
                    f"certificate.eps_rates: entries must lie in (0, 2), "
                    f"got {e}"
                )


@dataclass(frozen=True)
class OracleConfig:
    w: float = 1.0
    lambda_grid: tuple[float, ...] = (1.0, 2.0, 3.0)
    v: Optional[tuple[float, ...]] = None
    n_times: int = 51

    def __post_init__(self):
        if not self.w > 0:
            raise ConfigError(f"oracle.w: must be > 0, got {self.w}")
        if not self.lambda_grid or any(l <= 0 for l in self.lambda_grid):
            raise ConfigError(
                "oracle.lambda_grid: must be nonempty with entries > 0"
            )
        if self.n_times < 8:
            raise ConfigError(
                f"oracle.n_times: need at least 8 points for a rate fit, "
                f"got {self.n_times}"
            )
        if self.v is not None and (not self.v or any(x <= 0 for x in self.v)):
            raise ConfigError("oracle.v: must be nonempty with entries > 0")


@dataclass(frozen=True)
class AuditConfig:
    x0: float = 1.0
    t_max: float = 10.0
    n_times: int = 200
    init_q_mean: float = 0.5
    init_cov_scale: float = 0.95

    def __post_init__(self):
        if not self.t_max > 0:
            raise ConfigError(f"audit.t_max: must be > 0, got {self.t_max}")
        if self.n_times < 3:
            raise ConfigError(
                f"audit.n_times: must be >= 3, got {self.n_times}"
            )
        if not 0 < self.init_cov_scale:
            raise ConfigError(
                f"audit.init_cov_scale: must be > 0, got {self.init_cov_scale}"
            )


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


# ---------------------------------------------------------------------------
# parsing: the field annotations (strings, under the __future__ import) say
# how each JSON value is read


def _number(x):
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        return float(x)
    raise TypeError


def _integer(x):
    if _number(x).is_integer():
        return int(x)
    raise TypeError


def _string(x):
    if isinstance(x, str):
        return x
    raise TypeError


def _vector(x):
    if isinstance(x, (list, tuple)):
        return tuple(_number(e) for e in x)
    raise TypeError


def _rows(x):
    if isinstance(x, (list, tuple)):
        return tuple(_vector(row) for row in x)
    raise TypeError


#: field annotation -> (reader, what the JSON value must be)
_READERS = {
    "float": (_number, "a number"),
    "int": (_integer, "an integer"),
    "str": (_string, "a string"),
    "tuple[float, ...]": (_vector, "a list of numbers"),
    "tuple[tuple[float, ...], ...]": (_rows, "a list of rows of numbers"),
}


def _value(annotation: str, value, name: str):
    """Read one JSON value as the annotated type; null only if Optional."""
    optional = annotation.startswith("Optional[")
    if optional:
        if value is None:
            return None
        annotation = annotation[len("Optional["):-1]
    read, expected = _READERS[annotation]
    try:
        return read(value)
    except (TypeError, OverflowError):
        raise ConfigError(
            f"{name}: expected {expected}{' or null' if optional else ''}, "
            f"got {json.dumps(value, default=repr)}"
        )


def _check_keys(raw: dict, cls, prefix: str):
    allowed = [f.name for f in fields(cls)]
    for key in raw:
        if key not in allowed:
            raise ConfigError(
                f"{prefix}{key}: unknown field (allowed: {', '.join(allowed)})"
            )


def _section(cls, raw, name: str, **overrides):
    """Parse the JSON object ``raw`` into the section dataclass ``cls``.

    Unknown keys and ill-typed values are rejected, absent keys keep their
    defaults, and ``cls`` then checks the ranges.  ``overrides`` replace
    file values, which must still be well-formed.
    """
    if not isinstance(raw, dict):
        raise ConfigError(
            f"{name}: expected an object, got {json.dumps(raw, default=repr)}"
        )
    _check_keys(raw, cls, name + ".")
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, value in [*raw.items(), *overrides.items()]:
        values[key] = _value(types[key], value, f"{name}.{key}")
    return cls(**values)


def config_from_dict(raw: dict, kind: Optional[str] = None,
                     out_dir: Optional[str] = None,
                     seed: Optional[int] = None) -> ExperimentConfig:
    """Build and validate a config; keyword arguments override file values."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    _check_keys(raw, ExperimentConfig, "")
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
    if "out_dir" in raw:
        _value("str", raw["out_dir"], "out_dir")
    overrides = {"simulation": {"seed": seed}} if seed is not None else {}
    sections = {
        f.name: _section(f.default_factory, raw.get(f.name, {}), f.name,
                         **overrides.get(f.name, {}))
        for f in fields(ExperimentConfig) if f.default_factory is not MISSING
    }
    cfg = ExperimentConfig(
        kind=resolved_kind,
        out_dir=out_dir or raw.get("out_dir") or f"runs/{resolved_kind}",
        **sections,
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


# ---------------------------------------------------------------------------
# builders


def _build(table: dict, key: str, cfg, section: str):
    builder, names = table[key]
    try:
        return builder(*(getattr(cfg, name) for name in names))
    except (KinlangError, ValueError) as exc:
        raise ConfigError(f"{section}.{names[0]}: {exc}")


def build_potential(cfg: PotentialConfig) -> Potential:
    return _build(_POTENTIALS, cfg.family, cfg, "potential")


def build_friction(cfg: FrictionConfig) -> FrictionSpec:
    return _build(_FRICTIONS, cfg.kind, cfg, "friction")
