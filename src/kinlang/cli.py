"""Command-line harness for reproducible experiments.

Subcommands
-----------
oracle-ou   closed-form oscillator curves, fitted vs. exact decay rates
simulate    Euler-Maruyama ensemble run with moment-vs-oracle report
certify     weight-family sweep, best rate certificate, baseline comparison
compare     single-certificate comparison against constant-friction baselines
audit       Lyapunov decay audit of the certified rate plus witness sweep

All commands read one JSON config (``--config``).  Each ``cmd_*`` is a pure
function of the config that returns its artifacts; ``main`` alone creates
``--out`` and writes them, together with a ``config.json`` echo of the fully
resolved config, which every JSON report also embeds with a format version.
One rule covers every command:

- a config error exits 2 and writes nothing;
- a runtime ``KinlangError`` exits 1 and writes ``config.json`` plus the
  command's report, whose ``error`` block holds ``type``, ``message`` and
  ``step_index`` (null unless a simulation blew up);
- otherwise the run exits 0, and a certificate that comes out invalid is
  still a successful run.

Outputs are byte-identical across reruns with the same inputs and the same
output directory, which every report embeds: no timestamps, sorted JSON
keys, repr-format floats, fixed row ordering.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .certificates import (
    _overflow_message,
    certificate,
    coefficient_family,
    compare_to_constant_friction,
    diag_quadratic_certificate,
    optimize_m1,
)
from .config import (
    ExperimentConfig,
    build_friction,
    build_potential,
    load_config,
    config_from_dict,
)
from .errors import ConfigError, KinlangError, WitnessNotFound
from .friction import constant_scalar, hessian_sqrt
from .gaussian import (
    GaussianMoments,
    chi2_along,
    diagonal_system_rate,
    fit_decay_rate,
    kinetic_dynamics,
    ou_rate_closed_form,
    propagate,
)
from .lyapunov import build_s, decay_audit
from .simulate import (
    SimConfig,
    attach_chi2_proxies,
    ensemble_at_point,
    run,
    write_csv,
    write_trajectory_csv,
)

__all__ = ["main", "FORMAT_VERSION"]

FORMAT_VERSION = 3


# ---------------------------------------------------------------------------
# output plumbing


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


# ---------------------------------------------------------------------------
# oracle-ou


def _ou_case(w, kind, lam, s, gamma, closed, n_times):
    """One (w, friction, lam) closed-form curve plus its fitted rate; gamma
    is the friction coefficient and closed its closed-form rate."""
    if kind == "constant_scalar":
        label = f"constant_scalar(lam={lam:g})"
    else:
        label = f"hessian_sqrt(s={s:g})"
    dyn = kinetic_dynamics([[w * w]], [[gamma]])
    init = GaussianMoments(mean=[3.0, -3.0 * w], cov=np.eye(2))
    times = np.linspace(10.0 / closed, 20.0 / closed, n_times)
    chi2s = chi2_along(dyn, init, times).tolist()
    fitted = fit_decay_rate(times, chi2s, tail_fraction=1.0)
    rows = [(w, label, lam, t, c) for t, c in zip(times, chi2s)]
    summary = {
        "w": w,
        "friction": kind,
        "lam": lam,
        "s": s if kind == "hessian_sqrt" else None,
        "closed_form_rate": closed,
        "fitted_rate": fitted,
        "relative_gap": abs(fitted - closed) / closed,
    }
    return rows, summary


def cmd_oracle_ou(cfg: ExperimentConfig) -> dict:
    ora = cfg.oracle
    s, w = cfg.friction.s, ora.w
    # (friction kind, lam, friction coefficient) per case
    cases = [("constant_scalar", lam, lam) for lam in ora.lambda_grid]
    cases.append(("hessian_sqrt", None, s * w))
    if not 0.0 < w * w < math.inf:
        raise ConfigError(f"oracle.w: w^2 must be finite and > 0, got "
                          f"{w * w!r} for w = {w!r}")
    rates = [ou_rate_closed_form(w, g) if g > 0 else 0.0 for _, _, g in cases]
    for rate in rates:
        if not (rate > 0 and math.isfinite(20.0 / rate)):
            raise ConfigError(
                f"oracle.w: w = {w!r} gives the closed-form rate {rate!r}, "
                "so the fit window [10/rate, 20/rate] is not finite and > 0")
    results = [_ou_case(w, kind, lam, s, gamma, closed, ora.n_times)
               for (kind, lam, gamma), closed in zip(cases, rates)]

    rows = [r for case_rows, _ in results for r in case_rows]
    summaries = [summary for _, summary in results]
    body = {"cases": summaries,
            "max_relative_gap": max(c["relative_gap"] for c in summaries)}

    if ora.v is not None:
        spec_h = hessian_sqrt(s)
        rate_h = diagonal_system_rate(ora.v, spec_h)
        table = []
        for lam in ora.lambda_grid:
            rate_c = diagonal_system_rate(ora.v, constant_scalar(lam))
            table.append({
                "lam": lam,
                "constant_scalar_rate": rate_c,
                "hessian_sqrt_rate": rate_h,
                "dominated": bool(rate_c <= rate_h + 1e-12),
            })
        body["dominance"] = {
            "v": list(ora.v),
            "s": s,
            "hessian_sqrt_rate": rate_h,
            "table": table,
            "hessian_sqrt_maximal": all(r["dominated"] for r in table),
        }

    return {
        "oracle_ou.csv": lambda path: write_csv(
            path, ["w", "friction", "lam", "t", "chi2"], rows),
        "oracle_ou_summary.json": body,
    }


# ---------------------------------------------------------------------------
# simulate


def _linear_dynamics(p, spec):
    """The run's Gaussian oracle: Hess V and Gamma at the origin.

    Exact for quadratic potentials, whose Hessian and friction are constant.
    For perturbed potentials its stationary law is the curvature-matched
    Gaussian at the origin, so the chi2 proxy column against it is a trend
    diagnostic rather than a divergence estimate.
    """
    zero = np.zeros(p.dim)
    return kinetic_dynamics(p.hess(zero), spec.gamma(p, zero))


def cmd_simulate(cfg: ExperimentConfig) -> dict:
    p = build_potential(cfg.potential)
    spec = build_friction(cfg.friction)
    sim = cfg.simulation
    d = p.dim

    init_q = sim.init_q if sim.init_q is not None else (1.0,) * d
    init_p = sim.init_p if sim.init_p is not None else (0.0,) * d
    sized = [("simulation.init_q", init_q), ("simulation.init_p", init_p)]
    if spec.matrix is not None:
        sized.append(("friction.matrix", spec.matrix))
    for name, x in sized:
        if len(x) != d:
            raise ConfigError(
                f"{name}: size {len(x)} does not match potential dimension {d}"
            )

    ens0 = ensemble_at_point(init_q, init_p, sim.n_particles, sim.seed, sim.dt)
    simcfg = SimConfig(dt=sim.dt, n_steps=sim.n_steps,
                       n_particles=sim.n_particles, seed=sim.seed)
    dyn = _linear_dynamics(p, spec)
    points = run(ens0, p, spec, simcfg, record_every=sim.record_every)
    points = attach_chi2_proxies(points, dyn.stationary)

    final = points[-1]
    body = {
        "final_time": final.time,
        "n_records": len(points),
        "chi2_proxy_target": "stationary" if p.constant_hessian
        else "curvature_matched_proxy",
        "final_chi2_proxy": final.chi2_proxy,
    }

    if p.constant_hessian:
        init_moments = GaussianMoments(
            mean=np.concatenate([init_q, init_p]),
            cov=np.zeros((2 * d, 2 * d)),
        )
        exact = propagate(dyn, init_moments, final.time)
        se = np.sqrt(np.maximum(np.diag(exact.cov), 0.0) / sim.n_particles)
        mean_diff = np.abs(np.asarray(final.mean) - exact.mean)
        cov_scale = max(np.max(np.abs(exact.cov)), 1e-300)
        body["oracle"] = {
            "exact_mean": exact.mean,
            "exact_cov": exact.cov,
            "sample_mean": np.asarray(final.mean),
            "sample_cov": np.asarray(final.cov),
            "max_abs_mean_error": float(mean_diff.max()),
            "max_mean_z": float(np.max(mean_diff / np.maximum(se, 1e-300))),
            "max_abs_cov_error": float(
                np.max(np.abs(np.asarray(final.cov) - exact.cov))),
            "cov_scale": float(cov_scale),
        }
    else:
        body["oracle"] = None

    return {
        "trajectory.csv": lambda path: write_trajectory_csv(points, path, d),
        "simulate_report.json": body,
    }


# ---------------------------------------------------------------------------
# certify / compare


def _family_certificate(const, s, x0, x0_name):
    """The weight family's coefficients at (s, x0) and their certificate.

    An x0 too small for s is an error in the field x0_name; a pair whose
    certificate arithmetic overflows is an error in both fields.
    """
    try:
        coeffs = coefficient_family(const, s, x0)
        return coeffs, certificate(const, coeffs)
    except ValueError as exc:
        raise ConfigError(f"{x0_name}: {exc}")
    except OverflowError:
        raise ConfigError(f"friction.s, {x0_name}: {_overflow_message(s, x0)}")


def cmd_certify(cfg: ExperimentConfig) -> dict:
    const = build_potential(cfg.potential).constants
    try:
        best, table = optimize_m1(const, cfg.certificate.s_grid,
                                  cfg.certificate.x0_grid)
    except ValueError as exc:
        # feasibility depends on both grids
        raise ConfigError(f"certificate.s_grid, certificate.x0_grid: {exc}")
    rows = []
    for entry in table:
        cert = entry.certificate
        if cert is None:
            rows.append((entry.s, entry.x0, None, None, None, None, None,
                         entry.error))
        else:
            rows.append((entry.s, entry.x0, cert.m1, cert.m2,
                         cert.rescaled_rate, cert.original_rate, cert.valid,
                         None))
    comparison = compare_to_constant_friction(const, best,
                                              cfg.certificate.lambda_grid)
    infeasible = Counter(e.error_type for e in table if e.certificate is None)
    return {
        "optimizer_table.csv": lambda path: write_csv(
            path, ["s", "x0", "m1", "m2", "rescaled_rate", "original_rate",
                   "valid", "error"], rows),
        "certificate.json": {"certificate": best.as_dict(),
                             "comparison": comparison,
                             "infeasible_cells": dict(infeasible)},
    }


def cmd_compare(cfg: ExperimentConfig) -> dict:
    const = build_potential(cfg.potential).constants
    _, cert = _family_certificate(const, cfg.friction.s, cfg.certificate.x0,
                                  "certificate.x0")
    comparison = compare_to_constant_friction(const, cert,
                                              cfg.certificate.lambda_grid)
    return {"comparison.json": {"certificate": cert.as_dict(),
                                "comparison": comparison}}


# ---------------------------------------------------------------------------
# audit


def cmd_audit(cfg: ExperimentConfig) -> dict:
    p = build_potential(cfg.potential)
    dyn = _linear_dynamics(p, build_friction(cfg.friction))
    const = p.constants
    d = p.dim

    aud = cfg.audit
    coeffs, cert = _family_certificate(const, cfg.friction.s, aud.x0,
                                       "audit.x0")
    weight = build_s(coeffs, dyn.gamma_mat)

    mean = np.concatenate([np.full(d, aud.init_q_mean), np.zeros(d)])
    init = GaussianMoments(mean=mean,
                           cov=aud.init_cov_scale * np.eye(2 * d))
    times = np.linspace(0.0, aud.t_max, aud.n_times)

    main_audit = decay_audit(dyn, init, weight, cert, times)

    sweep = []
    for eps in cfg.certificate.eps_rates:
        entry = {"eps_rate": eps}
        try:
            witness, rate = diag_quadratic_certificate(cfg.potential.v, eps)
        except (ValueError, WitnessNotFound) as exc:
            entry.update({"error": f"{type(exc).__name__}: {exc}",
                          "rate": None, "audit": None})
            sweep.append(entry)
            continue
        w_weight = build_s(witness, dyn.gamma_mat)
        entry.update({
            "witness": witness.as_dict(),
            "rate": rate,
            "audit": decay_audit(dyn, init, w_weight, rate, times),
        })
        sweep.append(entry)

    body = {
        "main": {
            "certificate": cert.as_dict(),
            "audit": main_audit,
        },
        "witness_sweep": sweep,
        "all_passed": bool(
            main_audit["all_passed"]
            and all(e.get("audit") is not None and e["audit"]["all_passed"]
                    for e in sweep)
        ),
    }
    return {"audit.json": body}


# ---------------------------------------------------------------------------
# entry point


#: subcommand -> (handler, report file, help text); the report file carries
#: the error block when the handler raises at run time
_COMMANDS = {
    "oracle-ou": (cmd_oracle_ou, "oracle_ou_summary.json",
                  "closed-form oscillator decay curves and fitted rates"),
    "simulate": (cmd_simulate, "simulate_report.json",
                 "Euler-Maruyama ensemble run with moment report"),
    "certify": (cmd_certify, "certificate.json",
                "sweep weight coefficients and emit a rate certificate"),
    "compare": (cmd_compare, "comparison.json",
                "compare one certificate to constant-friction baselines"),
    "audit": (cmd_audit, "audit.json",
              "audit certified decay rates on the Lyapunov functional"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinlang",
        description="reproducible experiments for matrix-friction kinetic "
                    "Langevin dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON experiment config (defaults apply "
                             "when omitted)")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config out_dir)")
        sp.add_argument("--seed", type=int, metavar="N",
                        help="override simulation.seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, report_name, _ = _COMMANDS[args.command]
    try:
        if args.config is not None:
            cfg = load_config(args.config, kind=args.command,
                              out_dir=args.out, seed=args.seed)
        else:
            cfg = config_from_dict({}, kind=args.command, out_dir=args.out,
                                   seed=args.seed)
        artifacts, code = command(cfg), 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KinlangError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        artifacts, code = {report_name: {"error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "step_index": getattr(exc, "step_index", None),
        }}}, 1

    # a dict is a JSON report body, written after the format version, the
    # tool name and the resolved config; anything else is a writer that
    # takes the file's path
    os.makedirs(cfg.out_dir, exist_ok=True)
    head = {"format_version": FORMAT_VERSION, "tool": "kinlang",
            "config": cfg.resolved()}
    for name, content in {"config.json": {}, **artifacts}.items():
        path = os.path.join(cfg.out_dir, name)
        if not isinstance(content, dict):
            content(path)
            continue
        text = json.dumps({**head, **content}, indent=2, sort_keys=True,
                          default=_jsonable)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
