"""Command-line harness for reproducible experiments.

Subcommands
-----------
oracle-ou   closed-form oscillator curves, fitted vs. exact decay rates
simulate    Euler-Maruyama ensemble run with moment-vs-oracle report
certify     weight-family sweep, best rate certificate, baseline comparison
compare     single-certificate comparison against constant-friction baselines
audit       Lyapunov decay audit of the certified rate plus witness sweep

All commands read one JSON config (``--config``), write into ``--out``,
echo the fully resolved config next to every artifact, and embed it in every
report together with a format version.  Outputs are byte-identical across
reruns with the same inputs and the same output directory, which every
report embeds: no timestamps, sorted JSON keys, repr-format floats, fixed
row ordering.  Exit status is 0 iff the run completed without
errors; a certificate that comes out invalid is still a successful run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

import numpy as np

from .certificates import (
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
from .errors import (
    ConfigError,
    KinlangError,
    NumericalBlowup,
    UnsupportedPotential,
    WitnessNotFound,
)
from .friction import constant_scalar, hessian_sqrt
from .gaussian import (
    GaussianMoments,
    diagonal_system_rate,
    fit_decay_rate,
    gaussian_chi2,
    kinetic_dynamics,
    propagate,
    stationary_moments,
)
from .lyapunov import build_s, decay_audit
from .simulate import (
    SimConfig,
    attach_chi2_proxies,
    ensemble_at_point,
    run,
    write_trajectory_csv,
)

__all__ = ["main", "FORMAT_VERSION"]

FORMAT_VERSION = 2


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


def _write_json(path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _write_csv(path, header, rows):
    """UTF-8 CSV, '.' decimal separator, repr floats, fixed row order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(x) for x in row) + "\n")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _report(cfg: ExperimentConfig, **body) -> dict:
    out = {"format_version": FORMAT_VERSION, "tool": "kinlang",
           "config": cfg.resolved()}
    out.update(body)
    return out


def _prepare_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "config.json"), _report(cfg))
    return cfg.out_dir


# ---------------------------------------------------------------------------
# oracle-ou


def _ou_case(w, kind, lam, s, n_times):
    """One (w, friction, lam) closed-form curve plus its fitted rate."""
    if kind == "constant_scalar":
        gamma = lam
        label = f"constant_scalar(lam={lam:g})"
    else:
        gamma = s * w
        label = f"hessian_sqrt(s={s:g})"
    dyn = kinetic_dynamics([[w * w]], [[gamma]])
    pi = stationary_moments(dyn)
    init = GaussianMoments(mean=[3.0, -3.0 * w], cov=np.eye(2))
    closed = diagonal_system_rate([w], constant_scalar(gamma))
    times = np.linspace(10.0 / closed, 20.0 / closed, n_times)
    chi2s = [gaussian_chi2(m, pi) for m in propagate(dyn, init, times)]
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


def cmd_oracle_ou(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    ora = cfg.oracle
    s = cfg.friction.s
    cases = [(ora.w, "constant_scalar", lam, s, ora.n_times)
             for lam in ora.lambda_grid]
    cases.append((ora.w, "hessian_sqrt", None, s, ora.n_times))
    results = [_ou_case(*case) for case in cases]

    rows = [r for case_rows, _ in results for r in case_rows]
    _write_csv(os.path.join(out, "oracle_ou.csv"),
               ["w", "friction", "lam", "t", "chi2"], rows)

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

    _write_json(os.path.join(out, "oracle_ou_summary.json"),
                _report(cfg, **body))
    return 0


# ---------------------------------------------------------------------------
# simulate


def _proxy_target(p) -> GaussianMoments:
    """Gaussian reference for the chi2 proxy column.

    Exact stationary law for quadratic potentials; for perturbed potentials
    this is the curvature-matched Gaussian at the origin, so the column is a
    trend diagnostic rather than a divergence estimate.
    """
    h0 = p.hess(np.zeros(p.dim))
    return stationary_moments(kinetic_dynamics(h0, np.eye(p.dim)))


def cmd_simulate(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    p = build_potential(cfg.potential)
    spec = build_friction(cfg.friction)
    sim = cfg.simulation
    d = p.dim

    init_q = sim.init_q if sim.init_q is not None else (1.0,) * d
    init_p = sim.init_p if sim.init_p is not None else (0.0,) * d
    for name, vec in (("init_q", init_q), ("init_p", init_p)):
        if len(vec) != d:
            raise ConfigError(
                f"simulation.{name}: length {len(vec)} does not match "
                f"potential dimension {d}"
            )

    ens0 = ensemble_at_point(init_q, init_p, sim.n_particles, sim.seed, sim.dt)
    simcfg = SimConfig(dt=sim.dt, n_steps=sim.n_steps,
                       n_particles=sim.n_particles, seed=sim.seed)
    target = _proxy_target(p)

    try:
        points = run(ens0, p, spec, simcfg, record_every=sim.record_every)
    except NumericalBlowup as exc:
        report = _report(cfg, error={
            "type": "NumericalBlowup",
            "step_index": exc.step_index,
            "message": str(exc),
        })
        _write_json(os.path.join(out, "simulate_report.json"), report)
        print(f"error: NumericalBlowup at step {exc.step_index}: {exc}",
              file=sys.stderr)
        return 1

    points = attach_chi2_proxies(points, target)
    write_trajectory_csv(points, os.path.join(out, "trajectory.csv"), d)

    final = points[-1]
    body = {
        "final_time": final.time,
        "n_records": len(points),
        "chi2_proxy_target": "stationary" if p.constant_hessian
        else "curvature_matched_proxy",
        "final_chi2_proxy": final.chi2_proxy,
    }

    if p.constant_hessian:
        a = p.hess(np.zeros(d))
        gamma_mat = spec.gamma(p, np.zeros(d))
        dyn = kinetic_dynamics(a, gamma_mat)
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

    _write_json(os.path.join(out, "simulate_report.json"), _report(cfg, **body))
    return 0


# ---------------------------------------------------------------------------
# certify / compare


def cmd_certify(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    p = build_potential(cfg.potential)
    const = p.constants

    best, table = optimize_m1(const, cfg.certificate.s_grid,
                              cfg.certificate.x0_grid)
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
    _write_csv(os.path.join(out, "optimizer_table.csv"),
               ["s", "x0", "m1", "m2", "rescaled_rate", "original_rate",
                "valid", "error"], rows)

    comparison = compare_to_constant_friction(const, best,
                                              cfg.certificate.lambda_grid)
    infeasible = Counter(e.error_type for e in table if e.certificate is None)
    _write_json(os.path.join(out, "certificate.json"),
                _report(cfg, certificate=best.as_dict(),
                        comparison=comparison,
                        infeasible_cells=dict(infeasible)))
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    p = build_potential(cfg.potential)
    const = p.constants
    try:
        coeffs = coefficient_family(const, cfg.friction.s, cfg.certificate.x0)
    except ValueError as exc:
        raise ConfigError(f"certificate.x0: {exc}")
    cert = certificate(const, coeffs)
    comparison = compare_to_constant_friction(const, cert,
                                              cfg.certificate.lambda_grid)
    _write_json(os.path.join(out, "comparison.json"),
                _report(cfg, comparison=comparison))
    return 0


# ---------------------------------------------------------------------------
# audit


def cmd_audit(cfg: ExperimentConfig) -> int:
    out = _prepare_out(cfg)
    if cfg.potential.family != "quadratic_diagonal":
        raise UnsupportedPotential(
            "the decay audit propagates Gaussian laws in closed form and "
            "needs a diagonal quadratic potential; got family "
            f"{cfg.potential.family!r}"
        )
    p = build_potential(cfg.potential)
    v = np.asarray(cfg.potential.v, dtype=float)
    s = cfg.friction.s
    d = v.size

    a = np.diag(v * v)
    gamma_mat = s * np.diag(v)
    dyn = kinetic_dynamics(a, gamma_mat)
    const = p.constants

    aud = cfg.audit
    try:
        coeffs = coefficient_family(const, s, aud.x0)
    except ValueError as exc:
        raise ConfigError(f"audit.x0: {exc}")
    cert = certificate(const, coeffs)
    weight = build_s(coeffs, gamma_mat)

    mean = np.concatenate([np.full(d, aud.init_q_mean), np.zeros(d)])
    init = GaussianMoments(mean=mean,
                           cov=aud.init_cov_scale * np.eye(2 * d))
    times = np.linspace(0.0, aud.t_max, aud.n_times)

    main_audit = decay_audit(dyn, init, weight, cert, times)

    sweep = []
    for eps in cfg.certificate.eps_rates:
        entry = {"eps_rate": eps}
        try:
            witness, rate = diag_quadratic_certificate(v, eps)
        except (ValueError, WitnessNotFound) as exc:
            entry.update({"error": f"{type(exc).__name__}: {exc}",
                          "rate": None, "audit": None})
            sweep.append(entry)
            continue
        w_weight = build_s(witness, gamma_mat)
        entry.update({
            "witness": witness.as_dict(),
            "rate": rate,
            "audit": decay_audit(dyn, init, w_weight, rate, times),
        })
        sweep.append(entry)

    body = {
        "main": {
            "coefficients": coeffs.as_dict(),
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
    _write_json(os.path.join(out, "audit.json"), _report(cfg, **body))
    return 0


# ---------------------------------------------------------------------------
# entry point


#: subcommand -> (handler, help text)
_COMMANDS = {
    "oracle-ou": (cmd_oracle_ou,
                  "closed-form oscillator decay curves and fitted rates"),
    "simulate": (cmd_simulate,
                 "Euler-Maruyama ensemble run with moment report"),
    "certify": (cmd_certify,
                "sweep weight coefficients and emit a rate certificate"),
    "compare": (cmd_compare,
                "compare one certificate to constant-friction baselines"),
    "audit": (cmd_audit,
              "audit certified decay rates on the Lyapunov functional"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinlang",
        description="reproducible experiments for matrix-friction kinetic "
                    "Langevin dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
    try:
        if args.config is not None:
            cfg = load_config(args.config, kind=args.command,
                              out_dir=args.out, seed=args.seed)
        else:
            cfg = config_from_dict({}, kind=args.command, out_dir=args.out,
                                   seed=args.seed)
        return _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KinlangError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
