"""Euler-Maruyama ensemble simulation of the kinetic dynamics.

One update per particle and step:

    q+ = q + p dt
    p+ = p - grad V(q) dt - Gamma(q) p dt + diffusion(q) xi sqrt(dt)

with xi ~ N(0, I_d) drawn from a counter-based stream keyed by (seed, step),
so runs are reproducible and enlarging the ensemble extends -- never
reshuffles -- each particle's noise.  The diffusion is sqrt(2 Gamma(q)),
which keeps exp(-V(q) - |p|^2/2) invariant for the continuous-time
dynamics.

Plain EM on purpose: the step size is plumbing here, and acceptance tests
control dt explicitly.
"""

from __future__ import annotations

import csv
import functools
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric, NumericalBlowup
from .friction import FrictionSpec
from .gaussian import GaussianMoments, _drift, gaussian_chi2
from .potentials import Potential

__all__ = [
    "Ensemble",
    "SimConfig",
    "TrajectoryPoint",
    "philox_normals",
    "ensemble_at_point",
    "ensemble_from_moments",
    "step",
    "run",
    "attach_chi2_proxies",
    "write_csv",
    "write_trajectory_csv",
]

#: any coordinate beyond this magnitude is treated as a blown-up trajectory
BLOWUP_LIMIT = 1e12

#: N * d from which run draws the noise ahead on one helper thread while
#: earlier steps are applied.  Below it the draw is small next to a step's
#: Python overhead, and the thread cost more than it saved on a 2-core host
#: (size sweep in CHANGES.md)
PREFETCH_MIN_ELEMENTS = 1 << 13

#: coordinates (1 MiB of float64) the helper draws per hand-off: whole steps,
#: max(1, PREFETCH_BATCH_ELEMENTS // (N * d)) of them, so a small ensemble
#: pays the hand-off once per batch and from this size on it is per step
PREFETCH_BATCH_ELEMENTS = 1 << 17

#: seeds are one 64-bit Philox key word: 0 <= seed < SEED_LIMIT
SEED_LIMIT = 1 << 64

#: counter-domain words keeping the init-sampling stream disjoint from the
#: per-step dynamics streams
_DOMAIN_INIT = 0
_DOMAIN_STEP = 1


def philox_normals(seed: int, step_index: int, shape, domain: int = _DOMAIN_STEP) -> np.ndarray:
    """Standard normals from the counter-based stream for (seed, step_index).

    The array fills row-major from one Philox stream, so particle i's draws
    (row i) do not depend on how many rows are requested -- the N-extension
    contract.  Exposed publicly so tests can rebuild or aggregate the exact
    increments a run consumed.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    bitgen = np.random.Philox(counter=[0, 0, step_index, domain],
                              key=np.array([seed, 0], dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal(shape)


@dataclass(frozen=True)
class Ensemble:
    """N phase-space particles plus the stream metadata that produced them."""

    positions: np.ndarray  # (N, d)
    momenta: np.ndarray    # (N, d)
    time: float
    seed: int
    steps_taken: int
    dt: float

    def __post_init__(self):
        q = np.asarray(self.positions, dtype=float)
        p = np.asarray(self.momenta, dtype=float)
        if q.ndim != 2 or p.shape != q.shape:
            raise ValueError(
                f"positions/momenta must be matching (N, d) arrays, got "
                f"{q.shape} and {p.shape}"
            )
        if q.shape[0] < 1:
            raise ValueError("ensemble needs at least one particle")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        object.__setattr__(self, "positions", q)
        object.__setattr__(self, "momenta", p)

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def summary(self):
        """Empirical mean (2d,) and covariance (2d, 2d), q-block first.

        Built from the position and momentum blocks without joining them:
        the qq, qp and pp blocks are centered Gram sums taken by np.einsum,
        which calls no BLAS, so the bits do not depend on the BLAS thread
        count.  A single particle carries no covariance information; the
        covariance is NaN in that case rather than raising.
        """
        n, d = self.positions.shape
        qc, q_bar = _centered_rows(self.positions)
        pc, p_bar = _centered_rows(self.momenta)
        mean = np.concatenate([q_bar, p_bar])
        if n < 2:
            return mean, np.full((2 * d, 2 * d), np.nan)
        cov = np.empty((2 * d, 2 * d))
        cov[:d, :d] = np.einsum("in,jn->ij", qc, qc)
        cov[:d, d:] = np.einsum("in,jn->ij", qc, pc)
        cov[d:, :d] = cov[:d, d:].T
        cov[d:, d:] = np.einsum("in,jn->ij", pc, pc)
        cov /= n - 1
        return mean, cov


def _centered_rows(x):
    """The (N, d) array x as a new C-ordered (d, N) array of centered rows,
    and its column means.  Row-contiguous data keeps the mean and the Gram
    sums on unit-stride loops."""
    rows = np.array(x.T, order="C")
    mean = rows.mean(axis=1)
    rows -= mean[:, None]
    return rows, mean


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n_steps: int
    n_particles: int
    seed: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class TrajectoryPoint:
    time: float
    mean: np.ndarray        # (2d,)
    cov: np.ndarray         # (2d, 2d)
    chi2_proxy: Optional[float] = None


def ensemble_at_point(q0, p0, n: int, seed: int, dt: float) -> Ensemble:
    """All particles at one phase-space point (deterministic init)."""
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    return Ensemble(
        positions=np.tile(q0, (n, 1)),
        momenta=np.tile(p0, (n, 1)),
        time=0.0, seed=seed, steps_taken=0, dt=dt,
    )


def ensemble_from_moments(moments: GaussianMoments, n: int, seed: int, dt: float) -> Ensemble:
    """Particles drawn from a phase-space Gaussian, from the init stream."""
    d = moments.dim
    z = philox_normals(seed, 0, (n, 2 * d), domain=_DOMAIN_INIT)
    w, u = moments.eig
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    x = moments.mean + z @ root.T
    return Ensemble(
        positions=x[:, :d], momenta=x[:, d:],
        time=0.0, seed=seed, steps_taken=0, dt=dt,
    )


def _check_finite(q, p, step_index):
    # a NaN carries through min and max and fails both comparisons
    if not all(-BLOWUP_LIMIT <= x.min() and x.max() <= BLOWUP_LIMIT for x in (q, p)):
        raise NumericalBlowup(
            f"trajectory left the trusted range at step {step_index} "
            f"(|coordinate| > {BLOWUP_LIMIT:g} or non-finite); "
            "check dt against the stability criterion",
            step_index=step_index,
        )


def _apply(m, x):
    """Each particle's Gamma (or diffusion) times its row of x, for either
    resolved shape: diagonal entries or a (1 | N, d, d) matrix stack."""
    if m.ndim < 3:
        return m * x
    if len(m) == 1:
        return x @ m[0].T
    return (m @ x[:, :, None])[:, :, 0]


def _advance(ensemble: Ensemble, p: Potential, friction, cfg: SimConfig,
             xi: Optional[np.ndarray]) -> Ensemble:
    """The EM update with friction resolved by FrictionSpec.resolve."""
    q = ensemble.positions
    mom = ensemble.momenta
    if xi is None:
        xi = philox_normals(ensemble.seed, ensemble.steps_taken, q.shape)
    dt = cfg.dt
    g, sig = friction(q)
    new_q = q + mom * dt
    new_p = mom - p.grad(q) * dt - _apply(g, mom) * dt + _apply(sig, xi) * np.sqrt(dt)
    step_index = ensemble.steps_taken + 1
    _check_finite(new_q, new_p, step_index)
    return replace(
        ensemble,
        positions=new_q,
        momenta=new_p,
        time=ensemble.time + dt,
        steps_taken=step_index,
    )


def _check_matches(ensemble: Ensemble, cfg: SimConfig, fields=("dt", "seed")):
    """Reject an ensemble whose copy of a config field disagrees with cfg."""
    for name in fields:
        mine, theirs = getattr(ensemble, name), getattr(cfg, name)
        if mine != theirs:
            raise ValueError(f"{name}: the ensemble has {mine!r}, the config {theirs!r}")


def step(ensemble: Ensemble, p: Potential, spec: FrictionSpec, cfg: SimConfig,
         xi: Optional[np.ndarray] = None) -> Ensemble:
    """One Euler-Maruyama update of the whole ensemble.

    xi overrides the (N, d) noise draw -- tests use it for zero-noise and
    common-random-number runs; None draws from the keyed stream for
    step index `ensemble.steps_taken`.  The ensemble's dt and seed must
    match cfg's; the particle count comes from the ensemble.
    """
    _check_matches(ensemble, cfg)
    friction = spec.resolve(p)
    return _advance(ensemble, p, friction, cfg, xi)


def stability_warning(ensemble: Ensemble, p: Potential, spec: FrictionSpec, cfg: SimConfig):
    """Warn when the spectral radius of I + dt F is >= 1, F the kinetic drift
    linearized at the mean initial position (Hess V and Gamma there).

    On a quadratic potential with constant friction the mean of the EM chain
    is m_{k+1} = (I + dt F) m_k exactly, so this is the exact criterion there.
    F = [[0, I], [-Hess V, -Gamma]] is assembled with no SPD rule, so an
    ill-conditioned Hessian or friction gets a verdict rather than an error,
    as it does from step.
    """
    q_bar = ensemble.positions.mean(axis=0)
    drift = _drift(p.hess(q_bar), spec.gamma(p, q_bar))
    b = np.eye(len(drift)) + cfg.dt * drift
    rho = float(np.max(np.abs(np.linalg.eigvals(b))))
    if rho >= 1.0:
        warnings.warn(
            f"spectral radius of I + dt F = {rho:.3g} >= 1 at the mean "
            "initial position; Euler-Maruyama is unstable",
            RuntimeWarning,
            stacklevel=3,
        )


def run(init: Ensemble, p: Potential, spec: FrictionSpec, cfg: SimConfig,
        record_every: int = 1):
    """Apply cfg.n_steps EM steps, recording moment summaries.

    Returns a list of TrajectoryPoint (initial state included, then every
    record_every steps) with no chi2 proxy; attach_chi2_proxies adds it.

    From PREFETCH_MIN_ELEMENTS coordinates (N * d) on, the keyed draws run
    on one helper thread, a batch of whole steps at a time: about
    PREFETCH_BATCH_ELEMENTS coordinates, at least one step, and never past
    the last step.  The helper draws batch j + 1 while batch j is applied.
    Each step is still its own philox_normals call, which depends on
    (seed, step) alone, so the arrays, and the records, are the same as
    with the draw inline.

    Deterministic given (init, cfg): identical inputs produce bit-identical
    summaries.  Raises NumericalBlowup with the offending step index.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    _check_matches(init, cfg, ("dt", "seed", "n_particles"))
    stability_warning(init, p, spec, cfg)
    friction = spec.resolve(p)
    size = init.positions.size
    per_batch = max(1, PREFETCH_BATCH_ELEMENTS // size)
    draw = functools.partial(philox_normals, init.seed, shape=init.positions.shape)
    start = init.steps_taken
    end = start + cfg.n_steps

    def draw_batch(first):
        return [draw(i) for i in range(first, min(first + per_batch, end))]

    def record(ens):
        mean, cov = ens.summary()
        return TrajectoryPoint(time=ens.time, mean=mean, cov=cov)

    with ThreadPoolExecutor(max_workers=1) as pool:
        def noise():
            """Each step's noise in step order."""
            firsts = range(start, end, per_batch)
            if size < PREFETCH_MIN_ELEMENTS or not firsts:
                yield from map(draw, range(start, end))
                return
            pending = pool.submit(draw_batch, start)
            for first in firsts:
                batch = pending.result()
                if first + per_batch < end:
                    pending = pool.submit(draw_batch, first + per_batch)
                yield from batch

        ens = init
        out = [record(ens)]
        for k, xi in enumerate(noise(), 1):
            ens = _advance(ens, p, friction, cfg, xi)
            if k % record_every == 0 or k == cfg.n_steps:
                out.append(record(ens))
    return out


def attach_chi2_proxies(points, target: GaussianMoments):
    """The points with chi2_proxy set to the moment-matched Gaussian's chi2
    against target.

    A proxy: exact only when the ensemble's law is Gaussian (quadratic
    potentials); for other potentials it captures the first-two-moments gap
    only.  Even at the target it carries an O(dim^2 / N) positive bias from
    moment-estimation noise.  A record whose covariance is degenerate (a
    point initial condition at t=0) gets None; a divergent divergence is
    +inf.
    """
    out = []
    for pt in points:
        cov = np.asarray(pt.cov)
        try:
            fit = GaussianMoments(mean=pt.mean, cov=0.5 * (cov + cov.T))
            proxy = gaussian_chi2(fit, target)
        except (NotPositiveDefinite, NotSymmetric):
            proxy = None
        out.append(replace(pt, chi2_proxy=proxy))
    return out


def write_csv(path, header, rows):
    """UTF-8 CSV, '.' decimal separator, repr floats, fixed row order; None
    is an empty cell and a bool is true/false.  A cell holding a comma, a
    quote or a line break is quoted, so every row has the header's width."""
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        return str(x)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([cell(x) for x in row] for row in rows)


def write_trajectory_csv(points, path, dim: int):
    """CSV with columns time, mean_1..mean_2d, cov_11..cov_2d2d, chi2_proxy."""
    twod = 2 * dim
    cols = (["time"] + [f"mean_{i + 1}" for i in range(twod)]
            + [f"cov_{i + 1}{j + 1}" for i in range(twod) for j in range(twod)]
            + ["chi2_proxy"])
    write_csv(path, cols, (
        [float(pt.time), *np.asarray(pt.mean, dtype=float),
         *np.asarray(pt.cov, dtype=float).ravel(), pt.chi2_proxy]
        for pt in points))
