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

import contextvars
import csv
import math
import numbers
import threading
import warnings
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

#: N * d from which _staged starts its helper thread.  Below it the
#: calling thread takes every step alone: the draw is small next to a
#: step's Python overhead, and the thread cost more than it saved on a
#: 2-core host (size sweep in CHANGES.md)
PREFETCH_MIN_ELEMENTS = 1 << 13

#: coordinates (1 MiB of float64) in one stage of a staged step whose
#: operations are all elementwise; each of the two threads draws and
#: applies a step one stage at a time and holds one stage of noise.  A
#: step of any other form is one stage of all N rows
PREFETCH_BATCH_ELEMENTS = 1 << 17

#: coordinates (256 KiB of float64) in one row block of the elementwise EM
#: update and its finite check on the diagonal forms, so that a block's
#: operands stay in cache from one ufunc to the next
BLOCK_ELEMENTS = 1 << 15

#: seeds are one 64-bit Philox key word: 0 <= seed < SEED_LIMIT
SEED_LIMIT = 1 << 64

#: counter-domain words keeping the init-sampling stream disjoint from the
#: per-step dynamics streams
_DOMAIN_INIT = 0
_DOMAIN_STEP = 1


def _check_int(name: str, value, low: int = 0, word: bool = False):
    """Raise ValueError naming name unless value is an integer (a bool is
    not one) >= low and, for a Philox key or counter word, < 2^64."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or word and value >= SEED_LIMIT):
        rule = "in [0, 2^64)" if word else f">= {low}"
        raise ValueError(f"{name} must be an integer {rule}, got {value!r}")


def _check_dt(dt):
    """Raise ValueError naming dt unless it is a finite real number > 0 (a
    bool is not one): an infinite dt would reach run's stability check as
    an unnamed LinAlgError."""
    if (isinstance(dt, bool) or not isinstance(dt, numbers.Real)
            or not (math.isfinite(dt) and dt > 0)):
        raise ValueError(f"dt must be a finite number > 0, got {dt!r}")


def _stream(seed: int, step_index: int, domain: int = _DOMAIN_STEP):
    """The Generator of the counter-based stream for (seed, step_index,
    domain): Philox keyed by the seed, with step_index and domain as the
    counter's high words, every word a uint64.  Consecutive draws from it
    continue one row-major stream, so a step drawn in row stages is bitwise
    the step drawn whole."""
    _check_int("seed", seed, word=True)
    _check_int("step_index", step_index, word=True)
    bitgen = np.random.Philox(
        counter=np.array([0, 0, step_index, domain], dtype=np.uint64),
        key=np.array([seed, 0], dtype=np.uint64))
    return np.random.Generator(bitgen)


def philox_normals(seed: int, step_index: int, shape, domain: int = _DOMAIN_STEP,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard normals from the counter-based stream for (seed, step_index).

    The array fills row-major from one Philox stream, so particle i's draws
    (row i) do not depend on how many rows are requested -- the N-extension
    contract.  out, a C-contiguous float64 array of that shape, receives the
    same numbers in place and is returned.  seed and step_index are
    integers in [0, 2^64).  Exposed publicly so tests can rebuild or
    aggregate the exact increments a run consumed.
    """
    return _stream(seed, step_index, domain).standard_normal(shape, out=out)


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
        if q.shape[1] < 1:
            raise ValueError("ensemble needs at least one coordinate, d >= 1")
        _check_dt(self.dt)
        if not (isinstance(self.time, numbers.Real)
                and math.isfinite(self.time)):
            raise ValueError(f"time must be finite, got {self.time!r}")
        _check_int("steps_taken", self.steps_taken)
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

        Each mean is one np.add.reduce over its column, divided by N.  The
        qq, qp and pp blocks of the covariance are centered Gram sums taken
        in row blocks of max(1, PREFETCH_BATCH_ELEMENTS // d) rows: a
        block's positions and momenta are centered into two C-ordered
        (d, rows) scratch arrays, 2 MiB in all, whose Gram sums np.einsum
        takes, and the block sums are added in block order.  So no
        temporary grows with N, and at N * d <= PREFETCH_BATCH_ELEMENTS,
        one block, the bits are those of one centered (d, N) copy of each.
        np.einsum calls no BLAS, so the bits do not depend on the BLAS
        thread count.  A single particle carries no covariance information;
        the covariance is NaN in that case rather than raising.
        """
        n, d = self.positions.shape
        blocks = (self.positions, self.momenta)
        mean = np.array([np.add.reduce(x[:, j]) for x in blocks
                         for j in range(d)]) / n
        if n < 2:
            return mean, np.full((2 * d, 2 * d), np.nan)
        rows = min(n, max(1, PREFETCH_BATCH_ELEMENTS // d))
        qc, pc = np.empty((d, rows)), np.empty((d, rows))
        cov = np.zeros((2 * d, 2 * d))
        for start in range(0, n, rows):
            b = slice(start, start + rows)
            m = len(self.positions[b])
            bq, bp = qc[:, :m], pc[:, :m]
            np.subtract(self.positions[b].T, mean[:d, None], out=bq)
            np.subtract(self.momenta[b].T, mean[d:, None], out=bp)
            cov[:d, :d] += np.einsum("in,jn->ij", bq, bq)
            cov[:d, d:] += np.einsum("in,jn->ij", bq, bp)
            cov[d:, d:] += np.einsum("in,jn->ij", bp, bp)
        cov[d:, :d] = cov[:d, d:].T
        cov /= n - 1
        return mean, cov


@dataclass(frozen=True)
class SimConfig:
    dt: float
    n_steps: int
    n_particles: int
    seed: int

    def __post_init__(self):
        _check_dt(self.dt)
        _check_int("n_steps", self.n_steps)
        _check_int("n_particles", self.n_particles, 1)
        _check_int("seed", self.seed, word=True)


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
    x = z @ root.T
    x += moments.mean
    return Ensemble(
        positions=x[:, :d], momenta=x[:, d:],
        time=0.0, seed=seed, steps_taken=0, dt=dt,
    )


def _check_finite(q, p, step_index, offset=0):
    """Raise NumericalBlowup naming step_index unless every entry of q and p
    is finite and within BLOWUP_LIMIT.  q and p are rows offset, offset + 1,
    ... of the ensemble, so the error names the ensemble's particle."""
    # a NaN carries through min and max and fails both comparisons
    if all(-BLOWUP_LIMIT <= x.min() and x.max() <= BLOWUP_LIMIT for x in (q, p)):
        return
    # the first bad entry in row-major order over the phase-space rows
    # (q_i, p_i): a row-blocked check finds the same one as a whole check
    x = np.hstack([q, p])
    row, col = divmod(int(np.argmax(~(np.abs(x) <= BLOWUP_LIMIT))), x.shape[1])
    half, coordinate = divmod(col, q.shape[1])
    block = ("positions", "momenta")[half]
    raise NumericalBlowup(
        f"trajectory left the trusted range at step {step_index}: "
        f"{block}[{offset + row}, {coordinate}] = {float(x[row, col])!r} "
        f"(|coordinate| > {BLOWUP_LIMIT:g} or non-finite); "
        "check dt against the stability criterion",
        step_index=step_index, particle=offset + row, coordinate=coordinate,
        block=block,
    )


def _apply(m, x, out):
    """Each particle's Gamma (or diffusion) times its row of x, written to
    out, for either resolved shape: diagonal entries or a (1 | N, d, d)
    matrix stack."""
    if m.ndim < 3:
        return np.multiply(m, x, out=out)
    if len(m) == 1:
        return np.matmul(x, m[0].T, out=out)
    np.matmul(m, x[:, :, None], out=out[:, :, None])
    return out


def _advance(q, mom, xi, force, dt: float, step_index: int, out, term,
             friction_out, offset: int, grad_out):
    """The EM update, its force from FrictionSpec.resolve, written to out =
    (new_q, new_p), (N, d) arrays.  Every buffer is the caller's: new_q may
    be q itself and new_p may be mom itself, so a step may run in place;
    grad_out, an (N, d) buffer apart from q, mom, xi and new_q, receives the
    gradient and then p - grad V(q) dt - (Gamma(q) p) dt, and may be new_p
    when new_p is not mom; term, the update's scratch, holds at least one
    row block, apart from the other operands, and its first rows are reused
    by every block; friction_out is the force's (2, N, d) buffer.  xi is
    only read.  The N rows may be rows offset, offset + 1, ... of a larger
    ensemble, which a NumericalBlowup then names.  With the shipped
    potentials a step allocates at most one (N, d) temporary, and none on
    the diagonal field.  Each value is the operation the module docstring
    writes, in its order,

        p+ = ((p - grad V(q) dt) - (Gamma(q) p) dt) + (diffusion(q) xi) sqrt(dt),

    so the bits do not depend on which arrays hold them.  Within a block, p
    is read (for Gamma(q) p and q+) before p+ is written.

    The force is evaluated over all N rows at once.  When Gamma and the
    diffusion are diagonal entries and N * d > BLOCK_ELEMENTS, the update
    and the finite check then run in blocks of max(1, BLOCK_ELEMENTS // d)
    rows, each element through the same ufuncs, so no bit moves.  A matrix
    form stays one block: a 2-D matmul's bits can depend on its row count.
    Raises NumericalBlowup naming step_index and the first untrusted
    entry."""
    new_q, new_p = out
    grad, g, sig = force(q, grad_out, friction_out)
    n, d = q.shape
    rows = n
    if q.size > BLOCK_ELEMENTS and g.ndim < 3 and sig.ndim < 3:
        rows = max(1, BLOCK_ELEMENTS // d)
    for start in range(0, n, rows):
        b = slice(start, start + rows)
        bq, bp, bmom, bg = new_q[b], new_p[b], mom[b], grad_out[b]
        t = term[:len(bmom)]
        np.multiply(grad[b], dt, out=bg)
        np.subtract(bmom, bg, out=bg)
        np.multiply(_apply(g[b] if g.ndim == 2 else g, bmom, t), dt, out=t)
        np.subtract(bg, t, out=bg)
        np.multiply(bmom, dt, out=t)
        np.add(q[b], t, out=bq)
        np.multiply(_apply(sig[b] if sig.ndim == 2 else sig, xi[b], t),
                    np.sqrt(dt), out=t)
        np.add(bg, t, out=bp)
        _check_finite(bq, bp, step_index, offset + start)


def _check_matches(ensemble: Ensemble, cfg: SimConfig, p: Potential,
                   fields=("dt", "seed")):
    """Reject an ensemble whose copy of a config field disagrees with cfg,
    or whose dimension d is not the potential's: a (d,) parameter would
    broadcast silently against the other."""
    if ensemble.dim != p.dim:
        raise ValueError(f"dim: the ensemble has {ensemble.dim}, "
                         f"the potential {p.dim}")
    for name in fields:
        mine, theirs = getattr(ensemble, name), getattr(cfg, name)
        if mine != theirs:
            raise ValueError(f"{name}: the ensemble has {mine!r}, the config {theirs!r}")


def step(ensemble: Ensemble, p: Potential, spec: FrictionSpec, cfg: SimConfig,
         xi: Optional[np.ndarray] = None) -> Ensemble:
    """One Euler-Maruyama update of the whole ensemble.

    xi overrides the (N, d) noise draw -- tests use it for zero-noise and
    common-random-number runs; it must have the positions' shape exactly,
    since a row or a column would broadcast silently.  None draws from the
    keyed stream for step index `ensemble.steps_taken`.  The ensemble's dt
    and seed must match cfg's; the particle count comes from the ensemble.
    The update is run's kernel, allocated per call: one new (2, N, d) array
    whose rows are the new positions and momenta, the second of which also
    takes the gradient, and a (3, N, d) scratch for the term and the
    force's pair, so neither the ensemble nor xi changes.
    """
    _check_matches(ensemble, cfg, p)
    shape = ensemble.positions.shape
    if xi is None:
        xi = philox_normals(ensemble.seed, ensemble.steps_taken, shape)
    else:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != shape:
            raise ValueError(f"xi has shape {xi.shape}, but the ensemble's "
                             f"positions have shape {shape}")
    step_index = ensemble.steps_taken + 1
    scratch = np.empty((3,) + shape)
    # one block for both: a caller stepping in a loop frees the previous
    # pair at once, and two separate arrays were then often handed back to
    # the system and faulted in again (CHANGES.md)
    out = np.empty((2,) + shape)
    _advance(ensemble.positions, ensemble.momenta, xi, spec.resolve(p),
             cfg.dt, step_index, out, scratch[0], scratch[1:], 0, out[1])
    return replace(ensemble, positions=out[0], momenta=out[1],
                   time=ensemble.time + cfg.dt, steps_taken=step_index)


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


def _staged(q, mom, force, dt: float, seed: int, start: int, n: int,
            rows: int, recorded, record):
    """Apply n EM steps to the state (q, mom) in place, a stage of `rows`
    rows at a time, on the calling thread and, from PREFETCH_MIN_ELEMENTS
    coordinates on and when n > 0, one helper thread.

    The threads claim whole steps in increasing order from one counter.
    The thread holding step k (counted from the run's first) walks the rows
    in stages: it draws a stage's noise from step k's stream into its own
    stage-sized buffer, waits until step k - 1 has applied those rows, and
    applies them in place with _advance, the gradient in a stage-sized row
    of its own.  So while one thread applies a step, the other draws the
    next; alone, the calling thread takes the steps in turn.  When step k
    ends a recorded step (k + 1 in recorded), record(k + 1) runs once its
    last stage is applied, and step k + 1 may apply no row before it
    returns.  The caller passes rows < N only when every operation of the
    step is elementwise, so the bits are the whole step's.  An exception
    stops its step and every later one; the earlier steps are still
    applied, and the earliest step's exception is raised once the helper
    is joined, so a NumericalBlowup names the step loop's step and row.
    """
    stages = range(0, len(q), rows)
    last = len(stages) - 1
    cond = threading.Condition()
    claimed = 0
    # step k -> the stages of step k - 1 that step k may apply, for the
    # steps not yet applied
    released = {0: len(stages)}
    errors = {}                 # step -> the exception that stopped it

    def stopped(k):
        return bool(errors) and min(errors) < k

    def work():
        nonlocal claimed
        buf = np.empty((5, rows) + q.shape[1:])
        noise, term, grad, friction_out = buf[0], buf[1], buf[2], buf[3:]
        k = -1
        try:
            while True:
                with cond:
                    if claimed == n or stopped(claimed):
                        return
                    k = claimed
                    claimed += 1
                stream = _stream(seed, start + k)
                for j, lo in enumerate(stages):
                    b = slice(lo, lo + rows)
                    xi = stream.standard_normal(out=noise[:len(q[b])])
                    with cond:
                        while released.get(k, 0) <= j:
                            if stopped(k):
                                return
                            cond.wait()
                    m = len(xi)
                    _advance(q[b], mom[b], xi, force, dt, start + k + 1,
                             (q[b], mom[b]), term, friction_out[:, :m], lo,
                             grad[:m])
                    held = k + 1 in recorded
                    if held and j == last:
                        record(k + 1)
                    if j == last or not held:
                        with cond:
                            released[k + 1] = j + 1
                            if j == last:
                                del released[k]
                            cond.notify_all()
        except BaseException as exc:   # raised again by _staged
            with cond:
                errors[k] = exc
                cond.notify_all()

    helper = None
    if n and q.size >= PREFETCH_MIN_ELEMENTS:
        # the helper runs in a copy of the caller's context, so a
        # np.errstate the caller set holds on both threads
        helper = threading.Thread(target=contextvars.copy_context().run,
                                  args=(work,))
        helper.start()
    try:
        work()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[min(errors)]


def run(init: Ensemble, p: Potential, spec: FrictionSpec, cfg: SimConfig,
        record_every: int = 1):
    """Apply cfg.n_steps EM steps, recording moment summaries.

    Returns a list of TrajectoryPoint (initial state included, then every
    record_every steps) with no chi2 proxy; attach_chi2_proxies adds it.

    The state, q and p, is two (N, d) rows allocated once per call and
    released at the end; init is never written.  _staged applies every
    step to q and p in place, each thread in its own buffers for
    ``_advance`` (the kernel step runs too), allocated once, so no step
    pays the page faults of fresh (N, d) arrays.  On the diagonal friction
    field the gradient and the Hessian diagonal come from one evaluation of
    the potential (FrictionSpec.resolve), written into those buffers.

    The calling thread takes every step alone below PREFETCH_MIN_ELEMENTS
    coordinates N * d, or for no step at all; from there on one helper
    thread shares the steps.  Each thread holds a step, and draws and
    applies it one stage at a time, in its own stage-sized noise, gradient,
    term and friction buffers.  When every operation of a step is
    elementwise (Gamma and the diffusion are diagonal entries and the
    potential sets hess_diag), a stage is at most PREFETCH_BATCH_ELEMENTS
    coordinates, so noise takes at most 2 MiB at any N.  Otherwise (a
    matrix Gamma or diffusion, or a gradient that may be a matmul, as
    quadratic_general's is) a stage is all N rows, because a 2-D matmul's
    bits can depend on its row count.  So a run on one thread, whose stage
    is all N rows, holds 7 (N, d) rows, and a two-thread run of such a form
    12, of which the friction pairs, which the matrix forms leave unused,
    are never touched.

    A record's summary (Ensemble.summary) reads the state in blocks of
    PREFETCH_BATCH_ELEMENTS coordinates, so a record allocates nothing that
    grows with N.

    Each step is drawn from its own keyed stream, _stream(seed, step), which
    depends on (seed, step) alone, and one stage of all N rows is the whole
    step's draw, so the noise, and the records, do not depend on the
    thread count or the stages.

    Deterministic given (init, cfg): identical inputs produce bit-identical
    summaries.  Raises NumericalBlowup with the offending step index and
    the first untrusted entry.  record_every is an integer >= 1, and the
    last step index, init.steps_taken + cfg.n_steps, must stay below 2^64.
    """
    _check_int("record_every", record_every, 1)
    _check_matches(init, cfg, p, ("dt", "seed", "n_particles"))
    start, n = init.steps_taken, cfg.n_steps
    if start + n >= SEED_LIMIT:
        raise ValueError(f"the last step index, steps_taken + n_steps = "
                         f"{start} + {n}, must be below 2^64")
    # resolve first: it rejects a friction matrix of another size, which
    # the stability check would broadcast
    force = spec.resolve(p)
    stability_warning(init, p, spec, cfg)
    shape = init.positions.shape
    q, mom = np.empty((2,) + shape)
    q[...] = init.positions
    mom[...] = init.momenta
    # the time after each recorded step k, summed as the step loop sums it
    times, time = {}, init.time
    for k in range(1, n + 1):
        time += cfg.dt
        if k % record_every == 0 or k == n:
            times[k] = time

    def record(time):
        mean, cov = replace(init, positions=q, momenta=mom,
                            time=time).summary()
        return TrajectoryPoint(time=time, mean=mean, cov=cov)

    out = [record(init.time)]
    rows = len(q)
    if p.hess_diag is not None and spec.diagonal(p):
        rows = min(rows, max(1, PREFETCH_BATCH_ELEMENTS // shape[1]))
    _staged(q, mom, force, cfg.dt, init.seed, start, n, rows, times,
            lambda k: out.append(record(times[k])))
    return out


def attach_chi2_proxies(points, target: GaussianMoments):
    """The points with chi2_proxy set to the moment-matched Gaussian's chi2
    against target.

    A proxy: exact only when the ensemble's law is Gaussian (quadratic
    potentials); for other potentials it captures the first-two-moments gap
    only.  Even at the target it carries an O(dim^2 / N) positive bias from
    moment-estimation noise.  A record whose covariance is degenerate,
    conditioned worse than 1e-12 in the target's whitened frame (a point
    initial condition at t=0), gets None; a divergent divergence is +inf.
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
    """UTF-8 CSV, '.' decimal separator, fixed row order.

    Cells are Python floats, ints, strings, bools and None, as ``.tolist()``
    gives them; NumPy scalars are not cells.  ``csv.writer`` writes a float
    as its repr, None as an empty cell, and quotes a cell holding a comma, a
    quote or a line break, so every row has the header's width.  A bool is
    written true/false.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([("true" if x else "false") if type(x) is bool else x
                       for x in row] for row in rows)


def write_trajectory_csv(points, path, dim: int):
    """CSV with columns time, mean_1..mean_2d, cov_11..cov_2d2d, chi2_proxy."""
    twod = 2 * dim
    cols = (["time"] + [f"mean_{i + 1}" for i in range(twod)]
            + [f"cov_{i + 1}{j + 1}" for i in range(twod) for j in range(twod)]
            + ["chi2_proxy"])
    write_csv(path, cols, (
        [float(pt.time), *np.asarray(pt.mean, dtype=float).tolist(),
         *np.asarray(pt.cov, dtype=float).ravel().tolist(), pt.chi2_proxy]
        for pt in points))
