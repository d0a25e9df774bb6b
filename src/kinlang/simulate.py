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

import contextlib
import csv
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

#: N * d from which run draws the noise ahead on one helper thread, into a
#: ring of per-step slots, while earlier steps are applied.  Below it the
#: draw is small next to a step's Python overhead, and the thread cost more
#: than it saved on a 2-core host (size sweep in CHANGES.md)
PREFETCH_MIN_ELEMENTS = 1 << 13

#: coordinates (1 MiB of float64) in half the ring: it holds
#: max(3, 2 * (PREFETCH_BATCH_ELEMENTS // (N * d))) whole steps, so the
#: helper may run that far ahead of the step being applied.  Above half this
#: size the ring is three steps, the fewest that leave the applying thread a
#: step to draw after the helper's while it waits
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


def philox_normals(seed: int, step_index: int, shape, domain: int = _DOMAIN_STEP,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard normals from the counter-based stream for (seed, step_index).

    The array fills row-major from one Philox stream, so particle i's draws
    (row i) do not depend on how many rows are requested -- the N-extension
    contract.  out, a C-contiguous float64 array of that shape, receives the
    same numbers in place and is returned.  Exposed publicly so tests can
    rebuild or aggregate the exact increments a run consumed.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    bitgen = np.random.Philox(counter=[0, 0, step_index, domain],
                              key=np.array([seed, 0], dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal(shape, out=out)


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
             friction_out):
    """The EM update, its force from FrictionSpec.resolve, written to out =
    (new_q, new_p), (N, d) arrays.  Every buffer is the caller's: new_q may
    be q itself, and new_p must be neither q nor mom; term, the update's
    scratch, holds at least one row block, apart from the other operands,
    and its first rows are reused by every block; friction_out is the
    force's (2, N, d) buffer.  q, mom and xi are only read.  With the
    shipped potentials a step allocates at most one (N, d) temporary, and
    none on the diagonal field.  Each value is the operation the module
    docstring writes, in its order,

        p+ = ((p - grad V(q) dt) - (Gamma(q) p) dt) + (diffusion(q) xi) sqrt(dt),

    so the bits do not depend on which arrays hold them.

    The force is evaluated over the whole ensemble.  When Gamma and the
    diffusion are diagonal entries and N * d > BLOCK_ELEMENTS, the update
    and the finite check then run in blocks of max(1, BLOCK_ELEMENTS // d)
    rows, each element through the same ufuncs, so no bit moves.  A matrix
    form stays one block: a 2-D matmul's bits can depend on its row count.
    Raises NumericalBlowup naming step_index and the first untrusted
    entry."""
    new_q, new_p = out
    grad, g, sig = force(q, new_p, friction_out)
    n, d = q.shape
    rows = n
    if q.size > BLOCK_ELEMENTS and g.ndim < 3 and sig.ndim < 3:
        rows = max(1, BLOCK_ELEMENTS // d)
    for start in range(0, n, rows):
        b = slice(start, start + rows)
        bq, bp, bmom = new_q[b], new_p[b], mom[b]
        t = term[:len(bmom)]
        np.multiply(grad[b], dt, out=bp)
        np.subtract(bmom, bp, out=bp)
        np.multiply(_apply(g[b] if g.ndim == 2 else g, bmom, t), dt, out=t)
        np.subtract(bp, t, out=bp)
        np.multiply(_apply(sig[b] if sig.ndim == 2 else sig, xi[b], t),
                    np.sqrt(dt), out=t)
        np.add(bp, t, out=bp)
        np.multiply(bmom, dt, out=t)
        np.add(q[b], t, out=bq)
        _check_finite(bq, bp, step_index, start)


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
    common-random-number runs; it must have the positions' shape exactly,
    since a row or a column would broadcast silently.  None draws from the
    keyed stream for step index `ensemble.steps_taken`.  The ensemble's dt
    and seed must match cfg's; the particle count comes from the ensemble.
    The update is run's kernel with the same buffers, allocated per call:
    one new (2, N, d) array whose rows are the new positions and momenta,
    and a (3, N, d) scratch for the term and the force's pair, so neither
    the ensemble nor xi changes.
    """
    _check_matches(ensemble, cfg)
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
             cfg.dt, step_index, out, scratch[0], scratch[1:])
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


class _NoiseRing:
    """The noise of a run's n steps, drawn into a ring of per-step slots by
    one helper thread and, while it waits, by the thread applying them.

    Step k (counted from the run's first) goes to slot k % len(slots), which
    is free once step k - len(slots) has been applied.  Both threads claim
    steps in increasing order from one counter.  The helper claims the next
    step whenever its slot is free.  The thread in get, while its own step
    k is still being drawn, claims the next step only if two or more steps
    before k + len(slots) are unclaimed, so that the helper is never left
    idle.  A ring needs three slots for that: while the helper draws step
    k, the waiting thread draws step k + 1, and the helper's next claim,
    k + 2, fills the third.  Each step is one draw(k, slot) call either
    way, so which thread drew it moves no bit.  An exception the helper's
    draw raises is raised by get when that step is needed.  Entering starts
    the helper, and leaving stops and joins it.
    """

    def __init__(self, draw, n: int, slots):
        self._draw, self._n, self._slots = draw, n, slots
        self._cond = threading.Condition()
        self._claimed = 0                  # steps claimed so far, in order
        self._drawn = [-1] * len(slots)    # the step drawn into each slot
        self._next = 0                     # get's step; earlier ones are applied
        self._error = None
        self._closed = False
        self._helper = threading.Thread(target=self._fill)

    def __enter__(self):
        self._helper.start()
        return self

    def __exit__(self, *exc_info):
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._helper.join()

    def _claim_and_draw(self):
        # called holding the lock, which the draw itself runs without
        k = self._claimed
        self._claimed += 1
        i = k % len(self._slots)
        self._cond.release()
        try:
            self._draw(k, self._slots[i])
        finally:
            self._cond.acquire()
        self._drawn[i] = k
        self._cond.notify_all()

    def _fill(self):
        with self._cond:
            try:
                while not self._closed and self._claimed < self._n:
                    if self._claimed < self._next + len(self._slots):
                        self._claim_and_draw()
                    else:
                        self._cond.wait()
            except BaseException as exc:   # raised again by get
                self._error = exc
                self._cond.notify_all()

    def get(self, k: int):
        """Step k's noise; steps before k must have been applied."""
        i = k % len(self._slots)
        with self._cond:
            self._next = k
            self._cond.notify_all()
            while self._drawn[i] != k:
                if self._error is not None:
                    raise self._error
                if self._claimed + 2 <= min(self._n, k + len(self._slots)):
                    self._claim_and_draw()
                else:
                    self._cond.wait()
        return self._slots[i]


def run(init: Ensemble, p: Potential, spec: FrictionSpec, cfg: SimConfig,
        record_every: int = 1):
    """Apply cfg.n_steps EM steps, recording moment summaries.

    Returns a list of TrajectoryPoint (initial state included, then every
    record_every steps) with no chi2 proxy; attach_chi2_proxies adds it.

    The state, every buffer of ``_advance`` (the kernel step runs too)
    and the noise are rows of one workspace array, allocated once per call
    and released whole at the end; init is never written.  Reused buffers
    spare the page faults of fresh (N, d) arrays per step.  On the
    diagonal friction field the gradient and the Hessian diagonal come
    from one evaluation of the potential (FrictionSpec.resolve), written
    into the workspace.

    From PREFETCH_MIN_ELEMENTS coordinates (N * d) on, the keyed draws go
    into a ring of max(3, 2 * (PREFETCH_BATCH_ELEMENTS // (N * d)))
    per-step slots (_NoiseRing).  Steps are claimed in order from one
    counter: by one helper thread whenever a slot is free, while earlier
    steps are applied, and by the thread applying them while it would
    otherwise wait, as long as two or more steps within one ring's length
    of its own are unclaimed; on a ring of three, that is the step after
    the helper's.  Each step is still its own philox_normals call, which
    depends on (seed, step) alone, so the arrays, and the records, are the
    same as with the draw inline.  On the diagonal forms, where _advance
    updates the ensemble in row blocks, only the first block of the
    workspace's term row is used; the rest of its pages are never touched,
    which pays for the ring's third slot at N * d > 2^16.

    Deterministic given (init, cfg): identical inputs produce bit-identical
    summaries.  Raises NumericalBlowup with the offending step index and
    the first untrusted entry.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    _check_matches(init, cfg, ("dt", "seed", "n_particles"))
    stability_warning(init, p, spec, cfg)
    force = spec.resolve(p)
    shape = init.positions.shape
    start = init.steps_taken
    n = cfg.n_steps
    inline = init.positions.size < PREFETCH_MIN_ELEMENTS or n == 0
    ring = max(3, 2 * (PREFETCH_BATCH_ELEMENTS // init.positions.size))
    # rows: q, two momenta that trade places every step, a term, the
    # friction field's pair, then one step of noise inline or the ring
    work = np.empty((6 + (1 if inline else ring),) + shape)
    q, mom, new_mom, term = work[:4]
    friction_out, slots = work[4:6], work[6:]
    q[...] = init.positions
    mom[...] = init.momenta

    def draw(k, out):
        return philox_normals(init.seed, start + k, shape, out=out)

    def record(time):
        mean, cov = replace(init, positions=q, momenta=mom, time=time).summary()
        return TrajectoryPoint(time=time, mean=mean, cov=cov)

    time = init.time
    out = [record(time)]
    with contextlib.nullcontext() if inline else _NoiseRing(draw, n, slots) as noise:
        for k in range(1, n + 1):
            xi = draw(k - 1, slots[0]) if noise is None else noise.get(k - 1)
            _advance(q, mom, xi, force, cfg.dt, start + k, (q, new_mom), term,
                     friction_out)
            mom, new_mom = new_mom, mom
            time += cfg.dt
            if k % record_every == 0 or k == n:
                out.append(record(time))
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
