"""Dense symmetric linear-algebra kernels.

Everything downstream -- friction matrices, Gaussian propagation, weight
matrices -- funnels through these few routines:

  * ``check_spd``: the one positive-definiteness rule, applied to ascending
    eigenvalues of a matrix or a stack
  * ``spd_sqrt``: principal square root of an SPD matrix or a stack of them
  * ``spd_sqrt_directional_derivative``: derivative of that square root along
    a symmetric perturbation (Sylvester equation in the eigenbasis)
  * ``expm``: matrix exponential e^{m t}, for one t or a 1-d grid of them
  * ``gaussian_quadratic_expectation``: E[x' Q x + l' x + c] under N(mean, cov)

``check_spd`` rejects a matrix whose smallest eigenvalue is at or below
rtol * max|w|, a rule no common scaling of the matrix changes.  The package
uses three settings of it:

  * rtol = 1e-10 (the default): the square root and its derivative,
    ``kinetic_dynamics`` (its friction, and the one rule on the Hessian A
    whose inverse its Gibbs law holds), ``quadratic_general`` and
    ``gaussian_quadratic_expectation``
  * rtol = 1e-12: the chi-square divergence's target covariance, and rho's
    covariance in the target's whitened frame
  * rtol = 0, plain positivity: ``constant_matrix`` and ``build_s``'s
    friction and weight

``GaussianMoments`` keeps its own check: it admits positive semidefinite
covariances (point initial conditions) within a slack.

All routines are pure and deterministic.  The square root and its derivative
share a single eigendecomposition; ``expm`` is scipy's scaling-and-squaring
Pade implementation (Al-Mohy & Higham 2009), which also covers the drift
matrices that are defective at critical damping, and exponentiates a whole
grid of times in one call.  The Gaussian oracles need it only for a
friction that does not commute with the Hessian (``gaussian._moments``
takes the others in closed form), so SciPy is imported on the first
``expm`` call: importing the package, and the default commands, load none.
``check_symmetric``, which every routine here that takes a symmetric matrix
applies, rejects a non-finite entry before any other rule and names the
matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric

__all__ = [
    "check_symmetric",
    "check_spd",
    "spd_eig",
    "from_eig",
    "spd_sqrt",
    "spd_sqrt_directional_derivative",
    "expm",
    "gaussian_quadratic_expectation",
]

#: relative symmetry slack: |M_ij - M_ji| <= SYM_TOL * ||M||_F, a rule no
#: common scaling of M changes
SYM_TOL = 1e-12


def _first_bad(name, bad):
    """(name, ()) for a single matrix's 0-d mask bad, else (name[i], i) for
    the first failing matrix i of a stack."""
    i = np.unravel_index(np.argmax(bad), bad.shape)
    return (f"{name}{[int(k) for k in i]}" if i else name), i


def check_symmetric(m, name="matrix"):
    """Validate (and symmetrize) a square matrix.

    Parameters
    ----------
    m : array_like, shape (d, d)
    name : str
        Used in error messages.

    Returns
    -------
    ndarray
        ``(m + m.T)/2`` as float64, after checking the asymmetry is within
        ``SYM_TOL * ||m||_F``.

    Raises
    ------
    NotSymmetric
        If the asymmetry exceeds tolerance or the matrix is not square.
    NotPositiveDefinite
        If an entry is not finite.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise NotSymmetric(f"{name} must be square, got shape {m.shape}")
    return _symmetrize(m, name)


def _check_finite(m, name):
    """The non-finite entry rule on a matrix or each of an (..., d, d) stack,
    named by its index: no rule downstream can read such a matrix, and
    LAPACK may give zeros, or fail, on it."""
    if not np.isfinite(m).all():
        bad = ~np.isfinite(m).all(axis=(-2, -1))
        raise NotPositiveDefinite(
            f"{_first_bad(name, bad)[0]} has a non-finite entry")


def _symmetrize(m, name):
    """check_symmetric for each matrix of an (..., d, d) float stack; a
    failing matrix of a stack is named by its index, ``name[i]``.  A
    non-finite entry is rejected first (``_check_finite``), as
    NotPositiveDefinite."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSymmetric(f"{name} must be square, got shape {m.shape}")
    _check_finite(m, name)
    mt = m.swapaxes(-1, -2)
    skew = np.abs(m - mt)
    # ||M||_F >= |M_00|, so an asymmetry within SYM_TOL * |M_00| of every
    # matrix of the stack clears them all
    if m.size and skew.max() > SYM_TOL * np.abs(m[..., 0, 0]).min():
        skew = skew.max(axis=(-2, -1))
        # ||M||_F as a hypot reduction, which does not overflow where the
        # sum of squares would (entries from 1e154 on)
        bad = skew > SYM_TOL * np.hypot.reduce(
            m.reshape(m.shape[:-2] + (-1,)), axis=-1)
        if np.count_nonzero(bad):
            label, i = _first_bad(name, bad)
            raise NotSymmetric(
                f"{label} is not symmetric: max |M_ij - M_ji| = "
                f"{skew[i]:.3e} exceeds {SYM_TOL:.1e} * ||M||_F")
    return 0.5 * (m + mt)


def check_spd(w, name="matrix", rtol=1e-10):
    """Positive-definiteness rule on ascending eigenvalues.

    Parameters
    ----------
    w : ndarray, shape (..., d)
        Ascending eigenvalues of one matrix, or of each matrix of a stack.
    name : str
        Names the matrix in the error; a stack adds the failing index,
        ``name[i]``.
    rtol : float
        A matrix is rejected unless its smallest eigenvalue is
        > rtol * max|w|; a NaN eigenvalue is rejected.

    Raises
    ------
    NotPositiveDefinite
        For the first matrix that fails the rule.
    """
    if not w.size:
        return
    lo = w[..., 0]
    floor = rtol * np.maximum(-lo, w[..., -1])
    bad = ~(lo > floor)
    if np.count_nonzero(bad):
        label, i = _first_bad(name, bad)
        raise NotPositiveDefinite(
            f"{label} has eigenvalue {lo[i]:.6e} <= tolerance {floor[i]:.3e}"
        )


def spd_eig(m):
    """Eigendecomposition (ascending w, u) of a symmetric matrix or stack,
    after ``check_spd`` with the default rule."""
    w, u = np.linalg.eigh(_symmetrize(np.asarray(m, dtype=float), "matrix"))
    check_spd(w)
    return w, u


def from_eig(u, v):
    """u diag(v) u', symmetrized, for eigenvectors u from ``spd_eig``: the
    function of the matrix (or of each matrix of a stack) that maps its
    eigenvalues to v."""
    r = (u * v[..., None, :]) @ u.swapaxes(-1, -2)
    return 0.5 * (r + r.swapaxes(-1, -2))


def spd_sqrt(m):
    """Principal square root of a symmetric positive definite matrix.

    Parameters
    ----------
    m : array_like, shape (..., d, d)
        Symmetric with smallest eigenvalue above ``1e-10 * max|eig|``; a
        stack is decomposed in one batched call, each matrix against its
        own floor.

    Returns
    -------
    ndarray
        Symmetric positive definite R with R @ R = m (up to roundoff)

    Raises
    ------
    NotPositiveDefinite
        If any matrix fails ``check_spd``; a stack names the failing index.
    """
    w, u = spd_eig(m)
    return from_eig(u, np.sqrt(w))


def spd_sqrt_directional_derivative(m, dm):
    """Directional derivative of the SPD square root.

    Solves the Sylvester equation R X + X R = dm for X, where
    R = spd_sqrt(m); X is the derivative of sqrt at m along dm.  In the
    eigenbasis of m the solution is elementwise:

        X~_kl = (U' dm U)_kl / (sqrt(w_k) + sqrt(w_l))

    Parameters
    ----------
    m : array_like, shape (d, d)
        Symmetric positive definite.
    dm : array_like, shape (d, d)
        Symmetric perturbation direction.

    Returns
    -------
    ndarray
        Symmetric X with spd_sqrt(m) @ X + X @ spd_sqrt(m) = dm.

    Raises
    ------
    NotPositiveDefinite
        Propagated from the square root of ``m``.
    """
    w, u = spd_eig(m)
    dm = check_symmetric(dm, "dm")
    roots = np.sqrt(w)
    dm_tilde = u.T @ dm @ u
    x_tilde = dm_tilde / (roots[:, None] + roots[None, :])
    x = u @ x_tilde @ u.T
    return 0.5 * (x + x.T)


def expm(m, t=1.0):
    """Matrix exponential e^{m t} for a square real matrix.

    t is a float, giving one (n, n) matrix, or a 1-d array of K times,
    giving the (K, n, n) stack from one ``scipy.linalg.expm`` call; slice k
    is bitwise the matrix for the float ``t[k]``, and t = 0 gives the
    identity.  Always defined; no SPD requirement.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {m.shape}")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(
            f"t must be a float or a 1-d array, got shape {t.shape}")
    import scipy.linalg  # deferred, so that importing kinlang loads no SciPy

    # a zero matrix takes scipy's diagonal branch, which returns I exactly
    return scipy.linalg.expm(m * t[..., None, None])


def gaussian_quadratic_expectation(mean, cov, quad, lin=None, const=0.0):
    """E[x' quad x + lin' x + const] for x ~ N(mean, cov).

    Closed form: tr(quad @ cov) + mean' quad mean + lin' mean + const.

    Parameters
    ----------
    mean : array_like, shape (d,)
    cov : array_like, shape (d, d)
        Symmetric positive definite.
    quad : array_like, shape (d, d)
        Symmetric quadratic-form matrix (may be indefinite or zero).
    lin : array_like, shape (d,), optional
    const : float, optional

    Raises
    ------
    NotPositiveDefinite
        If ``cov`` is not positive definite.
    """
    mean = np.asarray(mean, dtype=float).ravel()
    cov = check_symmetric(cov, "cov")
    check_spd(np.linalg.eigvalsh(cov), "cov")
    quad = check_symmetric(quad, "quad")
    value = float(np.trace(quad @ cov) + mean @ quad @ mean) + float(const)
    if lin is not None:
        value += float(np.asarray(lin, dtype=float).ravel() @ mean)
    return value
