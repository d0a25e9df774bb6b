"""Dense symmetric linear-algebra kernels.

Everything downstream -- friction matrices, Gaussian propagation, weight
matrices -- funnels through these few routines:

  * ``spd_sqrt``: principal square root of an SPD matrix or a stack of them
  * ``spd_sqrt_directional_derivative``: derivative of that square root along
    a symmetric perturbation (Sylvester equation in the eigenbasis)
  * ``expm``: matrix exponential e^{m t}
  * ``gaussian_quadratic_expectation``: E[x' Q x + l' x + c] under N(mean, cov)

All routines are pure and deterministic.  The square root and its derivative
share a single eigendecomposition; ``expm`` delegates to scipy's
scaling-and-squaring Pade implementation with an eigendecomposition fast path
for comfortably diagonalizable inputs (the drift matrices we care about are
defective exactly at the critical damping point, where Pade is the right
tool).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, NotSymmetric

__all__ = [
    "check_symmetric",
    "sym_eig",
    "spd_sqrt",
    "spd_sqrt_directional_derivative",
    "expm",
    "gaussian_quadratic_expectation",
]

#: relative symmetry slack: |M_ij - M_ji| <= SYM_TOL * max(1, ||M||_F)
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
        ``SYM_TOL * max(1, ||m||_F)``.

    Raises
    ------
    NotSymmetric
        If the asymmetry exceeds tolerance or the matrix is not square.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise NotSymmetric(f"{name} must be square, got shape {m.shape}")
    return _symmetrize(m, name)


def _symmetrize(m, name):
    """check_symmetric for each matrix of an (..., d, d) float stack; a
    failing matrix of a stack is named by its index, ``name[i]``."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSymmetric(f"{name} must be square, got shape {m.shape}")
    mt = m.swapaxes(-1, -2)
    # every threshold is at least SYM_TOL, so a smaller asymmetry clears all
    if m.size and np.abs(m - mt).max() > SYM_TOL:
        skew = np.abs(m - mt).max(axis=(-2, -1))
        bad = skew > SYM_TOL * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
        if np.count_nonzero(bad):
            label, i = _first_bad(name, bad)
            raise NotSymmetric(
                f"{label} is not symmetric: max |M_ij - M_ji| = {skew[i]:.3e} "
                f"exceeds {SYM_TOL:.1e} * max(1, ||M||_F)"
            )
    return 0.5 * (m + mt)


def sym_eig(m, name="matrix"):
    """Eigendecomposition of a symmetric matrix (or stack), ascending eigenvalues.

    Returns
    -------
    (w, u) : (ndarray, ndarray)
        ``u @ diag(w) @ u.T`` reconstructs each symmetrized input.
    """
    w, u = np.linalg.eigh(_symmetrize(np.asarray(m, dtype=float), name))
    return w, u


def _spd_floor(w, tol):
    """Default positive-definiteness floor: 1e-10 * largest |eigenvalue|,
    per matrix when w holds a stack's ascending eigenvalues."""
    if tol is not None:
        return tol
    return 1e-10 * np.maximum(-w[..., 0], w[..., -1])


def _spd_eig(m, tol):
    """sym_eig of m after checking every eigenvalue is above the floor."""
    w, u = sym_eig(m)
    if w.size:
        floor = _spd_floor(w, tol)
        bad = w[..., 0] <= floor
        if np.count_nonzero(bad):
            label, i = _first_bad("matrix", bad)
            floor = np.broadcast_to(floor, bad.shape)
            raise NotPositiveDefinite(
                f"{label} has eigenvalue {w[i][0]:.6e} <= tolerance {floor[i]:.3e}"
            )
    return w, u


def spd_sqrt(m, tol=None):
    """Principal square root of a symmetric positive definite matrix.

    Parameters
    ----------
    m : array_like, shape (..., d, d)
        Symmetric with smallest eigenvalue above ``tol``; a stack is
        decomposed in one batched call, each matrix against its own floor.
    tol : float, optional
        Positive-definiteness floor.  Defaults to ``1e-10 * max |eig|``.

    Returns
    -------
    ndarray
        Symmetric positive definite R with R @ R = m (up to roundoff)

    Raises
    ------
    NotPositiveDefinite
        If any eigenvalue is <= ``tol``; a stack names the failing index.
    """
    w, u = _spd_eig(m, tol)
    r = (u * np.sqrt(w)[..., None, :]) @ u.swapaxes(-1, -2)
    return 0.5 * (r + r.swapaxes(-1, -2))


def spd_sqrt_directional_derivative(m, dm, tol=None):
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
    w, u = _spd_eig(m, tol)
    dm = check_symmetric(dm, "dm")
    roots = np.sqrt(w)
    dm_tilde = u.T @ dm @ u
    x_tilde = dm_tilde / (roots[:, None] + roots[None, :])
    x = u @ x_tilde @ u.T
    return 0.5 * (x + x.T)


#: eigendecomposition fast path only when the eigenvector basis is this
#: well-conditioned; defective/near-defective matrices fall through to Pade
_EXPM_COND_MAX = 1e8


def expm(m, t=1.0):
    """Matrix exponential e^{m t} for a square real matrix.

    Uses an eigendecomposition when ``m`` is diagonalizable with a
    well-conditioned eigenvector matrix, otherwise scipy's
    scaling-and-squaring Pade routine.  Always defined; no SPD requirement.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {m.shape}")
    if t == 0.0:
        return np.eye(m.shape[0])
    try:
        vals, vecs = np.linalg.eig(m)
        cond = np.linalg.cond(vecs)
    except np.linalg.LinAlgError:
        cond = np.inf
    if np.isfinite(cond) and cond < _EXPM_COND_MAX:
        out = (vecs * np.exp(vals * t)) @ np.linalg.inv(vecs)
        out = np.real_if_close(out, tol=1000)
        if np.isrealobj(out):
            return np.asarray(out, dtype=float)
    return scipy.linalg.expm(m * t)


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
    w = np.linalg.eigvalsh(cov)
    if w.size and w[0] <= _spd_floor(w, None):
        raise NotPositiveDefinite(
            f"covariance has eigenvalue {w[0]:.6e} <= tolerance"
        )
    quad = check_symmetric(quad, "quad")
    value = float(np.trace(quad @ cov) + mean @ quad @ mean) + float(const)
    if lin is not None:
        value += float(np.asarray(lin, dtype=float).ravel() @ mean)
    return value
