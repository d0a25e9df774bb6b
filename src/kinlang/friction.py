"""Friction-coefficient providers and their diffusion counterparts.

Three kinds of friction Gamma(q):

  * constant_scalar(lam):   Gamma = lam * I
  * constant_matrix(M):     Gamma = M (SPD, checked at construction)
  * hessian_sqrt(s):        Gamma(q) = s * sqrt(Hess V(q))

The diffusion coefficient sqrt(2 Gamma(q)) is tied to the friction so that
the Gibbs measure stays invariant.

``FrictionSpec.resolve`` decides, once per (friction, potential) pair, the
form in which the simulator evaluates the force of a step: a function
q -> (grad V, Gamma, diffusion) over (N, d) positions, with Gamma and the
diffusion either

  * diagonal entries: a constant (d,) vector when Gamma is a constant
    diagonal matrix, or the (N, d) field s * sqrt(hess_diag(q)) when the
    potential has both hess_diag and grad_hess_diag; or
  * matrix stacks: (1, d, d) for any other constant Gamma, or (N, d, d)
    from one batched eigendecomposition of the per-particle Hessians.

Constant forms are computed when resolving, not on every step.  The
gradient and the diagonal field write into the caller's buffers: the field
takes the gradient and the Hessian diagonal from one grad_hess_diag call.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotPositiveDefinite
from .linalg import check_spd, check_symmetric, from_eig, spd_eig, spd_sqrt
from .potentials import Potential

__all__ = ["FrictionSpec", "constant_scalar", "constant_matrix", "hessian_sqrt"]


@dataclass(frozen=True)
class FrictionSpec:
    """A friction provider; build via constant_scalar / constant_matrix /
    hessian_sqrt rather than directly."""

    kind: str                       # "constant_scalar" | "constant_matrix" | "hessian_sqrt"
    lam: Optional[float] = None     # constant_scalar
    matrix: Optional[np.ndarray] = None  # constant_matrix
    s: Optional[float] = None       # hessian_sqrt scale

    # -- friction coefficient ------------------------------------------------

    def gamma(self, p: Potential, q) -> np.ndarray:
        """Gamma(q) as a (d, d) SPD matrix; constant kinds ignore q."""
        if self.kind == "constant_scalar":
            return self.lam * np.eye(p.dim)
        if self.kind == "constant_matrix":
            return self.matrix
        return self.s * spd_sqrt(p.hess(np.asarray(q, dtype=float)))

    def diffusion(self, p: Potential, q) -> np.ndarray:
        """sqrt(2 Gamma(q))."""
        return spd_sqrt(2.0 * self.gamma(p, q))

    def gamma_diag(self, p: Potential, positions, out=None) -> np.ndarray:
        """Diagonal entries of hessian_sqrt Gamma at each row of positions,
        shape (..., d), written to out when given; needs the potential's
        hess_diag field."""
        g = np.sqrt(p.hess_diag(np.asarray(positions, dtype=float)), out=out)
        return np.multiply(g, self.s, out=g)

    # -- the simulator's friction form ---------------------------------------

    def diagonal(self, p: Potential) -> bool:
        """Whether resolve(p) gives Gamma and the diffusion as diagonal
        entries: a constant diagonal Gamma, or the diagonal field."""
        if self.kind != "hessian_sqrt" or p.constant_hessian:
            g = self.gamma(p, np.zeros(p.dim))
            return np.count_nonzero(g - np.diag(np.diagonal(g))) == 0
        # both: a replace that drops hess_diag may keep a stale grad_hess_diag
        return p.hess_diag is not None and p.grad_hess_diag is not None

    def resolve(self, p: Potential):
        """(q, grad_out, out) -> (grad V(q), Gamma, diffusion) over (N, d)
        positions, Gamma and the diffusion in the shapes the module
        docstring lists.  Both buffers are required: grad_out, an (N, d)
        array, receives the gradient when p.grad takes an out= array
        (_gradient), else the gradient is a new array; out, a (2, N, d)
        array, receives the diagonal field's Gamma and diffusion, and the
        other forms ignore it.  The diagonal field, taken when p sets both
        hess_diag and grad_hess_diag, allocates nothing; a potential with
        hess_diag alone takes the general field.  A friction matrix whose
        size is not p.dim is rejected, as it would broadcast silently."""
        if self.kind == "constant_matrix" and len(self.matrix) != p.dim:
            raise ValueError(f"friction matrix is {len(self.matrix)}x"
                             f"{len(self.matrix)}, but the potential has "
                             f"dim {p.dim}")
        gradient = _gradient(p)
        diagonal = self.diagonal(p)
        if self.kind != "hessian_sqrt" or p.constant_hessian:
            g = self.gamma(p, np.zeros(p.dim))
            if diagonal:
                diag = np.diagonal(g)
                const = (diag, np.sqrt(2.0 * diag))
            else:
                const = (g[None], spd_sqrt(2.0 * g)[None])
            return lambda q, grad_out, out: (gradient(q, grad_out), *const)
        if diagonal:
            def diagonal_field(q, grad_out, out):
                # the Hessian diagonal lands in sig, and g is scratch
                g, sig = out
                grad, _ = p.grad_hess_diag(q, grad_out, sig, g)
                np.multiply(np.sqrt(sig, out=g), self.s, out=g)
                np.multiply(g, 2.0, out=sig)
                return grad, g, np.sqrt(sig, out=sig)
            return diagonal_field

        def general_field(q, grad_out, out):
            # Potential.hess maps one point to (d, d), so the field is
            # evaluated row by row; one batched eigh of the Hessians gives
            # Gamma = U s sqrt(w) U' and sqrt(2 Gamma) = U sqrt(2 s sqrt(w)) U'
            w, u = spd_eig(np.array([p.hess(q_i) for q_i in q]))
            root = np.sqrt(w)
            return (gradient(q, grad_out), self.s * from_eig(u, root),
                    from_eig(u, np.sqrt(2.0 * self.s * root)))
        return general_field


def _gradient(p: Potential):
    """(q, out) -> grad V(q): written into the (N, d) array out when p.grad
    takes an out= array (a functools.wraps wrapper is read through), else a
    new array."""
    try:
        into = "out" in inspect.signature(p.grad).parameters
    except (TypeError, ValueError):   # a callable with no signature
        into = False
    if into:
        return lambda q, out: p.grad(q, out=out)
    return lambda q, out: p.grad(q)


def constant_scalar(lam: float) -> FrictionSpec:
    """Gamma = lam * I with a finite lam > 0."""
    if not 0 < lam < np.inf:
        raise NotPositiveDefinite(
            f"constant scalar friction needs a finite lam > 0, got {lam}")
    return FrictionSpec(kind="constant_scalar", lam=float(lam))


def constant_matrix(m) -> FrictionSpec:
    """Gamma = m for a fixed SPD matrix m; indefinite m is rejected here."""
    m = check_symmetric(m, "friction matrix")
    check_spd(np.linalg.eigvalsh(m), "friction matrix", rtol=0.0)
    return FrictionSpec(kind="constant_matrix", matrix=m)


def hessian_sqrt(s: float) -> FrictionSpec:
    """Gamma(q) = s * sqrt(Hess V(q)) with a finite s > 0."""
    if not 0 < s < np.inf:
        raise NotPositiveDefinite(
            f"hessian_sqrt friction needs a finite s > 0, got {s}")
    return FrictionSpec(kind="hessian_sqrt", s=float(s))
