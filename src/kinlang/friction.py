"""Friction-coefficient providers and their diffusion counterparts.

Three kinds of friction Gamma(q):

  * constant_scalar(lam):   Gamma = lam * I
  * constant_matrix(M):     Gamma = M (SPD, checked at construction)
  * hessian_sqrt(s):        Gamma(q) = s * sqrt(Hess V(q))

The diffusion coefficient sqrt(2 Gamma(q)) is tied to the friction so that
the Gibbs measure stays invariant.

``FrictionSpec.resolve`` decides, once per (friction, potential) pair, the
form in which the simulator applies Gamma: a function q -> (Gamma, diffusion)
over (N, d) positions, returning either

  * diagonal entries: a constant (d,) vector when Gamma is a constant
    diagonal matrix, or the (N, d) field s * sqrt(hess_diag(q)); or
  * matrix stacks: (1, d, d) for any other constant Gamma, or (N, d, d)
    from one batched square root of the per-particle Hessians.

Constant forms are computed when resolving, not on every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotPositiveDefinite
from .linalg import check_spd, check_symmetric, spd_sqrt
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

    def gamma_diag(self, p: Potential, positions) -> np.ndarray:
        """Diagonal entries of hessian_sqrt Gamma at each row of positions,
        shape (..., d); needs the potential's hess_diag field."""
        return self.s * np.sqrt(p.hess_diag(np.asarray(positions, dtype=float)))

    # -- the simulator's friction form ---------------------------------------

    def resolve(self, p: Potential):
        """q -> (Gamma, diffusion) over (N, d) positions, in the shapes the
        module docstring lists."""
        if self.kind != "hessian_sqrt" or p.constant_hessian:
            g = self.gamma(p, np.zeros(p.dim))
            diag = np.diagonal(g)
            if np.count_nonzero(g - np.diag(diag)) == 0:
                const = (diag, np.sqrt(2.0 * diag))
            else:
                const = (g[None], spd_sqrt(2.0 * g)[None])
            return lambda q: const
        if p.hess_diag is not None:
            def diagonal_field(q):
                g = self.gamma_diag(p, q)
                return g, np.sqrt(2.0 * g)
            return diagonal_field

        def general_field(q):
            # Potential.hess maps one point to (d, d), so the field is
            # evaluated row by row and decomposed in one batched call
            g = self.s * spd_sqrt(np.stack([p.hess(q_i) for q_i in q]))
            return g, spd_sqrt(2.0 * g)
        return general_field


def constant_scalar(lam: float) -> FrictionSpec:
    """Gamma = lam * I with lam > 0."""
    if lam <= 0:
        raise NotPositiveDefinite(f"constant scalar friction needs lam > 0, got {lam}")
    return FrictionSpec(kind="constant_scalar", lam=float(lam))


def constant_matrix(m) -> FrictionSpec:
    """Gamma = m for a fixed SPD matrix m; indefinite m is rejected here."""
    m = check_symmetric(m, "friction matrix")
    check_spd(np.linalg.eigvalsh(m), "friction matrix", rtol=0.0)
    return FrictionSpec(kind="constant_matrix", matrix=m)


def hessian_sqrt(s: float) -> FrictionSpec:
    """Gamma(q) = s * sqrt(Hess V(q)) with s > 0."""
    if s <= 0:
        raise NotPositiveDefinite(f"hessian_sqrt friction needs s > 0, got {s}")
    return FrictionSpec(kind="hessian_sqrt", s=float(s))
