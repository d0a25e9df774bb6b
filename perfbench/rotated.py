"""A rotated perturbed quadratic potential, built on kinlang's Potential.

    V(q) = sum_i v_i^2 y_i^2 / 2 + eps sum_i log cosh(y_i),   y = Q q

with Q orthogonal.  Its Hessian Q' diag(v^2 + eps sech^2(y)) Q is neither
diagonal nor constant, so hessian_sqrt friction takes kinlang's general
per-particle path.  alpha and beta do not change under rotation, and the
unrotated gamma stays a valid upper bound because ||Q' D Q||_2 = max |D_jj|,
so the constants of perturbed_diagonal(v, eps) carry over unchanged.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def random_rotation(rng, d):
    """A Haar-distributed orthogonal d x d matrix drawn from rng."""
    z = rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diagonal(r))


def rotate(base, rot, linalg):
    """Rotate a perturbed_diagonal (log_cosh) Potential by rot.

    base supplies v, eps and the constants; linalg is kinlang.linalg, used
    only for the derivative of the square root that certificates read.
    """
    if base.params.get("perturbation") != "log_cosh":
        raise ValueError("rotate expects a log_cosh perturbed_diagonal potential")
    v2 = np.asarray(base.params["v"], dtype=float) ** 2
    eps = float(base.params["eps"])
    rot = np.asarray(rot, dtype=float)

    def value(q):
        y = rot @ np.asarray(q, dtype=float)
        ay = np.abs(y)
        log_cosh = ay + np.log1p(np.exp(-2.0 * ay)) - np.log(2.0)
        return 0.5 * float(v2 @ y**2) + eps * float(np.sum(log_cosh))

    def grad(q):
        # rows of an (N, d) batch are rotated together: y = q Q'
        y = np.asarray(q, dtype=float) @ rot.T
        return (v2 * y + eps * np.tanh(y)) @ rot

    def hess(q):
        y = rot @ np.asarray(q, dtype=float)
        curv = v2 + eps * (1.0 - np.tanh(y) ** 2)
        return (rot.T * curv) @ rot

    def hess_dq(q, i):
        y = rot @ np.asarray(q, dtype=float)
        t = np.tanh(y)
        third = eps * (-2.0 * t * (1.0 - t**2))
        return (rot.T * (third * rot[:, i])) @ rot

    def sqrt_hess_dq(q, i):
        return linalg.spd_sqrt_directional_derivative(hess(q), hess_dq(q, i))

    return dataclasses.replace(
        base,
        value=value, grad=grad, hess=hess, hess_dq=hess_dq,
        sqrt_hess_dq=sqrt_hess_dq, constant_hessian=False, hess_diag=None,
        family="rotated_perturbed",
        params={**base.params, "rotation": rot.tolist()},
    )
