"""What perfbench/ needs from kinlang, checked without running the benchmark.

The tracer binds kinlang's public names by attribute, and the rotated
potential passes Potential fields by name to ``dataclasses.replace``.  If a
change deletes or renames one of them, these tests fail before the benchmark
does.  perfbench/ is imported through sys.path, as its scripts import it.
"""

import importlib
import os

import numpy as np
import pytest

import kinlang
from kinlang.friction import hessian_sqrt
from kinlang.potentials import perturbed_diagonal
from kinlang.simulate import SimConfig, ensemble_at_point, run

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module


def test_tracer_installs_and_restores(perfbench):
    tracing = perfbench("tracing")
    before = (kinlang.simulate.run, kinlang.friction.FrictionSpec.gamma,
              kinlang.potentials.perturbed_diagonal)
    tracer = tracing.Tracer()
    try:
        tracer.install(kinlang)
    finally:
        tracer.restore()
    assert (kinlang.simulate.run, kinlang.friction.FrictionSpec.gamma,
            kinlang.potentials.perturbed_diagonal) == before


def test_rotated_potential_takes_one_run_step(perfbench):
    rotated = perfbench("rotated")
    rot = rotated.random_rotation(np.random.default_rng(0), 2)
    p = rotated.rotate(perturbed_diagonal([1.0, 3.0], 0.1), rot,
                       kinlang.linalg)
    assert p.family == "rotated_perturbed" and p.hess_diag is None
    assert p.sqrt_hess_dq(np.array([0.3, -0.2]), 0).shape == (2, 2)

    cfg = SimConfig(dt=1e-2, n_steps=1, n_particles=8, seed=0)
    points = run(ensemble_at_point([0.5, -0.5], [0.0, 0.0], 8, 0, cfg.dt),
                 p, hessian_sqrt(2.0), cfg)
    assert len(points) == 2 and np.all(np.isfinite(points[-1].mean))
