"""Smoke test of the benchmark itself; about half a minute on two cores.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes through the untraced and the traced path
and checks that each result is correct and names exactly the metrics of
BENCHMARK.json.  Checks the rotated potential's grad and hess against
central differences of value and grad, and that the benchmark refuses to run
in a directory without kinlang's sources.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd, workload, trace, seed=5):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_bench(ROOT, w, trace)
            assert proc.returncode == 0, f"{w} trace {trace}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (w, trace, result)
            assert set(result["metrics"]) == expected[trace], (
                w, trace, set(result["metrics"]) ^ expected[trace])
            print(f"ok  {w} trace {trace}: {result['attempted']} operations")


def check_rotated_potential():
    sys.path.insert(0, str(ROOT / "src"))
    import kinlang
    from rotated import random_rotation, rotate

    rng = np.random.default_rng(0)
    p = rotate(kinlang.perturbed_diagonal([1.0, 3.0], 0.1),
               random_rotation(rng, 2), kinlang.linalg)
    h = 1e-5
    eye = np.eye(2)
    for _ in range(20):
        q = rng.uniform(-3.0, 3.0, 2)
        fd_grad = np.array([(p.value(q + h * e) - p.value(q - h * e)) / (2 * h)
                            for e in eye])
        fd_hess = np.array([(p.grad(q + h * e) - p.grad(q - h * e)) / (2 * h)
                            for e in eye])
        assert np.allclose(p.grad(q), fd_grad, rtol=1e-6, atol=1e-8), q
        assert np.allclose(p.hess(q), fd_hess, rtol=1e-6, atol=1e-8), q
        # the batched gradient agrees with the single-point one
        assert np.allclose(p.grad(q[None, :])[0], p.grad(q), rtol=0, atol=1e-15)
    print("ok  rotated potential: grad and hess match finite differences")


def check_refuses_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "em_large_n", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without src/kinlang")


def main():
    check_rotated_potential()
    check_refuses_without_sources()
    check_workloads()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
