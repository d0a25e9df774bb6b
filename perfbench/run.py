"""kinlang benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload em_large_n --seed 1 --seconds 30 --trace 0

Run from the root of a kinlang checkout: it imports the package from
``src/`` there, and exits 1 without a result when there is none.  With
``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
times untraced passes for the overhead baseline, then traced passes for the
per-layer metrics.  Every timed sample is scaled to a nominal host speed by
the workload's reference kernel, timed between the passes (see
``alternate``).  The human-readable report comes first; the last line of
standard output is the JSON result.  Everything else (host block, digests,
every sample, the spans) goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
#: timed passes per run, at least
MIN_PASSES = 3

UNITS = {"setup_s": "s", "run_s": "s", "particle_steps_per_s": "1/s",
         "peak_rss_mb": "MB"}


def load_kinlang():
    """Import kinlang from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "kinlang" / "__init__.py").is_file():
        raise SystemExit(f"error: no kinlang sources under {src}")
    sys.path.insert(0, str(src))
    import kinlang
    import kinlang.cli
    if Path(kinlang.__file__).resolve().parent != src / "kinlang":
        raise SystemExit(f"error: imported kinlang from {kinlang.__file__}")
    return kinlang


def median(xs):
    return float(statistics.median(xs))


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# host block


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _last_level_cache_bytes():
    """Size of the highest-level cache of cpu0, read from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, None)
    for idx in sorted(base.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if level >= best[0]:
            best = (level, value)
    return best[1]


def host_block(np, scipy, workload):
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    llc = _last_level_cache_bytes()
    ws = workload.working_set_bytes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "llc_bytes": llc,
        "working_set_bytes": ws,
        "working_set_over_llc": ws / llc if ws and llc else None,
    }


# ---------------------------------------------------------------------------
# passes


def alternate(seconds, wl, *steps):
    """Call the steps in turn until `seconds` have gone by and each ran
    MIN_PASSES times.  Returns one list of results per step, the reference
    times, and the run's host scale.

    Interleaving makes every step sample the same stretch of machine time, so
    a drift in machine speed moves all of them alike.  The workload's
    reference kernel runs before the first call and after every call, and
    the host scale is its nominal time over its median time.  A time times
    the scale is the time on a host where the reference takes its nominal
    time: the shared host this runs on changes speed by up to 2x for tens of
    seconds to minutes, and the passes and the references between them slow
    down together.  One scale per run, not one per pass: a single reference
    is too short to track the host within a pass, and a scale per pass was
    no steadier.
    """
    out = [[] for _ in steps]
    refs = [timed(wl.reference)]
    start = time.perf_counter()
    while len(out[0]) < MIN_PASSES or time.perf_counter() - start < seconds:
        for step, acc in zip(steps, out):
            acc.append(step())
            refs.append(timed(wl.reference))
    return out, refs, wl.REFERENCE_NOMINAL_S / median(refs)


def check_digests(results):
    """Count a pass whose digests differ from the first pass as failed."""
    first = results[0].digests
    return [name for r in results[1:] for name, d in r.digests.items()
            if first.get(name) != d]


def op_counts(results, unstable):
    attempted = sum(len(r.ops) for r in results)
    failed = sum(1 for r in results for op in r.ops if not op.ok)
    # a digest that differs between passes of the same code is a failure
    return attempted + len(unstable), failed + len(unstable)


def command_samples(results, scale):
    out = {}
    for r in results:
        for op in r.ops:
            out.setdefault(op.name, []).append(op.seconds * scale)
    return out


def setup_sample(args, workdir):
    """One setup_s sample in a fresh process: import kinlang, build the inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size, "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_child(args):
    t0 = time.perf_counter()
    kl = load_kinlang()
    from workloads import SIZES, WORKLOADS
    wl = WORKLOADS[args.workload](kl, SIZES[args.size][args.workload])
    wl.setup(args.seed, args.workdir)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, kl, wl, workdir):
    state = wl.setup(args.seed, workdir)
    wl.run_pass(state)   # warm-up, untimed
    (results, raw_setups), refs, scale = alternate(
        args.seconds, wl, lambda: wl.run_pass(state), lambda: setup_sample(args, workdir))
    unstable = check_digests(results)
    attempted, failed = op_counts(results, unstable)
    run_samples = [r.run_s * scale for r in results]
    setups = [t * scale for t in raw_setups]
    cmds = command_samples(results, scale)
    if wl.name == "cli_session":
        # the simulate command is the session's only EM run
        steps_per_s = [results[0].counts["particle_steps"] / t for t in cmds["simulate"]]
    else:
        steps_per_s = [r.counts["particle_steps"] / t for r, t in zip(results, run_samples)]
    samples = {
        "setup_s": setups,
        "run_s": run_samples,
        "particle_steps_per_s": steps_per_s,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }
    report = {name: {"value": median(v), "unit": UNITS[name], "samples": len(v)}
              for name, v in samples.items()}
    extra = {f"cmd_s.{name}": {"value": median(v), "unit": "s", "samples": len(v)}
             for name, v in cmds.items() if wl.name == "cli_session"}
    extra["failed_ratio"] = {"value": failed / attempted, "unit": "ratio",
                             "samples": attempted}
    # the unscaled wall times and the scale, for the report and the result file
    raw = {"raw_setup_s": (raw_setups, "s"),
           "raw_run_s": ([r.run_s for r in results], "s"),
           "reference_s": (refs, "s")}
    for name, (v, unit) in raw.items():
        extra[name] = {"value": median(v), "unit": unit, "samples": len(v)}
        samples[name] = v
    extra["host_scale"] = {"value": scale, "unit": "ratio", "samples": len(refs)}
    return report, extra, results, unstable, attempted, failed, samples


def traced(args, kl, wl, workdir):
    from tracing import SPAN_NAMES, Tracer

    plain_state = wl.setup(args.seed, workdir)
    wl.run_pass(plain_state)   # warm-up, untimed
    tracer = Tracer()

    def traced_pass():
        tracer.install(kl)
        tracer.pass_id += 1
        tracer.active = True
        try:
            # a traced pass builds its inputs again, under the tracer
            return wl.run_pass(wl.setup(args.seed, workdir, tracer))
        finally:
            tracer.active = False
            tracer.restore()

    (plain, results), refs, scale = alternate(
        args.seconds, wl, lambda: wl.run_pass(plain_state), traced_pass)

    unstable = check_digests(plain + results)
    attempted, failed = op_counts(plain + results, unstable)
    passes = tracer.per_pass()
    ids = range(1, len(results) + 1)

    def med(name, col):
        return median([passes[i][name][col] if name in passes[i] else 0 for i in ids])

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (med(name, 0), "count")
        metrics[f"{name}.self_s"] = (med(name, 1), "s")
    from workloads import COMMANDS
    plain_cmds = command_samples(plain, scale) if wl.name == "cli_session" else {}
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}.self_s"] = (med("cli." + cmd, 1), "s")
        metrics[f"cmd_s.{cmd}"] = (median(plain_cmds[cmd]) if plain_cmds else 0.0, "s")
    counts = tracer.counts
    cells = sum(c.get("certificates.cells", 0) for c in counts.values())
    times = sum(c.get("lyapunov.time_points", 0) for c in counts.values())
    metrics["certificates.feasible_ratio"] = (
        sum(c.get("certificates.feasible", 0) for c in counts.values()) / cells
        if cells else 0.0, "ratio")
    metrics["lyapunov.divergent_ratio"] = (
        sum(c.get("lyapunov.divergent", 0) for c in counts.values()) / times
        if times else 0.0, "ratio")
    metrics["cli.bytes_written"] = (
        median([r.counts.get("bytes_written", 0) for r in results]), "B")
    metrics["simulate.particle_steps"] = (results[0].counts["particle_steps"], "count")
    metrics["simulate.bytes_moved_per_step"] = (wl.bytes_moved_per_step(), "B")
    metrics["trace_overhead_ratio"] = (
        median([r.run_s for r in results]) / median([r.run_s for r in plain]), "ratio")

    report = {k: {"value": v, "unit": u, "samples": len(results)}
              for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
    rooted = tracer.per_pass(by_root=True)
    table = {key: [median([rooted[i][key][col] if key in rooted[i] else 0 for i in ids])
                   for col in range(3)]
             for key in sorted({k for i in ids for k in rooted[i]})}
    samples = {"untraced_run_s": [r.run_s for r in plain],
               "traced_run_s": [r.run_s for r in results],
               "reference_s": refs}
    return report, table, plain + results, unstable, attempted, failed, samples


# ---------------------------------------------------------------------------
# output


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["em_large_n", "em_general_friction", "cli_session"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.setup_child:
        return setup_child(args)

    kl = load_kinlang()
    import numpy as np
    import scipy
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[args.workload](kl, SIZES[args.size][args.workload])
    workdir = OUT / f"work-{wl.name}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    host = host_block(np, scipy, wl)
    run = traced if args.trace else end_to_end
    report, extra, results, unstable, attempted, failed, samples = run(args, kl, wl, workdir)

    print(f"kinlang benchmark: workload {wl.name}, seed {args.seed}, "
          f"trace {args.trace}, {len(results)} passes")
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    if args.trace:
        print_metrics("per-layer metrics (median over traced passes):", report)
        print("spans per traced pass, by root span: calls, self s, total s")
        for (root, name), (calls, self_s, total) in extra.items():
            print(f"  {root + ' > ' + name:<64} {calls:>9.0f} {self_s:>10.6f} {total:>10.6f}")
    else:
        print_metrics("end-to-end metrics (median over samples):", report)
        print_metrics("reported, not gated:", extra)
    for r in results[:1] + results[-1:]:
        for op in r.ops:
            print(f"  check {op.name}: {'ok' if op.ok else 'FAILED'} ({op.note})")
    print(f"operations: {attempted} attempted, {failed} failed")
    print("digests: " + ("stable across passes" if not unstable
                         else "CHANGED between passes: " + ", ".join(unstable)))
    for name, d in sorted(results[0].digests.items()):
        print(f"  {name} {d}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in report.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**result, "host": host, "samples": samples,
                   "digests": results[0].digests, "unstable_digests": unstable,
                   "ops": [[op.name, op.seconds, op.ok, op.note]
                           for r in results for op in r.ops]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
