"""Spans around calls into kinlang, recorded from outside the package.

The tracer replaces public callables with wrappers that record one span per
call: name, start, end, parent span and pass id.  Nothing inside ``src/`` is
edited; the wrappers are installed on module attributes, on class methods and
on the callables a ``Potential`` carries, and removed again by ``restore``.

Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the time its child spans cover; calls are single-threaded, so
children never overlap and that is their summed duration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
import sys
import time
from collections import defaultdict

#: (module, attribute, span name) for every public function the trace times;
#: every kinlang module that imported the function by name is patched too
FUNCTIONS = [
    ("simulate", "run", "simulate.run"),
    ("simulate", "step", "simulate.step"),
    ("simulate", "philox_normals", "simulate.philox_normals"),
    ("linalg", "spd_sqrt", "linalg.spd_sqrt"),
    ("linalg", "expm", "linalg.expm"),
    ("linalg", "gaussian_quadratic_expectation",
     "linalg.gaussian_quadratic_expectation"),
    ("gaussian", "propagate", "gaussian.propagate"),
    ("gaussian", "gaussian_chi2", "gaussian.gaussian_chi2"),
    ("gaussian", "fit_decay_rate", "gaussian.fit_decay_rate"),
    ("lyapunov", "lyapunov_value_gaussian", "lyapunov.lyapunov_value_gaussian"),
    ("lyapunov", "decay_audit", "lyapunov.decay_audit"),
    ("certificates", "optimize_m1", "certificates.optimize_m1"),
    ("certificates", "lambda_dms_sup", "certificates.lambda_dms_sup"),
    ("certificates", "diag_quadratic_certificate",
     "certificates.diag_quadratic_certificate"),
    ("config", "load_config", "config.load_config"),
]

#: family constructors share one span name; their Potentials get traced
#: callables, so the benchmark's own and cli.build_potential's are covered
CONSTRUCTORS = ["quadratic_diagonal", "quadratic_general", "perturbed_diagonal"]

#: (class, method, span name)
METHODS = [
    ("simulate", "Ensemble", "summary", "simulate.Ensemble.summary"),
    ("friction", "FrictionSpec", "gamma", "friction.gamma"),
    ("friction", "FrictionSpec", "diffusion", "friction.diffusion"),
    ("friction", "FrictionSpec", "gamma_diag", "friction.gamma_diag"),
]

#: Potential fields wrapped on every traced Potential
POTENTIAL_FIELDS = ["grad", "hess", "hess_diag"]

#: every span name the wrappers above record
SPAN_NAMES = ([name for _, _, name in FUNCTIONS] + ["potentials.build"]
              + [name for *_, name in METHODS]
              + [f"potentials.{f}" for f in POTENTIAL_FIELDS])


def _count_cells(tracer, out):
    _best, table = out
    tracer.count("certificates.cells", len(table))
    tracer.count("certificates.feasible",
                 sum(e.certificate is not None for e in table))
    return out


def _count_divergent(tracer, out):
    tracer.count("lyapunov.time_points", len(out["divergent_flags"]))
    tracer.count("lyapunov.divergent", sum(out["divergent_flags"]))
    return out


#: span name -> hook(tracer, result) recording counts at that boundary
COUNTERS = {
    "certificates.optimize_m1": _count_cells,
    "lyapunov.decay_audit": _count_divergent,
}


class Tracer:
    """Records spans while ``active``; inactive wrappers only forward."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, pass id]
        self.counts = defaultdict(lambda: defaultdict(int))   # pass id -> name -> n
        self._stack = []
        self.active = False
        self.pass_id = 0
        self._undo = []
        self._wrapped = set()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        rec = self._open(name) if self.active else None
        try:
            yield
        finally:
            if rec is not None:
                self._close(rec)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def count(self, name, n):
        if self.active:
            self.counts[self.pass_id][name] += n

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, on_return=None):
        """A traced stand-in for fn; on_return(result) may replace the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                out = fn(*args, **kwargs)
            else:
                rec = tracer._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
            return on_return(out) if on_return is not None else out

        self._wrapped.add(traced)
        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self, kinlang):
        """Wrap the public callables listed above, everywhere kinlang binds them."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kinlang" or n.startswith("kinlang.")]
        for mod_name, attr, span_name in FUNCTIONS:
            orig = getattr(getattr(kinlang, mod_name), attr)
            hook = COUNTERS.get(span_name)
            on_return = None if hook is None else functools.partial(hook, self)
            self._rebind(modules, orig, self.wrap(span_name, orig, on_return))
        for attr in CONSTRUCTORS:
            orig = getattr(kinlang.potentials, attr)
            self._rebind(modules, orig,
                         self.wrap("potentials.build", orig, self.potential))
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(getattr(kinlang, mod_name), cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(span_name, orig))

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def potential(self, p):
        """The same Potential with traced grad / hess / hess_diag."""
        if p.grad in self._wrapped:
            return p
        fields = {f: self.wrap(f"potentials.{f}", getattr(p, f))
                  for f in POTENTIAL_FIELDS if getattr(p, f) is not None}
        return dataclasses.replace(p, **fields)

    def restore(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- reading the spans -------------------------------------------------

    def per_pass(self, by_root=False):
        """{pass id: {key: [calls, self seconds, total seconds]}}.

        The key is the span name, or (root span name, span name) with by_root.
        """
        child_time = defaultdict(float)
        root = []
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            # a parent is opened, so appended, before its children
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            key = (self.spans[root[i]][0], name) if by_root else name
            row = out[pid][key]
            row[0] += 1
            row[1] += end - start - child_time[i]
            row[2] += end - start
        return out

    def write(self, path):
        """Every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('["name", "start", "end", "parent", "pass"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

