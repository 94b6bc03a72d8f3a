"""Span recorder installed from the benchmark around jordanflow's public calls.

``Tracer.install()`` replaces each function in ``SPANS`` by a wrapper in every
``jordanflow.*`` namespace that binds it, so calls made through the names
``cli`` imports are seen too.  A wrapper records one span (id, parent, job,
name, start, end); a re-entrant call (the recursive ``dumps_canonical``)
folds into the outermost span.  Spans stay in memory until ``write``.
``uninstall()`` restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

#: (span name, module, function).  The stable and the unstable Bruhat cell
#: share one span name, as the per-layer metric counts both.
SPANS = (
    ("cli.main", "jordanflow.cli", "main"),
    ("matrixcore.complex_spectrum", "jordanflow.matrixcore", "complex_spectrum"),
    ("matrixcore.matrix_exp", "jordanflow.matrixcore", "matrix_exp"),
    ("matrixcore.principal_log", "jordanflow.matrixcore", "principal_log"),
    ("jordan.additive_jordan", "jordanflow.jordan", "additive_jordan"),
    ("jordan.multiplicative_jordan", "jordanflow.jordan", "multiplicative_jordan"),
    ("flags.rate_filtration", "jordanflow.flags", "rate_filtration"),
    ("flags.enumerate_morse_components", "jordanflow.flags", "enumerate_morse_components"),
    ("flags.bruhat_cell", "jordanflow.flags", "bruhat_cell"),
    ("flags.bruhat_cell", "jordanflow.flags", "unstable_bruhat_cell"),
    ("flags.component_defect", "jordanflow.flags", "component_defect"),
    ("flags.nearest_component", "jordanflow.flags", "nearest_component"),
    ("flags.simulate_flag", "jordanflow.flags", "simulate_flag"),
    ("flags.height_lyapunov", "jordanflow.flags", "height_lyapunov"),
    ("projective.chain_oracle", "jordanflow.projective", "chain_oracle"),
    ("floquet.integrate_fundamental", "jordanflow.floquet", "integrate_fundamental"),
    ("floquet.floquet_data", "jordanflow.floquet", "floquet_data"),
    ("floquet.periodic_factor", "jordanflow.floquet", "periodic_factor"),
    ("report.dumps_canonical", "jordanflow.report", "dumps_canonical"),
)

#: span -> workloads on which it must fire
EXPECTED = {
    "matrixcore.complex_spectrum": ["spectral-census", "chain-floquet"],
    "matrixcore.matrix_exp": ["spectral-census", "chain-floquet"],
    "matrixcore.principal_log": ["chain-floquet"],
    "jordan.additive_jordan": ["spectral-census", "chain-floquet"],
    "jordan.multiplicative_jordan": ["spectral-census", "chain-floquet"],
    "flags.rate_filtration": ["spectral-census", "chain-floquet"],
    "flags.enumerate_morse_components": ["spectral-census", "chain-floquet"],
    "flags.bruhat_cell": ["spectral-census"],
    "flags.component_defect": ["spectral-census"],
    "flags.nearest_component": ["spectral-census"],
    "flags.simulate_flag": ["spectral-census"],
    "flags.height_lyapunov": ["spectral-census"],
    "projective.chain_oracle": ["chain-floquet"],
    "floquet.integrate_fundamental": ["chain-floquet"],
    "floquet.floquet_data": ["chain-floquet"],
    "floquet.periodic_factor": ["chain-floquet"],
    "report.dumps_canonical": ["spectral-census", "chain-floquet"],
    "cli.main": ["spectral-census", "chain-floquet"],
}

COLUMNS = ["id", "parent", "job", "name", "start", "end"]

#: span name -> (counter, size of one call's result)
RESULT_COUNTERS = {
    "report.dumps_canonical": ("report_bytes", lambda out: len(out.encode())),
    "flags.enumerate_morse_components": ("components_enumerated", len),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, job, name, start, end]
        self.stack = []
        self.job = None
        self.depth = {}
        self.counts = {
            "schur": 0,
            "coefficient_evals": 0,
            "principal_log_errors": 0,
            "report_bytes": 0,
            "components_enumerated": 0,
        }
        self.chain_peak = []
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self.stack, self.depth
        depth[name] = 0
        clock = time.perf_counter
        measure = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1][0] if stack else None, self.job, name, clock(), None]
            spans.append(rec)
            stack.append(rec)
            depth[name] = 1
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if name == "matrixcore.principal_log":
                    self.counts["principal_log_errors"] += 1
                raise
            finally:
                rec[5] = clock()
                stack.pop()
                depth[name] = 0
            if measure:
                self.counts[measure[0]] += measure[1](out)
            return out

        return wrapper

    def _wrap_peak(self, fn):
        """chain_oracle: record the tracemalloc peak inside the call."""
        peaks = self.chain_peak

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import scipy.linalg

        for _, modname, _ in SPANS:
            importlib.import_module(modname)
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "jordanflow" or k.startswith("jordanflow."))
        ]
        for name, modname, attr in SPANS:
            original = getattr(sys.modules[modname], attr)
            wrapped = original
            if name == "projective.chain_oracle":
                wrapped = self._wrap_peak(wrapped)
            wrapped = self._wrap(name, wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        self._set(scipy.linalg, "schur", self._counter("schur", scipy.linalg.schur))
        coef = sys.modules["jordanflow.floquet"].PeriodicCoefficient
        self._set(coef, "value", self._counter("coefficient_evals", coef.value))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def snapshot(self):
        """Counters and span count, to difference over one pass."""
        return {
            "spans": len(self.spans),
            "chain_peak": len(self.chain_peak),
            **self.counts,
        }

    def layer_totals(self, since, until):
        """calls and self seconds per span name over spans[since:until].
        Self time is a span's duration minus its direct children's."""
        spans = self.spans[since["spans"]:until["spans"]]
        child = {}
        for s in spans:
            if s[1] is not None:
                child[s[1]] = child.get(s[1], 0.0) + (s[5] - s[4])
        out = {}
        for s in spans:
            calls, self_s = out.get(s[3], (0, 0.0))
            out[s[3]] = (calls + 1, self_s + (s[5] - s[4]) - child.get(s[0], 0.0))
        return out

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({**meta, "columns": COLUMNS, "spans": self.spans}, fh)
