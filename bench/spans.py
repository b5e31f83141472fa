"""Spans around calls into llespec's layers, for the traced benchmark run.

The package is not edited. Each traced function is replaced, for the length
of a `Tracer.installed()` block, by a wrapper placed in every module
namespace where the package looks the name up (for example `beta2` calls
`build_matrices` through `spectral_solver`'s globals, `recurrence_coefficients`
through `loewner_system`'s). Spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from array import array

import numpy as np

from llespec import cli, fuchsian_series, loewner_system, spectral_solver

# (span name, function name, modules whose globals are patched)
_TRACED = (
    ("loewner_system.build_matrices", "build_matrices", (loewner_system, spectral_solver, cli)),
    ("loewner_system.recurrence_coefficients", "recurrence_coefficients", (loewner_system,)),
    ("loewner_system.charpoly_eval", "charpoly_eval", (spectral_solver,)),
    ("spectral_solver.eigen_spectrum", "eigen_spectrum", (spectral_solver, cli)),
    ("spectral_solver.beta2", "beta2", (spectral_solver, cli)),
    ("spectral_solver.max_real_root", "max_real_root_detailed", (spectral_solver,)),
    ("fuchsian_series.series_solution", "series_solution", (fuchsian_series,)),
    ("fuchsian_series.ladder", "evaluate_theta_with_tail", (fuchsian_series,)),
    ("fuchsian_series.ladder", "angular_mean_rho", (fuchsian_series,)),
    ("fuchsian_series.blowup_exponent", "blowup_exponent", (fuchsian_series, cli)),
)


def _on_eigen_spectrum(tracer, args, out):
    m = args[0]
    tracer.count("spectral_solver.eigen_spectrum.n_sum", m.n)
    # the solver's documented choice: dense QR unless every product a_n > 0
    if m.n > 1 and not np.all(m.b_sub * m.b_super > 0):
        tracer.count("spectral_solver.eigen_spectrum.dense_calls")


def _on_max_real_root(tracer, args, out):
    if out.used_fallback:
        tracer.count("spectral_solver.max_real_root.fallback_calls")


def _on_series_solution(tracer, args, out):
    rows, n = out.coefficients.shape
    tracer.count("fuchsian_series.series_solution.rows", rows)
    tracer.count("fuchsian_series.series_solution.bytes_computed", rows * n * 8)


_ON_RETURN = {
    "eigen_spectrum": _on_eigen_spectrum,
    "max_real_root_detailed": _on_max_real_root,
    "series_solution": _on_series_solution,
}


class Tracer:
    """Collects spans (name, parent, start, end) and named counters."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    # ---------------------------------------------------------- recording

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        # a pool thread's outermost span belongs to the main thread's open span
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
        stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + k

    def _wrap(self, span_name, fn, on_return):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_return is not None:
                on_return(self, args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced names into the package; restore them on exit."""
        saved = []
        try:
            for span_name, attr, modules in _TRACED:
                wrapper = None
                for mod in modules:
                    fn = getattr(mod, attr)
                    if wrapper is None:
                        wrapper = self._wrap(span_name, fn, _ON_RETURN.get(attr))
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # ---------------------------------------------------------- analysis

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (the span minus
        the union of its child spans' intervals)."""
        n = len(self.start)
        children: dict[int, list[int]] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children.setdefault(p, []).append(i)
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            s, e = self.start[i], self.end[i]
            covered = 0.0
            kids = children.get(i)
            if kids:
                # children of a span may overlap when they run in pool threads
                ivs = sorted((max(self.start[k], s), min(self.end[k], e)) for k in kids)
                cur_s, cur_e = ivs[0]
                for ks, ke in ivs[1:]:
                    if ks > cur_e:
                        covered += max(0.0, cur_e - cur_s)
                        cur_s, cur_e = ks, ke
                    else:
                        cur_e = max(cur_e, ke)
                covered += max(0.0, cur_e - cur_s)
            rec = out.setdefault(
                self._names[self.name_id[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            rec["calls"] += 1
            rec["total_s"] += e - s
            rec["self_s"] += (e - s) - covered
        return out

    def write(self, path) -> None:
        """Write every span and counter as one JSON document."""
        doc = {
            "names": self._names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [self.name_id[i], self.parent[i], self.start[i], self.end[i]]
                for i in range(len(self.start))
            ],
            "counters": self.counters,
            "summary": self.summary(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
