"""In-memory spans for the traced run.

Wrappers go onto the module attributes through which the library calls its
own layers, so the library itself is unchanged: ``bracket_search`` and
``bisect_a_star`` reach ``classify``, ``integrate``, ``J_along``, ``find_r_G``
and ``estimate_l`` through the globals of ``selfsim.classify``, and
``run_to_extinction`` reaches ``weighted_functionals`` and ``fit_extinction``
through the globals of ``selfsim.pde``. Modules are looked up with
``importlib`` because the package re-exports the function ``classify`` under
the name of its module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# (module, attribute, span name)
TARGETS = (
    ("selfsim.classify", "integrate", "profile_ode.integrate"),
    ("selfsim.classify", "J_along", "pohozaev.J_along"),
    ("selfsim.classify", "find_r_G", "pohozaev.find_r_G"),
    ("selfsim.classify", "classify", "classify.classify"),
    ("selfsim.classify", "estimate_l", "classify.estimate_l"),
    ("selfsim.pde", "weighted_functionals", "pde.weighted_functionals"),
    ("selfsim.pde", "fit_extinction", "pde.fit_extinction"),
)


def ode_steps(traj) -> int:
    """Accepted integrator steps of a trajectory: one dense-output segment each."""
    dense = traj.dense
    return sum(len(sol.ts) - 1 for sol in (dense.sol_near, dense.sol_far) if sol is not None)


class Tracer:
    """Spans ``[name, start, end, parent]`` and counters, kept until the run ends.

    While inactive, ``span`` is a null context and no wrapper is installed, so
    untraced timings carry no tracing cost.
    """

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.r_ends: list[float] = []
        self.absent: set[str] = set()
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.active else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            self._observe(name, out)
            return out

        return traced

    def _observe(self, name: str, out) -> None:
        if name == "classify.classify":
            self.counts[f"classify.verdict.{out.verdict}"] += 1
        elif name == "profile_ode.integrate":
            self.r_ends.append(out.r_end)
            if "profile_ode.ode_steps" not in self.absent:
                try:
                    self.counts["profile_ode.ode_steps"] += ode_steps(out)
                except AttributeError:
                    self.absent.add("profile_ode.ode_steps")

    @contextlib.contextmanager
    def tracing(self):
        """Install the wrappers and record spans for the duration of the block."""
        saved = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                self.absent.add(name)
                continue
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(name, saved[-1][2]))
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child[i])
        return out

    def children_of(self, parent_name: str, name: str) -> int:
        """Number of ``name`` spans opened directly under a ``parent_name`` span."""
        return sum(
            1
            for span_name, _, _, parent in self.spans
            if span_name == name and parent >= 0 and self.spans[parent][0] == parent_name
        )
