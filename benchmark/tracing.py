"""Per-layer tracing from outside the program.

The tracer replaces each traced function of the ``superqubit`` package with
a wrapper, at every name the program looks it up by: a class attribute such
as ``Supernumber.__mul__``, or every module global of the package that holds
the function (``superstate.graded_kron`` and ``supermatrix.graded_kron`` are
one function under two names).  Spans are aggregated in memory: calls and
self time per span name, and calls per (caller span, span) edge.  A span's
self time is its duration minus the time of the traced spans it called.

A target that no longer exists (renamed or removed by a later change) is
recorded as absent instead of failing the run.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import sys
import time
from contextlib import contextmanager

PACKAGE = "superqubit"

# span name -> (module, attribute path); timed spans
SPANS = (
    ("chsh.fast_tables", "superqubit.chsh", "_fast_tables"),
    ("chsh.minimize", "superqubit.chsh", "minimize"),
    ("chsh.outcome_probs", "superqubit.chsh", "outcome_probs"),
    ("superstate.upsilon", "superqubit.superstate", "upsilon"),
    ("superstate.apply_local", "superqubit.superstate", "apply_local"),
    ("superstate.measure_real", "superqubit.superstate", "measure_real"),
    ("superstate.transition_real", "superqubit.superstate", "transition_real"),
    ("superstate.norm_supernumber", "superqubit.superstate", "norm_supernumber"),
    ("uosp.s_matrix", "superqubit.uosp", "s_matrix"),
    ("uosp.u_matrix", "superqubit.uosp", "u_matrix"),
    ("supermatrix.matmul", "superqubit.supermatrix", "Supermatrix.__matmul__"),
    ("supermatrix.grade_adjoint", "superqubit.supermatrix", "Supermatrix.grade_adjoint"),
    ("supermatrix.graded_kron", "superqubit.supermatrix", "graded_kron"),
    ("grassmann.mul", "superqubit.grassmann", "Supernumber.__mul__"),
    ("grassmann.hash", "superqubit.grassmann", "Supernumber.hash"),
    ("grassmann.modified_rogers", "superqubit.grassmann", "modified_rogers"),
)

# counted, not timed: too frequent for a clock read on each call
COUNTERS = (
    ("grassmann.init", "superqubit.grassmann", "Supernumber.__init__"),
)


class Tracer:
    """Aggregated spans: ``stats[name] = [calls, self_s]``."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.absent: set[str] = set()
        self._stack = [["<root>", 0.0]]  # [span name, time spent in traced children]

    def span(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                stats[0] += 1
                stats[1] += dt - frame[1]
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        patches = []
        try:
            for targets, make in ((SPANS, self.span), (COUNTERS, self.counter)):
                for name, module, path in targets:
                    sites = _sites(module, path)
                    if not sites:
                        self.absent.add(name)
                        continue
                    wrapper = make(name, sites[0][2])
                    for owner, attr, original in sites:
                        setattr(owner, attr, wrapper)
                        patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @contextmanager
    def timing_imports(self):
        """Time the execution of each package module as ``setup.import.<name>``."""
        finder = _ImportTimer(self)
        sys.meta_path.insert(0, finder)
        try:
            yield
        finally:
            sys.meta_path.remove(finder)


def _sites(module_name: str, path: str):
    """Every (owner, attribute, function) through which the program reaches
    ``module_name.path``; empty when the target does not exist."""
    module = sys.modules.get(module_name)
    if module is None:
        return []
    head, _, attr = path.rpartition(".")
    if head:  # class attribute: one site, the class's own dict
        cls = getattr(module, head, None)
        original = vars(cls).get(attr) if isinstance(cls, type) else None
        return [] if original is None else [(cls, attr, original)]
    original = getattr(module, attr, None)
    if original is None:
        return []
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    sites.append((mod, key, original))
    return sites


class _ImportTimer(importlib.abc.MetaPathFinder):
    """Finds package submodules with the normal path finder and wraps their
    loader's ``exec_module`` in a span; nested package imports are children,
    so each module's self time excludes the package modules it imports."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            short = fullname.rpartition(".")[2]
            spec.loader.exec_module = self.tracer.span(
                f"setup.import.{short}", spec.loader.exec_module)
        return spec
