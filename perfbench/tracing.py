"""Layer tracing from outside the program: spans around public entry points.

Nothing in ``src/`` knows about this module.  A traced run swaps a few
public functions -- the ones :func:`repro.core.pipeline.infer_program`
looks up by module attribute at call time -- for timing wrappers, and
hands the pipeline a :class:`TimingBackend` as ``backend=``.  Both
delegate to the original code, so verdicts and caches are unchanged.

A span is (operation id, name, start, end, parent name).  Every span
keeps the time of its direct children, so a layer's self time is its
duration minus its children.  Cube-backend calls are the hot path (hundreds
of thousands per run): they are aggregated, with their cube shapes, rather
than kept as span records.  Spans are thread-local stacks, so the traced
daemon's worker threads nest correctly.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.arith.backends import CubeBackend, get_backend

#: (module, attribute, span name): the public functions a traced run wraps.
#: ``desugar_program``, ``validate_program`` and the SCC condensation are
#: reached through more than one module, so each binding is wrapped.
WRAPPED_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.analysis.validate", "validate_program", "analysis.validate"),
    ("repro.analysis.prefacts", "validate_program", "analysis.validate"),
    ("repro.analysis.prefacts", "pre_analyze", "analysis.preanalyze"),
    ("repro.core.pipeline", "desugar_program", "lang.desugar"),
    ("repro.analysis.prefacts", "desugar_program", "lang.desugar"),
    ("repro.core.pipeline", "method_sccs", "lang.callgraph"),
    ("repro.store.fingerprint", "scc_dependencies", "lang.callgraph"),
    ("repro.seplog.abstraction", "abstract_program", "seplog.abstract"),
    ("repro.store.fingerprint", "program_store_keys", "store.fingerprint"),
    ("repro.store.specstore", "SpecStore.load", "store.load"),
    ("repro.store.specstore", "SpecStore.save", "store.save"),
    ("repro.core.pipeline", "analyze_scc_group", "core.scc"),
)


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_op = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: (op, name, start, end, parent) for every non-backend span
        self.records: List[Tuple[int, str, float, float, Optional[str]]] = []
        self.cube_atoms = array("I")
        self.cube_vars = array("I")

    # -- operations ----------------------------------------------------------

    def begin_op(self) -> int:
        """Start a new operation on this thread; later spans carry its id."""
        with self._lock:
            self._next_op += 1
            op = self._next_op
        self._local.op = op
        return op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, record: bool = True, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        frame = [name, 0.0]  # name, seconds spent in direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += duration
            with self._lock:
                agg = self.totals.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if record:
                    self.records.append((
                        getattr(self._local, "op", 0), name, start, end,
                        parent[0] if parent is not None else None,
                    ))

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def cube_shape(self, atoms) -> None:
        names = set()
        for atom in atoms:
            names.update(atom.free_vars())
        with self._lock:
            self.cube_atoms.append(len(atoms))
            self.cube_vars.append(len(names))

    # -- read-out ------------------------------------------------------------

    def durations(self, name: str) -> List[Tuple[int, float]]:
        """``(op, seconds)`` of every recorded span called *name*."""
        return [(op, end - start) for op, n, start, end, _ in self.records if n == name]

    def summary(self) -> Dict[str, object]:
        """JSON-ready aggregate: per-name totals, cube shapes, SCC spans."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "cube_atoms": list(self.cube_atoms),
            "cube_vars": list(self.cube_vars),
            "scc_spans": self.durations("core.scc"),
        }


class TimingBackend(CubeBackend):
    """A cube backend that times and measures every call, then delegates.

    The registry accepts instances, so passing one as ``backend=`` routes
    all cube work through it.  The inner backend is the registry's own
    ``reference`` singleton, so memo caches and answers are exactly the
    untraced ones.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.inner = get_backend("reference")
        self.name = self.inner.name
        self.semantics = self.inner.semantics
        self.trust = self.inner.trust
        self.supports_projection = self.inner.supports_projection
        self.supports_model = self.inner.supports_model

    def cube_is_sat(self, atoms):
        self.tracer.cube_shape(atoms)
        return self.tracer.call(
            "backend.sat", self.inner.cube_is_sat, atoms, record=False
        )

    def project_cube(self, atoms, keep=None, eliminate=None):
        self.tracer.cube_shape(atoms)
        return self.tracer.call(
            "backend.project", self.inner.project_cube, atoms,
            keep=keep, eliminate=eliminate, record=False,
        )

    def cube_model(self, atoms):
        self.tracer.cube_shape(atoms)
        return self.tracer.call(
            "backend.model", self.inner.cube_model, atoms, record=False
        )

    def clear_caches(self) -> None:
        self.inner.clear_caches()

    def cache_stats(self):
        return self.inner.cache_stats()


def _resolve(path: str, attr: str):
    owner = importlib.import_module(path)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Patches:
    """Installs the tracing wrappers; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def install(self, backend: Optional[TimingBackend] = None) -> "Patches":
        for path, attr, span in WRAPPED_FUNCTIONS:
            owner, name = _resolve(path, attr)
            self._swap(owner, name, self.tracer.wrap(getattr(owner, name), span))
        # Every request the daemon answers parses through a registry
        # frontend instance; wrap each instance's bound ``parse``.
        from repro.lang.frontends import available_languages, get_frontend

        for language in available_languages():
            frontend = get_frontend(language)
            self._swap(frontend, "parse", self.tracer.wrap(frontend.parse, "lang.parse"))
        if backend is not None:
            self._inject_backend(backend)
        return self

    def _inject_backend(self, backend: TimingBackend) -> None:
        """Route analyses that name no backend through *backend*."""
        import repro.core.pipeline as pipeline

        original = pipeline.infer_program

        @functools.wraps(original)
        def infer_program(*args, **kwargs):
            if kwargs.get("backend") is None and kwargs.get("solver_ctx") is None:
                self.tracer.begin_op()
                kwargs["backend"] = backend
            return original(*args, **kwargs)

        self._swap(pipeline, "infer_program", infer_program)

    def _swap(self, owner, name: str, value) -> None:
        had_own = name in vars(owner)
        self._saved.append((owner, name, vars(owner)[name] if had_own else None))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
