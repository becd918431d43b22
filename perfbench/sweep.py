"""In-process sweeps: every program analyzed cold, one after another.

This is the CLI and corpus-sweep path: ``infer_program`` with the
fig-table settings, no pre-analysis, no store, one job.  Each analysis
starts from the bench runner's cold-start protocol -- caches cleared,
cyclic garbage collected, private fresh-name counters, automatic garbage
collection held for the analysis -- so its cost does not depend on what
ran before it.  Exceptions escaping ``infer_program`` are recorded as
failures, never turned into an ``U`` verdict.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import repro.core.pipeline as pipeline
from repro.arith.solver import clear_caches

from inputs import Op

MAX_ITER = 8
TIME_BUDGET = 15.0

#: A cycle of inputs, each with its parsed program.
Cycle = Sequence[Tuple[Op, object]]


@dataclass
class Outcome:
    """What one operation delivered."""

    op: Op
    seconds: float
    verdict: Optional[str] = None     # "Y" / "N" / "U"; None when failed
    error: Optional[str] = None
    solver: Optional[Dict[str, int]] = None
    trace_op: int = 0


def parsed(cycles: Iterable[Sequence[Op]]) -> Iterator[Cycle]:
    """Each cycle of *cycles* with its programs parsed."""
    for cycle in cycles:
        yield [(op, op.program()) for op in cycle]


def analyze(op: Op, program, backend=None, tracer=None) -> Outcome:
    clear_caches()
    gc.collect()
    trace_op = tracer.begin_op() if tracer is not None else 0
    gc.disable()
    start = time.perf_counter()
    try:
        result = pipeline.infer_program(
            program, max_iter=MAX_ITER, time_budget=TIME_BUDGET,
            backend=backend, isolate_names=True, language=op.language,
        )
        verdict = str(result.verdict(op.entry))
        seconds = time.perf_counter() - start
    except Exception as exc:
        seconds = time.perf_counter() - start
        return Outcome(op, seconds, error=f"{type(exc).__name__}: {exc}",
                       trace_op=trace_op)
    finally:
        gc.enable()
    stats = result.solver_stats.as_dict() if result.solver_stats else {}
    return Outcome(op, seconds, verdict, solver=stats, trace_op=trace_op)


def _windowed(cycles: Iterator[Cycle], seconds: float) -> Iterator[Cycle]:
    """Whole cycles until *seconds* of measured time have passed.  Drawing and parsing a cycle is
    not measured: the caller times only what it does with the cycle.
    Everything alive when a cycle starts -- its inputs included -- is
    frozen out of the collector, so each operation's ``gc.collect``
    walks only what the analyses left behind."""
    measured = 0.0
    for cycle in cycles:
        if measured >= seconds:
            return
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        yield cycle
        measured += time.perf_counter() - start


def sweep(cycles: Iterator[Cycle], seconds: float) -> tuple:
    """Analyze whole cycles until *seconds* have passed.  Returns
    ``(outcomes, measured_seconds)``.  Stopping only between cycles keeps
    every run's input mix the same."""
    outcomes: List[Outcome] = []
    wall = 0.0
    for cycle in _windowed(cycles, seconds):
        start = time.perf_counter()
        outcomes.extend(analyze(op, program) for op, program in cycle)
        wall += time.perf_counter() - start
    return outcomes, wall


def paired_sweep(cycles: Iterator[Cycle], seconds: float, patches, backend, tracer) -> tuple:
    """Analyze every op twice, untraced and traced, alternating which
    goes first, over whole cycles until *seconds* have passed.  Returns
    ``(untraced, traced)`` outcomes.  Pairing on the same program in the
    same minute keeps program mix and machine drift out of the tracing
    overhead; alternating the order cancels any benefit of going second.
    The traced copy is parsed under the patches, so parsing is spanned."""
    untraced: List[Outcome] = []
    traced: List[Outcome] = []
    for cycle in _windowed(cycles, seconds):
        for k, (op, program) in enumerate(cycle):
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if not with_trace:
                    untraced.append(analyze(op, program))
                    continue
                patches.install()
                try:
                    traced.append(analyze(op, op.program(), backend, tracer))
                finally:
                    patches.remove()
    return untraced, traced
