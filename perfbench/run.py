#!/usr/bin/env python3
"""The repository benchmark: time to verdict, decided share and soundness.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 40 --trace 0

Workloads (why each exists: ``NOTES.md``):

* ``corpus-cold``  -- generated known-verdict programs, each analyzed cold
  in this process (the CLI and corpus-sweep user);
* ``serve-mixed``  -- a closed loop of two clients against the analysis
  daemon: exact repeats, label-preserving edits and fresh programs;
* ``paper-suite``  -- every registry program (fig10/fig11 categories and
  the ST controllers), analyzed cold; one pass takes about 70 s.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs every operation with spans around each layer's public
entry points as well and reports the per-layer metrics plus the tracing
overhead, and no end-to-end metrics: sweeps analyze each program twice, untraced and traced, in
alternating order; the service runs half the window against a plain
daemon, then the same requests against a traced one.
Every definite verdict is scored against ground truth and every dedup
join/hit body is compared with its leader's; any mismatch exits 1.  The
last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus-cold", "serve-mixed", "paper-suite")
SETUP_SAMPLES = 3


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and
    its name.  Below eleven samples no percentile qualifies: the maximum
    is reported and named as such."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, "none (n=0)"
    if n <= 10:
        return ordered[-1], f"max (n={n}, fewer than 11 samples)"
    pct = math.floor(100.0 * (n - 10) / n)
    return ordered[n - 11], f"p{pct} (n={n}, 10 beyond)"


def quantile(values: Sequence[int], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- set-up -------------------------------------------------------------------


class Prepared:
    """A workload's set-up: its first inputs, parsed, and (for the service)
    its daemon.  Later inputs are drawn as the run goes, outside the
    measured time."""

    def __init__(self, workload: str, seed: int):
        import inputs
        from sweep import parsed

        self.seed = seed
        self.daemon = None
        if workload == "serve-mixed":
            self.pool = inputs.serve_pool()
            return
        draw = inputs.corpus_cycles if workload == "corpus-cold" else inputs.paper_cycles
        cycles = parsed(draw(seed))
        self.cycles = itertools.chain([next(cycles)], cycles)

    def passes(self):
        """The service requests, pass by pass from the first, without end."""
        import inputs

        return inputs.serve_passes(self.seed, self.pool)

    def start_daemon(self, workdir: Path, trace_out: Optional[Path] = None):
        from service import Daemon

        self.daemon = Daemon(ROOT, workdir, trace_out)
        self.daemon.start()
        return self.daemon

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()


def setup_probe(args, workdir: Path) -> int:
    """Child side of a set-up sample: set up, say ``ready``, wait for
    stdin to close, tear down."""
    prep = Prepared(args.workload, args.seed)
    try:
        if args.workload == "serve-mixed":
            prep.start_daemon(workdir)
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        prep.close()
    return 0


def measure_setup(args, workdir: Path) -> List[float]:
    """Seconds from spawning a fresh interpreter to a finished set-up
    (imports, drawing and parsing the first inputs, daemon up to
    ``/healthz``)."""
    samples = []
    for k in range(SETUP_SAMPLES):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir()
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--workdir", str(probe_dir)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            child.stdin.close()
            child.stdout.close()
            try:
                code = child.wait(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                raise
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return samples


# -- scoring ------------------------------------------------------------------


def soundness_violations(done: Sequence[Tuple[object, str]], flip: bool) -> List[str]:
    """Score ``(op, verdict)`` pairs with :func:`repro.corpus.score`; with
    *flip*, the first definite answer's label is inverted first."""
    from repro.core.pipeline import Verdict
    from repro.corpus import CorpusInstance, inject_flip, score

    instances = [
        CorpusInstance(id=f"{k}:{op.id}", source=op.source, language=op.language,
                       entry=op.entry, label=op.label)
        for k, (op, _) in enumerate(done)
    ]
    verdicts = [Verdict(v) for _, v in done]
    if flip:
        definite = [i for i, v in zip(instances, verdicts) if v is not Verdict.UNKNOWN]
        if definite:
            instances = inject_flip(instances, definite[0].id)
    return [v.render() for v in score("perfbench", instances, verdicts).violations]


# -- sweeps -------------------------------------------------------------------


def solver_sum(dicts) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for d in dicts:
        for k, v in (d or {}).items():
            total[k] = total.get(k, 0) + v
    return total


def run_sweep(args, prep: Prepared) -> Dict[str, object]:
    from sweep import sweep

    if args.trace:
        return traced_sweep(args, prep)
    outcomes, wall = sweep(prep.cycles, args.seconds)
    return {"outcomes": outcomes, "wall": wall, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_sweep(args, prep: Prepared) -> Dict[str, object]:
    """Every op untraced and traced, in pairs (``sweep.paired_sweep``)."""
    from sweep import TIME_BUDGET, paired_sweep
    from tracing import Patches, TimingBackend, Tracer

    tracer = Tracer()
    untraced, traced = paired_sweep(
        prep.cycles, args.seconds, Patches(tracer), TimingBackend(tracer), tracer,
    )
    layers = layer_metrics(tracer.summary(), len(traced),
                           solver_sum(o.solver for o in traced))
    budget_ops = {op for op, d in tracer.durations("core.scc") if d >= TIME_BUDGET}
    layers["share.budget_hit_programs"] = ratio(
        sum(1 for o in traced if o.trace_op in budget_ops), len(traced))
    layers["trace.overhead_pct"] = 100.0 * (
        sum(o.seconds for o in traced) / sum(o.seconds for o in untraced) - 1.0)
    return {"outcomes": untraced, "traced": {"outcomes": traced, "layers": layers}}


# -- service ------------------------------------------------------------------


def run_service(args, prep: Prepared, workdir: Path) -> Dict[str, object]:
    from service import closed_loop

    if not args.trace:
        replies, wall, _ = closed_loop(prep.daemon, prep.passes(), args.seconds)
        return {"outcomes": replies, "wall": wall,
                "peak_rss_mb": prep.daemon.peak_rss_mb()}
    # half the window against the plain daemon, then the same passes
    # against a traced one
    replies, wall, passes = closed_loop(prep.daemon, prep.passes(), args.seconds / 2)
    prep.close()
    trace_dir = workdir / "traced"
    trace_dir.mkdir()
    trace_out = trace_dir / "trace.json"
    daemon = prep.start_daemon(trace_dir, trace_out)
    traced, traced_wall, _ = closed_loop(daemon, prep.passes(), 0.0, max_passes=passes)
    traced_stats = daemon.stats()
    prep.close()
    summary = json.loads(trace_out.read_text())
    layers = layer_metrics(summary, len(traced), traced_stats["solver"])
    layers.update(serve_metrics(traced, traced_stats))
    layers["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
    return {"outcomes": replies, "traced": {"outcomes": traced, "layers": layers}}


def serve_metrics(replies, stats) -> Dict[str, float]:
    dedup = stats["dedup"]
    by_role = {role: [r for r in replies if r.ok and r.role == role]
               for role in ("leader", "join", "hit")}
    leaders = by_role["leader"]
    answered = sum(dedup[k] for k in ("leaders", "joins", "hits"))
    out = {
        "serve.leaders": dedup["leaders"],
        "serve.joins": dedup["joins"],
        "serve.hits": dedup["hits"],
        "serve.dedup_ratio": ratio(dedup["joins"] + dedup["hits"], answered),
        "serve.queue_rejected": stats["queue"]["rejected_full"],
        "serve.hit_p50_s": median([r.seconds for r in by_role["hit"]]),
        "serve.leader_p50_s": median([r.seconds for r in leaders]),
        "serve.leader_overhead_p50_s": median(
            [r.seconds - r.payload()["analysis_seconds"] for r in leaders]),
    }
    for role, group in by_role.items():
        out[f"share.{role}"] = ratio(len(group), sum(r.ok for r in replies))
    return out


# -- per-layer metrics -----------------------------------------------------------

#: Per-layer metrics in report order: name -> unit.  Times and work counts
#: are per operation of the traced phase (``trace.ops`` is the base).
LAYER_UNITS = {
    "backend.sat_calls": "count/op", "backend.sat_s": "s/op",
    "backend.project_calls": "count/op", "backend.project_s": "s/op",
    "backend.model_s": "s/op",
    "backend.cube_atoms_p50": "count", "backend.cube_atoms_p99": "count",
    "backend.cube_vars_p50": "count", "backend.cube_vars_p99": "count",
    "arith.sat_queries": "count/op", "arith.sat_hit_ratio": "ratio",
    "arith.entail_queries": "count/op", "arith.entail_hit_ratio": "ratio",
    "arith.project_queries": "count/op", "arith.fm_eliminations": "count/op",
    "arith.evictions": "count/op",
    "core.scc_s": "s/op", "core.self_s": "s/op", "core.sccs": "count/op",
    "core.budget_hits": "count",
    "seplog.abstract_s": "s/op",
    "analysis.validate_s": "s/op", "analysis.preanalyze_s": "s/op",
    "analysis.quick_sccs": "count/op", "analysis.seeded": "count/op",
    "lang.parse_s": "s/op", "lang.desugar_s": "s/op", "lang.callgraph_s": "s/op",
    "store.fingerprint_s": "s/op", "store.load_s": "s/op", "store.save_s": "s/op",
    "store.hits": "count/op", "store.misses": "count/op", "store.hit_ratio": "ratio",
    "serve.leaders": "count", "serve.joins": "count", "serve.hits": "count",
    "serve.dedup_ratio": "ratio", "serve.queue_rejected": "count",
    "serve.hit_p50_s": "s", "serve.leader_p50_s": "s",
    "serve.leader_overhead_p50_s": "s",
    "share.term": "ratio", "share.nonterm": "ratio",
    "share.budget_hit_programs": "ratio",
    "share.fresh": "ratio", "share.edit": "ratio", "share.repeat": "ratio",
    "share.leader": "ratio", "share.join": "ratio", "share.hit": "ratio",
    "trace.ops": "count", "trace.overhead_pct": "%",
}


def layer_metrics(summary, n_ops: int, solver: Dict[str, int]) -> Dict[str, float]:
    from sweep import TIME_BUDGET

    totals = summary["totals"]

    def seconds(name: str) -> float:
        return ratio(totals.get(name, [0, 0.0, 0.0])[1], n_ops)

    def calls(name: str) -> float:
        return ratio(totals.get(name, [0, 0.0, 0.0])[0], n_ops)

    hits, misses = solver.get("store_hits", 0), solver.get("store_misses", 0)
    atoms, nvars = summary["cube_atoms"], summary["cube_vars"]
    return {
        "backend.sat_calls": calls("backend.sat"),
        "backend.sat_s": seconds("backend.sat"),
        "backend.project_calls": calls("backend.project"),
        "backend.project_s": seconds("backend.project"),
        "backend.model_s": seconds("backend.model"),
        "backend.cube_atoms_p50": quantile(atoms, 0.5),
        "backend.cube_atoms_p99": quantile(atoms, 0.99),
        "backend.cube_vars_p50": quantile(nvars, 0.5),
        "backend.cube_vars_p99": quantile(nvars, 0.99),
        "arith.sat_queries": ratio(solver.get("sat_queries", 0), n_ops),
        "arith.sat_hit_ratio": ratio(solver.get("sat_hits", 0), solver.get("sat_queries", 0)),
        "arith.entail_queries": ratio(solver.get("entail_queries", 0), n_ops),
        "arith.entail_hit_ratio": ratio(
            solver.get("entail_hits", 0), solver.get("entail_queries", 0)),
        "arith.project_queries": ratio(solver.get("project_queries", 0), n_ops),
        "arith.fm_eliminations": ratio(solver.get("fm_eliminations", 0), n_ops),
        "arith.evictions": ratio(solver.get("evictions", 0), n_ops),
        "core.scc_s": seconds("core.scc"),
        "core.self_s": ratio(totals.get("core.scc", [0, 0.0, 0.0])[2], n_ops),
        "core.sccs": calls("core.scc"),
        "core.budget_hits": sum(1 for _, d in summary["scc_spans"] if d >= TIME_BUDGET),
        "seplog.abstract_s": seconds("seplog.abstract"),
        "analysis.validate_s": seconds("analysis.validate"),
        "analysis.preanalyze_s": seconds("analysis.preanalyze"),
        "analysis.quick_sccs": ratio(solver.get("pre_quick", 0), n_ops),
        "analysis.seeded": ratio(solver.get("pre_seeded", 0), n_ops),
        "lang.parse_s": seconds("lang.parse"),
        "lang.desugar_s": seconds("lang.desugar"),
        "lang.callgraph_s": seconds("lang.callgraph"),
        "store.fingerprint_s": seconds("store.fingerprint"),
        "store.load_s": seconds("store.load"),
        "store.save_s": seconds("store.save"),
        "store.hits": ratio(hits, n_ops),
        "store.misses": ratio(misses, n_ops),
        "store.hit_ratio": ratio(hits, hits + misses),
        "trace.ops": n_ops,
    }


# -- report -------------------------------------------------------------------

END_TO_END = {
    "verdicts_per_s": "1/s", "verdict_p50_s": "s", "verdict_tail_s": "s",
    "decided_share": "ratio", "unsound_count": "count", "failed_share": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def summarize(args, report, setup: List[float], inject: Optional[str]) -> Dict[str, object]:
    """Score, check and condense one run into the printed result."""
    outcomes = list(report["outcomes"])
    traced = report.get("traced")
    if traced is not None:
        outcomes += traced["outcomes"]
    service = args.workload == "serve-mixed"
    done = [(o.op, o.verdict) for o in outcomes if o.verdict is not None]
    failures = [o for o in outcomes if o.verdict is None]
    violations = soundness_violations(done, inject == "flip")
    mismatches = []
    if service:
        from service import dedup_mismatches

        # one daemon per phase: bodies are compared within a phase only
        phases = [report["outcomes"]] + ([traced["outcomes"]] if traced else [])
        if inject == "dedup":
            phases[0] = corrupt_one_hit(phases[0])
        mismatches = [m for phase in phases for m in dedup_mismatches(phase)]

    measured = report["outcomes"]
    shares = input_shares(args.workload, measured)
    strata: Dict[str, List[float]] = {}
    for o in measured:
        strata.setdefault(o.op.stratum, []).append(o.seconds)
    result = {
        "attempted": len(outcomes), "failed": len(failures),
        "correct": not violations and not mismatches,
        "end_to_end": None, "shares": shares, "violations": violations,
        "mismatches": mismatches, "failures": failures,
        "layers": dict(traced["layers"], **shares) if traced else None,
        "n_measured": len(measured), "strata": strata,
    }
    if traced is None:
        ok_latencies = [o.seconds for o in measured if o.verdict is not None]
        n_decided = sum(1 for o in measured if o.verdict in ("Y", "N"))
        tail_value, result["tail_name"] = tail(ok_latencies)
        result["setup_samples"] = setup
        result["end_to_end"] = {
            "verdicts_per_s": ratio(len(ok_latencies), report["wall"]),
            "verdict_p50_s": median(ok_latencies),
            "verdict_tail_s": tail_value,
            "decided_share": ratio(n_decided, len(measured)),
            "unsound_count": len(violations),
            "failed_share": ratio(len(measured) - len(ok_latencies), len(measured)),
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": median(setup),
        }
    return result


def failure_reason(outcome) -> str:
    if outcome.error is not None:
        return outcome.error
    return f"HTTP {outcome.status} {outcome.body[:300].decode('utf-8', 'replace')}"


def corrupt_one_hit(replies):
    """Self-test of the dedup check: alter the first join/hit body."""
    from dataclasses import replace

    for k, r in enumerate(replies):
        if r.ok and r.role in ("join", "hit"):
            payload = r.payload()
            payload["analysis_seconds"] = -1.0
            body = json.dumps(payload, sort_keys=True).encode()
            return replies[:k] + [replace(r, body=body)] + replies[k + 1:]
    return replies


def input_shares(workload: str, measured) -> Dict[str, float]:
    from repro.corpus import Label

    n = len(measured)
    shares = {
        "share.term": ratio(sum(o.op.label is Label.TERM for o in measured), n),
        "share.nonterm": ratio(sum(o.op.label is Label.NONTERM for o in measured), n),
    }
    if workload == "serve-mixed":
        for kind in ("fresh", "edit", "repeat"):
            shares[f"share.{kind}"] = ratio(sum(o.op.kind == kind for o in measured), n)
    return shares


def emit(args, result: Dict[str, object]) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    print(f"workload {args.workload}  seed {args.seed}  window {args.seconds}s  "
          f"trace {args.trace}  ops {result['n_measured']} measured, "
          f"{result['attempted']} attempted in all")
    if result["end_to_end"] is not None:
        for name, value in result["end_to_end"].items():
            note = f"  [{result['tail_name']}]" if name == "verdict_tail_s" else ""
            print(f"  {name:<16} {value:12.6g} {END_TO_END[name]}{note}")
        print("  setup samples (s): "
              + ", ".join(f"{s:.3f}" for s in result["setup_samples"]))
    for name, value in result["shares"].items():
        print(f"  {name:<16} {value:12.4f} of measured ops")
    for stratum, times in sorted(result["strata"].items()):
        print(f"  stratum {stratum:<16} n={len(times):<4} mean latency "
              f"{statistics.fmean(times):.4f} s")
    for o in result["failures"]:
        print(f"  FAILED {o.op.id}: {failure_reason(o)}")
    for line in result["violations"] + [f"DEDUP BYTE MISMATCH: {m}" for m in result["mismatches"]]:
        print(f"  {line}")
    if result["layers"] is not None:
        print("  per-layer (traced phase; 0 where the layer is idle on this workload):")
        for name in LAYER_UNITS:
            print(f"    {name:<30} {result['layers'].get(name, 0.0):14.6g} {LAYER_UNITS[name]}")
    if args.trace:
        names, values = LAYER_UNITS, result["layers"]
    else:
        names = {n: u for n, u in END_TO_END.items() if n in BENCH_END_TO_END}
        values = result["end_to_end"]
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in names.items()}
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))


#: End-to-end metrics listed in ``BENCHMARK.json``.  ``unsound_count`` and
#: ``failed_share`` are 0 on a healthy run, so they are enforced through
#: ``correct`` / ``failed`` instead.  The latency percentiles of short
#: operations moved by about 20% between reruns of identical work on the
#: development VM, more than any bound allows, so they are printed but not
#: listed (``NOTES.md``).
BENCH_END_TO_END = ("verdicts_per_s", "decided_share", "peak_rss_mb", "setup_s")


# -- main ---------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", choices=("flip", "dedup"),
        help="self-test: flip one ground-truth label, or alter one dedup "
        "hit body, before checking (the run must then exit 1)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "pipeline.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    if args.setup_probe:
        return setup_probe(args, Path(args.workdir))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    prep = None
    try:
        setup = [] if args.trace else measure_setup(args, workdir)
        prep = Prepared(args.workload, args.seed)
        if args.workload == "serve-mixed":
            prep.start_daemon(workdir)
            report = run_service(args, prep, workdir)
        else:
            report = run_sweep(args, prep)
    finally:
        if prep is not None:
            prep.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = summarize(args, report, setup, args.inject)
    emit(args, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
