"""Sharded bench runner: parent-enforced timeouts, deterministic ordering,
sequential/parallel outcome parity, and the SIGALRM bugfix regressions."""

import signal
import time

import pytest

from repro.bench.programs import BenchProgram, by_name
from repro.bench.runner import (
    AnalysisTimeout,
    BenchOutcome,
    HipTNTPlus,
    _bench_spec,
    _with_timeout,
    run_tool,
    run_tools_sharded,
)
from repro.core.pipeline import Verdict

_FAST = ("foo-paper", "plain-countdown", "even-odd-mutual")


def _hip_pairs(names):
    out = []
    for n in names:
        bench = by_name(n)
        out.append((HipTNTPlus(bench.main), bench))
    return out


class TestShardedParity:
    def test_jobs2_outcomes_equal_sequential(self):
        """Verdicts, soundness and per-run solver statistics of a sharded
        sweep are identical to the sequential sweep (run_tool's cold-start
        protocol makes each run history-independent)."""
        seq = run_tools_sharded(_hip_pairs(_FAST), timeout=60.0, jobs=1)
        par = run_tools_sharded(_hip_pairs(_FAST), timeout=60.0, jobs=2)
        assert [o.program for o in par] == list(_FAST)  # task order kept
        for s, p in zip(seq, par):
            assert (s.program, s.tool) == (p.program, p.tool)
            assert s.verdict == p.verdict
            assert s.sound == p.sound
            assert s.solver_stats == p.solver_stats

    def test_expected_verdicts(self):
        par = run_tools_sharded(_hip_pairs(_FAST), timeout=60.0, jobs=2)
        verdicts = {o.program: o.verdict for o in par}
        assert verdicts["foo-paper"] is Verdict.NONTERMINATING
        assert verdicts["plain-countdown"] is Verdict.TERMINATING
        assert verdicts["even-odd-mutual"] is Verdict.NONTERMINATING


class TestShardTimeouts:
    def test_one_shard_times_out_others_still_report(self):
        """A worker killed at its deadline is recorded as T/O in its task
        slot; the remaining shards report normally."""
        slow = by_name("offset-trap")  # runs well past the 4 s deadline
        pairs = _hip_pairs(("foo-paper",))
        pairs.append((HipTNTPlus(slow.main, time_budget=120.0), slow))
        pairs.extend(_hip_pairs(("plain-countdown",)))
        t0 = time.monotonic()
        outs = run_tools_sharded(pairs, timeout=4.0, jobs=2)
        elapsed = time.monotonic() - t0
        assert [o.program for o in outs] == [
            "foo-paper", "offset-trap", "plain-countdown"
        ]
        assert outs[0].verdict is Verdict.NONTERMINATING
        assert outs[1].timed_out
        assert outs[1].sound  # a timeout is never unsound
        assert outs[2].verdict is Verdict.TERMINATING
        # the kill happened near the budget, not at some far-later join
        assert elapsed < 60.0

    def test_unregistered_builder_program_rejected(self):
        """A builder-carrying program outside the registry cannot be
        shipped to a worker; the parent refuses loudly instead of
        analyzing the wrong thing."""
        custom = BenchProgram(
            name="custom-heap", category="crafted", source="", main="m",
            expected=Verdict.TERMINATING, builder=lambda: None,
        )
        with pytest.raises(ValueError, match="not in the registry"):
            _bench_spec(custom)

    def test_plain_custom_program_ships_directly(self):
        custom = BenchProgram(
            name="custom-plain", category="crafted",
            source="void m(int x) { return; }", main="m",
            expected=Verdict.TERMINATING,
        )
        assert _bench_spec(custom) is custom
        outs = run_tools_sharded(
            [(HipTNTPlus("m"), custom), (HipTNTPlus("m"), custom)],
            timeout=30.0, jobs=2,
        )
        assert all(o.verdict is Verdict.TERMINATING for o in outs)


class TestTimeoutFlagFixes:
    """Regressions for the SIGALRM bugfixes: a timeout swallowed inside
    the analyzed function's cleanup must still classify as a timeout, and
    teardown must restore the previous handler on every path."""

    def test_swallowed_timeout_still_raises(self):
        def swallowing():
            try:
                t0 = time.monotonic()
                while time.monotonic() - t0 < 30.0:
                    pass
                return "never"
            except AnalysisTimeout:
                # simulates a finally/solver-cleanup eating the raise
                return "survived cleanup"

        t0 = time.monotonic()
        with pytest.raises(AnalysisTimeout):
            _with_timeout(swallowing, 0.3)
        assert time.monotonic() - t0 < 10.0

    def test_handler_restored_when_fn_raises(self):
        before = signal.getsignal(signal.SIGALRM)

        def boom():
            raise ValueError("analyzer exploded")

        with pytest.raises(ValueError):
            _with_timeout(boom, 5.0)
        assert signal.getsignal(signal.SIGALRM) is before
        delay, _interval = signal.getitimer(signal.ITIMER_REAL)
        assert delay == 0  # timer fully disarmed

    def test_handler_restored_after_swallowed_timeout(self):
        before = signal.getsignal(signal.SIGALRM)

        def swallowing():
            try:
                t0 = time.monotonic()
                while time.monotonic() - t0 < 30.0:
                    pass
            except AnalysisTimeout:
                pass
            return None

        with pytest.raises(AnalysisTimeout):
            _with_timeout(swallowing, 0.3)
        assert signal.getsignal(signal.SIGALRM) is before
        delay, _interval = signal.getitimer(signal.ITIMER_REAL)
        assert delay == 0

    def test_successful_run_unaffected(self):
        assert _with_timeout(lambda: 41 + 1, 5.0) == 42

    def test_secondary_error_after_swallowed_timeout_is_timeout(self):
        """If the budget expired, the injected raise was eaten, and some
        follow-up error escapes the half-torn-down analyzer state, the
        run classifies as a timeout -- not as an analyzer failure."""

        def swallow_then_explode():
            try:
                t0 = time.monotonic()
                while time.monotonic() - t0 < 30.0:
                    pass
            except AnalysisTimeout:
                raise RuntimeError("cleanup failed on torn-down state")

        with pytest.raises(AnalysisTimeout):
            _with_timeout(swallow_then_explode, 0.3)

    def test_run_tool_classifies_swallowed_timeout(self):
        """End to end: an analyzer whose cleanup swallows the timeout
        exception is reported as T/O, never as a (half-finished)
        success."""

        class SwallowingAnalyzer:
            name = "swallower"

            def analyze(self, program):
                try:
                    t0 = time.monotonic()
                    while time.monotonic() - t0 < 30.0:
                        pass
                except AnalysisTimeout:
                    pass  # cleanup ate the raise
                return Verdict.TERMINATING  # a lie the runner must reject

        bench = by_name("plain-countdown")
        out = run_tool(SwallowingAnalyzer(), bench, timeout=0.3)
        assert out.timed_out
        assert out.verdict is None
