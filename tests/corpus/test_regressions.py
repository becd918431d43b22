"""Replay of minimized fuzzer findings as permanent regressions.

Every catch of the generator/oracle/analyzer cross-check lands here as a
JSON artifact in ``regressions/`` and replays as a plain parametrized
test.  Artifact schema (all program-level fields optional):

* ``seed``/``index``/``expected_label`` -- regenerate the original
  instance and re-check its constructed label against the oracle;
* ``program``/``entry``/``label`` (+ optional ``witness``,
  ``expect_verdict``) -- the minimized reproducer: checked against the
  oracle, round-tripped through the parser, and run through the bench
  harness, which must stay *sound* (a crash degrades to UNKNOWN, never
  to a wrong definite answer).

Both the reproducer and the regenerated instance are also analyzed by
``infer_program`` directly, outside the harness: the analyzer itself must
answer, soundly, rather than raise.
"""

import json
import pathlib

import pytest

from repro.arith.solver import clear_caches
from repro.bench.runner import HipTNTPlus, run_tool
from repro.core.pipeline import infer_program
from repro.corpus.benchmark import (
    CorpusInstance,
    Label,
    label_to_verdict,
    parse_label,
    verdict_to_label,
)
from repro.corpus.generate import generate_instance
from repro.corpus.run import crosscheck_instance
from repro.lang.interp import Outcome, observe
from repro.lang.parser import parse_program

REGRESSIONS = pathlib.Path(__file__).resolve().parent / "regressions"
ARTIFACTS = sorted(REGRESSIONS.glob("*.json"))


def _load(path):
    return json.loads(path.read_text())


def test_regression_directory_is_populated():
    assert ARTIFACTS, "regressions/ must hold at least the seed findings"


@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[p.stem for p in ARTIFACTS]
)
def test_generator_replay(path):
    """The original (seed, index) still generates the recorded label, and
    the constructed label still agrees with the oracle."""
    artifact = _load(path)
    if "seed" not in artifact:
        pytest.skip("artifact carries no generator coordinates")
    inst = generate_instance(artifact["seed"], artifact["index"])
    assert inst.label is parse_label(artifact["expected_label"])
    assert crosscheck_instance(inst, shrink=False) is None


@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[p.stem for p in ARTIFACTS]
)
def test_minimized_reproducer(path):
    artifact = _load(path)
    if "program" not in artifact:
        pytest.skip("artifact carries no minimized program")
    label = parse_label(artifact["label"])
    source = artifact["program"]
    entry = artifact["entry"]
    program = parse_program(source)  # the reproducer must stay parseable

    witness = artifact.get("witness")
    if witness is not None and label is Label.NONTERM:
        outcome = observe(
            program, entry, list(witness), fuel=60_000, wall_clock=10.0
        )
        assert outcome is Outcome.FUEL_OUT

    inst = CorpusInstance(
        id=path.stem, source=source, language="native", entry=entry,
        label=label, origin=str(path),
        witness=tuple(witness) if witness is not None else None,
    )
    outcome = run_tool(
        HipTNTPlus(entry, time_budget=5.0), inst.to_bench(), timeout=30.0
    )
    assert outcome.sound, (
        f"{path.stem}: unsound verdict {outcome.verdict} against {label}"
    )
    if "expect_verdict" in artifact:
        assert outcome.verdict is label_to_verdict(
            parse_label(artifact["expect_verdict"])
        )


def _direct_verdict(program, entry):
    """``infer_program`` outside the bench harness: an exception escaping
    the analyzer fails the test instead of reading as UNKNOWN."""
    clear_caches()
    result = infer_program(
        program, max_iter=8, time_budget=5.0, isolate_names=True
    )
    return result.verdict(entry)


def _contradicts(verdict, label):
    answered = verdict_to_label(verdict)
    return Label.UNKNOWN not in (answered, label) and answered is not label


@pytest.mark.parametrize(
    "path", ARTIFACTS, ids=[p.stem for p in ARTIFACTS]
)
def test_analyzer_answers_directly(path):
    artifact = _load(path)
    if "program" in artifact:
        label = parse_label(artifact["label"])
        verdict = _direct_verdict(
            parse_program(artifact["program"]), artifact["entry"]
        )
        assert not _contradicts(verdict, label), (
            f"{path.stem}: unsound verdict {verdict} against {label}"
        )
    if "seed" in artifact:
        inst = generate_instance(artifact["seed"], artifact["index"])
        verdict = _direct_verdict(inst.program(), inst.entry)
        assert not _contradicts(verdict, inst.label), (
            f"{inst.id}: unsound verdict {verdict} against {inst.label}"
        )
