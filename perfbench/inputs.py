"""Inputs of every workload, made from the benchmark's seed.

The same seed gives byte-identical inputs.  Generated programs differ in
analysis cost by three orders of magnitude, and the cost follows two
input properties: NONTERM programs whose divergence is the generator's
parity-stuck loop (``while (d != 0) d = d - 2`` from an odd start) take
6-9 s each, and every other program costs roughly in proportion to its
number of loops.  Programs are therefore drawn per stratum -- parity-stuck,
or label and loop count -- into fixed cycles, and the sweeps stop only
between cycles, so every run has the same mix (``NOTES.md``).

Inputs are drawn lazily, one cycle (sweeps) or one pass (service) at a
time, so a run never holds more inputs than it uses.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.corpus import Label, RegistryBenchmark, generate_instance

NONTERM_PARITY = "nonterm-parity"


def _slots(**counts: int) -> tuple:
    return tuple(
        name.replace("_", "-") for name, n in counts.items() for _ in range(n)
    )


#: The generator's own proportions of label and loop count among the
#: programs that are not parity-stuck (TERM with 0/1/2/3+ loops: 7/9/5/4;
#: other NONTERM with <=1/2/3+ loops: 2/3/6).
CHEAP_SLOTS = _slots(
    term_0=7, term_1=9, term_2=5, term_3=4, nonterm_1=2, nonterm_2=3, nonterm_3=6,
)

#: One corpus-cold cycle: one program with one parity-stuck loop, then the
#: 36 cheap slots.  Parity-stuck programs are a quarter of the generator's
#: output; here they are one in 37, so that a run sees well over a hundred
#: programs, and the few with two such loops (twice the cost) are not
#: drawn (``NOTES.md``).
CORPUS_CYCLE = (NONTERM_PARITY,) + CHEAP_SLOTS

#: The service workload's pool: one program per cheap slot.
SERVE_POOL_SLOTS = CHEAP_SLOTS

@dataclass(frozen=True)
class Op:
    """One unit of work: a labeled program to analyze or to submit."""

    id: str
    source: str
    language: str
    entry: str
    label: Label
    stratum: str
    kind: str = "program"   # service requests: fresh / edit / repeat
    bench: Optional[object] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def program(self):
        """The parsed program (heap programs come from their builder)."""
        if self.bench is not None:
            return self.bench.program()
        from repro.lang.frontends import get_frontend

        return get_frontend(self.language).parse(self.source)


_PARITY_LOOP = re.compile(r"while \(\((d\d+) != 0\)\)")


def stratum_of(label: Label, source: str) -> str:
    """The cost stratum of a generated program: its parity-stuck loop
    count when it has any, else its label and loop count (capped at 3;
    the rare loop-free NONTERM programs count as one loop)."""
    parity = len(_PARITY_LOOP.findall(source))
    if parity:
        return NONTERM_PARITY if parity == 1 else f"nonterm-parity-{parity}"
    loops = min(source.count("while"), 3)
    if label is Label.TERM:
        return f"term-{loops}"
    return f"nonterm-{max(loops, 1)}"


def _strata_draw(seed: str) -> Iterator[Op]:
    """Generated programs of corpus *seed*, in index order."""
    for index in itertools.count():
        inst = generate_instance(seed, index)
        yield Op(
            id=inst.id, source=inst.source, language=inst.language,
            entry=inst.entry, label=inst.label,
            stratum=stratum_of(inst.label, inst.source),
        )


def stratified(seed: str, pattern: Sequence[str]) -> Iterator[Op]:
    """The slots of *pattern*, repeated without end, each filled with the
    next generated program of the slot's stratum."""
    pending: Dict[str, List[Op]] = {}
    draw = _strata_draw(seed)
    for want in itertools.cycle(pattern):
        queue = pending.setdefault(want, [])
        while not queue:
            op = next(draw)
            pending.setdefault(op.stratum, []).append(op)
        yield queue.pop(0)


def corpus_cycles(seed: int) -> Iterator[List[Op]]:
    """Corpus-cold cycles of :data:`CORPUS_CYCLE`, without end."""
    draw = stratified(f"perfbench-{seed}", CORPUS_CYCLE)
    while True:
        yield list(itertools.islice(draw, len(CORPUS_CYCLE)))


def paper_cycles(seed: int) -> Iterator[List[Op]]:
    """Passes over every registry program (fig10/fig11 categories plus
    the ST controllers), each in its own seeded order, without end."""
    from repro.bench.programs import CATEGORIES, ST_CATEGORY

    ops = [
        Op(
            id=inst.id, source=inst.source, language=inst.language,
            entry=inst.entry, label=inst.label,
            stratum=inst.origin.split(":", 1)[1], bench=inst.bench,
        )
        for inst in RegistryBenchmark(CATEGORIES + (ST_CATEGORY,))
    ]
    for k in itertools.count():
        order = list(ops)
        random.Random(f"perfbench-paper-{seed}-{k}").shuffle(order)
        yield [dataclasses.replace(op, id=f"{op.id}#{k}") for op in order]


_METHOD_NAME = re.compile(r"\b(main|h\d+)\(")


def renamed(op: Op, tag: str) -> Op:
    """A fresh copy: every method of a generated program renamed with
    *tag*.  Method names are part of every store key and fingerprint, so
    the copy shares no summary and no dedup entry with the original, and
    it is the same analysis problem with the same label."""
    source = _METHOD_NAME.sub(lambda m: f"{m.group(1)}_{tag}(", op.source)
    return dataclasses.replace(
        op, id=f"{op.id}@{tag}", source=source, entry=f"{op.entry}_{tag}",
        kind="fresh",
    )


def edit_entry(op: Op, serial: int) -> Op:
    """A label-preserving edit: an unused straight-line declaration
    prepended to the entry method's body.  The entry's fingerprint
    changes; every other method's does not."""
    head = op.source.index("{\n", op.source.index(f"void {op.entry}(")) + 2
    source = (op.source[:head] + f"  int edit{serial} = {serial % 7};\n"
              + op.source[head:])
    return dataclasses.replace(
        op, id=f"{op.id}+edit{serial}", source=source, kind="edit",
    )


def serve_pool() -> List[Op]:
    """The service workload's pool: the same generated programs for every
    seed, one per slot of :data:`SERVE_POOL_SLOTS`."""
    return list(itertools.islice(
        stratified("perfbench-serve-pool", SERVE_POOL_SLOTS), len(SERVE_POOL_SLOTS)))


def serve_passes(seed: int, pool: Sequence[Op]) -> Iterator[List[tuple]]:
    """The service requests, one pass over *pool* at a time, without end.

    A pass is one block per pool program, in a seeded order: a fresh copy
    (:func:`renamed`), an edit of it, and an exact resend of the edit --
    one request of each class.  Every pass renames the pool afresh, so
    every pass is the same work; the seed orders the blocks and numbers
    the edits."""
    rng = random.Random(f"perfbench-serve-{seed}")
    for n in itertools.count():
        blocks = []
        for program in rng.sample(list(pool), len(pool)):
            fresh = renamed(program, f"s{n}")
            edit = edit_entry(fresh, 7 * n + rng.randrange(7))
            blocks.append((fresh, edit, dataclasses.replace(edit, kind="repeat")))
        yield blocks
