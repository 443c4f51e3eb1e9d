"""Mechanical descent checking for Goodstein runs of every kind.

A weak or decreasing step subtracts one from a digit sequence reread in
the next or the same base, so the zero-padded digit tuple strictly drops
in the well-founded lexicographic order on fixed-arity tuples of naturals.
A strong step strictly lowers the hereditary tree, read as a Cantor normal
form below epsilon-zero, in tuple order (Goodstein, JSL 9, 1944; Kirby &
Paris, Bull. LMS 14, 1982). Checking the kind's fact on every adjacent
pair of records turns the termination argument into a machine-checkable
certificate.

The verifier never assumes the property it checks. The seed is checked on
its own: canonical digits that spell ``value`` in ``base`` and match
``rendered``. Every later record must equal the kind's successor of its
predecessor, the one ``sequences.run`` takes (its text may reuse the
predecessor's, which is checked by then), and then have the shape of a
borrow: the step lowers the predecessor's last nonzero digit (for a
strong step, its tree's last top-level term) and keeps every entry above
it; a weak or decreasing step lowers it by one and leaves ``base - 1``
below it. That closed form implies descent in the kind's order; for weak
and decreasing runs it bounds every record's length by the seed's. A
certificate keeps the seed, its digit count and one pivot per step. One
loop, ``_certify``, checks the records that both ``verify_run`` and
``goodstein verify`` read, and one function, ``_step``, checks each pair
of them: ``check_step`` is that function on one pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ArityExceeded, DomainError, EmptyRun, MagnitudeCapExceeded, StepMismatch
from .hereditary import HereditaryTree, build_from_digits
from .numerals import _check_digits, render, to_digits
from .sequences import _SUCCESSORS, RunKind, StepRecord, _record_after


class DescentCertificate(NamedTuple):
    """Per-step descent evidence for a whole run.

    ``k`` is the seed record's digit count: the ranking arity of a weak or
    decreasing run, and no arity of a strong one, whose records grow.
    ``evidence[i]`` is the pivot of the step into record
    ``start.index + i + 1``, as ``check_step`` returns it.
    ``all_steps_descend`` is always True, since ``verify_run`` raises on
    any trace with a step that does not descend. Like ``StepRecord``, a
    certificate is an immutable tuple of its three fields, in this order.
    """

    start: StepRecord
    k: int
    evidence: tuple[int, ...]

    @property
    def all_steps_descend(self) -> bool:
        return True


def _decimal(value: int) -> str:
    """``value`` in decimal, or its width where CPython's int<->str limit refuses the text."""
    try:
        return str(value)
    except ValueError:
        return f"of {value.bit_length()} bits"


def _check_record(record: StepRecord) -> None:
    """Raise StepMismatch unless the record's digits, value and rendering agree."""
    digits, base = record.digits, record.base
    try:
        canonical = tuple(digits) == to_digits(record.value, base)
    except DomainError:
        canonical = False
    if not canonical:
        spelled = f"digits {list(digits)} do not spell value {_decimal(record.value)}"
        raise StepMismatch(record.index, f"{spelled} in base {base}")
    if record.rendered != render(digits, base):
        raise StepMismatch(record.index, f"rendered {record.rendered!r} does not match the digits")


def check_step(prev: StepRecord, nxt: StepRecord, kind: RunKind = RunKind.WEAK) -> int:
    """Score one adjacent pair of a ``kind`` run whose ``prev`` is already checked.

    Raises StepMismatch unless ``nxt`` is the genuine, descending ``kind``
    successor of ``prev``. The first failing check decides, in this order:
    the index advances; ``prev``'s digits are in range (DigitOutOfRange) and
    nonzero; ``nxt``'s value and digits, then base, then rendering are the
    successor's, built under a cap of ``nxt.value + 1``'s bits, so never
    wider than claimed; the step descends; it changes no entry above the
    pivot, nor, for weak and decreasing runs, one at or below it unlike a
    borrow. Returns the pivot: the index of ``prev``'s last nonzero digit
    among the digits zero-padded to one width (weak and decreasing), or of
    the last top-level term of its hereditary tree (strong), the first
    position where the step's digits or terms differ. ``prev``'s text is
    rendered again, so past the int<->str limit its base raises ValueError.
    """
    expected = None
    if nxt.index == prev.index + 1:  # else _step reports the index first
        _check_digits(prev.digits, prev.base)
        if any(prev.digits):  # else _step reports the zero predecessor
            checked = prev._replace(rendered=render(prev.digits, prev.base))
            expected = _successor_record(checked, kind, (nxt.value + 1).bit_length())
    return _step(prev, nxt, kind, expected)[0]


def _successor_record(prev: StepRecord, kind: RunKind, cap: int) -> Optional[StepRecord]:
    """The ``kind`` successor record of a checked ``prev``, under ``cap`` bits.

    ``prev``'s digits must be in range and its text their rendering, which
    ``sequences._record_after`` reuses. None when ``prev`` is zero or the
    successor is wider than ``cap`` bits. Its ``rendered`` is None when its
    base has no decimal text under CPython's int<->str limit.
    """
    if not any(prev.digits):
        return None
    try:
        base, digits, value = _SUCCESSORS[kind](prev.digits, prev.base, cap)
    except MagnitudeCapExceeded:
        return None
    try:
        return _record_after(prev, base, value, digits)
    except ValueError:  # past the int<->str limit: _step renders it if it must
        return StepRecord(prev.index + 1, base, value, digits, None)


def _step(
    prev: StepRecord,
    nxt: StepRecord,
    kind: RunKind,
    expected: Optional[StepRecord],
    prev_tree: Optional[HereditaryTree] = None,
) -> tuple[int, Optional[HereditaryTree]]:
    """``check_step`` for a ``prev`` whose digits are in range, given its expected successor.

    ``expected`` is ``_successor_record`` of ``prev`` under a cap of
    ``nxt.value + 1``'s bits, so never wider than claimed (any cap will do
    for weak and decreasing runs, whose successors take none). Only a
    ``nxt`` that differs from ``expected`` has its index, predecessor and
    fields checked one by one, to name the first that fails; ``expected``'s
    rendering is None past the int<->str limit and is then made here. A
    strong pair may take ``prev``'s hereditary tree as ``prev_tree``, as the
    pair before it returned it.

    The pivot is not searched for: it is the closed form of a borrow, proven
    with one prefix comparison and one entry comparison. Entries above the
    pivot are equal, and the pivot's entry drops, or, for a strong step
    that drops its units term 1, ``nxt``'s tree ends there; a weak or
    decreasing pivot drops by one and one more comparison finds ``base - 1``
    in every digit below it. Zeros pad the digits only on a step that
    changes their length. A failing pair is refused by its order if it does
    not descend, else by the first entry it changes above the pivot, else
    by the first digit the borrow would not leave. Returns the pivot and
    ``nxt``'s tree (None for weak and decreasing pairs).
    """
    if nxt != expected:  # equal records share the index and imply a nonzero predecessor
        if nxt.index != prev.index + 1:
            raise StepMismatch(nxt.index, f"record index {nxt.index} does not follow {prev.index}")
        if not any(prev.digits):
            raise StepMismatch(nxt.index, "predecessor value is already zero")
        _, base, value, digits, rendered = expected or (None,) * 5
        if nxt.value != value and nxt.digits != digits:
            claimed = f"value {_decimal(nxt.value)} is not a {kind.value} successor"
            raise StepMismatch(nxt.index, f"{claimed} of {_decimal(prev.value)}")
        if nxt.value != value or nxt.digits != digits:
            spelled = f"digits {list(nxt.digits)} do not spell value {_decimal(nxt.value)}"
            raise StepMismatch(nxt.index, f"{spelled} in base {base}")
        if nxt.base != base:
            raise StepMismatch(nxt.index, f"base {nxt.base} does not follow base {prev.base}")
        if rendered is None:  # the base is past the int<->str limit
            rendered = render(digits, base)
        if nxt.rendered != rendered:
            unrendered = f"rendered {nxt.rendered!r} does not match the digits"
            raise StepMismatch(nxt.index, unrendered)
    # nxt now matches expected, whose digits are the successor's own tuple
    if kind is RunKind.STRONG:
        before = build_from_digits(prev.digits, prev.base) if prev_tree is None else prev_tree
        after = build_from_digits(expected.digits, expected.base)
        pivot = len(before) - 1
        if after[:pivot] == before[:pivot] and after[pivot:] < before[pivot:]:
            return pivot, after
        order = "hereditary trees do not descend in Cantor normal form order"
        shape = "the step changes term {}, above the last term {} it lowers"
    else:
        before, after = tuple(prev.digits), expected.digits
        shortfall = len(before) - len(after)
        if shortfall:  # canonical digits compare length-first, so zero-pad them to one width
            before, after = (0,) * -shortfall + before, (0,) * shortfall + after
        last = pivot = len(before) - 1
        while not before[pivot]:
            pivot -= 1
        if after[pivot] + 1 == before[pivot] and after[:pivot] == before[:pivot] and (
            pivot == last or after[pivot + 1 :] == (expected.base - 1,) * (last - pivot)
        ):
            return pivot, None
        order = "digits do not descend in length-first lexicographic order"
        shape = "the step changes digit {}, above the last nonzero digit {} it lowers"
    if after >= before:
        raise StepMismatch(nxt.index, order)
    changed = next(i for i, (a, b) in enumerate(zip(after, before)) if a != b)
    if changed < pivot:  # always, for a strong pair that gets here
        raise StepMismatch(nxt.index, shape.format(changed, pivot))
    borrow = before[:pivot] + (before[pivot] - 1,) + (expected.base - 1,) * (last - pivot)
    wrong = next(i for i, (a, b) in enumerate(zip(after, borrow)) if a != b)
    left = "the step leaves {} in digit {}, where the borrow from digit {} leaves {}"
    raise StepMismatch(nxt.index, left.format(after[wrong], wrong, pivot, borrow[wrong]))


def _certify(
    pairs: Iterable[tuple[StepRecord, Optional[StepRecord]]], kind: RunKind
) -> DescentCertificate:
    """Check a ``kind`` run given as pairs of a record and its expected record.

    That is ``_successor_record`` of the record before, checked by the time
    the pair is drawn (None for the seed, which is checked on its own).
    Each later pair is one ``_step``.
    """
    stream = iter(pairs)
    first, _ = next(stream, (None, None))
    if first is None:
        raise EmptyRun("a run holds at least its seed record")
    _check_record(first)
    prev, tree, evidence = first, None, []
    for nxt, expected in stream:
        pivot, tree = _step(prev, nxt, kind, expected, tree)
        evidence.append(pivot)
        prev = nxt
    return DescentCertificate(start=first, k=len(first.digits), evidence=tuple(evidence))


def verify_run(records: Iterable[StepRecord], kind: RunKind = RunKind.WEAK) -> DescentCertificate:
    """Check every record and every adjacent pair of a ``kind`` run's trace.

    Consumes the record stream once and checks each record once: the seed
    on its own, every later one as the successor of the record before it,
    built under a cap of its own value's bits. Raises StepMismatch at the
    first failing record, so a returned certificate always says every step
    descends; it keeps one pivot per pair.
    """

    def pairs() -> Iterator[tuple[StepRecord, Optional[StepRecord]]]:
        prev = None
        for nxt in records:
            cap = (nxt.value + 1).bit_length()
            yield nxt, None if prev is None else _successor_record(prev, kind, cap)
            prev = nxt

    return _certify(pairs(), kind)


def rank(digits: Sequence[int], arity: int) -> tuple[int, ...]:
    """Left-pad a digit sequence with zeros to a fixed-arity tuple.

    This is the ranking function: along a weak run with seed arity ``k``,
    ``rank(record.digits, k)`` strictly decreases in the lexicographic
    order on k-tuples, which is well-founded, so the run must halt.
    """
    if len(digits) > arity:
        raise ArityExceeded(len(digits), arity)
    return (0,) * (arity - len(digits)) + tuple(digits)
