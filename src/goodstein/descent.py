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
predecessor, the one ``sequences.run`` takes, and then descend in the
kind's order; for weak and decreasing runs that bounds every record's
length by the seed's. A certificate keeps the seed, its digit count and
one pivot per step. One loop, ``_certify``, checks the records that both
``verify_run`` and ``goodstein verify`` read, and one function, ``_step``,
checks each pair of them: ``check_step`` is that function on one pair.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ArityExceeded, DomainError, EmptyRun, MagnitudeCapExceeded, StepMismatch
from .hereditary import HereditaryTree, build_from_digits
from .numerals import CUT, _check_digits, render, to_digits
from .sequences import _SUCCESSORS, RunKind, StepRecord, _record


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


def _check_record(record: StepRecord) -> None:
    """Raise StepMismatch unless the record's digits, value and rendering agree."""
    digits, base = record.digits, record.base
    try:
        canonical = tuple(digits) == to_digits(record.value, base)
    except DomainError:
        canonical = False
    if not canonical:
        raise StepMismatch(
            record.index, f"digits {list(digits)} do not spell value {record.value} in base {base}"
        )
    if record.rendered != render(digits, base):
        raise StepMismatch(record.index, f"rendered {record.rendered!r} does not match the digits")


def check_step(prev: StepRecord, nxt: StepRecord, kind: RunKind = RunKind.WEAK) -> int:
    """Score one adjacent pair of a ``kind`` run whose ``prev`` is already checked.

    Raises StepMismatch unless ``nxt`` is the genuine, descending ``kind``
    successor of ``prev``. The first failing check decides, in this order:
    the index advances; ``prev``'s digits are in range (DigitOutOfRange) and
    nonzero; ``nxt``'s value and digits, then base, then rendering are the
    successor's, built under a cap of ``nxt.value + 1``'s bits, so never
    wider than claimed; the step descends. Returns the first position where
    the zero-padded digits (weak and decreasing) or the top-level terms of
    the hereditary trees (strong) differ.
    """
    expected = None
    if nxt.index == prev.index + 1:  # else _step reports the index first
        _check_digits(prev.digits, prev.base)
        expected = _successor_record(prev, kind, (nxt.value + 1).bit_length())
    return _step(prev, nxt, kind, expected)[0]


def _successor_record(prev: StepRecord, kind: RunKind, cap: int) -> Optional[StepRecord]:
    """The ``kind`` successor record of ``prev``, whose digits are in range, under ``cap`` bits.

    None when ``prev`` is zero, which has no successor, or when the
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
        return _record(prev.index + 1, base, value, digits)
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
    for weak and decreasing runs, whose successors take none). A ``nxt``
    that *is* ``expected`` has only its descent to check; any other has its
    fields compared first, and ``expected``'s rendering is made here if it
    is None (ValueError past the int<->str limit). A strong pair may take
    ``prev``'s hereditary tree as ``prev_tree``, as the pair before it
    returned it. Returns the pivot and ``nxt``'s tree (None for weak and
    decreasing pairs).
    """
    if nxt is not expected:
        if nxt.index != prev.index + 1:
            raise StepMismatch(nxt.index, f"record index {nxt.index} does not follow {prev.index}")
        if not any(prev.digits):
            raise StepMismatch(nxt.index, "predecessor value is already zero")
        _, base, value, digits, rendered = expected or (None,) * 5
        if nxt != expected:  # name the first field that differs
            if nxt.value != value and nxt.digits != digits:
                raise StepMismatch(
                    nxt.index, f"value {nxt.value} is not a {kind.value} successor of {prev.value}"
                )
            if nxt.value != value or nxt.digits != digits:
                spelled = f"digits {list(nxt.digits)} do not spell value {nxt.value} in base {base}"
                raise StepMismatch(nxt.index, spelled)
            if nxt.base != base:
                raise StepMismatch(nxt.index, f"base {nxt.base} does not follow base {prev.base}")
            if rendered is None:  # the base is past the int<->str limit
                rendered = render(digits, base)
            if nxt.rendered != rendered:
                unrendered = f"rendered {nxt.rendered!r} does not match the digits"
                raise StepMismatch(nxt.index, unrendered)
    # nxt now matches expected, whose digits are the successor's own tuple
    tree, digits = None, expected.digits
    if kind is RunKind.STRONG:
        before = build_from_digits(prev.digits, prev.base) if prev_tree is None else prev_tree
        after = tree = build_from_digits(digits, expected.base)
        order = "hereditary trees do not descend in Cantor normal form order"
    else:
        # zero-padded to one width, canonical digits compare length-first as tuples
        shortfall = len(prev.digits) - len(digits)
        before, after = (0,) * -shortfall + tuple(prev.digits), (0,) * shortfall + digits
        order = "digits do not descend in length-first lexicographic order"
    if after >= before:
        raise StepMismatch(nxt.index, order)
    if len(after) > CUT:  # a long scan runs in C; below CUT the loop costs less than the iterators
        return next(compress(count(), map(ne, after, before)), len(after)), tree
    pivot = 0
    while pivot < len(after) and after[pivot] == before[pivot]:
        pivot += 1
    return pivot, tree


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
