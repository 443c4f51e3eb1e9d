"""Mechanical descent checking for weak Goodstein runs.

A weak step rereads the digit sequence in the next base and subtracts one,
so the digit sequence drops strictly in the length-first lexicographic
order. Checking that one fact on every adjacent pair of records turns the
termination argument into a machine-checkable certificate: the
zero-padded digit tuple is a ranking function into the well-founded
lexicographic order on fixed-arity tuples of naturals, and it strictly
decreases each step.

The verifier never assumes the property it checks. Every record, the seed
included, is checked once: canonical digits that spell ``value`` in ``base``
and match ``rendered``. Each successor's digits must be ``decrement_in_base``
of its predecessor's in the new base, the transition ``sequences.run`` takes,
and, zero-padded to the predecessor's length, must be a smaller tuple. The
borrow implies that descent, but it is checked explicitly; it bounds each
successor's length by its predecessor's, so no record outgrows the seed's
arity. A certificate keeps the seed, its arity and one pivot per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ArityExceeded, DomainError, EmptyRun, StepMismatch
from .numerals import decrement_in_base, from_digits, render
from .sequences import StepRecord


@dataclass(frozen=True)
class DescentCertificate:
    """Per-step descent evidence for a whole run.

    ``k`` is the seed record's digit count: the arity of the ranking
    function. ``evidence[i]`` is the pivot of the step into record
    ``start.index + i + 1``, as ``check_step`` returns it.
    ``all_steps_descend`` is always True, since ``verify_run`` raises on
    any trace with a step that does not descend.
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
        canonical = from_digits(digits, base) == record.value and (not digits or digits[0] > 0)
    except DomainError:
        canonical = False
    if not canonical:
        raise StepMismatch(
            record.index, f"digits {list(digits)} do not spell value {record.value} in base {base}"
        )
    if record.rendered != render(digits, base):
        raise StepMismatch(record.index, f"rendered {record.rendered!r} does not match the digits")


def check_step(prev: StepRecord, nxt: StepRecord) -> int:
    """Score one adjacent pair of a weak run whose ``prev`` is already checked.

    Raises StepMismatch unless ``nxt`` is self-consistent and follows by a
    genuine, descending weak transition (index and base advance by one,
    digits are ``prev``'s decremented in the new base and come before them
    in length-first lexicographic order); a failing step is never scored.
    Returns the pivot: the first position where ``nxt.digits``, left-padded
    with zeros to ``prev``'s length, holds a smaller digit than ``prev``.
    """
    _check_record(nxt)
    if nxt.index != prev.index + 1:
        raise StepMismatch(nxt.index, f"record index {nxt.index} does not follow {prev.index}")
    if nxt.base != prev.base + 1:
        raise StepMismatch(nxt.index, f"base {nxt.base} does not follow base {prev.base}")
    if prev.value == 0:
        raise StepMismatch(nxt.index, "predecessor value is already zero")
    if nxt.digits != decrement_in_base(prev.digits, nxt.base):
        raise StepMismatch(nxt.index, f"value {nxt.value} is not a weak successor of {prev.value}")
    # prev is canonical, so for a successor no longer than it, length-first
    # lexicographic order is tuple order on the zero-padded successor.
    # tuple() because a caller's seed may hold its digits in any sequence.
    shortfall = len(prev.digits) - len(nxt.digits)
    padded = (0,) * shortfall + nxt.digits
    if shortfall < 0 or padded >= tuple(prev.digits):
        raise StepMismatch(nxt.index, "digits do not descend in length-first lexicographic order")
    pivot = 0
    while padded[pivot] == prev.digits[pivot]:
        pivot += 1
    return pivot


def verify_run(records: Iterable[StepRecord]) -> DescentCertificate:
    """Check every record and every adjacent pair of a weak-run trace.

    Consumes the record stream once and checks each record once, the seed
    included. Raises StepMismatch at the first record that fails a check,
    so a returned certificate always says every step descends; it keeps
    one pivot per pair.
    """
    stream = iter(records)
    first = next(stream, None)
    if first is None:
        raise EmptyRun("a run holds at least its seed record")
    _check_record(first)
    evidence: list[int] = []
    prev = first
    for record in stream:
        evidence.append(check_step(prev, record))
        prev = record
    return DescentCertificate(start=first, k=len(first.digits), evidence=tuple(evidence))


def rank(digits: Sequence[int], arity: int) -> tuple[int, ...]:
    """Left-pad a digit sequence with zeros to a fixed-arity tuple.

    This is the ranking function: along a weak run with seed arity ``k``,
    ``rank(record.digits, k)`` strictly decreases in the lexicographic
    order on k-tuples, which is well-founded, so the run must halt.
    """
    if len(digits) > arity:
        raise ArityExceeded(len(digits), arity)
    return (0,) * (arity - len(digits)) + tuple(digits)
