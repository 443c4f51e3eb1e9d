"""Mechanical descent checking for weak Goodstein runs.

A weak step rereads the digit sequence in the next base and subtracts one,
so the digit sequence itself never gets longer and drops strictly in the
length-first lexicographic order. Checking exactly those two facts on
every adjacent pair of records turns the termination argument into a
machine-checkable certificate: the zero-padded digit tuple is a ranking
function into the well-founded lexicographic order on fixed-arity tuples
of naturals, and it strictly decreases each step.

The verifier never assumes the property it checks. Every record, the seed
included, is checked once: canonical digits that spell ``value`` in ``base``
and match ``rendered``. Each successor's digits must be ``decrement_in_base``
of its predecessor's in the new base, the transition ``sequences.run`` takes;
length, lex order, and arity are each checked explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import ArityExceeded, DomainError, EmptyRun, StepMismatch
from .numerals import Digits, Ordering, decrement_in_base, from_digits, lex_compare, render
from .sequences import StepRecord


@dataclass(frozen=True)
class DescentEvidence:
    """Why one step descended (or failed to).

    ``pivot`` is the first position, after left-padding the successor to
    the predecessor's length, holding a strictly smaller digit; it is None
    when no such position exists.
    """

    step_index: int
    length_ok: bool
    lex_ok: bool
    pivot: Optional[int]


@dataclass(frozen=True)
class DescentCertificate:
    """Per-step descent evidence for a whole run.

    ``k`` is the seed record's digit count: the arity of the ranking
    function. The verdict is AllStepsDescend exactly when every evidence
    entry has ``length_ok`` and ``lex_ok`` and no record outgrows ``k``;
    otherwise ``violation_at`` names the first offending step index.
    """

    start: StepRecord
    k: int
    evidence: tuple[DescentEvidence, ...]
    violation_at: Optional[int]

    @property
    def all_steps_descend(self) -> bool:
        return self.violation_at is None


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


def check_step(prev: StepRecord, nxt: StepRecord) -> DescentEvidence:
    """Score one adjacent pair of a weak run whose ``prev`` is already checked.

    Raises StepMismatch unless ``nxt`` is self-consistent and follows by a
    genuine weak transition (index and base advance by one, digits are
    ``prev``'s decremented in the new base); a corrupted trace is never scored.
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
    return DescentEvidence(
        step_index=nxt.index,
        length_ok=len(nxt.digits) <= len(prev.digits),
        lex_ok=lex_compare(nxt.digits, prev.digits) is Ordering.LESS,
        pivot=_pivot(prev.digits, nxt.digits),
    )


def _pivot(prev: Digits, nxt: Digits) -> Optional[int]:
    if len(nxt) > len(prev):
        return None
    padded = (0,) * (len(prev) - len(nxt)) + nxt
    for i, (p, q) in enumerate(zip(prev, padded)):
        if q != p:
            return i if q < p else None
    return None


def verify_run(records: Iterable[StepRecord]) -> DescentCertificate:
    """Check every record and every adjacent pair of a weak-run trace.

    Consumes the record stream once and checks each record once, the seed
    included. The verdict is the first failing step, if any; evidence is
    kept for every pair either way.
    """
    stream = iter(records)
    first = next(stream, None)
    if first is None:
        raise EmptyRun("a run holds at least its seed record")
    _check_record(first)
    k = len(first.digits)
    evidence: list[DescentEvidence] = []
    violation_at: Optional[int] = None
    prev = first
    for record in stream:
        entry = check_step(prev, record)
        evidence.append(entry)
        descended = entry.length_ok and entry.lex_ok and len(record.digits) <= k
        if violation_at is None and not descended:
            violation_at = record.index
        prev = record
    return DescentCertificate(
        start=first, k=k, evidence=tuple(evidence), violation_at=violation_at
    )


def rank(digits: Sequence[int], arity: int) -> tuple[int, ...]:
    """Left-pad a digit sequence with zeros to a fixed-arity tuple.

    This is the ranking function: along a weak run with seed arity ``k``,
    ``rank(record.digits, k)`` strictly decreases in the lexicographic
    order on k-tuples, which is well-founded, so the run must halt.
    """
    if len(digits) > arity:
        raise ArityExceeded(len(digits), arity)
    return (0,) * (arity - len(digits)) + tuple(digits)
