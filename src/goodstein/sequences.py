"""Sequence generators: fixed-base countdown, weak and strong Goodstein.

All three families share one driver: emit the seed record, then step
from each record's digits until the value hits zero or a cap fires; only
the seed converts a value to digits. Each kind has one successor in
``_SUCCESSORS``, which ``descent.check_step`` checks against. Decreasing
and weak runs borrow one in the same or the next base. Most of their
steps lower only the units digit ``u``, so the ``u`` steps after a record
with a nonzero units digit and a digit above it form a block, which
``run`` builds from its closed form in ``_units_block``, without
``_SUCCESSORS``: the verifiers derive those records a second way. ``run``
takes every other step, a borrow from a zero units digit, a single-digit
record or a strong step, with ``_SUCCESSORS``.
The strong step rewrites the digit positions in hereditary notation first,
which is why it explodes and needs a magnitude cap on top of the step cap:
each nonzero coefficient moves to its position's hereditary form evaluated
in the new base, which ``_bump`` computes from the position as an integer
without building a tree, then the same borrow applies. Each record's
digits come out of that borrow (or, for the seed, out of ``to_digits``)
canonical and in range, so the successors call the unchecked kernels
behind ``decrement_in_base`` and ``from_digits`` and check no digit twice.
A record ``run`` takes with ``_SUCCESSORS`` is rendered whole; outside
the blocks only the verifiers lend a predecessor's text to its successor,
in ``descent._successor_record``.
``weak_step`` and ``strong_step`` are ``to_digits`` followed by the run's
own successor; the slow references the runs are checked against, read
straight off their definitions, live in ``tests/definitions.py``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import compress, count
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import DomainError, InvalidBase, MagnitudeCapExceeded
from .numerals import Digits, _borrow, _evaluate, render, to_digits

DEFAULT_MAX_STEPS = 10**6
DEFAULT_MAX_BITS = 10**6


class RunKind(Enum):
    DECREASING = "decreasing"
    WEAK = "weak"
    STRONG = "strong"


class RunStatus(Enum):
    TERMINATED_AT_ZERO = "TerminatedAtZero"
    STEP_CAP_REACHED = "StepCapReached"
    MAGNITUDE_CAP_REACHED = "MagnitudeCapReached"


class StepRecord(NamedTuple):
    """One element of a generated sequence.

    ``digits`` is always ``to_digits(value, base)`` and ``rendered`` the
    matching base-annotated numeral. A record is an immutable tuple of
    these five fields, in this order.
    """

    index: int
    base: int
    value: int
    digits: Digits
    rendered: str


class RunConfig(namedtuple("RunConfig", "start_value start_base max_steps max_bits",
                           defaults=(2, DEFAULT_MAX_STEPS, DEFAULT_MAX_BITS))):
    """The seed and the two caps of a run, checked when the config is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.start_base < 2:
            raise InvalidBase(self.start_base)
        if self.start_value < 0:
            raise DomainError(f"start_value must be a natural number, got {self.start_value}")
        if self.max_steps < 1:
            raise DomainError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.max_bits < 1:
            raise DomainError(f"max_bits must be >= 1, got {self.max_bits}")
        return self


def _halt(record: StepRecord, cfg: RunConfig) -> Optional[RunStatus]:
    """Why a run stops at ``record`` before stepping again, or None if it steps."""
    if record.value == 0:
        return RunStatus.TERMINATED_AT_ZERO
    return RunStatus.STEP_CAP_REACHED if record.index + 1 >= cfg.max_steps else None


class RunOutcome(NamedTuple):
    status: RunStatus
    steps_emitted: int
    final: StepRecord

    @classmethod
    def of(cls, final: StepRecord, cfg: RunConfig) -> RunOutcome:
        """The outcome of the ``cfg`` run whose last record is ``final``.

        A run that stopped short of zero and of the step cap hit the magnitude cap.
        """
        status = _halt(final, cfg) or RunStatus.MAGNITUDE_CAP_REACHED
        return cls(status, final.index + 1, final)


def weak_step(value: int, base: int) -> int:
    """Reread the base-``base`` digits of ``value`` in ``base + 1``, minus one."""
    if value == 0:
        raise DomainError("weak step undefined at zero: the sequence has terminated")
    return _weak_successor(to_digits(value, base), base, 0)[2]


def strong_step(value: int, base: int, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Reread ``value``'s hereditary base-``base`` form in ``base + 1``, minus one.

    Raises MagnitudeCapExceeded exactly when the bumped value, before the
    minus one, needs more than ``max_bits`` bits.
    """
    if value == 0:
        raise DomainError("strong step undefined at zero: the sequence has terminated")
    return _strong_successor(to_digits(value, base), base, max_bits)[2]


def _bump(position: int, base: int, max_bits: int) -> int:
    """``position``'s hereditary base-``base`` form evaluated at ``base + 1``.

    Each nonzero digit ``d`` at place ``i`` of ``position`` in base ``base``
    is the term ``d * (base + 1)**_bump(i)``, summed from the highest place
    down. A term whose bumped place ``e`` (for ``i > 0``) is at or above
    ``max_bits`` is refused before ``(base + 1)**e`` is computed, as that
    power needs more than ``max_bits`` bits, and so is a sum wider than
    ``max_bits``. A position below the base is its own single digit and
    stays put, unless it is already wider than ``max_bits``.
    """
    if position < base and position.bit_length() <= max_bits:
        return position
    places: list[int] = []  # the digits of position, least significant first
    while position:
        position, digit = divmod(position, base)
        places.append(digit)
    new_base, total = base + 1, 0
    for place in reversed(range(len(places))):
        if places[place]:
            exponent = _bump(place, base, max_bits)
            if place and exponent >= max_bits:
                raise MagnitudeCapExceeded(exponent + 1)
            total += places[place] * new_base**exponent
            if total.bit_length() > max_bits:
                raise MagnitudeCapExceeded(total.bit_length())
    return total


def _strong_successor(digits: Digits, base: int, max_bits: int) -> tuple[int, Digits, int]:
    """New base, digits and value of the strong step from ``digits`` in ``base``.

    Each nonzero digit keeps its value and moves from position ``e`` to
    ``_bump(e)``: its position's hereditary form evaluated at ``B = base + 1``.
    Minus one is the borrow ``c*B**e - 1 = (c-1)*B**e + sum((B-1)*B**i for i < e)``.
    Raises MagnitudeCapExceeded exactly when the bumped value has more than
    ``max_bits`` bits. Positions are checked before any digit list is
    built: ``_bump`` refuses a nested exponent at or above ``max_bits``,
    and a top position ``e`` with ``B**e >= 2**max_bits`` is refused here.
    The work is one bump per nonzero digit; zero digits cost only their
    slots in the new digit list. The top position is the first nonzero
    digit's, so leading zeros are skipped, not bumped.
    """
    last, lead = len(digits) - 1, 0
    while not digits[lead]:
        lead += 1
    new_base, top = base + 1, last - lead
    new_top = _bump(top, base, max_bits)
    if new_top * (new_base.bit_length() - 1) >= max_bits:
        raise MagnitudeCapExceeded(new_top * (new_base.bit_length() - 1) + 1)
    bumped = [0] * (new_top + 1)
    for i in compress(count(), digits):
        bumped[new_top - _bump(last - i, base, max_bits)] = digits[i]
    successor = _borrow(bumped, new_base)
    value = _evaluate(successor, new_base)
    if (value + 1).bit_length() > max_bits:
        raise MagnitudeCapExceeded((value + 1).bit_length())
    return new_base, successor, value


def _decreasing_successor(digits: Digits, base: int, max_bits: int) -> tuple[int, Digits, int]:
    """The countdown step: borrow one in ``base``; no cap applies."""
    successor = _borrow(digits, base)
    return base, successor, _evaluate(successor, base)


def _weak_successor(digits: Digits, base: int, max_bits: int) -> tuple[int, Digits, int]:
    """The weak step: reread ``digits`` in ``base + 1`` and count down there."""
    successor = _borrow(digits, base + 1)
    return base + 1, successor, _evaluate(successor, base + 1)


# (digits, base, max_bits) -> (next_base, digits, value) of a nonzero record's successor
_SUCCESSORS: dict[RunKind, Callable[[Digits, int, int], tuple[int, Digits, int]]] = {
    RunKind.DECREASING: _decreasing_successor,
    RunKind.WEAK: _weak_successor,
    RunKind.STRONG: _strong_successor,
}


def _units_block(prev: StepRecord, kind: RunKind, steps: int) -> Iterator[StepRecord]:
    """The next ``min(u, steps)`` records after ``prev``, each one lower in the units digit only.

    ``prev`` is a weak or decreasing record of at least two digits whose
    units digit ``u`` is nonzero; its other digits, ``high``, stay for
    ``u`` steps: Cichoń's ``H_{α+c}(n) = H_α(n+c)`` (Proc. AMS 87, 1983).
    Record ``s``, from 1, has digits ``high + (u - s,)`` in base
    ``b = prev.base + s`` (weak) or ``prev.base`` (decreasing), value
    ``high`` evaluated in ``b`` times ``b`` plus ``u - s`` (weak) or
    ``prev.value - s`` (decreasing), and ``prev``'s text up to its units
    digit followed by ``render`` of the new units digit. ``_SUCCESSORS``
    does not run, so the verifiers, which step every record with it,
    derive these records another way.
    """
    high, u = prev.digits[:-1], prev.digits[-1]
    head = prev.rendered[: len(prev.rendered) - len(render(prev.digits[-1:], prev.base))]
    index, base, value, weak = prev.index, prev.base, prev.value, kind is RunKind.WEAK
    for digit in range(u - 1, u - 1 - min(u, steps), -1):
        index += 1
        if weak:
            base += 1
            value = _evaluate(high, base) * base + digit
        else:
            value -= 1
        yield StepRecord(index, base, value, high + (digit,), head + render((digit,), base))


def run(kind: RunKind, cfg: RunConfig) -> Iterator[StepRecord]:
    """Yield step records until the value reaches zero or a cap fires.

    Records stream one at a time, starting with the seed numeral at index
    0; nothing is precomputed beyond the record being yielded. The last
    record decides the outcome: ``RunOutcome.of(last, cfg)``. Use
    ``run_collected`` when the whole trace fits in memory anyway.

    Weak and strong runs use ``base = start_base + index``; decreasing
    runs keep ``start_base`` fixed. A weak or decreasing record of at
    least two digits whose units digit is nonzero is followed by a
    ``_units_block``, up to the step cap; every other record, a borrow,
    a single digit or a strong one, by its ``_SUCCESSORS`` step, rendered
    whole.
    """
    successor = _SUCCESSORS[kind]
    blocks = kind is not RunKind.STRONG
    digits = to_digits(cfg.start_value, cfg.start_base)
    record = StepRecord(0, cfg.start_base, cfg.start_value, digits, render(digits, cfg.start_base))
    yield record
    while _halt(record, cfg) is None:
        if blocks and len(record.digits) > 1 and record.digits[-1]:
            for record in _units_block(record, kind, cfg.max_steps - 1 - record.index):
                yield record
        else:
            try:
                base, digits, value = successor(record.digits, record.base, cfg.max_bits)
            except MagnitudeCapExceeded:
                return
            record = StepRecord(record.index + 1, base, value, digits, render(digits, base))
            yield record


def run_collected(kind: RunKind, cfg: RunConfig) -> tuple[list[StepRecord], RunOutcome]:
    """Exhaust ``run`` into a list and return it with the outcome."""
    records = list(run(kind, cfg))
    return records, RunOutcome.of(records[-1], cfg)
