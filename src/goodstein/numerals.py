"""Base-independent digit sequences and exact radix arithmetic.

A digit sequence is a plain tuple of non-negative ints, most significant
digit first; zero is the empty tuple. The sequence itself carries no base:
``(1, 1, 0, 0, 1)`` names 25 when read in base 2 and 109 when read in
base 3. Every operation that needs a base takes it as an explicit
argument, and digits are full bignums because the bases a weak Goodstein
run walks through grow without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DigitOutOfRange, DomainError, InvalidBase, Underflow

Digits = tuple[int, ...]


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class RenderedNumeral:
    text: str
    base: int


def _check_base(base: int) -> None:
    if base < 2:
        raise InvalidBase(base)


def _check_digits(digits: Sequence[int], base: int) -> None:
    for index, digit in enumerate(digits):
        if not 0 <= digit < base:
            raise DigitOutOfRange(index, digit, base)


def to_digits(value: int, base: int) -> Digits:
    """Positional base-``base`` digits of ``value``, most significant first.

    Zero maps to the empty tuple; otherwise the leading digit is nonzero
    and every digit is smaller than the base.
    """
    _check_base(base)
    if value < 0:
        raise DomainError(f"expected a natural number, got {value}")
    out: list[int] = []
    while value:
        value, digit = divmod(value, base)
        out.append(digit)
    out.reverse()
    return tuple(out)


def from_digits(digits: Sequence[int], base: int) -> int:
    """Horner evaluation of a digit sequence in the given base.

    Rejects digits outside ``[0, base)`` instead of silently evaluating
    them; the empty sequence evaluates to 0.
    """
    _check_base(base)
    _check_digits(digits, base)
    value = 0
    for digit in digits:
        value = value * base + digit
    return value


def decrement_in_base(digits: Sequence[int], base: int) -> Digits:
    """Subtract one using the schoolbook borrow rule.

    Trailing zeros turn into ``base - 1``, the last nonzero digit drops by
    one, and leading zeros produced this way are stripped, so the result
    equals ``to_digits(from_digits(digits, base) - 1, base)`` and is never
    longer than the input.
    """
    _check_base(base)
    _check_digits(digits, base)
    if not any(digits):
        raise Underflow("cannot decrement a zero-valued digit sequence")
    out = list(digits)
    i = len(out) - 1
    while out[i] == 0:
        out[i] = base - 1
        i -= 1
    out[i] -= 1
    while out and out[0] == 0:
        del out[0]
    return tuple(out)


def lex_compare(a: Sequence[int], b: Sequence[int]) -> Ordering:
    """Length-first lexicographic comparison of two digit sequences.

    A strictly shorter sequence is LESS; equal lengths compare digit by
    digit from the most significant position. This is a total order, and
    on equal lengths it coincides with comparing the sequences left-padded
    with zeros.
    """
    if len(a) != len(b):
        return Ordering.LESS if len(a) < len(b) else Ordering.GREATER
    for x, y in zip(a, b):
        if x != y:
            return Ordering.LESS if x < y else Ordering.GREATER
    return Ordering.EQUAL


def render(digits: Sequence[int], base: int) -> RenderedNumeral:
    """Compact numeral with the base as suffix, e.g. ``(2, 0, 11)`` -> ``20(11)_12``.

    Digits below ten print as single characters, larger digits are wrapped
    in parentheses, and a zero-valued (empty) sequence prints as ``0``.
    """
    _check_base(base)
    body = "".join([str(d) if d < 10 else f"({d})" for d in digits]) or "0"
    return RenderedNumeral(text=f"{body}_{base}", base=base)


def power_predecessor(x: int, n: int) -> int:
    """``x**n - 1`` accumulated as ``(x-1)*x**(n-1) + ... + (x-1)*x + (x-1)``.

    This is the expansion that feeds the borrow rule: decrementing a single
    unit in position ``n`` leaves ``x - 1`` in every lower position. The sum
    is built term by term, never via the closed form.
    """
    if x <= 0 or n <= 0:
        raise DomainError(f"need x >= 1 and n >= 1, got x={x}, n={n}")
    total = 0
    for i in range(n):
        total += (x - 1) * x**i
    return total
