"""Base-independent digit sequences and exact radix arithmetic.

A digit sequence is a plain tuple of non-negative ints, most significant
digit first; zero is the empty tuple. The sequence itself carries no base:
``(1, 1, 0, 0, 1)`` names 25 when read in base 2 and 109 when read in
base 3. Every operation that needs a base takes it as an explicit
argument, and digits are full bignums because the bases a weak Goodstein
run walks through grow without bound.

The public functions check their input. ``_borrow`` and ``_evaluate`` are
the same work without the checks, for callers whose digits are in range by
construction, such as the borrow's own output. ``_evaluate`` runs Horner's
rule on blocks of at most ``CUT`` digits, four digits per bignum multiply
once a block has ``HORNER_BY_FOUR`` digits.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from typing import Sequence

from .errors import DigitOutOfRange, DomainError, InvalidBase, Underflow

Digits = tuple[int, ...]

# Radix conversion works on blocks of at most this many digits: each is
# converted digit by digit, and a sequence this short is evaluated by
# Horner's rule alone.
CUT = 64

# ``_horner`` takes four digits per bignum multiply on a sequence of at
# least this many digits, and one per multiply on a shorter one, where the
# four-digit loop's setup costs more than it saves. Against the one-digit
# loop, in bases 10, 300 and 1000, it took 1.24-1.29 times as long on 16
# digits, 1.01-1.04 on 32, 0.95-0.98 on 40 and 0.85-0.86 on 64 (best of
# 15, 2-vCPU x86_64, CPython 3.11.7).
HORNER_BY_FOUR = 40

# ``_divmod`` hands a quotient of at most this many bits to the builtin
# ``divmod``. CPython 3.12's ``_pylong`` uses the same limit; on a 1e6-bit
# value, limits of 2,000 and 8,000 bits time the same within noise.
DIV_LIMIT = 4000


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _check_base(base: int) -> None:
    if base < 2:
        raise InvalidBase(base)


def _check_digits(digits: Sequence[int], base: int) -> None:
    if digits and not 0 <= min(digits) <= max(digits) < base:
        for index, digit in enumerate(digits):  # name the first bad digit
            if not 0 <= digit < base:
                raise DigitOutOfRange(index, digit, base)


def to_digits(value: int, base: int) -> Digits:
    """Positional base-``base`` digits of ``value``, most significant first.

    Zero maps to the empty tuple; otherwise the leading digit is nonzero
    and every digit is smaller than the base. Wide values are split by
    divide and conquer (Brent & Zimmermann, *Modern Computer Arithmetic*,
    2010, section 1.7): level by level from the top, every block is
    replaced by its ``divmod`` by the next lower ``base**(CUT * 2**k)``,
    down to blocks of at most ``CUT`` digits that the digit-at-a-time loop
    finishes. Every block is below the square of the power it is divided
    by, the precondition of Burnikel and Ziegler's recursive 2n-by-n
    division (MPI-I-98-1-022, 1998), which ``_divmod`` runs as CPython
    3.12's ``_pylong.int_divmod`` does (gh-90716). It costs a few
    multiplications, where CPython 3.11's builtin ``divmod`` is quadratic:
    a 1e6-bit value in base 250 takes 0.22-0.40 s instead of 0.97-1.16 s,
    a 4e6-bit value 1.9-2.3 s instead of 15.4-16.3 s (2-vCPU x86_64,
    CPython 3.11.7, on a shared host). Quotients of at most ``DIV_LIMIT`` bits go to the builtin.
    On 3.12 and later the builtin runs this same recursion, in Python
    too, for divisions this wide, so no version check is needed.
    """
    _check_base(base)
    if value < 0:
        raise DomainError(f"expected a natural number, got {value}")
    # ladder[k] is base**(CUT * 2**k). Stop once value < ladder[-1]**2;
    # when bit lengths already prove that, that square is never computed,
    # and neither is base**CUT for a value below 2**(CUT * (bits(base) - 1)).
    ladder: list[int] = []
    if value.bit_length() > CUT * (base.bit_length() - 1):
        power = base**CUT
        while power <= value:
            ladder.append(power)
            if 2 * power.bit_length() - 2 >= value.bit_length():
                break
            power *= power
    # every block but the first is below the last power split by, so it
    # stands for exactly CUT * 2**k digits; a zero first block is dropped
    blocks = [value]
    for power in reversed(ladder):
        blocks = [part for block in blocks for part in _divmod(block, power)]
        if not blocks[0]:
            del blocks[0]
    out: list[int] = []
    _leaf_digits(blocks[0], base, 0, out)
    for block in blocks[1:]:
        _leaf_digits(block, base, CUT, out)
    return tuple(out)


def _divmod(a: int, b: int) -> tuple[int, int]:
    """``divmod(a, b)`` for ``0 <= a < 2**n * b``, where ``b`` has ``n`` bits.

    Burnikel & Ziegler's 2n-by-n division, *Fast Recursive Division*,
    MPI-I-98-1-022, 1998, as in CPython 3.12's ``_pylong.int_divmod``
    (gh-90716): the dividend is divided as two 3n/2-by-n halves, down to
    quotients of at most ``DIV_LIMIT`` bits, which go to the builtin.
    ``to_digits`` meets the precondition, as ``a < b*b <= 2**n * b``.
    """
    n = b.bit_length()
    if a.bit_length() - n <= DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:  # the halves need an even n
        a <<= 1
        b <<= 1
        n += 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    if pad:
        r >>= 1
    return q1 << half | q2, r


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """Divide ``a12 * 2**n + a3 < 2**n * b`` by ``b = b1 * 2**n + b2``, with ``b1`` of ``n`` bits.

    The quotient estimated from the top halves alone is at most two too
    large; the loop takes it down to the true one.
    """
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _divmod(a12, b1)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _leaf_digits(value: int, base: int, width: int, out: list[int]) -> None:
    """Append the digits of ``value``, zero-padded on the left to ``width``."""
    digits: list[int] = []
    while value:
        value, digit = divmod(value, base)
        digits.append(digit)
    digits.extend([0] * (width - len(digits)))
    digits.reverse()
    out.extend(digits)


def from_digits(digits: Sequence[int], base: int) -> int:
    """Evaluate a digit sequence in the given base.

    Rejects digits outside ``[0, base)`` instead of silently evaluating
    them; the empty sequence evaluates to 0. Up to ``CUT`` digits this is
    Horner's rule; longer sequences are cut into blocks of ``CUT`` digits
    from the low end, each evaluated by Horner's rule unless it is all
    zeros, and the blocks are joined in pairs, level by level, with one
    multiply by ``base**(CUT * 2**k)`` per pair at level ``k``.
    """
    _check_base(base)
    _check_digits(digits, base)
    return _evaluate(digits, base)


def _evaluate(digits: Sequence[int], base: int) -> int:
    """``from_digits`` without its checks, for digits known to be in range.

    Each block of ``CUT`` digits goes through ``_horner``, so a full block
    costs 16 bignum multiplies and adds rather than 64; the joins above
    the blocks cost one multiply per pair.
    """
    if len(digits) <= CUT:
        return _horner(digits, base)
    # least significant block first; only the last one may be short
    stops = range(len(digits), 0, -CUT)
    blocks = [digits[stop - CUT : stop] for stop in stops[:-1]]
    blocks.append(digits[: stops[-1]])
    blocks = [_horner(block, base) if any(block) else 0 for block in blocks]
    power = base**CUT
    while True:
        odd = blocks[-1:] if len(blocks) % 2 else []
        blocks = [low + high * power for low, high in zip(blocks[::2], blocks[1::2])] + odd
        if len(blocks) == 1:
            return blocks[0]
        power *= power


def _horner(digits: Sequence[int], base: int) -> int:
    """Horner's rule, four digits per bignum multiply from ``HORNER_BY_FOUR`` digits on.

    The four digits ``a, b, c, d`` join as ``(a*B + b)*B**2 + c*B + d``,
    small numbers for a small base ``B``, and the value takes them with one
    multiply by ``B**4`` and one add. The ``len % 4`` leading digits go one
    at a time.
    """
    value = 0
    if len(digits) < HORNER_BY_FOUR:
        for digit in digits:
            value = value * base + digit
        return value
    rest = iter(digits)
    for digit in islice(rest, len(digits) % 4):
        value = value * base + digit
    square = base * base
    fourth = square * square
    for a, b, c, d in zip(rest, rest, rest, rest):
        value = value * fourth + ((a * base + b) * square + c * base + d)
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
    return _borrow(digits, base)


def _borrow(digits: Sequence[int], base: int) -> Digits:
    """``decrement_in_base`` without its checks, for in-range digits of a nonzero value.

    The result is canonical and in range whenever the input is, so a run
    can feed it back in without checking it again.
    """
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
    with zeros. It is tuple order on the keys ``(len, digits)``.
    """
    key_a, key_b = (len(a), tuple(a)), (len(b), tuple(b))
    if key_a < key_b:
        return Ordering.LESS
    return Ordering.GREATER if key_a > key_b else Ordering.EQUAL


# the text of each digit below 256, indexed by the digit's latin-1 code point
_DIGIT_TEXT = [str(d) if d < 10 else f"({d})" for d in range(256)]


def render(digits: Sequence[int], base: int) -> str:
    """Compact numeral with the base as suffix, e.g. ``(2, 0, 11)`` -> ``20(11)_12``.

    Digits below ten print as single characters, larger digits are wrapped
    in parentheses, and a zero-valued (empty) sequence prints as ``0``.
    Only the base is checked: a digit outside ``[0, base)`` prints the
    same way, so ``render((5,), 2)`` is ``5_2``. Up to base 256 the digits
    are rendered as bytes by one ``str.translate``; a digit that is no byte
    (below 0 or above 255), and every digit of a wider base, is formatted
    one at a time.
    """
    _check_base(base)
    if base <= 256:
        try:
            body = bytes(digits).decode("latin-1").translate(_DIGIT_TEXT)
        except (TypeError, ValueError):
            pass
        else:
            return f"{body or '0'}_{base}"
    body = "".join([str(d) if d < 10 else f"({d})" for d in digits]) or "0"
    return f"{body}_{base}"


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
