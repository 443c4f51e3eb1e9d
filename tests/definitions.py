"""Goodstein runs read straight off their definitions: the tests' trusted base.

Each function is the slow, obvious reading of one definition, so that a
reader can check it by eye and the package's fast paths can be tested
against it. This module uses the standard library only and imports
nothing from ``goodstein``. A kind is named by its ``RunKind`` value:
``"decreasing"``, ``"weak"`` or ``"strong"``. A record is the tuple
``(index, base, value, digits, rendered)``, laid out as ``StepRecord`` is.
"""

from functools import lru_cache


@lru_cache(maxsize=16)  # a run's step asks again for the digits of the record it steps from
def digits_of(value, base):
    """The base-``base`` digits of ``value``, most significant first, by repeated division."""
    out = []
    while value:
        value, digit = divmod(value, base)
        out.append(digit)
    return tuple(reversed(out))


def value_of(digits, base):
    """The value of ``digits`` in ``base``, by Horner's rule."""
    total = 0
    for digit in digits:
        total = total * base + digit
    return total


def render(digits, base):
    """The numeral's text: the digits, each of 10 or more in parentheses, or 0; then ``_base``."""
    body = "".join(str(digit) if digit < 10 else f"({digit})" for digit in digits)
    return f"{body or '0'}_{base}"


def hereditary(value, base):
    """The hereditary base-``base`` form of ``value``: its ``(exponent, coefficient)``
    terms, highest exponent first, each exponent such a form again; zero is ``()``.

    Read with ω for the base it is a Cantor normal form, ordered by tuple ``<``.
    """
    places = digits_of(value, base)
    top = len(places) - 1
    return tuple((hereditary(top - i, base), digit) for i, digit in enumerate(places) if digit)


def evaluate(form, base, max_bits):
    """A hereditary form read in ``base``, or None where that needs more than ``max_bits`` bits.

    A power ``base**e`` with ``e >= max_bits`` already needs more, so it is
    refused before it is computed.
    """
    total = 0
    for exponent_form, coefficient in form:
        exponent = evaluate(exponent_form, base, max_bits)
        if exponent is None or exponent >= max_bits:
            return None
        total += coefficient * base**exponent
        if total.bit_length() > max_bits:
            return None
    return total


def step(kind, value, base, max_bits):
    """``(base, value)`` of the ``kind`` successor of a nonzero ``value`` in ``base``.

    Decreasing: ``value - 1`` in the same base. Weak: the digits read in
    ``base + 1``, minus one. Strong: the hereditary form read in
    ``base + 1``, minus one, or None exactly where that bumped value needs
    more than ``max_bits`` bits. Weak and decreasing runs have no magnitude cap.
    """
    if kind == "decreasing":
        return base, value - 1
    if kind == "weak":
        return base + 1, value_of(digits_of(value, base), base + 1) - 1
    bumped = evaluate(hereditary(value, base), base + 1, max_bits)
    return None if bumped is None else (base + 1, bumped - 1)


def run(kind, start, base, max_steps, max_bits):
    """The records of a run, stepped from the seed until zero or a cap, and its status."""
    records, value = [], start
    while True:
        places = digits_of(value, base)
        records.append((len(records), base, value, places, render(places, base)))
        if value == 0:
            return records, "TerminatedAtZero"
        if len(records) == max_steps:
            return records, "StepCapReached"
        successor = step(kind, value, base, max_bits)
        if successor is None:
            return records, "MagnitudeCapReached"
        base, value = successor


def order_key(kind, value, base):
    """A record's place in its kind's well-order, to compare with ``<``.

    Weak and decreasing records compare their digits, fewer digits first,
    then lexicographically; strong records compare their hereditary forms.
    """
    if kind == "strong":
        return hereditary(value, base)
    places = digits_of(value, base)
    return len(places), places


def pivot(kind, before, after):
    """Where the step from record ``before`` to record ``after`` first differs, by a scan.

    The entries scanned are the digits, zero-padded on the left to one
    width (weak and decreasing), or the top-level terms of the hereditary
    forms (strong). A proper prefix differs at its end. Either record's
    digits may carry leading zeros.
    """
    (_, old_base, _, old, _), (_, new_base, _, new, _) = before, after
    if kind == "strong":
        old = hereditary(value_of(old, old_base), old_base)
        new = hereditary(value_of(new, new_base), new_base)
    else:
        width = max(len(old), len(new))
        old, new = (0,) * (width - len(old)) + tuple(old), (0,) * (width - len(new)) + tuple(new)
    changed = (i for i, (a, b) in enumerate(zip(old, new)) if a != b)
    return next(changed, min(len(old), len(new)))


def read_decimal(field):
    """A trace field read by the rule ``-?[0-9]+``, character by character; ValueError otherwise."""
    if isinstance(field, str):
        unsigned = field[1:] if field.startswith("-") else field
        if unsigned and all(c in "0123456789" for c in unsigned):
            return int(field)
    raise ValueError(f"expected a decimal string, got {field!r}")


def named(value):
    """``value`` as a refusal names it: in decimal, or past the int<->str limit by its width."""
    try:
        return str(value)
    except ValueError:
        return f"of {value.bit_length()} bits"
