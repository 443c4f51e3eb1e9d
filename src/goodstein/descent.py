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
predecessor. A weak or decreasing successor is built here from the
borrow's closed form: the predecessor's last nonzero digit drops by one
and every digit below it becomes ``base - 1``. That form keeps every
digit above the pivot, so it descends in length-first lexicographic
order and bounds every record's length by the seed's, with nothing left
to check once a record equals it. ``sequences.run`` derives the same
records apart, by its own borrow or by a units-digit block. A strong
successor comes from ``run``'s own, ``_SUCCESSORS``, and the pair must
then have the shape of a borrow, which implies descent in tuple order:
the step lowers the predecessor tree's last top-level term and keeps
every term above it. A wide weak or decreasing successor that keeps the
length takes the predecessor's text, checked by then, above the
predecessor's last nonzero digit: the closed form keeps those digits, so
lent text is the rendering by construction. A certificate keeps the
seed, its digit count and one pivot per step. One loop, ``_certify``,
checks the records that both ``verify_run`` and ``goodstein verify``
read, and one function, ``_step``, checks each pair of them:
``check_step`` is that function on one pair.

After a record of two or more digits whose units digit ``u`` is nonzero,
the closed form lowers only the units digit for ``u`` steps, Cichoń's
``H_{α+c}(n) = H_α(n+c)``: ``_units_steps`` derives those records from the
high digits and the text above the units digit, found once per block.
``goodstein verify`` matches a block's lines to them by text, so
``_certify`` takes the block as one item, its last record and its step
count, and keeps the units digit as the pivot of each of its steps.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ArityExceeded, DomainError, EmptyRun, MagnitudeCapExceeded, StepMismatch
from .hereditary import HereditaryTree, build_from_digits
from .numerals import CUT, Digits, _check_digits, _evaluate, render, to_digits
from .sequences import _SUCCESSORS, RunKind, StepRecord


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
    wider than claimed: for weak and decreasing runs the borrow's closed
    form, which descends by construction. A strong step must then descend
    and change no term above the pivot. Returns the pivot: the index of
    ``prev``'s last nonzero digit (weak and decreasing), or of the last
    top-level term of its hereditary tree (strong), the first position
    where the step's digits, zero-padded to ``prev``'s width, or terms
    differ. ``prev``'s text is not checked, so the text lent to a wide
    successor is ``prev``'s digits rendered again; past the int<->str
    limit its base raises ValueError.
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

    ``prev``'s digits must be in range, zero-padded or not, and its text
    their rendering. None when ``prev`` is zero or a strong successor is
    wider than ``cap`` bits; weak and decreasing successors take no cap. A
    weak or decreasing successor is the borrow's closed form, derived here
    apart from ``run``'s: ``prev``'s last nonzero digit ``p`` drops by one,
    every digit below it becomes ``base - 1`` and leading zeros go. One as
    long as ``prev``, past ``CUT`` digits, keeps ``prev``'s digits above
    ``p``, so it takes ``prev``'s text there and renders only
    ``digits[p:]``: a digit's text does not depend on the base, so ``p``'s
    text starts where the rendering of ``prev.digits[p:]`` starts at the end
    of ``prev``'s. A strong successor comes from ``_SUCCESSORS`` and is
    rendered whole, as is any other. Its ``rendered`` is None when its base
    has no decimal text under CPython's int<->str limit.
    """
    old = prev.digits
    if not any(old):
        return None
    lent = False
    if kind is RunKind.STRONG:
        try:
            base, digits, value = _SUCCESSORS[RunKind.STRONG](old, prev.base, cap)
        except MagnitudeCapExceeded:
            return None
    else:
        base, n = prev.base + (kind is RunKind.WEAK), len(old)
        lead, p = 0, n - 1
        while not old[lead]:
            lead += 1
        while not old[p]:
            p -= 1
        lowered = (old[p] - 1,) if lead < p or old[p] > 1 else ()
        digits = tuple(old[lead:p]) + lowered + (base - 1,) * (n - 1 - p)
        value = _evaluate(digits, base)
        lent = len(digits) == n > CUT
    try:
        if lent:
            cut = len(prev.rendered) - len(render(old[p:], prev.base))
            rendered = prev.rendered[:cut] + render(digits[p:], base)
        else:
            rendered = render(digits, base)
    except ValueError:  # past the int<->str limit: _step renders it if it must
        rendered = None
    return StepRecord(prev.index + 1, base, value, digits, rendered)


def _step(
    prev: StepRecord,
    nxt: StepRecord,
    kind: RunKind,
    expected: Optional[StepRecord],
    prev_tree: Optional[HereditaryTree] = None,
) -> tuple[int, Optional[HereditaryTree]]:
    """``check_step`` for a ``prev`` whose digits are in range, given its expected successor.

    ``expected`` is ``_successor_record`` of ``prev`` under a cap of
    ``nxt.value + 1``'s bits, so never wider than claimed. Only a ``nxt``
    that differs from ``expected`` has its index, predecessor and fields
    checked one by one, to name the first that fails; ``expected``'s
    rendering is made here when it is None, past the int<->str limit. A
    strong pair may take ``prev``'s hereditary tree as ``prev_tree``, as the
    pair before it returned it.

    A weak or decreasing ``nxt`` that equals ``expected`` is the borrow, so
    it descends by construction, and the pivot is ``prev``'s last nonzero
    digit. A strong pivot is not searched for: it is the closed form of a
    borrow, proven with one prefix comparison and one entry comparison.
    Terms above the last one are equal, and the last drops, or, for a step
    that drops its units term 1, ``nxt``'s tree ends there. A failing
    strong pair is refused by its order if it does not descend, else by the
    first term it changes above the pivot. Returns the pivot and ``nxt``'s
    tree (None for weak and decreasing pairs).
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
        if nxt.rendered != (render(digits, base) if rendered is None else rendered):
            unrendered = f"rendered {nxt.rendered!r} does not match the digits"
            raise StepMismatch(nxt.index, unrendered)
    # nxt now matches expected, whose digits are the successor's own tuple
    if kind is not RunKind.STRONG:
        pivot = len(prev.digits) - 1
        while not prev.digits[pivot]:
            pivot -= 1
        return pivot, None
    before = build_from_digits(prev.digits, prev.base) if prev_tree is None else prev_tree
    after = build_from_digits(expected.digits, expected.base)
    pivot = len(before) - 1
    if after[:pivot] == before[:pivot] and after[pivot:] < before[pivot:]:
        return pivot, after
    if after >= before:
        raise StepMismatch(nxt.index, "hereditary trees do not descend in Cantor normal form order")
    # a tree that is a proper prefix of prev's differs where it ends
    changed = next((i for i, (a, b) in enumerate(zip(after, before)) if a != b), len(after))
    shape = f"the step changes term {changed}, above the last term {pivot} it lowers"
    raise StepMismatch(nxt.index, shape)


def _units_steps(prev: StepRecord, kind: RunKind) -> Iterator[tuple[int, int, int, Digits, str]]:
    """The fields of the units block after a checked ``prev``, in ``StepRecord``'s order.

    The block is empty unless ``prev`` is a weak or decreasing record of at
    least two digits whose units digit ``u`` is nonzero. Then each of its
    ``u`` steps starts from a nonzero units digit, so the borrow's closed
    form (``_successor_record``) lowers that digit alone: record ``s`` has
    digits ``high + (u - s,)``, where ``high`` is ``prev``'s other digits,
    in base ``prev.base + s`` (weak) or ``prev.base`` (decreasing), their
    value there, and ``prev``'s text above its units digit, lent as the
    closed form keeps ``high``, followed by the new units digit's. The
    pivot of each step is the units digit.
    """
    high, u = prev.digits[:-1], prev.digits[-1:]
    if kind is RunKind.STRONG or not high:  # a zero units digit takes no steps below
        return
    head = prev.rendered[: len(prev.rendered) - len(render(u, prev.base))]
    index, base, weak = prev.index, prev.base, kind is RunKind.WEAK
    for units in range(u[0] - 1, -1, -1):
        index, base, digits = index + 1, base + weak, high + (units,)
        # render's text of the units digit, without a call per step
        text = f"{head}{units}_{base}" if units < 10 else f"{head}({units})_{base}"
        yield index, base, _evaluate(digits, base), digits, text


def _certify(
    items: Iterable[tuple[StepRecord, Optional[StepRecord], int]], kind: RunKind
) -> DescentCertificate:
    """Check a ``kind`` run given as items of a record, its expected record and a step count.

    An item of one step is a record and ``_successor_record`` of the record
    before, checked by the time the item is drawn (None for the seed,
    which is checked on its own), and is one ``_step``. An item of more
    steps is a units block: the last of that many records of
    ``_units_steps`` of the record before, which the reader matched to them
    line by line, so each step's pivot is that record's units digit.
    """
    stream = iter(items)
    first, _, _ = next(stream, (None, None, 0))
    if first is None:
        raise EmptyRun("a run holds at least its seed record")
    _check_record(first)
    prev, tree, evidence = first, None, []
    for nxt, expected, steps in stream:
        if steps == 1:
            pivot, tree = _step(prev, nxt, kind, expected, tree)
            evidence.append(pivot)
        else:
            evidence += [len(prev.digits) - 1] * steps
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

    def pairs() -> Iterator[tuple[StepRecord, Optional[StepRecord], int]]:
        prev = None
        for nxt in records:
            cap = (nxt.value + 1).bit_length()
            yield nxt, None if prev is None else _successor_record(prev, kind, cap), 1
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
