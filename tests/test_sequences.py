import pickle
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goodstein.errors import DomainError, InvalidBase, MagnitudeCapExceeded
from goodstein.hereditary import build_hereditary
from goodstein.numerals import CUT, from_digits, render, to_digits
from goodstein.sequences import (
    _SUCCESSORS,
    DEFAULT_MAX_BITS,
    DEFAULT_MAX_STEPS,
    RunConfig,
    RunKind,
    RunOutcome,
    RunStatus,
    decreasing_step,
    run,
    run_collected,
    strong_step,
    weak_step,
)


def weak_bump_oracle(value, base):
    """Independent weak-step oracle: rebuild the value digit by digit in base+1."""
    total, power = 0, 1
    while value:
        value, digit = divmod(value, base)
        total += digit * power
        power *= base + 1
    return total - 1


def hereditary_bump_oracle(value, old, new):
    """Independent strong-bump oracle: recursive value-domain base swap."""
    total, position = 0, 0
    while value:
        value, digit = divmod(value, old)
        if digit:
            total += digit * new ** hereditary_bump_oracle(position, old, new)
        position += 1
    return total


def eval_capped_reference(tree, base, max_bits):
    """Evaluate a hereditary tree term by term, refusing to grow past ``max_bits`` bits."""
    total = 0
    for exponent_tree, coefficient in tree:
        exponent = eval_capped_reference(exponent_tree, base, max_bits)
        if exponent_tree and exponent >= max_bits:
            raise MagnitudeCapExceeded(exponent + 1)
        total += coefficient * base**exponent
        if total.bit_length() > max_bits:
            raise MagnitudeCapExceeded(total.bit_length())
    return total


def strong_step_reference(value, base, max_bits):
    """Slow strong step: the whole hereditary tree of ``value``, summed in ``base + 1``, minus one.

    Each nonzero digit costs one full-width power and one add; ``strong_step``
    moves digits instead, so the two share no arithmetic beyond ``build_hereditary``.
    """
    return eval_capped_reference(build_hereditary(value, base), base + 1, max_bits) - 1


def cap_verdict(step, value, base, max_bits):
    """The step's value, or None where it raises MagnitudeCapExceeded."""
    try:
        return step(value, base, max_bits)
    except MagnitudeCapExceeded as exc:
        assert exc.bit_length > max_bits
        return None


# --- single steps ------------------------------------------------------------

@pytest.mark.parametrize("value, base, expected", [(25, 2, 108), (108, 3, 319), (1, 2, 0), (1, 9, 0)])
def test_weak_step_cases(value, base, expected):
    assert weak_step(value, base) == expected


def test_weak_step_domain():
    with pytest.raises(DomainError):
        weak_step(0, 2)
    with pytest.raises(DomainError):
        weak_step(5, 1)


@given(value=st.integers(1, 10**12), base=st.integers(2, 50))
def test_weak_step_matches_oracle(value, base):
    assert weak_step(value, base) == weak_bump_oracle(value, base)


def test_weak_step_grows_on_multi_digit_values():
    for base in range(2, 11):
        for value in range(base, 2000):
            assert weak_step(value, base) >= value


@pytest.mark.parametrize("value, base, expected", [(3, 2, 3), (4, 2, 26), (26, 3, 41)])
def test_strong_step_cases(value, base, expected):
    assert strong_step(value, base) == expected


def test_strong_step_matches_oracle():
    for base in range(2, 7):
        for value in range(1, 300):
            expected = hereditary_bump_oracle(value, base, base + 1) - 1
            assert strong_step(value, base) == expected


@settings(deadline=None)
@given(value=st.integers(1, 10**6), base=st.integers(2, 20), max_bits=st.integers(1, 10**4))
@example(value=126, base=55, max_bits=7)
@example(value=126, base=55, max_bits=8)
def test_strong_step_matches_slow_reference(value, base, max_bits):
    # same value and same cap verdict, at the drawn cap and, where the
    # bumped value is not astronomically wide, on both sides of its width
    caps = {max_bits}
    successor = cap_verdict(strong_step_reference, value, base, 10**5)
    if successor is not None:
        bumped_bits = (successor + 1).bit_length()
        caps |= {bumped_bits, max(bumped_bits - 1, 1)}
    for cap in caps:
        assert cap_verdict(strong_step, value, base, cap) == cap_verdict(
            strong_step_reference, value, base, cap
        )


def test_strong_step_domain():
    with pytest.raises(DomainError):
        strong_step(0, 2)


def test_strong_step_magnitude_cap():
    with pytest.raises(MagnitudeCapExceeded) as excinfo:
        strong_step(16, 2, max_bits=10)
    assert excinfo.value.bit_length > 10


def test_strong_step_magnitude_cap_counts_the_units_digit():
    # 126 = 2*55 + 16 bumps to 2*56 + 16 = 128, which needs 8 bits
    with pytest.raises(MagnitudeCapExceeded):
        strong_step(126, 55, max_bits=7)
    assert strong_step(126, 55, max_bits=8) == 127


def test_decreasing_step():
    assert decreasing_step(24) == 23
    assert decreasing_step(108) == 107
    assert decreasing_step(1) == 0
    with pytest.raises(DomainError):
        decreasing_step(0)


# --- runs ---------------------------------------------------------------------

def test_weak_run_from_25_values():
    records, outcome = run_collected(RunKind.WEAK, RunConfig(25, max_steps=5))
    assert [r.value for r in records] == [25, 108, 319, 717, 1423]
    assert [r.base for r in records] == [2, 3, 4, 5, 6]
    assert outcome.status is RunStatus.STEP_CAP_REACHED
    assert outcome.steps_emitted == 5


WEAK_8_ANCHORS = {
    2: "1000_2",
    3: "222_3",
    4: "221_4",
    5: "220_5",
    6: "215_6",
    11: "210_11",
    12: "20(11)_12",
    23: "200_23",
    24: "1(23)(23)_24",
    47: "1(23)0_47",
    48: "1(22)(47)_48",
    95: "1(22)0_95",
    96: "1(21)(95)_96",
    191: "1(21)0_191",
    192: "1(20)(191)_192",
    383: "1(20)0_383",
    384: "1(19)(383)_384",
    767: "1(19)0_767",
    768: "1(18)(767)_768",
    1535: "1(18)0_1535",
}


def test_weak_run_from_8_trace_anchors():
    records, _ = run_collected(RunKind.WEAK, RunConfig(8, max_steps=1600))
    by_base = {r.base: r.rendered for r in records}
    for base, rendered in WEAK_8_ANCHORS.items():
        assert by_base[base] == rendered
        assert records[base - 2].base == base  # base tracks start_base + index


def test_weak_run_from_1():
    records, outcome = run_collected(RunKind.WEAK, RunConfig(1))
    assert [(r.index, r.base, r.value) for r in records] == [(0, 2, 1), (1, 3, 0)]
    assert outcome.status is RunStatus.TERMINATED_AT_ZERO
    assert outcome.steps_emitted == 2
    assert outcome.final.value == 0


@pytest.mark.parametrize("start", range(1, 8))
def test_weak_run_terminates_at_desk_scale(start):
    records, outcome = run_collected(RunKind.WEAK, RunConfig(start, max_steps=10**5))
    assert outcome.status is RunStatus.TERMINATED_AT_ZERO
    assert outcome.final.value == 0
    assert records[-1] == outcome.final


@pytest.mark.parametrize("start, base", [(3, 10), (7, 2), (20, 5)])
def test_decreasing_run_takes_exactly_start_steps(start, base):
    records, outcome = run_collected(
        RunKind.DECREASING, RunConfig(start, base, max_steps=10**5)
    )
    assert outcome.status is RunStatus.TERMINATED_AT_ZERO
    assert outcome.final.index == start
    assert [r.value for r in records] == list(range(start, -1, -1))
    assert all(r.base == base for r in records)


def test_strong_run_from_3_full():
    records, outcome = run_collected(RunKind.STRONG, RunConfig(3))
    assert [r.value for r in records] == [3, 3, 3, 2, 1, 0]
    assert [r.base for r in records] == [2, 3, 4, 5, 6, 7]
    assert outcome.status is RunStatus.TERMINATED_AT_ZERO


def test_strong_run_from_4_prefix():
    records, _ = run_collected(RunKind.STRONG, RunConfig(4, max_steps=6))
    assert [r.value for r in records] == [4, 26, 41, 60, 83, 109]


def test_strong_run_from_4_hits_step_cap():
    _, outcome = run_collected(RunKind.STRONG, RunConfig(4, max_steps=3000))
    assert outcome.status is RunStatus.STEP_CAP_REACHED
    assert outcome.final.value > 0


def test_strong_run_from_16_hits_magnitude_cap():
    records, outcome = run_collected(
        RunKind.STRONG, RunConfig(16, max_steps=10**4, max_bits=2000)
    )
    assert outcome.status is RunStatus.MAGNITUDE_CAP_REACHED
    assert outcome.final == records[-1]
    assert outcome.final.value.bit_length() <= 2000


REFERENCE_STEPS = {
    RunKind.DECREASING: lambda value, base, max_bits: (decreasing_step(value), base),
    RunKind.WEAK: lambda value, base, max_bits: (weak_step(value, base), base + 1),
    RunKind.STRONG: lambda value, base, max_bits: (
        strong_step_reference(value, base, max_bits),
        base + 1,
    ),
}


@given(
    kind=st.sampled_from(list(RunKind)),
    start=st.integers(0, 300),
    base=st.integers(2, 20),
    max_steps=st.integers(1, 60),
    max_bits=st.integers(1, 4000),
)
def test_record_consistency_along_runs(kind, start, base, max_steps, max_bits):
    # the whole run, outcome included, is what stepping the reference finds
    cfg = RunConfig(start, base, max_steps, max_bits)
    records, outcome = run_collected(kind, cfg)
    step = REFERENCE_STEPS[kind]
    expected = [(0, base, start)]
    status = None
    while status is None:
        index, base_now, value = expected[-1]
        if value == 0:
            status = RunStatus.TERMINATED_AT_ZERO
        elif len(expected) == max_steps:
            status = RunStatus.STEP_CAP_REACHED
        else:
            try:
                value, base_now = step(value, base_now, max_bits)
            except MagnitudeCapExceeded:
                status = RunStatus.MAGNITUDE_CAP_REACHED
            else:
                expected.append((index + 1, base_now, value))
    assert [(r.index, r.base, r.value) for r in records] == expected
    assert (outcome.status, outcome.steps_emitted, outcome.final) == (
        status,
        len(expected),
        records[-1],
    )
    for record in records:
        assert record.digits == to_digits(record.value, record.base)
        assert record.rendered == render(record.digits, record.base)


@st.composite
def wide_seeds(draw):
    """A kind, a seed of CUT + 1 to 3 * CUT digits (a power, a power plus or
    minus one, or any value of that width), its base and 30 steps."""
    kind = draw(st.sampled_from(list(RunKind)))
    base = draw(st.sampled_from([2, 3, 9, 10, 11, 100, 255, 256, 257, 1000]))
    width = draw(st.integers(CUT + 1, 3 * CUT))
    if draw(st.booleans()):
        start = base ** (width - 1) + draw(st.integers(-1, 1))
    else:
        start = draw(st.integers(base ** (width - 1), base**width - 1))
    return kind, start, base, 30


@settings(deadline=None, max_examples=100)
@given(seed=wide_seeds())
# weak runs that cross bases 10 and 256; 2**k and base**k seeds, whose
# trailing zeros borrow into every digit and whose first step drops the
# leading digit; strong runs whose positions stay below the base, so that
# the strong step keeps the length; a pivot digit that prints in parentheses
# above a successor digit that does not, ...(10)_11 -> ...9_12
@example(seed=(RunKind.WEAK, 2**999 + 12345, 2, 300))
@example(seed=(RunKind.WEAK, from_digits([1] + [0] * CUT + [10], 11), 11, 30))
@example(seed=(RunKind.WEAK, 2**1000, 2, 40))
@example(seed=(RunKind.WEAK, 7 ** (CUT + 2), 7, 40))
@example(seed=(RunKind.WEAK, 250 ** (CUT + 2) - 1, 250, 40))
@example(seed=(RunKind.DECREASING, 2**1000, 2, 40))
@example(seed=(RunKind.DECREASING, 10 ** (CUT + 2), 10, 40))
@example(seed=(RunKind.DECREASING, 256 ** (CUT + 2) + 1, 256, 40))
@example(seed=(RunKind.DECREASING, 257 ** (CUT + 2), 257, 40))
@example(seed=(RunKind.STRONG, from_digits([7] * (CUT + 6), 100), 100, 40))
@example(seed=(RunKind.STRONG, from_digits([3] * (CUT + 6), 250), 250, 40))
@example(seed=(RunKind.STRONG, 9 ** (CUT + 2) + 8, 9, 6))
def test_every_record_of_a_wide_run_renders_its_digits(seed):
    kind, start, base, steps = seed
    records, _ = run_collected(kind, RunConfig(start, base, steps, max_bits=10**5))
    for record in records:
        assert record.rendered == render(record.digits, record.base)


def test_a_successor_that_changes_a_digit_above_the_pivot_is_rendered_whole(monkeypatch):
    # lowering the leading digit too keeps the length, so only the digits
    # above the pivot show that the predecessor's text no longer applies
    weak = _SUCCESSORS[RunKind.WEAK]

    def lowered_lead(digits, base, max_bits):
        new_base, successor, value = weak(digits, base, max_bits)
        if successor[0] > 1:
            successor = (successor[0] - 1,) + successor[1:]
            value -= new_base ** (len(successor) - 1)
        return new_base, successor, value

    monkeypatch.setitem(_SUCCESSORS, RunKind.WEAK, lowered_lead)
    records, _ = run_collected(RunKind.WEAK, RunConfig(3 ** (CUT + 2) * 2 + 5, 3, 20))
    lowered = [
        nxt.index
        for prev, nxt in zip(records, records[1:])
        if len(prev.digits) == len(nxt.digits) > CUT and prev.digits[0] != nxt.digits[0]
    ]
    assert len(lowered) >= 5
    for record in records:
        assert record.rendered == render(record.digits, record.base)


@settings(deadline=None)
@given(value=st.integers(1, 10**6 - 1), base=st.integers(2, 20))
def test_tree_domain_strong_step_matches_strong_step(value, base):
    # run moves the record's digits to their bumped positions; the slow
    # reference sums the value's whole hereditary tree
    max_bits = 10**4
    records, outcome = run_collected(RunKind.STRONG, RunConfig(value, base, 2, max_bits))
    try:
        expected = strong_step_reference(value, base, max_bits)
    except MagnitudeCapExceeded:
        assert outcome.status is RunStatus.MAGNITUDE_CAP_REACHED
        assert records == [outcome.final]
        return
    assert [(r.index, r.base, r.value) for r in records] == [
        (0, base, value),
        (1, base + 1, expected),
    ]
    assert records[1].digits == to_digits(expected, base + 1)


def test_wide_strong_run_matches_the_slow_reference():
    # from 16 to 52,000 bits positions pass base**2 and whole 64-digit
    # blocks are zero, which the narrow hypothesis draws never reach
    max_bits = 52_000
    records, outcome = run_collected(RunKind.STRONG, RunConfig(16, max_bits=max_bits))
    values = [16]
    while True:
        try:
            values.append(strong_step_reference(values[-1], 2 + len(values) - 1, max_bits))
        except MagnitudeCapExceeded:
            break
    assert [(r.index, r.base, r.value) for r in records] == [
        (index, 2 + index, value) for index, value in enumerate(values)
    ]
    assert outcome.status is RunStatus.MAGNITUDE_CAP_REACHED
    assert max(len(r.digits) for r in records) > records[-1].base ** 2
    widest = max(records, key=lambda r: len(r.digits)).digits
    stops = range(len(widest), CUT, -CUT)  # _evaluate's blocks, least significant first
    assert any(not any(widest[stop - CUT : stop]) for stop in stops)


@given(start=st.integers(1, 300), base=st.integers(2, 8), max_bits=st.integers(1, 200))
def test_magnitude_cap_fires_where_strong_step_refuses(start, base, max_bits):
    max_steps = 60
    records, outcome = run_collected(RunKind.STRONG, RunConfig(start, base, max_steps, max_bits))
    values = [start]
    while True:
        if values[-1] == 0:
            status = RunStatus.TERMINATED_AT_ZERO
            break
        if len(values) == max_steps:
            status = RunStatus.STEP_CAP_REACHED
            break
        try:
            values.append(strong_step_reference(values[-1], base + len(values) - 1, max_bits))
        except MagnitudeCapExceeded:
            status = RunStatus.MAGNITUDE_CAP_REACHED
            break
    assert [r.value for r in records] == values
    assert outcome.status is status


def test_run_streams_lazily():
    stream = run(RunKind.WEAK, RunConfig(8, max_steps=10**6))
    head = list(islice(stream, 3))
    assert [r.index for r in head] == [0, 1, 2]
    stream.close()


def test_step_record_is_an_immutable_tuple_of_its_fields():
    record = next(run(RunKind.WEAK, RunConfig(8)))
    index, base, value, digits, rendered = record
    assert (index, base, value, digits, rendered) == record == (0, 2, 8, (1, 0, 0, 0), "1000_2")
    assert repr(record) == (
        "StepRecord(index=0, base=2, value=8, digits=(1, 0, 0, 0), rendered='1000_2')"
    )
    with pytest.raises(AttributeError):
        record.value = 9


def test_run_config_and_outcome_are_immutable_tuples_of_their_fields():
    cfg = RunConfig(8, max_steps=3)
    start_value, start_base, max_steps, max_bits = cfg
    assert (start_value, start_base, max_steps, max_bits) == cfg == (8, 2, 3, DEFAULT_MAX_BITS)
    assert repr(cfg) == "RunConfig(start_value=8, start_base=2, max_steps=3, max_bits=1000000)"
    assert RunConfig(start_value=16, max_bits=300) == RunConfig(16, 2, DEFAULT_MAX_STEPS, 300)
    _, outcome = run_collected(RunKind.WEAK, cfg)
    status, steps_emitted, final = outcome
    assert (status, steps_emitted, final) == outcome
    assert outcome == (RunStatus.STEP_CAP_REACHED, 3, (2, 4, 41, (2, 2, 1), "221_4"))
    assert repr(outcome) == (
        "RunOutcome(status=<RunStatus.STEP_CAP_REACHED: 'StepCapReached'>, steps_emitted=3, "
        "final=StepRecord(index=2, base=4, value=41, digits=(2, 2, 1), rendered='221_4'))"
    )
    for value in (cfg, outcome):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
    with pytest.raises(AttributeError):
        cfg.max_steps = 4
    with pytest.raises(AttributeError):
        cfg.label = "new attribute"
    with pytest.raises(AttributeError):
        outcome.steps_emitted = 4


def test_run_collected_matches_run():
    cfg = RunConfig(6, max_steps=100)
    records, outcome = run_collected(RunKind.WEAK, cfg)
    streamed = list(run(RunKind.WEAK, cfg))
    assert streamed == records
    assert RunOutcome.of(streamed[-1], cfg) == outcome


def test_run_config_validation():
    with pytest.raises(InvalidBase):
        RunConfig(5, start_base=1)
    with pytest.raises(DomainError):
        RunConfig(5, max_steps=0)
    with pytest.raises(DomainError):
        RunConfig(-1)
    with pytest.raises(DomainError):
        RunConfig(5, max_bits=0)


def test_outcome_zero_iff_terminated():
    for start, steps in [(1, 10), (25, 5)]:
        _, outcome = run_collected(RunKind.WEAK, RunConfig(start, max_steps=steps))
        assert (outcome.status is RunStatus.TERMINATED_AT_ZERO) == (outcome.final.value == 0)
