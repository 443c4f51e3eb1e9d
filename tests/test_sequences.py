import ast
import json
import pickle
import sys
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import definitions
from goodstein.cli import _jsonl_lines, _record_json, main
from goodstein.descent import _successor_record, check_step, verify_run
from goodstein.errors import DomainError, InvalidBase, MagnitudeCapExceeded, StepMismatch
from goodstein.numerals import CUT, from_digits, render
from goodstein.sequences import (
    _SUCCESSORS,
    DEFAULT_MAX_BITS,
    DEFAULT_MAX_STEPS,
    RunConfig,
    RunKind,
    RunOutcome,
    RunStatus,
    StepRecord,
    run,
    run_collected,
    strong_step,
    weak_step,
)


def stepped_records(kind, cfg):
    """``run(kind, cfg)``'s records without units-digit blocks, each rendered whole.

    Every record after the seed comes from ``_SUCCESSORS[kind]``, so a
    successor patched there makes every step, where ``run`` takes only the
    steps outside its blocks with it.
    """
    records = [next(run(kind, cfg))]
    while records[-1].value and len(records) < cfg.max_steps:
        prev = records[-1]
        try:
            base, digits, value = _SUCCESSORS[kind](prev.digits, prev.base, cfg.max_bits)
        except MagnitudeCapExceeded:
            break
        records.append(StepRecord(prev.index + 1, base, value, digits, render(digits, base)))
    return records


def strong_verdict(value, base, max_bits):
    """``strong_step`` as ``definitions.step`` reports it: ``(base, value)``, None past the cap."""
    try:
        return base + 1, strong_step(value, base, max_bits)
    except MagnitudeCapExceeded as exc:
        assert exc.bit_length > max_bits
        return None


def reference_run(kind, cfg):
    """``run_collected(kind, cfg)``'s records and status, as the definitions find them."""
    records, status = definitions.run(kind.value, *cfg)
    return records, RunStatus(status)


def test_the_definitions_import_only_the_standard_library():
    # the tests' trusted base must not lean on the package it checks
    tree = ast.parse(Path(definitions.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, name


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
    assert (base + 1, weak_step(value, base)) == definitions.step("weak", value, base, 1)


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
            expected = definitions.step("strong", value, base, DEFAULT_MAX_BITS)
            assert (base + 1, strong_step(value, base)) == expected


@settings(deadline=None)
@given(value=st.integers(1, 10**6), base=st.integers(2, 20), max_bits=st.integers(1, 10**4))
@example(value=126, base=55, max_bits=7)
@example(value=126, base=55, max_bits=8)
def test_strong_step_matches_slow_reference(value, base, max_bits):
    # same value and same cap verdict, at the drawn cap and, where the
    # bumped value is not astronomically wide, on both sides of its width
    caps = {max_bits}
    successor = definitions.step("strong", value, base, 10**5)
    if successor is not None:
        bumped_bits = (successor[1] + 1).bit_length()
        caps |= {bumped_bits, max(bumped_bits - 1, 1)}
    for cap in caps:
        assert strong_verdict(value, base, cap) == definitions.step("strong", value, base, cap)


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


RUNS = st.one_of(
    # any kind, from up to 300 in bases up to 20, under any cap
    st.tuples(
        st.sampled_from(list(RunKind)),
        st.builds(RunConfig, st.integers(0, 300), st.integers(2, 20), st.integers(1, 60), st.integers(1, 4000)),
    ),
    # one strong step from up to 10**6: run moves the record's digits to their
    # bumped positions, the definitions read the whole hereditary form
    st.tuples(
        st.just(RunKind.STRONG),
        st.builds(RunConfig, st.integers(1, 10**6 - 1), st.integers(2, 20), st.just(2), st.just(10**4)),
    ),
    # strong runs over 60 steps at caps of 1-200 bits, which most of them reach
    st.tuples(
        st.just(RunKind.STRONG),
        st.builds(RunConfig, st.integers(1, 300), st.integers(2, 8), st.just(60), st.integers(1, 200)),
    ),
)


@settings(deadline=None, max_examples=300)
@given(kind_cfg=RUNS)
@example(kind_cfg=(RunKind.STRONG, RunConfig(10**6 - 1, 10, 2, 10**4)))  # the widest start steps once
@example(kind_cfg=(RunKind.STRONG, RunConfig(255, 2, 60, 200)))  # the 200-bit cap fires at step 1
def test_record_consistency_along_runs(kind_cfg):
    # the whole run, every field and the outcome, is what stepping the definitions finds
    kind, cfg = kind_cfg
    records, outcome = run_collected(kind, cfg)
    expected, status = reference_run(kind, cfg)
    assert records == expected
    assert outcome == (status, len(expected), records[-1])


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


def lowered_lead(digits, base, max_bits, weak=_SUCCESSORS[RunKind.WEAK]):
    """The weak successor, with its leading digit lowered too where that keeps it."""
    new_base, successor, value = weak(digits, base, max_bits)
    if successor[0] > 1:
        successor = (successor[0] - 1,) + successor[1:]
        value -= new_base ** (len(successor) - 1)
    return new_base, successor, value


def test_a_lowered_lead_is_refused_by_its_value_where_the_verifier_lends_text(
    tmp_path, capsys, monkeypatch
):
    # lowering the leading digit too keeps the length, so the verifiers lend
    # the predecessor's text above the pivot to the successor they derive, the
    # borrow, which is not the one patched in: they refuse the pair by its value
    monkeypatch.setitem(_SUCCESSORS, RunKind.WEAK, lowered_lead)
    records = stepped_records(RunKind.WEAK, RunConfig(3 ** (CUT + 2) * 2 + 5, 3, 20))
    lowered = next(
        nxt.index
        for prev, nxt in zip(records, records[1:])
        if len(prev.digits) == len(nxt.digits) > CUT and prev.digits[0] != nxt.digits[0]
    )
    prev, nxt = records[lowered - 1 : lowered + 1]
    base, value = definitions.step("weak", prev.value, prev.base, 1)
    digits = definitions.digits_of(value, base)
    assert len(digits) == len(prev.digits)  # so the expected record's text is lent
    genuine = StepRecord(nxt.index, base, value, digits, definitions.render(digits, base))
    assert _successor_record(prev, RunKind.WEAK, 1) == genuine != nxt
    message = f"step {lowered}: value {nxt.value} is not a weak successor of {prev.value}"
    with pytest.raises(StepMismatch, match=f"^{message}$"):
        verify_run(records, RunKind.WEAK)
    with pytest.raises(StepMismatch, match=f"^{message}$"):
        check_step(prev, nxt, RunKind.WEAK)
    path = tmp_path / "lent.jsonl"
    path.write_text("".join(_record_json(record) + "\n" for record in records))
    code = main(["verify", str(path)])
    assert (code, *capsys.readouterr()) == (4, "", f"error: {message}\n")


def test_a_lowered_lead_that_run_takes_is_refused_by_its_value(tmp_path, capsys, monkeypatch):
    # run takes the lowered successor on a borrow from a zero units digit and
    # renders it whole; the verifiers, which derive the borrow themselves, refuse it
    monkeypatch.setitem(_SUCCESSORS, RunKind.WEAK, lowered_lead)
    records, _ = run_collected(RunKind.WEAK, RunConfig(3 ** (CUT + 2) * 2 + 3**5, 3, 20))
    assert all(record.rendered == render(record.digits, record.base) for record in records)
    assert records[1].digits[0] == records[0].digits[0] - 1
    message = f"step 1: value {records[1].value} is not a weak successor of {records[0].value}"
    with pytest.raises(StepMismatch, match=f"^{message}$"):
        verify_run(records, RunKind.WEAK)
    with pytest.raises(StepMismatch, match=f"^{message}$"):
        check_step(records[0], records[1], RunKind.WEAK)
    path = tmp_path / "spelled.jsonl"
    path.write_text("".join(_record_json(record) + "\n" for record in records))
    code = main(["verify", str(path)])
    assert (code, *capsys.readouterr()) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "start, base",
    [
        # the first step shortens the digits to 1,000
        pytest.param(2**1000, 2, id="2**1000"),
        # the first step keeps 1,001 digits but lowers the leading one
        pytest.param(2 * 3**1000, 3, id="2*3**1000-base-3"),
    ],
)
def test_a_wide_step_from_a_high_pivot_is_certified_and_a_text_forgery_refused(
    tmp_path, capsys, start, base
):
    records, _ = run_collected(RunKind.WEAK, RunConfig(start, base, 50))
    prev, nxt = records[:2]
    assert _successor_record(prev, RunKind.WEAK, 1).rendered == render(nxt.digits, nxt.base)
    assert len(verify_run(records, RunKind.WEAK).evidence) == 49
    path = tmp_path / "high.jsonl"
    path.write_text("".join(_record_json(record) + "\n" for record in records))
    assert (main(["verify", str(path)]), *capsys.readouterr()) == (
        0, '{"k": %d, "verdict": "AllStepsDescend", "steps_checked": 49}\n' % len(prev.digits), ""
    )
    forged = nxt._replace(rendered=("1" if nxt.rendered[0] != "1" else "2") + nxt.rendered[1:])
    message = f"step 1: rendered {forged.rendered!r} does not match the digits"
    with pytest.raises(StepMismatch, match=f"^{message}$"):
        verify_run([prev, forged, *records[2:]], RunKind.WEAK)
    path.write_text("".join(_record_json(r) + "\n" for r in [prev, forged, *records[2:]]))
    assert (main(["verify", str(path)]), *capsys.readouterr()) == (4, "", f"error: {message}\n")
    # check_step takes a predecessor zero-padded to any width; its successor is
    # then shorter than it, so no text is lent past the successor's end
    padded = prev._replace(digits=(0,) * len(prev.digits) + prev.digits)
    padded = padded._replace(rendered=render(padded.digits, base))
    assert _successor_record(padded, RunKind.WEAK, 1) == nxt
    assert check_step(padded, nxt, RunKind.WEAK) == len(prev.digits)


@st.composite
def block_seeds(draw):
    """A weak or decreasing config whose seed's units digit starts a block.

    The units digit is 1, ``base - 1``, 10 or 11 (where the text of the
    digit loses its parentheses) or any digit; the seed has 2, 3 or more
    than ``CUT`` digits; the step cap ends the first block early, exactly,
    or is free up to 400 records, so a narrow decreasing run may reach zero.
    """
    kind = draw(st.sampled_from([RunKind.WEAK, RunKind.DECREASING]))
    base = draw(st.integers(2, 300))
    width = draw(st.sampled_from([2, 3, CUT + 1, CUT + 3]))
    high = [draw(st.integers(1, base - 1))] + [draw(st.integers(0, base - 1)) for _ in range(width - 2)]
    units = draw(st.sampled_from([1, base - 1, min(10, base - 1), min(11, base - 1)]) | st.integers(1, base - 1))
    max_steps = draw(st.sampled_from([units + 1, max(1, units // 2)]) | st.integers(1, 400))
    return kind, RunConfig(from_digits(high + [units], base), base, max_steps)


@settings(deadline=None, max_examples=300)
@given(seed=block_seeds())
@example(seed=(RunKind.WEAK, RunConfig(3, 2, 10)))  # 11_2 -> 10_3 -> 2_4 -> 1_5 -> 0_6
@example(seed=(RunKind.DECREASING, RunConfig(23, 11, 30)))  # (2, 1) in base 11 reaches zero
@example(seed=(RunKind.WEAK, RunConfig(from_digits([1, 0, 11], 12), 12, 13)))  # (11) -> (10) -> 9
@example(seed=(RunKind.DECREASING, RunConfig(from_digits([1] * CUT + [299], 300), 300, 300)))
@example(seed=(RunKind.WEAK, RunConfig(2**999 + 12345, 2, 300)))
def test_a_units_block_is_what_stepping_every_record_finds(seed):
    # run builds units-only steps from their closed form; the definitions step
    # every record from its value
    kind, cfg = seed
    records = list(run(kind, cfg))
    assert records == reference_run(kind, cfg)[0]
    assert all(type(r.digits) is tuple for r in records)
    line = _jsonl_lines()
    for record in records:
        index, base, value, digits, rendered = record
        expected = {"index": index, "base": str(base), "value": str(value),
                    "digits": [str(d) for d in digits], "rendered": rendered}
        assert line(record) == json.dumps(expected)


def test_wide_strong_run_matches_the_slow_reference():
    # from 16 to 52,000 bits positions pass base**2 and whole 64-digit
    # blocks are zero, which the narrow hypothesis draws never reach
    cfg = RunConfig(16, max_bits=52_000)
    records, outcome = run_collected(RunKind.STRONG, cfg)
    assert (records, outcome.status) == reference_run(RunKind.STRONG, cfg)
    assert outcome.status is RunStatus.MAGNITUDE_CAP_REACHED
    assert max(len(r.digits) for r in records) > records[-1].base ** 2
    widest = max(records, key=lambda r: len(r.digits)).digits
    stops = range(len(widest), CUT, -CUT)  # _evaluate's blocks, least significant first
    assert any(not any(widest[stop - CUT : stop]) for stop in stops)


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
