import pickle
import sys
import time
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import definitions
from goodstein import descent
from goodstein.descent import check_step, rank, verify_run
from goodstein.errors import ArityExceeded, DigitOutOfRange, EmptyRun, GoodsteinError, StepMismatch
from goodstein.hereditary import build_from_digits
from goodstein.numerals import CUT, Ordering, from_digits, lex_compare
from goodstein.sequences import _SUCCESSORS, RunConfig, RunKind, StepRecord, run, run_collected


def make_record(index, base, value):
    digits = definitions.digits_of(value, base)
    return StepRecord(index, base, value, digits, definitions.render(digits, base))


def weak_records(start, steps, start_base=2):
    return kind_records(RunKind.WEAK, start, steps, start_base)


def kind_records(kind, start, steps, start_base=2, max_bits=20000):
    cfg = RunConfig(start, start_base, max_steps=steps, max_bits=max_bits)
    records, _ = run_collected(kind, cfg)
    return records


def unchanged_digits(digits, base, max_bits):
    """A successor with the borrow left out: the same digits reread in the next base."""
    return base + 1, tuple(digits), from_digits(digits, base + 1)


# --- check_step ----------------------------------------------------------------

def test_check_step_length_drop():
    prev, nxt = weak_records(8, 2)
    assert prev.digits == (1, 0, 0, 0) and nxt.digits == (2, 2, 2)
    assert check_step(prev, nxt) == 0


def test_check_step_equal_length_pivot():
    records = weak_records(8, 5)
    assert check_step(records[1], records[2]) == 2  # 222_3 -> 221_4
    assert check_step(records[3], records[4]) == 1  # 220_5 -> 215_6


def test_check_step_rejects_wrong_base():
    with pytest.raises(StepMismatch):
        check_step(make_record(0, 2, 8), make_record(1, 4, 26))


def test_check_step_rejects_wrong_value():
    with pytest.raises(StepMismatch) as excinfo:
        check_step(make_record(0, 2, 8), make_record(1, 3, 27))
    assert excinfo.value.index == 1


def test_check_step_rejects_inconsistent_digits():
    prev = make_record(0, 2, 8)
    forged = StepRecord(1, 3, 26, (2, 2, 1), "221_3")
    with pytest.raises(StepMismatch):
        check_step(prev, forged)


@pytest.mark.parametrize(
    "forged",
    [
        StepRecord(1, 3, 26, (2, 2, 5), "225_3"),  # digit out of range: StepMismatch, not exit 2
        StepRecord(1, 3, 26, (2, 2, 2), "999_3"),
    ],
)
def test_check_step_rejects_forged_successor(forged):
    with pytest.raises(StepMismatch) as excinfo:
        check_step(make_record(0, 2, 8), forged)
    assert excinfo.value.index == 1


def test_check_step_rejects_terminated_predecessor():
    with pytest.raises(StepMismatch, match="predecessor value is already zero") as exc:
        check_step(make_record(3, 5, 0), make_record(4, 6, 0))
    assert exc.value.index == 4


def test_check_step_rejects_a_step_that_does_not_descend(monkeypatch):
    # with the borrow patched out, 1000_2 -> 1000_3 passes the transition check
    monkeypatch.setitem(_SUCCESSORS, RunKind.WEAK, unchanged_digits)
    message = "digits do not descend in length-first lexicographic order"
    with pytest.raises(StepMismatch, match=message) as exc:
        check_step(make_record(0, 2, 8), make_record(1, 3, 27))
    assert exc.value.index == 1


def test_check_step_rejects_a_strong_step_that_does_not_descend(monkeypatch):
    # the same patch on the strong successor: 11_2 -> 11_3 keeps the tree of b + 1
    monkeypatch.setitem(_SUCCESSORS, RunKind.STRONG, unchanged_digits)
    message = "hereditary trees do not descend in Cantor normal form order"
    with pytest.raises(StepMismatch, match=message) as exc:
        check_step(make_record(0, 2, 3), make_record(1, 3, 4), RunKind.STRONG)
    assert exc.value.index == 1


@pytest.mark.parametrize(
    "kind, prev, nxt, message",
    [
        # 455_6 -> 354_7: the borrow from the units digit also lowered the leading digit
        (
            RunKind.WEAK, make_record(0, 6, 179), make_record(1, 7, 186),
            "digit 0, above the last nonzero digit 2",
        ),
        # 2.w + 1 -> w in base 4: the units term went, and the w term lost a copy too
        (
            RunKind.STRONG, make_record(0, 3, 7), make_record(1, 4, 4),
            "term 0, above the last term 1",
        ),
    ],
    ids=["weak", "strong"],
)
def test_check_step_rejects_a_descending_step_that_changes_an_entry_above_the_pivot(
    monkeypatch, kind, prev, nxt, message
):
    successor = (nxt.base, nxt.digits, nxt.value)
    monkeypatch.setitem(_SUCCESSORS, kind, lambda digits, base, max_bits: successor)
    with pytest.raises(StepMismatch, match=f"^step 1: the step changes {message} it lowers$"):
        check_step(prev, nxt, kind)


def test_check_step_rejects_a_forgery_of_a_huge_successor_fast(monkeypatch):
    # 65536 = 2^(2^(2^2)); its strong successor 3^(3^(3^3)) - 1 has about 1.2e13 bits
    strong, caps = _SUCCESSORS[RunKind.STRONG], []

    def spy(digits, base, max_bits):
        caps.append(max_bits)
        return strong(digits, base, max_bits)

    monkeypatch.setitem(_SUCCESSORS, RunKind.STRONG, spy)
    forged = make_record(1, 3, 3 ** 27 - 1)
    began = time.perf_counter()
    with pytest.raises(StepMismatch, match="is not a strong successor") as exc:
        check_step(make_record(0, 2, 65536), forged, RunKind.STRONG)
    assert time.perf_counter() - began < 1
    assert exc.value.index == 1
    assert caps == [(3 ** 27).bit_length()]  # capped at the width the record claims


def test_verify_run_rejects_a_forged_wide_seed_fast():
    # read in this 300-digit base, the 20,001 digits would spell a number of about 2e7 bits
    base, digits = 10**299 + 7, (1,) + (0,) * 20_000
    forged = StepRecord(0, base, 1, digits, definitions.render(digits, base))
    began = time.perf_counter()
    with pytest.raises(StepMismatch, match="do not spell value 1 in base") as exc:
        verify_run([forged])
    assert time.perf_counter() - began < 1
    assert exc.value.index == 0


@pytest.mark.parametrize(
    "made, checked", [(RunKind.WEAK, RunKind.STRONG), (RunKind.STRONG, RunKind.WEAK)]
)
def test_check_step_rejects_a_trace_of_another_kind(made, checked):
    # from 4 = 100_2 the weak step goes to 22_3 = 8 and the strong one to 222_3 = 26
    records = kind_records(made, 4, 5)
    with pytest.raises(StepMismatch, match=f"is not a {checked.value} successor") as exc:
        verify_run(records, checked)
    assert exc.value.index == 1


def test_check_step_rejects_index_gap():
    with pytest.raises(StepMismatch):
        check_step(make_record(0, 2, 8), make_record(2, 3, 26))


# --- check_step under single-field forgeries -----------------------------------------

def forge(record, field, data):
    """``record`` with one field changed; the other fields are left as they were."""
    index, base, value, digits, rendered = (
        record.index, record.base, record.value, record.digits, record.rendered
    )
    delta = data.draw(st.sampled_from([-2, -1, 1, 2]), label="delta")
    if field == "index":
        index += delta
    elif field == "base":
        base += delta
    elif field == "value":
        value += delta
    elif field == "digit" and digits:
        at = data.draw(st.integers(0, len(digits) - 1), label="position")
        new = data.draw(st.integers(0, base + 1).filter(lambda d: d != digits[at]), label="digit")
        digits = digits[:at] + (new,) + digits[at + 1:]
    elif field == "leading zero":
        digits = (0,) + digits
    elif field == "rendered":
        rendered = data.draw(st.sampled_from([rendered + "0", rendered[1:], "0_2", ""]))
    return StepRecord(index, base, value, digits, rendered)


FIELDS = ["none", "index", "base", "value", "digit", "leading zero", "rendered"]


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(RunKind),
    width=st.sampled_from([1, 3, CUT, CUT + 1, 3 * CUT]),
    base=st.integers(2, 40),
    steps=st.integers(2, 6),
    field=st.sampled_from(FIELDS),
    data=st.data(),
)
def test_check_step_rejects_every_single_field_forgery(kind, width, base, steps, field, data):
    if kind is RunKind.STRONG:
        # small seeds, so that a few steps stay under the 20000-bit cap
        base = base % 5 + 2
        start = data.draw(st.integers(1, 300), label="start")
    else:
        # seeds up to 3 * CUT digits wide, so the divide-and-conquer evaluation runs
        digits = [data.draw(st.integers(1, base - 1), label="lead")]
        digits += data.draw(
            st.lists(st.integers(0, base - 1), min_size=width - 1, max_size=width - 1)
        )
        start = from_digits(digits, base)
    records = kind_records(kind, start, steps, base)
    assume(len(records) > 1)
    at = data.draw(st.integers(1, len(records) - 1), label="at")
    prev, nxt = records[at - 1], forge(records[at], field, data)
    if nxt == records[at]:
        assert type(check_step(prev, nxt, kind)) is int
    else:
        with pytest.raises(StepMismatch) as exc:
            check_step(prev, nxt, kind)
        assert exc.value.index == nxt.index


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="needs CPython's int<->str limit"
)
def test_a_forged_value_past_the_int_str_limit_is_named_by_its_width():
    # the strong run from 256 reaches 14,658 bits, 4,413 decimal digits, at record 3:
    # past the default limit a refusal names such a value by its width
    prev, nxt = kind_records(RunKind.STRONG, 256, 4)[2:]
    forged = nxt._replace(value=nxt.value - 2)
    spelled = r"digits \[.*\] do not spell value of 14658 bits in base 5$"
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        with pytest.raises(StepMismatch, match=f"^step 3: {spelled}"):
            check_step(prev, forged, RunKind.STRONG)
        with pytest.raises(StepMismatch, match=f"^step 0: {spelled}"):
            verify_run([forged._replace(index=0)], RunKind.STRONG)
        with pytest.raises(StepMismatch, match="^step 3: value of 14658 bits is not a strong "):
            check_step(prev, forged._replace(digits=nxt.digits[1:]), RunKind.STRONG)
    finally:
        sys.set_int_max_str_digits(previous)


def ordered_check(prev, nxt, kind):
    """The first failing check of a pair, field by field in ``check_step``'s order.

    Returns ``(step index, reason)``, or None for a genuine, descending step.
    The expected successor and every name in a reason come from ``definitions``.
    """
    if nxt.index != prev.index + 1:
        return nxt.index, f"record index {nxt.index} does not follow {prev.index}"
    if not any(prev.digits):
        return nxt.index, "predecessor value is already zero"
    successor = definitions.step(kind.value, prev.value, prev.base, (nxt.value + 1).bit_length())
    base, value = successor or (None, None)
    digits = None if successor is None else definitions.digits_of(value, base)
    named = definitions.named
    if nxt.value != value and nxt.digits != digits:
        claimed = f"value {named(nxt.value)} is not a {kind.value} successor"
        return nxt.index, f"{claimed} of {named(prev.value)}"
    if nxt.value != value or nxt.digits != digits:
        spelled = f"digits {list(nxt.digits)} do not spell value {named(nxt.value)}"
        return nxt.index, f"{spelled} in base {base}"
    if nxt.base != base:
        return nxt.index, f"base {nxt.base} does not follow base {prev.base}"
    if nxt.rendered != definitions.render(digits, base):
        return nxt.index, f"rendered {nxt.rendered!r} does not match the digits"
    order = definitions.order_key
    if not order(kind.value, value, base) < order(kind.value, prev.value, prev.base):
        if kind is RunKind.STRONG:
            return nxt.index, "hereditary trees do not descend in Cantor normal form order"
        return nxt.index, "digits do not descend in length-first lexicographic order"
    return None


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(RunKind),
    base=st.integers(2, 40),
    start=st.integers(1, 10**40),
    steps=st.integers(2, 8),
    field=st.sampled_from(FIELDS + ["digit list"]),
    data=st.data(),
)
def test_verify_run_names_the_first_failing_field_of_a_forgery(
    kind, base, start, steps, field, data
):
    if kind is RunKind.STRONG:
        base, start = base % 5 + 2, start % 300 + 1
    records = kind_records(kind, start, steps, base)
    assume(len(records) > 1)
    at = data.draw(st.integers(1, len(records) - 1), label="at")
    if field == "digit list":
        forged = records[at]._replace(digits=list(records[at].digits))
    else:
        forged = forge(records[at], field, data)
    expected = ordered_check(records[at - 1], forged, kind)
    trace = records[:at] + [forged] + records[at + 1:]
    if expected is None:
        assert forged == records[at]
        assert len(verify_run(trace, kind).evidence) == len(records) - 1
    else:
        with pytest.raises(StepMismatch) as exc:
            verify_run(trace, kind)
        assert (exc.value.index, exc.value.reason) == expected


def test_check_step_checks_the_predecessor_digits():
    # a predecessor digit out of range for its own base is refused, not borrowed from
    prev = StepRecord(0, 3, 4, (4,), "4_3")
    with pytest.raises(DigitOutOfRange):
        check_step(prev, StepRecord(1, 4, 3, (3,), "3_4"))


@pytest.mark.parametrize("kind", list(RunKind))
def test_check_step_on_a_zero_padded_predecessor(kind):
    # 1011_2 -> 10010_3 (strong), 1010_3 (weak), 1010_2 (decreasing): a leading
    # zero moves a weak or decreasing pivot by one place and leaves a strong
    # one, which counts terms, where it was
    prev, nxt = kind_records(kind, 11, 2)
    padded = prev._replace(digits=(0,) + prev.digits)
    pivot = check_step(prev, nxt, kind)
    assert pivot == (2 if kind is RunKind.STRONG else 3)
    assert check_step(padded, nxt, kind) == (pivot if kind is RunKind.STRONG else pivot + 1)


def forge_text(text, at):
    """``text`` with the character at ``at`` replaced by a digit other than it."""
    return text[:at] + ("1" if text[at] != "1" else "0") + text[at + 1 :]


@pytest.mark.parametrize("kind", [RunKind.WEAK, RunKind.DECREASING])
def test_check_step_renders_the_successor_of_a_forged_predecessor_whole(kind):
    # the predecessor's text is the caller's, so check_step renders it again
    # before the successor reuses any of it: a genuine successor passes, one
    # that copies the forgery does not
    records = kind_records(kind, 2**999 + 12345, 12)
    prev, nxt = records[10], records[11]
    assert len(prev.digits) == len(nxt.digits) > CUT
    assert nxt.digits[:100] == prev.digits[:100]
    forged = prev._replace(rendered=forge_text(prev.rendered, 50))
    assert check_step(forged, nxt, kind) == check_step(prev, nxt, kind)
    copied = nxt._replace(rendered=forge_text(nxt.rendered, 50))
    message = f"^step 11: rendered {copied.rendered!r} does not match the digits$"
    with pytest.raises(StepMismatch, match=message):
        check_step(forged, copied, kind)


@pytest.mark.parametrize("at", [0, 500, -8, -1], ids=["lead", "middle", "tail", "base"])
def test_verify_run_refuses_a_rendered_forgery_wider_than_cut(at):
    records = weak_records(2**999 + 12345, 40)
    good = records[20]
    assert len(records[19].digits) == len(good.digits) > CUT
    at %= len(good.rendered)
    records[20] = good._replace(rendered=forge_text(good.rendered, at))
    with pytest.raises(StepMismatch) as exc:
        verify_run(records)
    reason = f"rendered {records[20].rendered!r} does not match the digits"
    assert (exc.value.index, exc.value.reason) == (20, reason)


# --- verify_run -------------------------------------------------------------------

def test_verify_run_from_8_descends():
    cert = verify_run(run(RunKind.WEAK, RunConfig(8, max_steps=50)))
    assert cert.all_steps_descend
    assert cert.k == 4
    assert len(cert.evidence) == 49
    assert cert.start.value == 8


def test_verify_run_two_records():
    cert = verify_run(weak_records(1, 10))
    assert cert.all_steps_descend
    assert len(cert.evidence) == 1
    assert cert.k == 1


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="needs CPython's int<->str limit"
)
def test_verify_run_of_a_base_past_the_int_str_limit_raises_value_error():
    # the expected successor's base 10**4300 has no decimal text under the
    # default limit, so _step renders it itself and render raises
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        records = weak_records(1, 10, start_base=10**4300 - 1)
        assert [(r.base, r.value) for r in records] == [(10**4300 - 1, 1), (10**4300, 0)]
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        with pytest.raises(ValueError) as raised:
            verify_run(records)
    finally:
        sys.set_int_max_str_digits(previous)
    assert not isinstance(raised.value, GoodsteinError)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="needs CPython's int<->str limit"
)
def test_check_step_of_a_predecessor_past_the_int_str_limit_raises_value_error():
    # check_step renders its predecessor itself rather than trust its text, and
    # base 10**4300 has no decimal text under the default limit; that holds even
    # for a successor whose text is left out, as the successor's own text must be
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        prev, nxt = weak_records(2, 2, start_base=10**4300)
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        for successor in (nxt, nxt._replace(rendered=None)):
            with pytest.raises(ValueError) as raised:
                check_step(prev, successor)
            assert not isinstance(raised.value, GoodsteinError)
    finally:
        sys.set_int_max_str_digits(previous)


def test_certificate_is_an_immutable_tuple_of_its_fields():
    cert = verify_run(weak_records(8, 3))
    start, k, evidence = cert
    assert (start, k, evidence) == cert == ((0, 2, 8, (1, 0, 0, 0), "1000_2"), 4, (0, 2))
    assert repr(cert) == (
        "DescentCertificate(start=StepRecord(index=0, base=2, value=8, digits=(1, 0, 0, 0), "
        "rendered='1000_2'), k=4, evidence=(0, 2))"
    )
    copy = pickle.loads(pickle.dumps(cert))
    assert copy == cert and type(copy) is type(cert) and copy.all_steps_descend
    with pytest.raises(AttributeError):
        cert.k = 5


def test_verify_run_takes_a_seed_with_list_digits():
    # from 8 the first step shortens the digits, so zero padding makes the list a
    # tuple; from 10 it keeps their length, and the pivot check meets the list
    for start, evidence in [(8, (0, 2, 2, 1)), (10, (2, 3, 3, 0))]:
        records = weak_records(start, 5)
        seed = records[0]
        records[0] = StepRecord(seed.index, seed.base, seed.value, list(seed.digits), seed.rendered)
        assert verify_run(records).evidence == evidence


def test_verify_run_single_record_is_vacuous():
    cert = verify_run(weak_records(9, 1))
    assert cert.all_steps_descend
    assert cert.evidence == ()


@pytest.mark.parametrize(
    "seed",
    [
        StepRecord(0, 2, -1, (), "0_2"),
        StepRecord(0, 1, 0, (), "0_1"),
        StepRecord(0, 2, 8, (1, 0, 0, 0), "8_2"),
        StepRecord(0, 2, 8, (2, 0, 0), "200_2"),
        StepRecord(0, 2, 8, (0, 1, 0, 0, 0), "01000_2"),
    ],
)
def test_verify_run_checks_the_seed(seed):
    with pytest.raises(StepMismatch) as excinfo:
        verify_run([seed])
    assert excinfo.value.index == 0


def test_verify_run_empty_raises():
    with pytest.raises(EmptyRun):
        verify_run([])


def test_verify_run_flags_tampered_value():
    records = weak_records(8, 60)
    bad = records[30]
    records[30] = StepRecord(bad.index, bad.base, bad.value + 1, bad.digits, bad.rendered)
    with pytest.raises(StepMismatch) as excinfo:
        verify_run(records)
    assert excinfo.value.index == 30


def first_differences(records, kind=RunKind.WEAK):
    """The pivot of each step of a run, as a scan of the definitions finds it."""
    return tuple(definitions.pivot(kind.value, *pair) for pair in zip(records, records[1:]))


@pytest.mark.parametrize(
    "start, start_base",
    [(start, 2) for start in range(1, 16)] + [(from_digits([1] * (CUT + 3), 5), 5)],
    ids=[f"start-{start}" for start in range(1, 16)] + ["wider-than-CUT"],
)
def test_certificate_evidence_is_one_pivot_per_step(start, start_base):
    records = weak_records(start, 300, start_base)
    cert = verify_run(records)
    assert cert.evidence == first_differences(records)
    assert len(cert.evidence) == len(records) - 1


@pytest.mark.parametrize("start", range(1, 17))
def test_strong_traces_verify(start):
    records = kind_records(RunKind.STRONG, start, 200, max_bits=2000)
    cert = verify_run(records, RunKind.STRONG)
    assert cert.k == len(records[0].digits)
    assert len(cert.evidence) == len(records) - 1


def test_strong_verify_builds_each_tree_once_for_the_order(monkeypatch):
    # each pair's successor tree is the next pair's predecessor tree
    records = kind_records(RunKind.STRONG, 16, 40, max_bits=5000)
    built = []

    def counting(digits, base):
        built.append(base)
        return build_from_digits(digits, base)

    monkeypatch.setattr(descent, "build_from_digits", counting)
    assert len(verify_run(records, RunKind.STRONG).evidence) == len(records) - 1
    assert built == [record.base for record in records]


def test_strong_evidence_is_the_first_differing_term():
    # the trees go w+1 -> w -> 3 -> 2: the first step drops the units term
    records = kind_records(RunKind.STRONG, 3, 10)
    assert [r.rendered for r in records[:4]] == ["11_2", "10_3", "3_4", "2_5"]
    assert verify_run(records, RunKind.STRONG).evidence[:3] == (1, 0, 0)


# every position of the strong seed is below its base, so no term moves and
# its trees keep more than CUT top-level terms
WIDE_STRONG_SEED = (RunKind.STRONG, from_digits([7] * (CUT + 6), 100), 100)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.one_of(
        st.tuples(
            st.sampled_from([RunKind.WEAK, RunKind.DECREASING]),
            st.integers(1, 2 ** (CUT + 8)),
            st.integers(2, 6),
            st.integers(0, 2),
        ),
        st.tuples(
            st.sampled_from([RunKind.WEAK, RunKind.DECREASING]),
            st.integers(2**CUT, 2 ** (CUT + 8)),
            st.just(2),
            st.integers(0, 2),
        ),
        st.tuples(
            st.just(RunKind.STRONG), st.integers(1, 200), st.integers(2, 6), st.integers(0, 2)
        ),
        st.just(WIDE_STRONG_SEED + (0,)),
    )
)
@example(seed=(RunKind.WEAK, 2**CUT - 1, 2, 0))  # CUT digits
@example(seed=(RunKind.WEAK, 2**CUT, 2, 0))  # CUT + 1 digits, and the first step shortens them
@example(seed=(RunKind.DECREASING, 2 ** (CUT + 8), 2, 1))
@example(seed=WIDE_STRONG_SEED + (0,))
@example(seed=(RunKind.WEAK, 2, 2, 1))  # check_step of (0, 1, 0) in base 2 -> 2_3: pivot 1
@example(seed=(RunKind.STRONG, 11, 2, 1))  # check_step of (0, 1, 0, 1, 1) in base 2: pivot 2
def test_the_pivot_is_the_first_difference_a_scan_finds(seed):
    # differential: the closed-form pivot against the definitions' scan, on
    # verify_run and on check_step of predecessors with `lead` leading zeros
    kind, start, start_base, lead = seed
    records = kind_records(kind, start, 30, start_base)
    assert verify_run(records, kind).evidence == first_differences(records, kind)
    for prev, nxt in zip(records, records[1:]):
        padded = prev._replace(digits=(0,) * lead + prev.digits)
        assert check_step(padded, nxt, kind) == definitions.pivot(kind.value, padded, nxt)


def test_decreasing_traces_verify():
    records = kind_records(RunKind.DECREASING, 30, 100, 3)
    cert = verify_run(records, RunKind.DECREASING)
    assert records[-1].value == 0 and records[-1].base == 3
    assert cert.evidence == first_differences(records)


def test_certificate_completeness_over_generated_runs():
    for start in range(1, 8):
        cert = verify_run(run(RunKind.WEAK, RunConfig(start, max_steps=10**5)))
        assert cert.all_steps_descend
    for start, steps in [(8, 200), (25, 100), (1000, 100)]:
        cert = verify_run(run(RunKind.WEAK, RunConfig(start, max_steps=steps)))
        assert cert.all_steps_descend


# --- the descent property itself ----------------------------------------------------

@given(
    kind=st.sampled_from(["decreasing", "weak", "strong"]),
    value=st.integers(1, 10**15),
    base=st.integers(2, 200),
)
def test_descent_hypothesis(kind, value, base):
    # the theorem on the definitions: every step lowers the record in its kind's order
    successor = definitions.step(kind, value, base, 10**4)
    assume(successor is not None)
    after = definitions.order_key(kind, successor[1], successor[0])
    assert after < definitions.order_key(kind, value, base)


# --- rank ------------------------------------------------------------------------------

def test_rank_pads_left():
    assert rank((2, 2, 2), 4) == (0, 2, 2, 2)
    assert rank((1, 0, 0, 0), 4) == (1, 0, 0, 0)
    assert rank((), 3) == (0, 0, 0)


def test_rank_rejects_overlong_sequence():
    with pytest.raises(ArityExceeded):
        rank((1, 2, 3), 2)


def _canonical_sequences(max_digit, max_len):
    seqs = [()]
    frontier = [(d,) for d in range(1, max_digit + 1)]
    for _ in range(max_len):
        seqs.extend(frontier)
        frontier = [s + (d,) for s in frontier for d in range(max_digit + 1)]
    return seqs


def test_rank_preserves_lex_order_exhaustive():
    seqs = _canonical_sequences(max_digit=3, max_len=3)
    for a in seqs:
        for b in seqs:
            for arity in range(max(len(a), len(b)), 5):
                ranked = rank(a, arity) < rank(b, arity)
                assert ranked == (lex_compare(a, b) is Ordering.LESS)


def test_rank_strictly_decreases_along_run_from_8():
    records = weak_records(8, 101)
    tuples = [rank(r.digits, 4) for r in records]
    for earlier, later in zip(tuples, tuples[1:]):
        assert later < earlier


def test_lex_chains_have_bounded_length():
    # on k-tuples with entries <= bound, a strict descent can visit each
    # tuple at most once, so (bound+1)**k is both the cap and the max
    for k in (1, 2, 3):
        for bound in range(5):
            tuples = sorted(product(range(bound + 1), repeat=k))
            longest = [1] * len(tuples)
            for i in range(len(tuples)):
                for j in range(i):
                    if lex_compare(tuples[j], tuples[i]) is Ordering.LESS:
                        longest[i] = max(longest[i], longest[j] + 1)
            assert max(longest) == (bound + 1) ** k == len(tuples)
