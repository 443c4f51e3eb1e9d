import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import definitions
from goodstein import cli, sequences
from goodstein.cli import _no_int_str_limit, _read_trace, _record_from_json, _record_json, main
from goodstein.descent import verify_run
from goodstein.errors import StepMismatch
from goodstein.numerals import CUT, from_digits, render
from goodstein.sequences import _SUCCESSORS, RunConfig, RunKind, StepRecord, run_collected
from test_sequences import stepped_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- convert -----------------------------------------------------------------

def test_convert_to_digits(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to-digits", "25", "--base", "2")
    assert code == 0
    assert out == "1 1 0 0 1\n"


def test_convert_to_value(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to-value", "1 1 0 0 1", "--base", "3")
    assert code == 0
    assert out == "109\n"


def test_convert_zero(capsys):
    code, out, _ = run_cli(capsys, "convert", "--to-digits", "0", "--base", "2")
    assert code == 0
    assert out == "0\n"


def test_convert_rejects_bad_base(capsys):
    code, _, err = run_cli(capsys, "convert", "--to-digits", "25", "--base", "1")
    assert code == 2
    assert "1" in err


def test_convert_rejects_bad_digit_token(capsys):
    code, _, err = run_cli(capsys, "convert", "--to-value", "1 x 0", "--base", "2")
    assert code == 2
    assert "'x'" in err


def test_convert_rejects_digit_out_of_range(capsys):
    code, _, err = run_cli(capsys, "convert", "--to-value", "3 1", "--base", "2")
    assert code == 2
    assert "3" in err


def test_convert_rejects_non_numeric_value(capsys):
    code, _, err = run_cli(capsys, "convert", "--to-digits", "abc", "--base", "2")
    assert code == 2
    assert err == "error: VALUE must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convert", "--to-digits", "1_000"], "VALUE must be an integer, got '1_000'"),
        (["convert", "--to-digits", "\u0662\u0665"], "VALUE must be an integer, got '\u0662\u0665'"),
        (["convert", "--to-digits", "+25"], "VALUE must be an integer, got '+25'"),
        (["convert", "--to-value", "1_0"], "invalid digit token: '1_0'"),
        (["hereditary", "\u0662\u0665"], "VALUE must be an integer, got '\u0662\u0665'"),
    ],
    ids=["underscore", "arabic-indic", "plus-sign", "digit-underscore", "hereditary-arabic-indic"],
)
def test_cli_values_are_plain_ascii_decimals(capsys, argv, message):
    # the same -?[0-9]+ rule that verify applies to trace fields
    code, out, err = run_cli(capsys, *argv, "--base", "20")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "spelling",
    ["1_0", "+12", " 12", "\uff11\uff12", "\u0663", "abc"],
    ids=["underscore", "plus-sign", "leading-space", "fullwidth", "arabic-indic", "not-a-number"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "weak", "--start"],
        ["run", "weak", "--start", "5", "--base"],
        ["run", "weak", "--start", "5", "--max-steps"],
        ["run", "weak", "--start", "5", "--max-bits"],
        ["convert", "--to-digits", "5", "--base"],
        ["hereditary", "5", "--base"],
    ],
    ids=["run-start", "run-base", "run-max-steps", "run-max-bits", "convert-base", "hereditary-base"],
)
def test_integer_options_are_plain_ascii_decimals(capsys, argv, spelling):
    # option values follow the VALUE rule, -?[0-9]+, in argparse's type=int wording
    code, out, err = run_cli(capsys, *argv, spelling)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {argv[-1]}: invalid int value: {spelling!r}\n")


# --- hereditary -----------------------------------------------------------------

def test_hereditary_text(capsys):
    code, out, _ = run_cli(capsys, "hereditary", "25", "--base", "2")
    assert code == 0
    assert out == "2^(2^2) + 2^(2+1) + 1\n"


def test_hereditary_text_large(capsys):
    code, out, _ = run_cli(capsys, "hereditary", "774840988", "--base", "3")
    assert code == 0
    assert out == "2.3^(2.3^2) + 3^2 + 1\n"


def test_hereditary_dot(capsys):
    code, out, _ = run_cli(capsys, "hereditary", "25", "--base", "2", "--render", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '[label="exp"]' in out


DOT_25_BASE_2 = """\
digraph hereditary {
  label="hereditary base 2";
  node [shape=circle];
  n0 [label="1"];
  n1 [label="1"];
  n2 [label="1"];
  n3 [label="1"];
  n2 -> n3 [label="exp"];
  n1 -> n2 [label="exp"];
  n0 -> n1 [label="exp"];
  n4 [label="1"];
  n0 -> n4 [label="add"];
  n5 [label="1"];
  n6 [label="1"];
  n5 -> n6 [label="exp"];
  n7 [label="1"];
  n5 -> n7 [label="add"];
  n4 -> n5 [label="exp"];
  n8 [label="1"];
  n4 -> n8 [label="add"];
}
"""

DOT_0_BASE_2 = """\
digraph hereditary {
  label="hereditary base 2";
  node [shape=circle];
  n0 [label="0"];
}
"""


@pytest.mark.parametrize("value, expected", [("25", DOT_25_BASE_2), ("0", DOT_0_BASE_2)])
def test_hereditary_dot_bytes(capsys, value, expected):
    code, out, err = run_cli(capsys, "hereditary", value, "--base", "2", "--render", "dot")
    assert (code, out, err) == (0, expected, "")


def test_hereditary_rejects_non_numeric_value(capsys):
    code, _, err = run_cli(capsys, "hereditary", "2.5", "--base", "2")
    assert code == 2
    assert err == "error: VALUE must be an integer, got '2.5'\n"


def test_hereditary_bad_base(capsys):
    code, _, _ = run_cli(capsys, "hereditary", "25", "--base", "0")
    assert code == 2


# --- run -------------------------------------------------------------------------

def test_run_weak_capped(capsys):
    code, out, _ = run_cli(capsys, "run", "weak", "--start", "25", "--max-steps", "5")
    assert code == 3
    lines = out.strip().splitlines()
    assert len(lines) == 6
    values = [line.split("value=")[1].split()[0] for line in lines[:5]]
    assert values == ["25", "108", "319", "717", "1423"]
    assert lines[5].startswith("# status=StepCapReached")


def test_run_weak_terminates(capsys):
    code, out, _ = run_cli(capsys, "run", "weak", "--start", "1")
    assert code == 0
    assert "# status=TerminatedAtZero steps=2" in out


def test_run_decreasing(capsys):
    code, out, _ = run_cli(capsys, "run", "decreasing", "--start", "3", "--base", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split("value=")[1].split()[0] for l in lines[:4]] == ["3", "2", "1", "0"]
    assert lines[4].startswith("# status=TerminatedAtZero")


def test_run_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "weak", "--start", "8", "--max-steps", "5", "--format", "csv"
    )
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[0] == "index,base,value,rendered"
    assert lines[1] == "0,2,8,1000_2"
    assert [l.split(",")[3] for l in lines[1:6]] == [
        "1000_2",
        "222_3",
        "221_4",
        "220_5",
        "215_6",
    ]
    assert lines[6].startswith("#")


def test_run_jsonl_schema(capsys):
    code, out, _ = run_cli(
        capsys, "run", "weak", "--start", "8", "--max-steps", "3", "--format", "jsonl"
    )
    assert code == 3
    lines = out.strip().splitlines()
    first = json.loads(lines[0])
    assert first == {
        "index": 0,
        "base": "2",
        "value": "8",
        "digits": ["1", "0", "0", "0"],
        "rendered": "1000_2",
    }
    summary = json.loads(lines[-1])
    assert summary == {"status": "StepCapReached", "steps_emitted": 3}


def test_run_rejects_start_zero(capsys):
    code, _, err = run_cli(capsys, "run", "weak", "--start", "0")
    assert code == 2
    assert "0" in err


def test_run_verify_weak_terminating(capsys):
    code, out, _ = run_cli(capsys, "run", "weak", "--start", "1", "--verify")
    assert code == 0
    assert "verdict=AllStepsDescend" in out


def test_run_verify_weak_capped_still_descends(capsys):
    code, out, _ = run_cli(
        capsys, "run", "weak", "--start", "8", "--max-steps", "10", "--verify"
    )
    assert code == 0
    assert "verdict=AllStepsDescend" in out
    assert "# status=StepCapReached" in out


def test_run_verify_jsonl_certificate(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "weak", "--start", "8", "--max-steps", "10",
        "--format", "jsonl", "--verify",
    )
    assert code == 0
    cert = json.loads(out.strip().splitlines()[-1])
    assert cert == {"k": 4, "verdict": "AllStepsDescend", "steps_checked": 9}


def test_run_verify_strong_certifies_tree_descent(capsys):
    code, out, err = run_cli(
        capsys, "run", "strong", "--start", "16", "--max-bits", "200000",
        "--format", "jsonl", "--verify",
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert json.loads(lines[-2]) == {"status": "MagnitudeCapReached", "steps_emitted": 118}
    assert lines[-1] == '{"k": 5, "verdict": "AllStepsDescend", "steps_checked": 117}'


def test_run_verify_decreasing(capsys):
    code, out, _ = run_cli(capsys, "run", "decreasing", "--start", "30", "--base", "3", "--verify")
    assert code == 0
    assert out.splitlines()[-1] == "# verdict=AllStepsDescend steps_checked=30 k=4"


def test_run_strong_capped_exit(capsys):
    code, out, _ = run_cli(
        capsys, "run", "strong", "--start", "4", "--max-steps", "6", "--format", "csv"
    )
    assert code == 3
    rows = out.strip().splitlines()
    assert [r.split(",")[2] for r in rows[1:7]] == ["4", "26", "41", "60", "83", "109"]


# --- verify ----------------------------------------------------------------------------

def jsonl_trace(capsys, start, steps):
    code, out, _ = run_cli(
        capsys, "run", "weak", "--start", str(start), "--max-steps", str(steps),
        "--format", "jsonl",
    )
    assert code in (0, 3)
    return out


def test_verify_accepts_own_trace(tmp_path, capsys):
    trace = jsonl_trace(capsys, 8, 100)
    path = tmp_path / "trace.jsonl"
    path.write_text(trace)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "AllStepsDescend"
    assert cert["steps_checked"] == 99
    assert cert["k"] == 4


def test_verify_reads_stdin(capsys, monkeypatch):
    trace = jsonl_trace(capsys, 5, 50)
    monkeypatch.setattr(sys, "stdin", io.StringIO(trace))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert json.loads(out)["verdict"] == "AllStepsDescend"


def test_verify_flags_tampered_value(tmp_path, capsys):
    lines = jsonl_trace(capsys, 8, 100).strip().splitlines()
    records = [json.loads(line) for line in lines if "index" in json.loads(line)]
    records[50]["value"] = str(int(records[50]["value"]) + 1)
    path = tmp_path / "tampered.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert "step 50" in err


def test_verify_rejects_invalid_seed(tmp_path, capsys):
    path = tmp_path / "seed.jsonl"
    path.write_text('{"index":0,"base":"2","value":"-1","digits":[],"rendered":"0_2"}\n')
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert "step 0" in err


@pytest.mark.parametrize(
    "index, field, forged",
    [
        (1, "rendered", "999_3"),
        (2, "digits", ["2", "2", "7"]),  # base 4 has no digit 7: StepMismatch, not exit 2
    ],
)
def test_verify_flags_tampered_record(tmp_path, capsys, index, field, forged):
    lines = jsonl_trace(capsys, 8, 5).strip().splitlines()
    records = [json.loads(line) for line in lines if "index" in json.loads(line)]
    records[index][field] = forged
    path = tmp_path / "tampered.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert f"step {index}" in err


def test_verify_rejects_a_step_that_does_not_descend(tmp_path, capsys, monkeypatch):
    # with the borrow patched out, 1000_2 -> 1000_3 = 27 passes the transition check
    monkeypatch.setitem(
        _SUCCESSORS, RunKind.WEAK, lambda digits, base, max_bits: (base + 1, tuple(digits), 27)
    )
    path = tmp_path / "flat.jsonl"
    digits = ["1", "0", "0", "0"]
    write_records(path, [
        {"index": 0, "base": "2", "value": "8", "digits": digits, "rendered": "1000_2"},
        {"index": 1, "base": "3", "value": "27", "digits": digits, "rendered": "1000_3"},
    ])
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert out == ""
    assert err == "error: step 1: digits do not descend in length-first lexicographic order\n"


def test_a_wrong_successor_that_still_descends_is_refused(tmp_path, capsys, monkeypatch):
    # a weak successor that also lowers the leading digit keeps digits, value and
    # rendering consistent and still descends, so only the step's shape shows it:
    # from 10 it takes 1000_5 -> 455_6, whose tail the borrow leaves 5,5,5, then
    # 455_6 -> 354_7, which changes digit 0 above the pivot 2
    weak = _SUCCESSORS[RunKind.WEAK]

    def lowered_lead(digits, base, max_bits):
        new_base, successor, value = weak(digits, base, max_bits)
        if len(successor) > 1 and successor[0] > 1:
            successor = (successor[0] - 1,) + successor[1:]
            value -= new_base ** (len(successor) - 1)
        return new_base, successor, value

    monkeypatch.setitem(_SUCCESSORS, RunKind.WEAK, lowered_lead)
    message = "step 4: the step leaves 4 in digit 1, where the borrow from digit 0 leaves 5"
    records = stepped_records(RunKind.WEAK, RunConfig(10, max_steps=8))
    assert [r.rendered for r in records[3:6]] == ["1000_5", "455_6", "354_7"]
    with pytest.raises(StepMismatch, match=f"^{message}$"):
        verify_run(records)
    above = "step 5: the step changes digit 0, above the last nonzero digit 2 it lowers"
    with pytest.raises(StepMismatch, match=f"^{above}$"):
        verify_run(records[4:])
    path = tmp_path / "wrong.jsonl"
    path.write_text("".join(_record_json(record) + "\n" for record in records))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_a_borrow_that_leaves_the_wrong_tail_is_refused(tmp_path, capsys, monkeypatch):
    # a weak successor that writes base - 2 below the lowered digit keeps digits, value,
    # rendering and every digit above the pivot consistent, and still descends: from
    # 25 it takes 11001_2 -> 11000_3 (no digit below the pivot 4), then 11000_3 -> 10222_4
    weak = _SUCCESSORS[RunKind.WEAK]

    def short_tail(digits, base, max_bits):
        new_base, successor, _ = weak(digits, base, max_bits)
        zeros = len(digits) - 1 - max(i for i, digit in enumerate(digits) if digit)
        successor = successor[: len(successor) - zeros] + (new_base - 2,) * zeros
        return new_base, successor, from_digits(successor, new_base)

    monkeypatch.setitem(_SUCCESSORS, RunKind.WEAK, short_tail)
    message = "step 2: the step leaves 2 in digit 2, where the borrow from digit 1 leaves 3"
    records, _ = run_collected(RunKind.WEAK, RunConfig(25, max_steps=8))
    assert [r.rendered for r in records[:3]] == ["11001_2", "11000_3", "10222_4"]
    with pytest.raises(StepMismatch, match=f"^{message}$"):
        verify_run(records)
    path = tmp_path / "short.jsonl"
    path.write_text(jsonl_trace(capsys, 25, 8))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (4, "", f"error: {message}\n")


# record -> the same record with one field wrong, and the refusal of the first one
BLOCK_FORGERIES = {
    "a weak step that keeps the base": (
        lambda r: r._replace(base=r.base - 1),
        "step 2: base 3 does not follow base 3",
    ),
    "a value off by one": (
        lambda r: r._replace(value=r.value + 1),
        "step 2: digits [1, 0, 0, 1] do not spell value 66 in base 4",
    ),
    "the text of the wrong units digit": (
        lambda r: r._replace(rendered=render(r.digits[:-1] + (r.digits[-1] + 1,), r.base)),
        "step 2: rendered '1002_4' does not match the digits",
    ),
}


@pytest.mark.parametrize("forgery", list(BLOCK_FORGERIES))
def test_a_wrong_units_block_is_refused(tmp_path, capsys, monkeypatch, forgery):
    # from 10 the run takes 1010_2 -> 1002_3 by a borrow, then 1001_4 -> ... in
    # a units-digit block, which the verifiers derive through _SUCCESSORS instead
    forge, message = BLOCK_FORGERIES[forgery]
    block = sequences._units_block

    def wrong_block(prev, kind, steps):
        return map(forge, block(prev, kind, steps))

    monkeypatch.setattr(sequences, "_units_block", wrong_block)
    records, _ = run_collected(RunKind.WEAK, RunConfig(10, max_steps=8))
    assert [r.rendered for r in records[:2]] == ["1010_2", "1002_3"]
    with pytest.raises(StepMismatch, match=f"^{re.escape(message)}$"):
        verify_run(records)
    path = tmp_path / "wrong_block.jsonl"
    path.write_text(jsonl_trace(capsys, 10, 8))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_verify_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "EmptyRun" in err


def test_verify_malformed_line(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text("this is not json\n")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "line 1" in err


def test_verify_missing_file(capsys):
    code, _, _ = run_cli(capsys, "verify", "/nonexistent/trace.jsonl")
    assert code == 2


def write_records(path, records):
    path.write_text("\n".join(r if isinstance(r, str) else json.dumps(r) for r in records) + "\n")


@pytest.mark.parametrize(
    "index, field, forged",
    [
        (1, "index", True),  # a bool, which int() reads as 1
        (2, "index", 2.7),  # a float, which int() truncates to 2
        (1, "digits", "222"),  # a string, which map(int, ...) iterates by character
        (1, "value", "2_6"),  # int() accepts the underscore and reads 26
        (1, "value", "\u0662\u0666"),  # Arabic-Indic digits, which int() reads as 26
        (2, "steps_emitted", 1),  # a key outside the record schema
    ],
)
def test_verify_rejects_off_schema_record(tmp_path, capsys, index, field, forged):
    lines = jsonl_trace(capsys, 8, 5).strip().splitlines()
    records = [json.loads(line) for line in lines if "index" in json.loads(line)]
    records[index][field] = forged
    path = tmp_path / "forged.jsonl"
    write_records(path, records)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert f"line {index + 1}: bad record" in err


def without_index(record):
    # the index-less record is also forged, so skipping it would hide a bad step
    forged = {**record, "value": "999", "rendered": "bogus"}
    del forged["index"]
    return forged


@pytest.mark.parametrize(
    "forge",
    [
        without_index,
        lambda record: list(record.values()),
        lambda record: record["rendered"],
        lambda record: 9,
    ],
    ids=["record-without-index", "json-array", "json-string", "json-number"],
)
def test_verify_rejects_a_line_that_is_no_record(tmp_path, capsys, forge):
    lines = jsonl_trace(capsys, 8, 10).strip().splitlines()
    records = [json.loads(line) for line in lines]  # ends with the run summary
    records[9] = json.dumps(forge(records[9]))
    path = tmp_path / "forged.jsonl"
    write_records(path, records)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 10: bad record (")


def test_verify_skips_the_summary_and_certificate_lines(capsys, monkeypatch):
    code, trace, _ = run_cli(
        capsys, "run", "weak", "--start", "8", "--max-steps", "10", "--format", "jsonl", "--verify"
    )
    assert code == 0
    assert [set(json.loads(line)) for line in trace.splitlines()[-2:]] == [
        {"status", "steps_emitted"}, {"k", "verdict", "steps_checked"}
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO(trace))
    code, out, _ = run_cli(capsys, "verify", "-")
    assert code == 0
    assert json.loads(out) == {"k": 4, "verdict": "AllStepsDescend", "steps_checked": 9}


SUMMARY_10 = '{"status": "StepCapReached", "steps_emitted": 10}'


@pytest.mark.parametrize(
    "start, forge, expected",
    [
        (5, lambda t: t[:10] + ['{"status": "StepCapReached", "steps_emitted": 999}'],
         "line 11: run summary does not match the 10 records before it"),
        (5, lambda t: t[:10] + ['{"status": "StepCapReached", "steps_emitted": 10.0}'],
         "line 11: run summary"),
        (5, lambda t: t[:10] + ['{"status": "TerminatedAtZero", "steps_emitted": 10}'],
         "line 11: run summary"),
        (3, lambda t: t[:-2] + ['{"status": "StepCapReached", "steps_emitted": 6}'],
         "line 7: run summary does not match the 6 records before it"),
        (5, lambda t: t[:9] + [SUMMARY_10, t[9]],
         "line 10: run summary does not match the 9 records before it"),
        (5, lambda t: t[:3] + ['{"status": "TerminatedAtZero", "steps_emitted": 999}'] + t[3:],
         "line 4: run summary does not match the 3 records before it"),
        (5, lambda t: t[:4] + ['{"status": "StepCapReached", "steps_emitted": 4}'] + t[4:],
         "line 6: a record follows the run summary"),
        (5, lambda t: t[:11] + ['{"k": 4, "verdict": "AllStepsDescend", "steps_checked": 9}'],
         "line 12: certificate does not match the 10 records before it"),
        (5, lambda t: t[:11] + ['{"k": 3, "verdict": "AllStepsDescend", "steps_checked": 10}'],
         "line 12: certificate"),
        (5, lambda t: t[:11] + ['{"k": 3, "verdict": "ViolationAt", "steps_checked": 9}'],
         "line 12: certificate"),
        (5, lambda t: [SUMMARY_10] + t[:10], "line 1: run summary does not match the 0 records"),
        (5, lambda t: t[:10] + ['{"status": "StepCapReached", "steps_emitted": NaN}'],
         "line 11: run summary"),
        (5, lambda t: t[:10] + ['{"status": "StepCapReached", "steps_emitted": 1E1}'],
         "line 11: run summary"),
        (5, lambda t: t[:11] + ['{"k": 3, "verdict": "AllStepsDescend", "steps_checked": 9E0}'],
         "line 12: certificate"),
        (1, lambda t: t[:3] + ['{"k": true, "verdict": "AllStepsDescend", "steps_checked": 1}'],
         "line 4: certificate does not match the 2 records before it"),
    ],
    ids=[
        "forged-steps_emitted", "float-steps_emitted", "forged-status", "forged-status-at-zero",
        "summary-before-the-last-record", "summary-after-record-3", "record-after-summary",
        "forged-k", "forged-steps_checked", "forged-verdict", "summary-before-every-record",
        "nan-steps_emitted", "exponent-steps_emitted", "exponent-steps_checked", "true-k",
    ],
)
def test_verify_checks_the_summary_and_certificate_lines(tmp_path, capsys, start, forge, expected):
    code, trace, _ = run_cli(
        capsys, "run", "weak", "--start", str(start), "--max-steps", "10", "--format", "jsonl",
        "--verify",
    )
    assert code == 0
    path = tmp_path / "forged.jsonl"
    write_records(path, forge(trace.splitlines()))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {expected}")


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,  # json.loads raises RecursionError
        '{"index": ' + "1" * 5000 + "}",  # past CPython's int parse limit: ValueError
    ],
    ids=["deep-array", "huge-integer"],
)
def test_verify_reports_unparseable_line(tmp_path, capsys, text):
    path = tmp_path / "hostile.jsonl"
    path.write_text(text + "\n")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: line 1: ")


def test_verify_names_the_base_of_a_successor_past_the_int_str_limit(tmp_path, capsys):
    # the successor's base 10**4300 has no text under the limit; the forged
    # record's value and digits are right, so its base is what is wrong
    nines = "9" * 4300
    path = tmp_path / "limit_base.jsonl"
    write_records(path, [
        {"index": 0, "base": nines, "value": "1", "digits": ["1"], "rendered": f"1_{nines}"},
        {"index": 1, "base": "5", "value": "0", "digits": [], "rendered": "0_5"},
    ])
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (4, "")
    assert err == f"error: step 1: base 5 does not follow base {nines}\n"
    if hasattr(sys, "get_int_max_str_digits"):  # the library names the base too
        with open(path) as trace, pytest.raises(StepMismatch) as caught:
            verify_run(_read_trace(trace))
        assert f"error: {caught.value}\n" == err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["strong", "--start", "4", "--max-steps", "3"],
            "step 1: value 26 is not a weak successor of 4",
        ),
        (
            ["decreasing", "--start", "5", "--base", "3"],
            "step 1: digits [1, 1] do not spell value 4 in base 4",
        ),
    ],
    ids=["strong", "decreasing"],
)
def test_verify_refuses_traces_of_other_kinds(tmp_path, capsys, argv, expected):
    code, trace, _ = run_cli(capsys, "run", *argv, "--format", "jsonl")
    assert code in (0, 3)
    path = tmp_path / "other_kind.jsonl"
    path.write_text(trace)
    assert run_cli(capsys, "verify", str(path)) == (4, "", f"error: {expected}\n")
    with open(path) as handle, pytest.raises(StepMismatch) as caught:
        verify_run(_read_trace(handle))
    assert str(caught.value) == expected


@pytest.mark.parametrize("tail", [" x", " {}", "]", ' "rendered"', "\x00"])
def test_verify_rejects_text_after_the_json_value(tmp_path, capsys, tail):
    lines = jsonl_trace(capsys, 8, 5).splitlines()
    lines[2] += tail
    path = tmp_path / "tail.jsonl"
    write_records(path, lines)
    assert run_cli(capsys, "verify", str(path)) == (2, "", "error: line 3: not valid JSON\n")


@pytest.mark.parametrize(
    "garbage_line, forged_index, expected_code, expected_err",
    [
        (4, 1, 4, "step 1"),  # the forged record comes first in the file
        (2, 3, 2, "line 2"),  # the garbage line comes first
    ],
)
def test_verify_first_problem_in_file_order_decides(
    tmp_path, capsys, garbage_line, forged_index, expected_code, expected_err
):
    lines = jsonl_trace(capsys, 8, 5).strip().splitlines()
    records = [json.loads(line) for line in lines if "index" in json.loads(line)]
    records[forged_index]["value"] = str(int(records[forged_index]["value"]) + 1)
    records[garbage_line - 1] = "garbage"
    path = tmp_path / "mixed.jsonl"
    write_records(path, records)
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == expected_code
    assert expected_err in err


def test_read_trace_is_lazy(capsys):
    good_line = jsonl_trace(capsys, 8, 1).splitlines()[0] + "\n"
    record = next(_read_trace(io.StringIO(good_line + "garbage\n")))
    assert record == _record_from_json(json.loads(good_line))


def test_formats_carry_the_same_record_data(capsys):
    args = ("run", "weak", "--start", "8", "--max-steps", "6")
    _, human, _ = run_cli(capsys, *args)
    _, jsonl, _ = run_cli(capsys, *args, "--format", "jsonl")
    _, csv_text, _ = run_cli(capsys, *args, "--format", "csv")

    def quad(index, base, value, rendered):
        return (int(index), int(base), int(value), rendered)

    from_human = [
        quad(l.split()[0], l.split("base=")[1].split()[0], l.split("value=")[1].split()[0], l.split()[-1])
        for l in human.strip().splitlines()
        if not l.startswith("#")
    ]
    from_jsonl = [
        quad(o["index"], o["base"], o["value"], o["rendered"])
        for o in map(json.loads, jsonl.strip().splitlines())
        if "index" in o
    ]
    from_csv = [
        quad(*l.split(","))
        for l in csv_text.strip().splitlines()[1:]
        if not l.startswith("#")
    ]
    assert from_human == from_jsonl == from_csv
    assert len(from_human) == 6


def test_jsonl_round_trip_is_byte_identical(capsys):
    for line in jsonl_trace(capsys, 25, 20).strip().splitlines():
        obj = json.loads(line)
        if "index" not in obj:
            continue
        assert _record_json(_record_from_json(obj)) == line


@settings(deadline=None, max_examples=200)
@given(
    index=st.integers(0, 10**9),
    base=st.integers(2, 10**30),
    value=st.one_of(st.integers(0, 10**12), st.integers(10**4300, 10**4400)),
    digits=st.lists(st.one_of(st.integers(0, 9), st.integers(10, 10**30)), max_size=12),
    rendered=st.text(),
)
@example(index=0, base=2, value=0, digits=[], rendered="0_2")  # the zero record
@example(index=7, base=11, value=10, digits=[10], rendered="(10)_11")
@example(index=2, base=10, value=10**4400, digits=[1, 0], rendered="10_10")
@example(index=1, base=3, value=26, digits=[2, 2, 2], rendered='"quoted" back\\slash')
@example(index=1, base=3, value=26, digits=[2, 2, 2], rendered="\x00\t\n\x1f\x7f")
@example(index=1, base=3, value=26, digits=[2, 2, 2], rendered="é 漢 😀 \u2028 \ud800")
def test_record_json_matches_json_dumps(index, base, value, digits, rendered):
    record = StepRecord(index, base, value, tuple(digits), rendered)
    # values past 4300 decimal digits print only with CPython's int->str limit lifted
    with _no_int_str_limit():
        expected = json.dumps(
            {
                "index": index,
                "base": str(base),
                "value": str(value),
                "digits": [str(d) for d in digits],
                "rendered": rendered,
            }
        )
        assert _record_json(record) == expected


@settings(deadline=None, max_examples=200)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from([(), (1,), (2,), (1, 0), (1, 1), (0, 1), (10, 2), (2, 10), (10**30, 0)]),
            st.none() | st.integers(0, 12) | st.integers(10**20, 10**21),
        ),
        max_size=12,
    )
)
# equal lengths, different high digits, in turn
@example(steps=[((1, 0), 5), ((1, 1), 5), ((1, 1), 4), ((1, 0), 4), ((0, 1), 4)])
@example(steps=[((), None), ((1,), None), ((), 1), ((), None)])  # the zero record between others
def test_one_formatter_writes_json_dumps_of_every_record(steps):
    # the formatter of one trace keeps the last high digits' JSON; each line must
    # still be json.dumps of its own record's dict
    line = cli._jsonl_lines()
    for index, (high, units) in enumerate(steps):
        digits = high if units is None else high + (units,)
        record = StepRecord(index, 13 + index, 7 * index, digits, f"r{index}")
        expected = {"index": index, "base": str(13 + index), "value": str(7 * index),
                    "digits": [str(d) for d in digits], "rendered": f"r{index}"}
        assert line(record) == json.dumps(expected) == _record_json(record)


# --- the record field rule against the definitions' per-field rule ---------------------

def record_reference(obj):
    """``_record_from_json`` with every decimal field read on its own, in record order."""
    if not isinstance(obj, dict):
        raise ValueError("a record must be a JSON object")
    index, digits, rendered = obj["index"], obj["digits"], obj["rendered"]
    if type(index) is not int or not isinstance(digits, list) or not isinstance(rendered, str):
        raise ValueError("index must be an integer, digits a list, rendered a string")
    record = StepRecord(
        index,
        definitions.read_decimal(obj["base"]),
        definitions.read_decimal(obj["value"]),
        tuple(definitions.read_decimal(digit) for digit in digits),
        rendered,
    )
    keys = {"index", "base", "value", "digits", "rendered"}
    if len(obj) != len(keys):
        raise ValueError(f"unexpected keys {sorted(obj.keys() - keys)}")
    return record


def parse_outcome(parse, obj):
    try:
        record = parse(obj)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return type(record), record


# ASCII digits and a sign, and what int() reads beyond the rule: "+", "_", spaces,
# fullwidth and Arabic-Indic digits; "²" passes str.isdigit() and fails int()
FIELD_TEXT = st.text(alphabet="0123456789-+_ \uff11\uff12\u0663\u00b2", max_size=6)
FIELD = st.one_of(
    FIELD_TEXT,
    st.from_regex(r"-?[0-9]{1,6}", fullmatch=True),
    st.builds(
        lambda sign, digit: sign + digit * 5000, st.sampled_from(["", "-"]), st.sampled_from("09")
    ),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="needs CPython's int<->str limit"
)
@settings(deadline=None, max_examples=400)
@given(
    base=FIELD,
    value=FIELD,
    digits=st.lists(FIELD, max_size=4),
    leave_out=st.sampled_from([None, "base", "value"]),
)
@example(base="3", value="26", digits=["2", "2", "2"], leave_out=None)
@example(base="3", value="-26", digits=["2", "-0", "2"], leave_out=None)
@example(base="3", value="\u00b2", digits=[], leave_out=None)
@example(base="3", value="9" * 5000, digits=["0" * 5000], leave_out=None)
@example(base="x", value="26", digits=[], leave_out="value")
def test_record_fields_follow_the_per_field_rule(base, value, digits, leave_out):
    obj = {"index": 1, "base": base, "value": value, "digits": digits, "rendered": "222_3"}
    if leave_out:
        del obj[leave_out]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        expected = parse_outcome(record_reference, obj)
        assert parse_outcome(_record_from_json, obj) == expected
    finally:
        sys.set_int_max_str_digits(previous)


def escaped_layout(line):
    """A trace line with sorted keys, no spaces and every character of ``rendered`` \\u-escaped."""
    obj = json.loads(line)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if "rendered" not in obj:
        return text
    escaped = '"' + "".join(f"\\u{ord(c):04x}" for c in obj["rendered"]) + '"'
    return text.replace(json.dumps(obj["rendered"]), escaped, 1)


def test_verify_reads_any_json_layout_of_a_trace(tmp_path, capsys, monkeypatch):
    trace = jsonl_trace(capsys, 12, 300)
    path = tmp_path / "canonical.jsonl"
    path.write_text(trace)
    canonical = run_cli(capsys, "verify", str(path))
    assert canonical[0] == 0
    lines = [escaped_layout(line) for line in trace.splitlines()]
    relaid = '{"base":"3","digits":["1","0","2","2"],"index":1,"rendered":"\\u0031\\u0030'
    assert lines[1].startswith(relaid)
    text = "\r\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\r\n\r\n"
    path = tmp_path / "relaid.jsonl"
    path.write_bytes(text.encode())
    assert run_cli(capsys, "verify", str(path)) == canonical
    monkeypatch.setattr(sys, "stdin", io.StringIO(text, newline=""))
    assert run_cli(capsys, "verify", "-") == canonical


# --- verify's line comparison against the reader that decodes every line -----------------

def decode_every_line(handle):
    return verify_run(_read_trace(handle))


def verify_outcome(text, verify=None):
    """Exit code, stdout and stderr of ``goodstein verify -`` reading ``text``.

    With ``verify``, that function stands in for ``cli._verify_trace``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.StringIO(text, newline=""))
        if verify is not None:
            patch.setattr(cli, "_verify_trace", verify)
        code = main(["verify", "-"])
    return code, out.getvalue(), err.getvalue()


def forge_line(line, field, index=0):
    """``line``'s record, written as ``run`` writes it, with one field forged."""
    record = json.loads(line)
    if field in ("index", "base", "value"):
        number = int(record[field]) + 1
        record[field] = number if field == "index" else str(number)
    elif field == "digit":
        digits = record["digits"] or ["0"]
        digits[index % len(digits)] = str(int(digits[index % len(digits)]) + 1)
        record["digits"] = digits
    elif field == "leading_zero":
        record["digits"] = ["0", *record["digits"]]
    else:
        record["rendered"] += "0"
    return json.dumps(record)


def relaid(line, layout):
    if layout == "escaped":
        return escaped_layout(line)
    if layout == "sorted":
        return json.dumps(json.loads(line), sort_keys=True)
    return json.dumps(json.loads(line), separators=(",", ":"))


def test_verify_decodes_only_the_seed_and_trailer_lines_of_a_genuine_trace(capsys, monkeypatch):
    code, trace, _ = run_cli(
        capsys, "run", "weak", "--start", "12", "--max-steps", "300", "--format", "jsonl",
        "--verify",
    )
    assert code == 0
    decoded = []
    loads = json.loads

    def counting_loads(line):
        decoded.append(line)
        return loads(line)

    monkeypatch.setattr(json, "loads", counting_loads)
    assert verify_outcome(trace) == (0, trace.splitlines()[-1] + "\n", "")
    assert decoded == [trace.splitlines()[i] for i in (0, -2, -1)]


def test_the_reference_reader_builds_no_successor(capsys, monkeypatch):
    # decode_every_line stays independent of the text comparison it is the reference for
    code, trace, _ = run_cli(
        capsys, "run", "weak", "--start", "12", "--max-steps", "300", "--format", "jsonl",
        "--verify",
    )
    assert code == 0

    def refuse(digits, base, max_bits):
        raise AssertionError("the reference reader built a successor")

    for kind in list(_SUCCESSORS):
        monkeypatch.setitem(_SUCCESSORS, kind, refuse)
    records = list(_read_trace(io.StringIO(trace)))
    assert len(records) == 300
    assert records == [_record_from_json(json.loads(line)) for line in trace.splitlines()[:-2]]


def test_verify_hands_over_between_relaid_and_canonical_lines(capsys):
    lines = jsonl_trace(capsys, 12, 40).splitlines()
    canonical = verify_outcome("\n".join(lines) + "\n")
    assert canonical[0] == 0
    # escaped, sorted and compact lines, blank lines between them, canonical lines after
    mixed = (
        lines[:5]
        + [relaid(line, "escaped") for line in lines[5:8]]
        + ["", "   "]
        + [relaid(line, "sorted") for line in lines[8:10]]
        + [""]
        + [relaid(line, "compact") for line in lines[10:12]]
        + lines[12:]
    )
    text = "\r\n".join(mixed) + "\r\n"
    assert verify_outcome(text) == verify_outcome(text, decode_every_line) == canonical
    # a forgery right after a re-laid line, in canonical layout and re-laid
    after_relaid = mixed.index(lines[12])
    for forged in (
        forge_line(lines[12], "value"),
        relaid(forge_line(lines[12], "rendered"), "compact"),
    ):
        text = "\r\n".join(mixed[:after_relaid] + [forged] + mixed[after_relaid + 1 :])
        outcome = verify_outcome(text)
        assert outcome == verify_outcome(text, decode_every_line)
        assert outcome[:2] == (4, "")
        assert outcome[2].startswith("error: step 12: ")


TRACE_EDITS = st.lists(
    st.tuples(
        st.sampled_from([
            "forge", "relay", "blank", "summary", "certificate", "drop", "repeat", "garbage",
        ]),
        st.integers(0, 10**6),
        st.sampled_from(["index", "base", "value", "digit", "leading_zero", "rendered"]),
        st.sampled_from(["escaped", "sorted", "compact"]),
        st.integers(-1, 2),
    ),
    max_size=3,
)


def edit_trace(lines, edits):
    lines, seed_digits = list(lines), len(json.loads(lines[0])["digits"])
    for action, at, field, layout, shift in edits:
        at %= len(lines) + 1  # insert anywhere, up to after the last line
        on = min(at, len(lines) - 1)  # change or drop an existing line
        line = lines[on]
        if action == "forge" and '"index"' in line:
            lines[on] = forge_line(line, field, at)
        elif action == "relay" and line.startswith('{"'):  # a JSON object
            lines[on] = relaid(line, layout)
        elif action == "blank":
            lines.insert(at, " " * shift if shift > 0 else "")
        elif action in ("summary", "certificate"):
            # right when shift is 0; a wrong count, status or k otherwise
            count = sum(1 for line in lines[:at] if '"index"' in line) + shift % 2
            if action == "summary":
                status = "TerminatedAtZero" if shift == 2 else "StepCapReached"
                trailer = {"status": status, "steps_emitted": count}
            else:
                k = seed_digits + shift // 2
                trailer = {"k": k, "verdict": "AllStepsDescend", "steps_checked": count - 1}
            lines.insert(at, json.dumps(trailer))
        elif action == "drop" and len(lines) > 1:
            del lines[on]
        elif action == "repeat":
            lines.insert(at, line)
        elif action == "garbage":
            lines.insert(at, "{" if shift else "[1, 2]")
    return lines


@settings(deadline=None, max_examples=300)
@given(
    start=st.one_of(st.integers(1, 15), st.integers(2**CUT, 2 ** (CUT + 8))),
    steps=st.integers(1, 40),
    verify=st.booleans(),
    edits=TRACE_EDITS,
    newline=st.sampled_from(["\n", "\r\n"]),
)
@example(start=4, steps=40, verify=False, edits=[], newline="\n")  # reaches zero
@example(start=2**CUT, steps=5, verify=True, edits=[("forge", 2, "digit", "sorted", 0)], newline="\n")
@example(start=8, steps=10, verify=True, edits=[("relay", 3, "value", "escaped", 0),
                                                ("forge", 4, "base", "sorted", 0)], newline="\r\n")
@example(start=3, steps=20, verify=False, edits=[("repeat", 7, "index", "sorted", 0)], newline="\n")
def test_verify_matches_the_reader_that_decodes_every_line(start, steps, verify, edits, newline):
    out = io.StringIO()
    argv = ["run", "weak", "--start", str(start), "--max-steps", str(steps), "--format", "jsonl"]
    with contextlib.redirect_stdout(out):
        main(argv + ["--verify"] * verify)
    text = newline.join(edit_trace(out.getvalue().splitlines(), edits)) + newline
    assert verify_outcome(text) == verify_outcome(text, decode_every_line)


# --- packaging ---------------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]


def cli_process_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # keep CPython's default int<->str limit
    return env


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "goodstein", "convert", "--to-digits", "25", "--base", "2"],
        capture_output=True,
        text=True,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 1 0 0 1"


@pytest.mark.parametrize("module", ["goodstein", "goodstein.cli"])
def test_importing_the_package_loads_no_dataclasses(module):
    # dataclasses brings inspect, ast, dis and tokenize into every process;
    # compare with what the interpreter had loaded before, in case site loads it
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert module in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("fmt", ["human", "jsonl", "csv"])
def test_run_prints_values_past_the_int_str_limit(fmt):
    # from 16 the values pass 4300 decimal digits (about 14k bits) at record 35
    proc = subprocess.run(
        [sys.executable, "-m", "goodstein", "run", "strong", "--start", "16",
         "--max-bits", "60000", "--format", fmt],
        capture_output=True,
        text=True,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    widest = max(len(line) for line in proc.stdout.splitlines())
    assert widest > 4300
    assert "MagnitudeCapReached" in proc.stdout.splitlines()[-1]


def test_convert_prints_values_past_the_int_str_limit():
    proc = subprocess.run(
        [sys.executable, "-m", "goodstein", "convert",
         "--to-value", " ".join(["1"] + ["0"] * 5000), "--base", "10"],
        capture_output=True,
        text=True,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1" + "0" * 5000 + "\n"
    assert proc.stderr == ""


def test_convert_and_hereditary_parse_values_past_the_int_str_limit():
    value = "7" + "1" * 5000

    def goodstein(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "goodstein", *argv],
            capture_output=True,
            text=True,
            env=cli_process_env(),
            cwd=REPO_ROOT,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return proc.stdout.strip()

    digits = goodstein("convert", "--to-digits", value, "--base", "7")
    assert goodstein("convert", "--to-value", digits, "--base", "7") == value
    assert goodstein("hereditary", value, "--base", "10").startswith("7.10^(")


def test_run_takes_a_start_past_the_int_str_limit():
    start = "9" * 5000
    proc = subprocess.run(
        [sys.executable, "-m", "goodstein", "run", "weak", "--start", start,
         "--max-steps", "2", "--format", "jsonl"],
        capture_output=True,
        text=True,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert (proc.returncode, proc.stderr) == (3, "")
    assert json.loads(proc.stdout.splitlines()[0])["value"] == start


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="needs CPython's int<->str limit"
)
def test_verify_keeps_the_int_str_limit(tmp_path):
    # a trace is untrusted input: a decimal field past 4300 digits is not converted
    seed = {"index": 0, "base": "2", "value": "9" * 5000, "digits": ["1"], "rendered": "1_2"}
    path = tmp_path / "wide_seed.jsonl"
    path.write_text(json.dumps(seed) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "goodstein", "verify", str(path)],
        capture_output=True,
        text=True,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: line 1: bad record")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="needs CPython's int<->str limit"
)
def test_verify_reports_a_successor_past_the_int_str_limit(tmp_path):
    # the seed has 4001 digits, its weak successor 6340: writing that value
    # out to compare lines fails, and the decoder reports the line instead
    path = tmp_path / "limit.jsonl"
    with path.open("w") as trace, contextlib.redirect_stdout(trace):
        assert main(["run", "weak", "--start", str(10**4000), "--max-steps", "3",
                     "--format", "jsonl"]) == 3
    proc = subprocess.run(
        [sys.executable, "-m", "goodstein", "verify", str(path)],
        capture_output=True,
        text=True,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: line 2: bad record (Exceeds the limit (4300 digits) for integer string "
        "conversion: value has 6340 digits; use sys.set_int_max_str_digits() to increase "
        "the limit)\n"
    )


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="needs CPython's int<->str limit"
)
@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["convert", "--to-digits", "25", "--base", "2"], 0),
        (["convert", "--to-digits", "25", "--base", "1"], 2),
        (["hereditary", "25", "--base", "2"], 0),
        (["hereditary", "x", "--base", "2"], 2),
        (["run", "weak", "--start", "1", "--verify"], 0),
        (["run", "weak", "--start", "8", "--max-steps", "5"], 3),
        (["run", "weak", "--start", "0"], 2),
        (["run", "weak", "--start", "1_0"], 2),
        (["run", "--help"], 0),
        (["verify", "{trace}"], 0),
        (["verify", "{missing}"], 2),
    ],
)
def test_main_restores_the_int_str_limit(tmp_path, capsys, argv, expected_code):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(jsonl_trace(capsys, 8, 5))
    argv = [a.format(trace=trace, missing=tmp_path / "missing.jsonl") for a in argv]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)  # not the default, so a reset to 4300 shows
    try:
        code, _, _ = run_cli(capsys, *argv)
        assert (code, sys.get_int_max_str_digits()) == (expected_code, 5000)
    finally:
        sys.set_int_max_str_digits(previous)


def test_no_int_str_limit_runs_its_block_on_an_interpreter_without_the_limit(capsys, monkeypatch):
    # interpreters older than the int<->str limit (CPython 3.11, backported to 3.10.7) lack it
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    ran = False
    with _no_int_str_limit():
        ran = True
    assert ran
    assert run_cli(capsys, "convert", "--to-digits", "25", "--base", "2") == (0, "1 1 0 0 1\n", "")


def test_verify_reports_undecodable_trace(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b"\xff\xfe not utf-8\n")
    proc = subprocess.run(
        [sys.executable, "-m", "goodstein", "verify", str(path)],
        capture_output=True,
        text=True,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("steps", ["5", "5000"])  # fits in the stdout buffer, and does not
def test_run_reports_a_failed_write_once(steps, buffered):
    env = cli_process_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "goodstein", "run", "weak", "--start", "8",
             "--max-steps", steps],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_run_ends_cleanly_when_the_reader_closes_the_pipe():
    proc = subprocess.Popen(
        [sys.executable, "-m", "goodstein", "run", "weak", "--start", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_process_env(),
        cwd=REPO_ROOT,
    )
    assert proc.stdout.readline() == b"0 base=2 value=8 1000_2\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


# --- run's chunked output ------------------------------------------------------------

class CountingStdout(io.StringIO):
    """A stdout that keeps every non-empty write, and raises ``error`` on write ``fail_at``."""

    def __init__(self, fail_at=None, error=None):
        super().__init__()
        self.writes, self.fail_at, self.error = [], fail_at, error

    def write(self, text):
        if not text:
            return 0
        self.writes.append(text)
        if len(self.writes) - 1 == self.fail_at:
            raise self.error
        return super().write(text)


def test_run_writes_its_lines_in_chunks(monkeypatch):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["run", "weak", "--start", "12", "--max-steps", "25000", "--format", "jsonl"])
    records, outcome = run_collected(RunKind.WEAK, RunConfig(12, max_steps=25000))
    summary = json.dumps(cli._summary(outcome.status, outcome.steps_emitted))
    assert code == 3
    assert stdout.getvalue() == "".join(_record_json(r) + "\n" for r in records) + summary + "\n"
    assert len(stdout.writes) <= -(-len(stdout.getvalue()) // 65536) + 2
    assert max(map(len, stdout.writes)) < 65536 + 200  # 64 KiB and at most one more line


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "human"])
@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_run_writes_the_text_of_one_write_per_line(monkeypatch, fmt, verify):
    argv = ["run", "weak", "--start", "10", "--max-steps", "40", "--format", fmt, *verify]
    outputs = []
    for chunk in [1, cli._CHUNK]:  # a chunk of one character writes each line on its own
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        monkeypatch.setattr(sys, "stdout", CountingStdout())
        outputs.append((main(argv), sys.stdout.getvalue(), sys.stdout.writes))
    (code, text, lines), (chunked_code, chunked_text, chunks) = outputs
    assert (chunked_code, chunked_text) == (code, text)
    assert all(line.count("\n") <= 1 for line in lines)
    assert len([c for c in chunks if c.count("\n") > 1]) == 1  # every record line at once


@pytest.mark.parametrize("forgery", list(BLOCK_FORGERIES))
def test_run_writes_every_line_up_to_a_refused_record(capsys, monkeypatch, forgery):
    forge, message = BLOCK_FORGERIES[forgery]
    block = sequences._units_block
    monkeypatch.setattr(sequences, "_units_block", lambda *a: map(forge, block(*a)))
    records, _ = run_collected(RunKind.WEAK, RunConfig(10, max_steps=300))
    code, out, err = run_cli(capsys, "run", "weak", "--start", "10", "--max-steps", "300",
                             "--format", "jsonl", "--verify")
    assert (code, err) == (4, f"error: {message}\n")
    assert out == "".join(_record_json(record) + "\n" for record in records[:3])


@pytest.mark.parametrize("fail_at", [0, 1])
@pytest.mark.parametrize(
    "error, expected",
    [
        pytest.param(BrokenPipeError(), (0, ""), id="reader-gone"),
        pytest.param(
            OSError(28, "No space left on device"),
            (2, "error: [Errno 28] No space left on device\n"),
            id="disk-full",
        ),
    ],
)
def test_run_writes_no_chunk_twice_when_a_write_fails(capsys, monkeypatch, fail_at, error, expected):
    stdout = CountingStdout(fail_at, error)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["run", "weak", "--start", "12", "--max-steps", "2000", "--format", "jsonl"])
    assert (code, capsys.readouterr().err) == expected
    assert len(stdout.writes) == fail_at + 1  # nothing after the failed chunk, itself included
