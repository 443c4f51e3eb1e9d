"""Command line front end.

Subcommands: ``convert`` (digits <-> value), ``hereditary`` (linear or DOT
rendering), ``run`` (stream a sequence, optionally certified), ``verify``
(recheck a JSONL weak trace and emit a descent certificate).

Exit codes, all set in ``main``: 0 success, 2 bad arguments, malformed or
unreadable input, or an I/O error, 3 run stopped by a cap, 4 a trace
record that is not a descending step of its run's kind. Values travel as
decimal strings; JSON numbers are used only for record indices.

Every integer on the command line or in a trace, option values included,
follows one decimal rule, ``-?[0-9]+``. Only ``main`` lifts CPython's
int<->str limit: for argument parsing and for every subcommand but ``verify``.

``verify`` reads a trace into ``descent._certify``, the loop that
``verify_run`` also runs, and keeps only the line handling here, in one
line loop, ``_trace_pairs``. For ``verify`` it compares each line after
the seed with the line ``run`` writes for the expected successor of the
record before it, and decodes only the lines that differ: the seed,
summaries and certificates, other JSON layouts and forgeries. For
``_read_trace`` it decodes every line and builds no successor, so
``verify_run(_read_trace(handle))``, whose result ``verify`` gives, is a
reference that shares no text comparison with it.

``run --format jsonl`` writes, and ``verify`` compares, record lines made
by one formatter per trace, ``_jsonl_lines``. It keeps the JSON of the
last record's high digits, all but the units digit, so a record that
keeps them, as a units-only weak or decreasing step does, costs one
f-string. ``_record_json`` is the line of one record on its own.

``run`` gathers its lines and hands them to ``sys.stdout.write`` joined
once they reach ``_CHUNK`` characters, so a write-through or line-buffered
stdout costs one write(2) per chunk, not one per record. It writes what it
has gathered before a summary or certificate line and before it stops on
an error, so its output is the text, in order, that one write per line
gives.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Optional, Sequence, TextIO

from .descent import DescentCertificate, _certify, _successor_record, verify_run
from .errors import EmptyRun, GoodsteinError, StepMismatch
from .hereditary import build_hereditary, render_tree_dot, render_tree_text
from .numerals import from_digits, to_digits
from .sequences import (
    DEFAULT_MAX_BITS,
    DEFAULT_MAX_STEPS,
    RunConfig,
    RunKind,
    RunOutcome,
    RunStatus,
    StepRecord,
    run,
)


def _decimal(field: object) -> int:
    # ``-?[0-9]+`` only: int() would also take "2_6", " 26" and non-ASCII digits
    if isinstance(field, str) and field.isascii() and field.removeprefix("-").isdigit():
        return int(field)
    raise ValueError(f"expected a decimal string, got {field!r}")


def _int_arg(text: str) -> int:
    try:
        return _decimal(text)
    except ValueError:  # in the words argparse uses for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_digit_tokens(text: str) -> tuple[int, ...]:
    digits = []
    for token in text.split():
        try:
            digits.append(_decimal(token))
        except ValueError:
            raise GoodsteinError(f"invalid digit token: {token!r}") from None
    return tuple(digits)


@contextlib.contextmanager
def _no_int_str_limit() -> Iterator[None]:
    """Lift CPython's int<->str digit limit inside the block, then restore it.

    The limit (4300 decimal digits, about 14k bits) guards parsing of
    untrusted input. ``main`` enters this block around argument parsing and
    every subcommand but ``verify``, which keeps the limit for its traces.
    """
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    previous = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _parse_value(text: str) -> int:
    try:
        return _decimal(text)
    except ValueError:
        raise GoodsteinError(f"VALUE must be an integer, got {text!r}") from None


def cmd_convert(args: argparse.Namespace) -> int:
    if args.to_digits is not None:
        digits = to_digits(_parse_value(args.to_digits), args.base)
        print(" ".join(str(d) for d in digits) if digits else "0")
    else:
        print(from_digits(_parse_digit_tokens(args.to_value), args.base))
    return 0


def cmd_hereditary(args: argparse.Namespace) -> int:
    tree = build_hereditary(_parse_value(args.value), args.base)
    render = render_tree_dot if args.render == "dot" else render_tree_text
    print(render(tree, args.base))
    return 0


def _jsonl_lines() -> Callable[[StepRecord], str]:
    """A formatter for the records of one trace, in order: ``_record_json`` of each.

    It keeps the last high-digit tuple, every digit but the units digit,
    with its JSON, so a record that keeps them, as a units-only step of a
    weak or decreasing run does, formats only its units digit.
    """
    high: Optional[Sequence[int]] = None
    high_json = ""

    def line(record: StepRecord) -> str:
        # The bytes of json.dumps on the record's dict, without building the dict.
        # Every field but ``rendered`` is decimal text, which needs no escaping.
        nonlocal high, high_json
        digits = record.digits
        if digits[:-1] != high:
            high_json = "".join([f'"{d}", ' for d in digits[:-1]])
            high = digits[:-1]
        units = f'"{digits[-1]}"' if digits else ""
        return (
            f'{{"index": {record.index}, "base": "{record.base}", "value": "{record.value}", '
            f'"digits": [{high_json}{units}], '
            f'"rendered": {encode_basestring_ascii(record.rendered)}}}'
        )

    return line


def _record_json(record: StepRecord) -> str:
    """The JSONL line of one record, as ``run --format jsonl`` writes it."""
    return _jsonl_lines()(record)


def _summary(status: RunStatus, steps_emitted: int) -> dict:
    return {"status": status.value, "steps_emitted": steps_emitted}


def _certificate(k: int, steps_checked: int) -> dict:
    return {"k": k, "verdict": "AllStepsDescend", "steps_checked": steps_checked}


def _print_trailer(obj: dict, fmt: str, text: str = "") -> None:
    # a run summary or certificate: a JSON line in a jsonl trace, else a "#" comment
    print(json.dumps(obj) if fmt == "jsonl" else f"# {text}")


_CHUNK = 1 << 16  # 64 KiB


def cmd_run(args: argparse.Namespace) -> int:
    if args.start < 1:
        raise GoodsteinError(f"--start must be >= 1, got {args.start}")
    cfg, kind = RunConfig(args.start, args.base, args.max_steps, args.max_bits), RunKind(args.kind)
    line = {
        "jsonl": _jsonl_lines(),
        "csv": lambda r: f"{r.index},{r.base},{r.value},{r.rendered}",
        "human": lambda r: f"{r.index} base={r.base} value={r.value} {r.rendered}",
    }[args.format]

    if args.format == "csv":
        print("index,base,value,rendered")

    final, chunk, size = None, [], 0

    def flush() -> None:
        nonlocal size
        text, size = "".join(chunk), 0
        chunk.clear()  # before the write, so a failed write is not retried
        if text:
            sys.stdout.write(text)

    def emitting() -> Iterator[StepRecord]:
        nonlocal final, size
        for final in run(kind, cfg):
            text = line(final) + "\n"
            chunk.append(text)
            size += len(text)
            if size >= _CHUNK:
                flush()
            yield final

    records = emitting()
    try:
        cert = verify_run(records, kind) if args.verify else None
        for _ in records:  # drains an unverified run; verify_run has drained a verified one
            pass
    finally:  # every line before a refusal, a cap or an error is written
        flush()
    outcome = RunOutcome.of(final, cfg)
    status, steps = outcome.status, outcome.steps_emitted
    _print_trailer(_summary(status, steps), args.format, f"status={status.value} steps={steps}")
    if cert is None:
        return 0 if status is RunStatus.TERMINATED_AT_ZERO else 3
    checked = len(cert.evidence)
    text = f"verdict=AllStepsDescend steps_checked={checked} k={cert.k}"
    _print_trailer(_certificate(cert.k, checked), args.format, text)
    return 0


# Run summaries and certificates share the stream; every other line is a record.
_SUMMARY_KEYS = {"status", "steps_emitted"}
_NON_RECORD_KEYS = (_SUMMARY_KEYS, {"k", "verdict", "steps_checked"})
_RECORD_KEYS = {"index", "base", "value", "digits", "rendered"}


def _record_from_json(obj: object) -> StepRecord:
    if not isinstance(obj, dict):
        raise ValueError("a record must be a JSON object")
    index, digits, rendered = obj["index"], obj["digits"], obj["rendered"]
    if type(index) is not int or not isinstance(digits, list) or not isinstance(rendered, str):
        raise ValueError("index must be an integer, digits a list, rendered a string")
    base, value = _decimal(obj["base"]), _decimal(obj["value"])
    record = StepRecord(index, base, value, tuple(map(_decimal, digits)), rendered)
    if len(obj) != len(_RECORD_KEYS):  # every record key is present by now
        raise ValueError(f"unexpected keys {sorted(obj.keys() - _RECORD_KEYS)}")
    return record


def _check_trailer(obj: dict, lineno: int, last: Optional[StepRecord], k: int, count: int) -> None:
    """Raise unless a summary or certificate line agrees with the ``count`` records before it.

    A weak run has no magnitude cap: it stops at zero or at the step cap.
    """
    if obj.keys() == _SUMMARY_KEYS:
        what = "run summary"
        zero = last is not None and last.value == 0
        status = RunStatus.TERMINATED_AT_ZERO if zero else RunStatus.STEP_CAP_REACHED
        expected = _summary(status, count)
    else:
        what = "certificate"
        expected = _certificate(k, count - 1)
    # JSON true and 1.0 compare equal to 1, but dump as other text
    if last is None or json.dumps(obj, sort_keys=True) != json.dumps(expected, sort_keys=True):
        raise GoodsteinError(f"line {lineno}: {what} does not match the {count} records before it")


def _trace_pairs(
    handle: TextIO, kind: Optional[RunKind]
) -> Iterator[tuple[StepRecord, Optional[StepRecord]]]:
    """Yield each record of a JSONL trace with its expected record, one line at a time.

    With a ``kind``, each line after the seed is first compared with the
    line ``run`` writes for the expected ``kind`` successor of the record
    before it. A line that equals it is that expected record and is not
    decoded; any other line is. With ``kind=None`` every line is decoded
    and no successor is built, so the expected record is None. A run
    summary or certificate line must agree with the records before it, and
    no record may follow one. The first problem in file order decides.
    """
    prev, k, count, ended, record_json = None, 0, 0, False, _jsonl_lines()
    for lineno, line in enumerate(handle, 1):
        line = line.strip()
        if not line:
            continue
        nxt = expected = None
        if kind is not None and prev is not None and not ended:
            # a line of L characters spells fewer than 4 * L bits
            expected = _successor_record(prev, kind, 4 * len(line))
            try:
                if expected is not None and line == record_json(expected):
                    nxt = expected
            except ValueError:  # text past the int<->str limit matches no line
                pass
        if nxt is None:
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError):
                raise GoodsteinError(f"line {lineno}: not valid JSON") from None
            if isinstance(obj, dict) and obj.keys() in _NON_RECORD_KEYS:
                _check_trailer(obj, lineno, prev, k, count)
                ended = True
                continue
            try:
                nxt = _record_from_json(obj)
            except (KeyError, ValueError) as exc:
                raise GoodsteinError(f"line {lineno}: bad record ({exc})") from None
            if ended:
                raise GoodsteinError(
                    f"line {lineno}: a record follows the run summary or certificate"
                )
        if count == 0:
            k = len(nxt.digits)
        prev, count = nxt, count + 1
        yield nxt, expected


def _read_trace(handle: TextIO) -> Iterator[StepRecord]:
    """Yield the records of a JSONL trace one line at a time, decoding every line.

    ``verify_run(_read_trace(handle))`` is the reference for
    ``_verify_trace``, which reads the same lines with fewer decodes.
    """
    return (record for record, _ in _trace_pairs(handle, None))


def _verify_trace(handle: TextIO) -> DescentCertificate:
    """Check a JSONL weak trace as ``verify_run(_read_trace(handle))`` does, line by line."""
    return _certify(_trace_pairs(handle, RunKind.WEAK), RunKind.WEAK)


def cmd_verify(args: argparse.Namespace) -> int:
    stdin = args.path == "-"
    with contextlib.nullcontext(sys.stdin) if stdin else open(args.path, encoding="utf-8") as trace:
        cert = _verify_trace(trace)
    _print_trailer(_certificate(cert.k, len(cert.evidence)), "jsonl")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodstein",
        description="Goodstein sequences, hereditary base notation, and descent certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between a value and its digits in a base")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-digits", metavar="VALUE", help="print the digits of VALUE")
    group.add_argument(
        "--to-value",
        metavar="DIGITS",
        help="evaluate space-separated digits, most significant first",
    )
    p.add_argument("--base", type=_int_arg, required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("hereditary", help="render a value in hereditary base notation")
    p.add_argument("value", metavar="VALUE")
    p.add_argument("--base", type=_int_arg, required=True)
    p.add_argument("--render", choices=("text", "dot"), default="text")
    p.set_defaults(func=cmd_hereditary)

    p = sub.add_parser("run", help="stream a sequence as records plus a summary")
    p.add_argument("kind", choices=("decreasing", "weak", "strong"))
    p.add_argument("--start", type=_int_arg, required=True)
    p.add_argument(
        "--base", type=_int_arg, default=2, help="start base (the fixed base for decreasing runs)"
    )
    p.add_argument(
        "--max-steps", type=_int_arg, default=DEFAULT_MAX_STEPS, help="stop after this many records"
    )
    p.add_argument(
        "--max-bits",
        type=_int_arg,
        default=DEFAULT_MAX_BITS,
        help="stop a strong run before a value wider than this many bits; weak and decreasing"
        " successors take no magnitude cap",
    )
    p.add_argument("--format", choices=("human", "jsonl", "csv"), default="human")
    p.add_argument(
        "--verify",
        action="store_true",
        help="append a descent certificate checked in the order of the run's kind",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="recheck a JSONL weak trace and print a certificate")
    p.add_argument("path", nargs="?", default="-", help="trace file, or '-' for stdin")
    p.set_defaults(func=cmd_verify)

    return parser


def _settle_stdout() -> None:
    # A failed flush keeps its data buffered, so the flush at exit would fail
    # and report again: point stdout at devnull instead.
    try:
        print(end="", flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        with _no_int_str_limit():
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # verify parses untrusted traces, so it alone keeps CPython's int<->str limit
        with contextlib.nullcontext() if args.command == "verify" else _no_int_str_limit():
            code = args.func(args)
            print(end="", flush=True)  # a stdout write error surfaces here, not at exit
        return code
    except StepMismatch as exc:
        code, message = 4, str(exc)
    except EmptyRun as exc:
        code, message = 2, f"EmptyRun: {exc}"
    except BrokenPipeError:
        # The reader went away (``goodstein run ... | head``): a clean end.
        _settle_stdout()
        return 0
    except (GoodsteinError, OSError, UnicodeDecodeError) as exc:
        code, message = 2, str(exc)
    _settle_stdout()
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
