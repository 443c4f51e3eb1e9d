"""Command line front end.

Subcommands: ``convert`` (digits <-> value), ``hereditary`` (linear or DOT
rendering), ``run`` (stream a sequence), ``verify`` (recheck a JSONL weak
trace and emit a descent certificate).

Exit codes: 0 success, 2 bad arguments or malformed input, 3 run stopped
by a cap, 4 descent violation or trace mismatch. Values are serialized as
decimal strings everywhere (they outgrow fixed-width integers quickly);
JSON numbers are used only for record indices.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, TextIO

from .descent import DescentCertificate, verify_run
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


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_digit_tokens(text: str) -> tuple[int, ...]:
    digits = []
    for token in text.split():
        try:
            digits.append(int(token))
        except ValueError:
            raise GoodsteinError(f"invalid digit token: {token!r}") from None
    return tuple(digits)


def cmd_convert(args: argparse.Namespace) -> int:
    try:
        if args.to_digits is not None:
            digits = to_digits(args.to_digits, args.base)
            print(" ".join(str(d) for d in digits) if digits else "0")
        else:
            print(from_digits(_parse_digit_tokens(args.to_value), args.base))
    except GoodsteinError as exc:
        return _fail(str(exc))
    return 0


def cmd_hereditary(args: argparse.Namespace) -> int:
    try:
        tree = build_hereditary(args.value, args.base)
    except GoodsteinError as exc:
        return _fail(str(exc))
    if args.render == "dot":
        print(render_tree_dot(tree, args.base))
    else:
        print(render_tree_text(tree, args.base))
    return 0


def _record_json(record: StepRecord) -> str:
    return json.dumps(
        {
            "index": record.index,
            "base": str(record.base),
            "value": str(record.value),
            "digits": [str(d) for d in record.digits],
            "rendered": record.rendered,
        }
    )


def _emit_record(record: StepRecord, fmt: str, out: TextIO) -> None:
    if fmt == "jsonl":
        print(_record_json(record), file=out)
    elif fmt == "csv":
        print(f"{record.index},{record.base},{record.value},{record.rendered}", file=out)
    else:
        print(
            f"{record.index} base={record.base} value={record.value} {record.rendered}",
            file=out,
        )


def _emit_summary(outcome: RunOutcome, fmt: str, out: TextIO) -> None:
    if fmt == "jsonl":
        summary = {"status": outcome.status.value, "steps_emitted": outcome.steps_emitted}
        print(json.dumps(summary), file=out)
    else:
        print(f"# status={outcome.status.value} steps={outcome.steps_emitted}", file=out)


def _certificate_json(cert: DescentCertificate) -> str:
    verdict = "AllStepsDescend" if cert.all_steps_descend else {"violation_at": cert.violation_at}
    return json.dumps({"k": cert.k, "verdict": verdict, "steps_checked": len(cert.evidence)})


def _emit_certificate(cert: DescentCertificate, fmt: str, out: TextIO) -> None:
    if fmt == "jsonl":
        print(_certificate_json(cert), file=out)
        return
    verdict = (
        "AllStepsDescend" if cert.all_steps_descend else f"ViolationAt({cert.violation_at})"
    )
    print(f"# verdict={verdict} steps_checked={len(cert.evidence)} k={cert.k}", file=out)


def cmd_run(args: argparse.Namespace) -> int:
    # Strong runs print values far past CPython's default int->str limit
    # (4300 decimal digits, about 14k bits). Lift it while this command
    # runs; ``verify`` parses untrusted input and keeps it.
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _run(args)
    previous = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        sys.set_int_max_str_digits(previous)


def _run(args: argparse.Namespace) -> int:
    if args.verify and args.kind != "weak":
        return _fail("--verify applies to weak runs only")
    if args.start < 1:
        return _fail(f"--start must be >= 1, got {args.start}")
    try:
        cfg = RunConfig(args.start, args.base, args.max_steps, args.max_bits)
    except GoodsteinError as exc:
        return _fail(str(exc))

    if args.format == "csv":
        print("index,base,value,rendered")

    outcome_box: dict[str, RunOutcome] = {}

    def stream():
        outcome_box["outcome"] = yield from run(RunKind(args.kind), cfg)

    def emitting():
        for record in stream():
            _emit_record(record, args.format, sys.stdout)
            yield record

    if args.verify:
        cert = verify_run(emitting())
        outcome = outcome_box["outcome"]
        _emit_summary(outcome, args.format, sys.stdout)
        _emit_certificate(cert, args.format, sys.stdout)
        return 0 if cert.all_steps_descend else 4
    for _ in emitting():
        pass
    outcome = outcome_box["outcome"]
    _emit_summary(outcome, args.format, sys.stdout)
    return 0 if outcome.status is RunStatus.TERMINATED_AT_ZERO else 3


def _record_from_json(obj: dict) -> StepRecord:
    return StepRecord(
        index=int(obj["index"]),
        base=int(obj["base"]),
        value=int(obj["value"]),
        digits=tuple(map(int, obj["digits"])),
        rendered=str(obj["rendered"]),
    )


def _read_trace(handle: TextIO) -> list[StepRecord]:
    records = []
    for lineno, line in enumerate(handle, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise GoodsteinError(f"line {lineno}: not valid JSON") from None
        if not isinstance(obj, dict) or "index" not in obj:
            continue  # run summaries and certificates travel in the same stream
        try:
            records.append(_record_from_json(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise GoodsteinError(f"line {lineno}: bad record ({exc})") from None
    return records


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        if args.path == "-":
            records = _read_trace(sys.stdin)
        else:
            with open(args.path, encoding="utf-8") as handle:
                records = _read_trace(handle)
    except (OSError, GoodsteinError) as exc:
        return _fail(str(exc))
    try:
        cert = verify_run(records)
    except EmptyRun as exc:
        return _fail(f"EmptyRun: {exc}")
    except StepMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(_certificate_json(cert))
    return 0 if cert.all_steps_descend else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodstein",
        description="Goodstein sequences, hereditary base notation, and descent certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between a value and its digits in a base")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-digits", type=int, metavar="VALUE", help="print the digits of VALUE")
    group.add_argument(
        "--to-value",
        metavar="DIGITS",
        help="evaluate space-separated digits, most significant first",
    )
    p.add_argument("--base", type=int, required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("hereditary", help="render a value in hereditary base notation")
    p.add_argument("value", type=int)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--render", choices=("text", "dot"), default="text")
    p.set_defaults(func=cmd_hereditary)

    p = sub.add_parser("run", help="stream a sequence as records plus a summary")
    p.add_argument("kind", choices=("decreasing", "weak", "strong"))
    p.add_argument("--start", type=int, required=True)
    p.add_argument(
        "--base", type=int, default=2, help="start base (the fixed base for decreasing runs)"
    )
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--max-bits", type=int, default=DEFAULT_MAX_BITS)
    p.add_argument("--format", choices=("human", "jsonl", "csv"), default="human")
    p.add_argument(
        "--verify",
        action="store_true",
        help="append a descent certificate (weak runs only)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="recheck a JSONL weak trace and print a certificate")
    p.add_argument("path", nargs="?", default="-", help="trace file, or '-' for stdin")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except GoodsteinError as exc:
        return _fail(str(exc))
    except BrokenPipeError:
        # The reader went away (``goodstein run ... | head``): a clean end.
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
