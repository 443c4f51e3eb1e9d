"""Reference steppers and output checks for the benchmark.

Nothing here imports ``goodstein``: the expected outputs come from a
minimal weak stepper (digit domain, borrow decrement) and a minimal strong
stepper (hereditary base bump by repeated division), written from the
definitions alone. Values travel as hex strings because CPython refuses
to turn an int of more than 4300 decimal digits into a decimal string,
and hex has no such limit.

A record is ``[index, base, value_hex, digits, rendered]``. Program
outputs and oracle expectations are both dicts of the same shape:
``exits``, ``status``, ``steps_emitted``, ``final``, ``sample`` (record
index -> record) and ``certificate`` (``k``, ``verdict``,
``steps_checked``).
"""

from __future__ import annotations

import json


def record(index: int, base: int, value: int, digits, rendered: str) -> list:
    return [index, base, hex(value), [int(d) for d in digits], rendered]


def _rendered(digits, base: int) -> str:
    body = "".join(str(d) if d < 10 else f"({d})" for d in digits) or "0"
    return f"{body}_{base}"


def _value(digits, base: int) -> int:
    value = 0
    for d in digits:
        value = value * base + d
    return value


def _digits(value: int, base: int) -> list[int]:
    out = []
    while value:
        value, d = divmod(value, base)
        out.append(d)
    out.reverse()
    return out


def weak_expected(start: int, base: int, max_steps: int, sample: list[int], exits: dict) -> dict:
    """Expected outcome of a weak run plus its descent certificate.

    Steps in the digit domain: the digits are reread in the next base and
    one is subtracted by the borrow rule, so no radix conversion is needed
    after the seed.
    """
    digits = _digits(start, base)
    k = len(digits)
    wanted = set(sample)
    kept = {}
    index, descends = 0, True
    while True:
        if index in wanted:
            kept[index] = record(index, base, _value(digits, base), digits, _rendered(digits, base))
        if not digits or index + 1 >= max_steps:
            break
        prev = list(digits)
        base += 1
        i = len(digits) - 1
        while digits[i] == 0:
            digits[i] = base - 1
            i -= 1
        digits[i] -= 1
        if digits[0] == 0:
            del digits[0]
        index += 1
        descends = descends and (len(digits), digits) < (len(prev), prev) and len(digits) <= k
    status = "TerminatedAtZero" if not digits else "StepCapReached"
    return {
        "exits": exits,
        "status": status,
        "steps_emitted": index + 1,
        "final": record(index, base, _value(digits, base), digits, _rendered(digits, base)),
        "sample": {str(i): kept[i] for i in sample if i in kept},
        "certificate": {
            "k": k,
            "verdict": "AllStepsDescend" if descends else "Violation",
            "steps_checked": index,
        },
    }


def _bump(value: int, base: int) -> int:
    """Rewrite ``value`` in hereditary base ``base`` and read it in ``base + 1``."""
    total, exponent = 0, 0
    while value:
        value, d = divmod(value, base)
        if d:
            total += d * (base + 1) ** _bump(exponent, base)
        exponent += 1
    return total


def strong_values(start: int, base: int, max_bits: int) -> list[int]:
    """Values of a strong run up to the record whose successor outgrows ``max_bits``."""
    values = [start]
    while values[-1]:
        bumped = _bump(values[-1], base + len(values) - 1)
        if bumped.bit_length() > max_bits:
            break
        values.append(bumped - 1)
    return values


def strong_expected(values: list[int], base: int, sample: list[int], exits: dict) -> dict:
    """Expected outcome of the strong run ``values``, plus its replay certificate.

    The replay certificate says that each record is the strong successor of
    the one before it.
    """

    def at(i: int) -> list:
        digits = _digits(values[i], base + i)
        return record(i, base + i, values[i], digits, _rendered(digits, base + i))

    last = len(values) - 1
    return {
        "exits": exits,
        "status": "TerminatedAtZero" if not values[-1] else "MagnitudeCapReached",
        "steps_emitted": len(values),
        "final": at(last),
        "sample": {str(i): at(i) for i in sample if i <= last},
        "certificate": {"k": None, "verdict": "AllStepsReplay", "steps_checked": last},
    }


def cli_outputs(trace_path: str, verify_stdout: str, exits: dict, sample: list[int]) -> dict:
    """Read a ``run --format jsonl`` trace and a ``verify`` certificate into outputs.

    Line ``i`` of the trace is record ``i``; the last line is the run summary.
    """
    with open(trace_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    def parsed(line: str) -> list:
        obj = json.loads(line)
        return record(
            obj["index"], int(obj["base"]), int(obj["value"]),
            (int(d) for d in obj["digits"]), obj["rendered"],
        )

    summary = json.loads(lines[-1])
    records = lines[:-1]
    certificate = json.loads(verify_stdout.strip().splitlines()[-1])
    return {
        "exits": exits,
        "status": summary["status"],
        "steps_emitted": summary["steps_emitted"],
        "final": parsed(records[-1]),
        "sample": {str(i): parsed(records[i]) for i in sample if i < len(records)},
        "certificate": certificate,
    }


def mismatches(expected: dict, outputs: dict) -> list[str]:
    """Fields of ``outputs`` that differ from ``expected``, by name."""
    bad = [
        key for key in ("exits", "status", "steps_emitted", "final", "certificate")
        if outputs.get(key) != expected[key]
    ]
    sample = outputs.get("sample", {})
    bad += [f"sample[{i}]" for i, rec in expected["sample"].items() if sample.get(i) != rec]
    return bad
