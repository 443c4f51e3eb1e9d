"""One benchmark op in a process of its own.

    python3 bench/worker.py op --input INPUT.json
    python3 bench/worker.py trace --input INPUT.json --spans SPANS.bin

``op`` runs a library workload (a ``run_collected`` plus its certificate)
and prints the two wall times and the outputs. ``trace`` runs any
workload's op twice in this process, first plain and then with span
recorders installed around the package's public functions, and prints the
per-layer figures. ``goodstein`` must be importable (``PYTHONPATH=src``).
Everything is printed as one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from tracing import Recorder  # noqa: E402

import goodstein  # noqa: E402


def _config(params: dict) -> "goodstein.RunConfig":
    start = int(params["start_hex"], 16)
    if params["kind"] == "weak":
        return goodstein.RunConfig(start, params["base"], max_steps=params["max_steps"])
    return goodstein.RunConfig(start, params["base"], max_bits=params["max_bits"])


def _certify(kind: str, records: list, cfg) -> dict:
    """Weak runs get the descent verifier; strong runs, which have none, a replay.

    The replay recomputes every record from its predecessor with the
    library's ``strong_step`` and compares index, base and value.
    """
    if kind == "weak":
        cert = goodstein.verify_run(records)
        verdict = "AllStepsDescend" if cert.all_steps_descend else {"violation_at": cert.violation_at}
        return {"k": cert.k, "verdict": verdict, "steps_checked": len(cert.evidence)}
    verdict = "AllStepsReplay"
    for prev, nxt in zip(records, records[1:]):
        if (
            nxt.index != prev.index + 1
            or nxt.base != prev.base + 1
            or goodstein.strong_step(prev.value, prev.base, cfg.max_bits) != nxt.value
        ):
            verdict = {"mismatch_at": nxt.index}
            break
    return {"k": None, "verdict": verdict, "steps_checked": len(records) - 1}


def library_op(params: dict) -> tuple[float, float, dict]:
    """Run and certify a library workload; returns run_s, verify_s and the outputs."""
    kind = params["kind"]
    cfg = _config(params)
    t0 = time.perf_counter()
    records, outcome = goodstein.run_collected(goodstein.RunKind(kind), cfg)
    t1 = time.perf_counter()
    certificate = _certify(kind, records, cfg)
    t2 = time.perf_counter()

    def rec(r) -> list:
        return oracle.record(r.index, r.base, r.value, r.digits, r.rendered)

    outputs = {
        "exits": {"worker": 0},
        "status": outcome.status.value,
        "steps_emitted": outcome.steps_emitted,
        "final": rec(outcome.final),
        "sample": {str(i): rec(records[i]) for i in params["sample"] if i < len(records)},
        "certificate": certificate,
    }
    return t1 - t0, t2 - t1, outputs


def cli_op(params: dict) -> tuple[float, float, dict]:
    """Run the CLI pipeline in this process: ``run`` into a trace file, then ``verify``."""
    from goodstein import cli

    trace = params["trace_path"]
    t0 = time.perf_counter()
    with open(trace, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        run_exit = cli.main(params["run_argv"])
    t1 = time.perf_counter()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        verify_exit = cli.main(["verify", trace])
    t2 = time.perf_counter()
    exits = {"run": run_exit, "verify": verify_exit}
    return t1 - t0, t2 - t1, oracle.cli_outputs(trace, captured.getvalue(), exits, params["sample"])


class _RunStats:
    """Counts taken from the records a traced ``run`` yields."""

    def __init__(self) -> None:
        self.records = self.peak_bits = self.peak_digits = self.evidence_kept = 0

    def saw(self, record) -> None:
        self.records += 1
        self.peak_bits = max(self.peak_bits, record.value.bit_length())
        self.peak_digits = max(self.peak_digits, len(record.digits))


def _install(recorder: Recorder, stats: _RunStats) -> None:
    from goodstein import descent, hereditary, numerals, sequences

    def bits(value, *_):
        return value.bit_length()

    wrapped = {
        "numerals.from_digits": numerals.from_digits,
        "numerals.decrement_in_base": numerals.decrement_in_base,
        "numerals.lex_compare": numerals.lex_compare,
        "numerals.render": numerals.render,
        "hereditary.build_hereditary": hereditary.build_hereditary,
        "sequences.weak_step": sequences.weak_step,
        "sequences.strong_step": sequences.strong_step,
        "descent.check_step": descent.check_step,
    }
    cli = sys.modules.get("goodstein.cli")
    if cli is not None:
        wrapped["cli.cmd_run"] = cli.cmd_run
        wrapped["cli.cmd_verify"] = cli.cmd_verify
    for name, fn in wrapped.items():
        recorder.install(fn, recorder.wrap(name, fn))
    recorder.install(numerals.to_digits, recorder.wrap("numerals.to_digits", numerals.to_digits, bits))
    recorder.install(sequences.run, recorder.wrap_iterator("sequences.run", sequences.run, stats.saw))

    verify_run = descent.verify_run

    def counting_verify_run(*args, **kwargs):
        cert = verify_run(*args, **kwargs)
        stats.evidence_kept += len(cert.evidence)
        return cert

    recorder.install(verify_run, recorder.wrap("descent.verify_run", counting_verify_run))


def _layer_metrics(recorder: Recorder, stats: _RunStats, trace_bytes: int) -> dict:
    layers = recorder.layers()

    def get(name: str, field: str):
        return layers.get(name, {}).get(field, 0)

    metrics = {}
    for name in (
        "numerals.to_digits", "numerals.from_digits", "numerals.decrement_in_base",
        "numerals.render", "hereditary.build_hereditary", "sequences.weak_step",
        "sequences.strong_step", "descent.check_step",
    ):
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self_s")
    for name in (
        "numerals.lex_compare", "sequences.run", "descent.verify_run",
        "cli.cmd_run", "cli.cmd_verify",
    ):
        metrics[f"{name}.self_s"] = get(name, "self_s")
    metrics.update({
        "numerals.to_digits.in_bits": get("numerals.to_digits", "size_sum"),
        "numerals.to_digits.per_record": round(get("numerals.to_digits", "calls") / stats.records, 2),
        "numerals.to_digits.widest_bits": get("numerals.to_digits", "widest"),
        "numerals.to_digits.widest_s": get("numerals.to_digits", "widest_s"),
        "sequences.run.records": stats.records,
        "sequences.peak_bits": stats.peak_bits,
        "sequences.peak_digits": stats.peak_digits,
        "descent.evidence_kept": stats.evidence_kept,
        "cli.trace_bytes": trace_bytes,
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("op", "trace"))
    parser.add_argument("--input", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    with open(args.input, encoding="utf-8") as handle:
        params = json.load(handle)
    op = cli_op if params["kind"] == "cli" else library_op
    if args.mode == "op":
        run_s, verify_s, outputs = op(params)
        print(json.dumps({"run_s": run_s, "verify_s": verify_s, "outputs": outputs}))
        return 0

    plain_run_s, plain_verify_s, _ = op(params)
    recorder, stats = Recorder(), _RunStats()
    _install(recorder, stats)
    run_s, verify_s, outputs = op(params)
    plain = plain_run_s + plain_verify_s
    metrics = _layer_metrics(
        recorder, stats, os.path.getsize(params["trace_path"]) if params["kind"] == "cli" else 0
    )
    metrics["trace.overhead_frac"] = (run_s + verify_s - plain) / plain
    if args.spans:
        recorder.write(args.spans)
    print(json.dumps({"metrics": metrics, "outputs": outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
