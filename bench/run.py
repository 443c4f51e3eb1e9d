"""Benchmark of the goodstein package: weak and strong runs, end to end and per layer.

    python3 bench/run.py --workload weak_narrow --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``. The workloads, their reasons and the metrics with their units
and bounds are defined in ``BENCHMARK.json`` next to ``src/``.

With ``--trace 0`` it times ops one after another for ``--seconds``. An
op is one run plus its certificate; ``run_s`` and ``verify_s`` are their
wall seconds. Between ops it also times fresh interpreters that import
the package (``setup_s``) and the fixed ``reference.py`` program
(``reference_s``). The gated times ``run_per_ref`` and ``verify_per_ref``
are the median op times divided by the median reference time, because the
speed of this kind of work on a shared host drifts by up to a quarter
from one minute to the next while the ratio holds within a few percent.
Wall seconds are printed and stored too. With ``--trace 1`` it runs the
op in a worker with span recorders installed around the package's
functions (see ``tracing.py``) and reports the per-layer metrics. Every
op's outputs are checked against ``oracle.py`` outside the timed region. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result,
with the seed and the environment, goes to ``.bench_work/results/``.

At most one child process runs at a time, so the weak CLI pipeline writes
its trace to a file and then verifies that file instead of piping two
processes together. Nothing machine-wide is read or changed: memory is
each child's own ``ru_maxrss`` from ``os.wait4``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# weak_narrow: 2.5e4 records of at most 4 digits, each value under 64 bits.
NARROW_STEPS = 25_000
# weak_wide: a 1000-digit base-2 start; after 300 records the base is 301
# and values are about 8e3 bits wide.
WIDE_DIGITS = 1000
WIDE_STEPS = 300
# strong_wide: start 16 in base 2 stops after 64 records; the widest is
# 51685 bits. The 1e6-bit regime is left out on purpose: at that cap one
# run takes over 590 s with today's radix conversion.
STRONG_MAX_BITS = 52_000
SAMPLE_SIZE = 16
SETUP_PER_OP = 2
REFERENCE_PER_OP = 3
# Stop starting ops once this much of the invocation is gone, so that it
# always exits well within 180 s.
HARD_LIMIT_S = 120.0

LEFT_OUT = (
    "The 1e6-bit regime is not measured: strong_wide at a 1e6-bit cap takes over "
    "590 s with today's code. Raising the cap is a later change to the benchmark."
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The benchmark must run under CPython's default int<->str limit.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def spawn(argv: list[str], stdout: Path, limit_s: float) -> dict:
    """Run one child to completion; at most one runs at a time.

    Returns its exit code, wall seconds, peak RSS in MB (its own
    ``ru_maxrss``) and stderr. A child still running after ``limit_s`` is
    killed.
    """
    stderr = WORK / "stderr.txt"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(limit_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "stderr": stderr.read_text(encoding="utf-8", errors="replace"),
    }


def make_inputs(workload: str, seed: int) -> tuple[dict, dict]:
    """Inputs drawn from the seed, and the oracle's expected outputs for them."""
    rng = random.Random(seed)
    if workload == "weak_narrow":
        start = rng.randrange(8, 16)
        sample = sorted(rng.sample(range(NARROW_STEPS), SAMPLE_SIZE))
        params = {
            "kind": "cli",
            "start": start,
            "run_argv": ["run", "weak", "--start", str(start),
                         "--max-steps", str(NARROW_STEPS), "--format", "jsonl"],
            "trace_path": str(WORK / "trace.jsonl"),
            "sample": sample,
        }
        expected = oracle.weak_expected(start, 2, NARROW_STEPS, sample, {"run": 3, "verify": 0})
    elif workload == "weak_wide":
        start = rng.getrandbits(WIDE_DIGITS - 1) | 1 << (WIDE_DIGITS - 1)
        sample = sorted(rng.sample(range(WIDE_STEPS), SAMPLE_SIZE))
        params = {"kind": "weak", "start_hex": hex(start), "base": 2,
                  "max_steps": WIDE_STEPS, "sample": sample}
        expected = oracle.weak_expected(start, 2, WIDE_STEPS, sample, {"worker": 0})
    else:
        # Strong starts 4..15 stay narrow and starts from 18 up overflow
        # within 4 records, so the input is fixed and the seed only picks
        # the sample.
        values = oracle.strong_values(16, 2, STRONG_MAX_BITS)
        sample = sorted(rng.sample(range(len(values)), SAMPLE_SIZE))
        params = {"kind": "strong", "start_hex": hex(16), "base": 2,
                  "max_bits": STRONG_MAX_BITS, "sample": sample}
        expected = oracle.strong_expected(values, 2, sample, {"worker": 0})
    return params, expected


def check(expected: dict, stderrs: list[str], outputs_of) -> list[str]:
    """Reasons an op failed: a traceback, unreadable output, or a mismatch with the oracle."""
    problems = ["traceback on stderr" for text in stderrs if "Traceback (most recent call last)" in text]
    try:
        outputs = outputs_of()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return problems + [f"unreadable output ({type(exc).__name__}: {exc})"]
    return problems + [f"{field} differs from the oracle" for field in oracle.mismatches(expected, outputs)]


def timed_op(params: dict, expected: dict, limit_s: float) -> dict:
    """One op with tracing off: its run and verify wall times, peak RSS and failures."""
    py = sys.executable
    if params["kind"] == "cli":
        trace = Path(params["trace_path"])
        ran = spawn([py, "-m", "goodstein", *params["run_argv"]], trace, limit_s)
        verified = spawn([py, "-m", "goodstein", "verify", str(trace)], WORK / "verify.out", limit_s)
        exits = {"run": ran["exit"], "verify": verified["exit"]}
        problems = check(
            expected, [ran["stderr"], verified["stderr"]],
            lambda: oracle.cli_outputs(
                str(trace), (WORK / "verify.out").read_text(encoding="utf-8"), exits, params["sample"]
            ),
        )
        return {
            "run_s": ran["wall_s"],
            "verify_s": verified["wall_s"],
            "rss_mb": max(ran["rss_mb"], verified["rss_mb"]),
            "problems": problems,
        }
    out = WORK / "worker.out"
    child = spawn([py, str(WORKER), "op", "--input", str(WORK / "input.json")], out, limit_s)
    result = {}

    def outputs():
        result.update(json.loads(out.read_text(encoding="utf-8")))
        result["outputs"]["exits"] = {"worker": child["exit"]}
        return result["outputs"]

    problems = check(expected, [child["stderr"]], outputs)
    return {
        "run_s": result.get("run_s", child["wall_s"]),
        "verify_s": result.get("verify_s", child["wall_s"]),
        "rss_mb": child["rss_mb"],
        "problems": problems,
    }


def traced_op(params: dict, expected: dict, limit_s: float) -> dict:
    """One worker that runs the op plain and then traced; its per-layer metrics and failures."""
    out = WORK / "worker.out"
    argv = [sys.executable, str(WORKER), "trace", "--input", str(WORK / "input.json"),
            "--spans", str(WORK / "spans.bin")]
    child = spawn(argv, out, limit_s)
    result = {}

    def outputs():
        result.update(json.loads(out.read_text(encoding="utf-8")))
        if child["exit"] != 0:
            raise ValueError(f"worker exit code {child['exit']}")
        return result["outputs"]

    problems = check(expected, [child["stderr"]], outputs)
    return {"metrics": result.get("metrics", {}), "problems": problems}


def child_times(argv: list[str], count: int, limit_s: float) -> list[float]:
    """Wall seconds of ``count`` runs of a child that must exit with 0."""
    times = []
    for _ in range(count):
        child = spawn(argv, WORK / "child.out", limit_s)
        if child["exit"] != 0:
            raise RuntimeError(f"{' '.join(argv)} failed:\n{child['stderr']}")
        times.append(child["wall_s"])
    return times


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` inside it; git itself is not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "left_out": LEFT_OUT,
    }


def summary(values: list) -> dict:
    """Median and 90th percentile of a sample, with its size; counts stay whole numbers."""
    counts = all(isinstance(v, int) for v in values)
    median = statistics.median_low(values) if counts else statistics.median(values)
    upper = statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]
    return {"median": median, "p90": upper, "n": len(values)}


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "goodstein" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a goodstein checkout (src/goodstein and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    began = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    params, expected = make_inputs(args.workload, args.seed)
    (WORK / "input.json").write_text(json.dumps(params), encoding="utf-8")

    def limit() -> float:
        return max(1.0, HARD_LIMIT_S + 40.0 - (time.perf_counter() - began))

    samples: dict[str, list[float]] = {}
    module = "goodstein.cli" if args.workload == "weak_narrow" else "goodstein"
    setup_argv = [sys.executable, "-c", f"import {module}"]
    reference_argv = [sys.executable, str(REFERENCE), str(WORK / "reference.jsonl")]
    if not args.trace:
        child_times(setup_argv, 1, limit())  # warm-up: byte-compiles the package once

    ops, failures, peak_rss = 0, [], 0.0
    window_end = time.perf_counter() + args.seconds
    while True:
        op_began = time.perf_counter()
        if args.trace:
            op = traced_op(params, expected, limit())
            for name, value in op["metrics"].items():
                samples.setdefault(name, []).append(value)
        else:
            # The host's speed drifts over seconds, so set-up and the reference
            # are sampled between ops across the whole window, not in one burst.
            samples.setdefault("setup_s", []).extend(child_times(setup_argv, SETUP_PER_OP, limit()))
            samples.setdefault("reference_s", []).extend(
                child_times(reference_argv, REFERENCE_PER_OP, limit()))
            op = timed_op(params, expected, limit())
            samples.setdefault("run_s", []).append(op["run_s"])
            samples.setdefault("verify_s", []).append(op["verify_s"])
            peak_rss = max(peak_rss, op["rss_mb"])
        ops += 1
        if op["problems"]:
            failures.append({"op": ops, "problems": op["problems"]})
            print(f"op {ops} failed: {'; '.join(op['problems'])}", file=sys.stderr)
        now = time.perf_counter()
        if now >= window_end or now - began + (now - op_began) > HARD_LIMIT_S:
            break

    stats = {name: summary(values) for name, values in samples.items()}
    if not args.trace:
        stats["peak_rss_mb"] = {"median": peak_rss, "p90": peak_rss, "n": ops}
        reference = stats["reference_s"]["median"]
        for name in ("run", "verify"):
            stats[f"{name}_per_ref"] = {
                key: stats[f"{name}_s"][key] / reference for key in ("median", "p90")
            } | {"n": ops}
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        name, unit = metric["name"], metric["unit"]
        if name not in stats:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": stats[name]["median"], "unit": unit}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(run_s="s", verify_s="s", reference_s="s")  # printed, not gated
    print(f"workload={args.workload} seed={args.seed} ops={ops} failed={len(failures)}")
    for name, s in stats.items():
        unit = units[name]
        print(f"  {name:<36} median {s['median']:.6g} {unit}  p90 {s['p90']:.6g} {unit}  n={s['n']}")
    if not args.trace:
        print(f"  {'ops_failed_frac':<36} {len(failures) / ops:.6g} fraction ({len(failures)}/{ops})")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {k: v for k, v in params.items() if k not in ("sample", "trace_path")},
        "sample": params["sample"],
        "environment": environment(),
        "attempted": ops,
        "failed": len(failures),
        "ops_failed_frac": len(failures) / ops,
        "failures": failures,
        "stats": stats,
        "samples": samples,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failures,
        "attempted": ops,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
