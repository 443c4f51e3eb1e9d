#!/usr/bin/env python3
"""Watch a strong Goodstein run grow until a cap stops it.

The strong step rewrites the value in hereditary notation before bumping
the base, so magnitudes explode hyper-exponentially; this probe reports
the bit width per step and the cap that finally fires.

Example:
    python scripts/strong_probe.py --start 16 --max-bits 100000
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from goodstein import RunConfig, RunKind, RunOutcome, run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--start", type=int, default=16)
    parser.add_argument("--max-steps", type=int, default=50)
    parser.add_argument("--max-bits", type=int, default=100_000)
    args = parser.parse_args()

    cfg = RunConfig(args.start, max_steps=args.max_steps, max_bits=args.max_bits)
    for record in run(RunKind.STRONG, cfg):
        width = record.value.bit_length()
        shown = record.value if width <= 64 else f"~2^{width - 1}"
        print(f"step {record.index:>3}  base {record.base:>4}  {width:>8} bits  value {shown}")
    outcome = RunOutcome.of(record, cfg)
    print(f"outcome: {outcome.status.value} after {outcome.steps_emitted} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
