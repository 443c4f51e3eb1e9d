"""Fixed pure-Python reference program that measures how fast the host is right now.

    python3 bench/reference.py OUT.jsonl

It imports nothing from ``goodstein``: it writes 5000 JSON records to a
file, reads them back and keeps them all in memory, which is the same
mix of interpreter start-up, allocation, JSON and file work as the
package's own runs. ``run.py`` times it between ops and reports op times
as multiples of its median, because on a shared host the speed of such
work drifts by up to a quarter within minutes while the ratio holds.
"""

import json
import sys

RECORDS = 5_000


def main(path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for i in range(RECORDS):
            digits = (i % 7, i % 1000, i * 31 % 99991, i)
            out.write(json.dumps({
                "index": i,
                "base": str(i + 2),
                "value": str(digits[0] * 1000003 + i),
                "digits": [str(d) for d in digits],
                "rendered": "".join(f"({d})" for d in digits),
            }) + "\n")
    kept = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            obj = json.loads(line)
            kept.append((obj["index"], int(obj["value"]), tuple(int(d) for d in obj["digits"])))
    if len(kept) != RECORDS:
        sys.exit(f"read back {len(kept)} records, wrote {RECORDS}")


if __name__ == "__main__":
    main(sys.argv[1])
