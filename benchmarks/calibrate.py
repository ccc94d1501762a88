"""Host-speed calibration job: a fixed amount of the tracker's kind of work.

Usage: calibrate.py LEDGER

Parses every line of LEDGER, the fixed-seed file that
``workloads.generate`` writes as ``calibration.jsonl``, and formats one
text row per record: pure-Python parsing, object building and string
formatting, in a fresh interpreter, like the launches it is paired with.
It never imports carbonledger, so its time changes with the host's speed
and not with the code under test. On a shared host that speed drifts by
tens of percent over minutes; ``run.py`` times this job right before each
CPU-bound launch and scales that launch's time by the ratio.
"""

import json
import sys


def main() -> int:
    rows = []
    with open(sys.argv[1], encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            kwh = sum(p["facility_kwh"] for p in r["phase_breakdown"])
            rows.append(f"{r['label']:<24} {r['region']:<6} {r['energy_kwh']:>12.4f} {r['co2e_kg']:>10.4f} {kwh:>12.4f}")
    sys.stdout.write(f"{len(rows)} rows, {sum(map(len, rows))} characters\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
