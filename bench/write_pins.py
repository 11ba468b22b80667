"""Regenerate `stochastic_pins.json`, the seeded counts of the stochastic workload.

    python3 bench/write_pins.py FIRST LAST

Computes, in process from `src/`, the `aWins` and `hits` every command of
the stochastic workload gives for benchmark seeds FIRST..LAST, and adds
them to the table (existing entries are kept).  Regenerate only when the
draw contract changes on purpose; the pins exist to catch it changing by
accident.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    first, last = (int(arg) for arg in argv)
    table = checks.load_pins()
    for seed in range(first, last + 1):
        workload = workloads.build("stochastic", seed, BENCH / ".out" / "pins")
        for command in workload.commands:
            table[checks.fingerprint(command.spec)] = checks.stochastic_pins(command.spec)
    lines = (
        f"{json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}" for key in sorted(table)
    )
    checks.PIN_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
