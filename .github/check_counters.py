"""Check the count-unit metrics of one traced perfbench run against the
committed ones.

    python .github/check_counters.py WORKLOAD LAST_LINE

LAST_LINE is the JSON line that ``perfbench/run.py --workload WORKLOAD
--seed 4 --trace 1`` prints last.  Counters do not depend on run length or
host, so each must equal its value in ``trace_seed_4_counters.json`` next to
this file.  Prints every counter that differs, missing ones included, and
exits 1 if any does.  A change that moves a counter on purpose updates that
file.
"""

import json
import sys
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "trace_seed_4_counters.json"


def main(workload: str, last_line: str) -> int:
    expected = json.loads(EXPECTED.read_text())[workload]
    metrics = json.loads(last_line)["metrics"]
    actual = {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}
    differing = sorted(name for name in expected.keys() | actual.keys()
                       if expected.get(name) != actual.get(name))
    for name in differing:
        print(f"counter differs: workload {workload}, {name}: "
              f"expected {expected.get(name)}, got {actual.get(name)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
