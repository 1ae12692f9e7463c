"""Exit non-zero unless the last stdin line is a passing perfbench/run.py result.

Passing means the line is strict JSON (no NaN or Infinity), "correct": true,
"failed": 0, and every metric that BENCHMARK.json declares is present in
"metrics" with a finite value.  The declared metrics are the end-to-end ones
by default, and the per-layer ones with --traced, for the last line of a
``--trace 1`` run; there a metric whose traced function is gone reads null,
which fails the check.

Usage: python3 perfbench/run.py ... | python3 .github/check_bench_result.py [--traced]
"""

import argparse
import json
import math
import sys
from pathlib import Path


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--traced", action="store_true", help="check the per-layer metrics of a --trace 1 run")
args = parser.parse_args()

lines = sys.stdin.read().splitlines()
try:
    result = json.loads(lines[-1], parse_constant=_reject_constant) if lines else {}
except ValueError as e:
    print(f"benchmark result rejected (last line is not strict JSON: {e}): {lines[-1]}")
    sys.exit(1)
if not isinstance(result, dict):
    result = {}

benchmark = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
declared = {m["name"] for m in benchmark["per_layer" if args.traced else "end_to_end"]}
metrics = result.get("metrics", {})
missing = sorted(declared - set(metrics))
values = {name: m.get("value") if isinstance(m, dict) else None for name, m in metrics.items()}
bad = sorted(name for name, v in values.items() if not isinstance(v, (int, float)) or not math.isfinite(v))
ok = result.get("correct") is True and result.get("failed") == 0 and not missing and not bad
if ok:
    print(json.dumps(result))
else:
    print(f"benchmark result rejected (missing metrics {missing}, null or non-finite metrics {bad}): {result}")
sys.exit(0 if ok else 1)
