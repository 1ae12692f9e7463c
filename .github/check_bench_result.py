"""Exit non-zero unless the last stdin line is a passing perfbench/run.py result.

Passing means "correct": true, "failed": 0 and every end-to-end metric that
BENCHMARK.json declares present in "metrics".
"""

import json
import sys
from pathlib import Path

lines = sys.stdin.read().splitlines()
result = json.loads(lines[-1]) if lines else {}
declared = {m["name"] for m in json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())["end_to_end"]}
missing = sorted(declared - set(result.get("metrics", {})))
ok = result.get("correct") is True and result.get("failed") == 0 and not missing
print(json.dumps(result) if ok else f"benchmark result rejected (missing metrics {missing}): {result}")
sys.exit(0 if ok else 1)
