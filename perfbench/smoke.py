"""Smoke test of the benchmark at tiny scale (16-element RIS, D=8).

Usage (from the repository root):  python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced (three runs) and traced (one
untraced + traced pair).  Exits non-zero unless each result line holds
exactly the metrics BENCHMARK.json names, each with its declared unit and a
number (per layer, possibly ``absent``), every run exited cleanly and every
run reproduced the first run's output.  The output gates are set for the
measured scale (the paper's mask, error and SE gates do not hold on a 4x4
RIS), so at tiny scale their outcome is printed, not asserted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import QUALITY_METRICS, run_benchmark  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def _problems(line: dict, declared: list, allow_absent: bool) -> list:
    problems = []
    got = line["metrics"]
    for key in sorted(set(got) ^ {m["name"] for m in declared}):
        problems.append(f"metric {key} is {'undeclared' if key in got else 'missing'}")
    for m in declared:
        value = got.get(m["name"])
        if value is None:
            continue
        if value["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {value['unit']!r}, declared {m['unit']!r}")
        if not isinstance(value["value"], (int, float)) and not (allow_absent and value.get("absent")):
            problems.append(f"{m['name']}: value {value['value']!r} is not a number")
    return problems


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_layers = {m["name"] for m in bench["per_layer"]}
    traced_names = set(LAYER_METRICS) | set(QUALITY_METRICS) | {"trace.overhead_s"}
    problems = [f"per-layer metric {n} is not both traced and declared" for n in sorted(declared_layers ^ traced_names)]
    for wl in bench["workloads"]:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            record = run_benchmark(wl["name"], seed=1, seconds=0, trace=trace, scale="tiny")
            found = _problems(record["result"], declared, allow_absent=trace)
            found += [f"run {r['index']} did not finish" for r in record["runs"] if not r["ok"]]
            found += [f"run {r['index']} did not reproduce" for r in record["runs"] if not r.get("reproduced", True)]
            problems += [f"{wl['name']} trace={int(trace)}: {p}" for p in found]
            for text in record["failures"]:
                print(f"  gate outside its scale (not asserted): {text}")
            print(f"{wl['name']} trace={int(trace)}: {record['result']['attempted']} runs, {len(found)} problems")
    for p in problems:
        print("PROBLEM:", p)
    print("smoke OK" if not problems else f"smoke FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
