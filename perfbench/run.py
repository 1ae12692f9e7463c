"""risjrc benchmark: one workload, timed in fresh single-threaded processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload design-full --seed 1 --seconds 24 --trace 0

The workload's config file is generated from ``--seed``; the codebook an
experiment reads is designed before timing, by the library under test.  The
run then starts one fresh interpreter after another, each running the
workload once through risjrc's public API, until ``--seconds`` are spent
(at least three runs).  Every output is checked.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones.  Everything else the run learns
(environment, input provenance, per-run records, spans) goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_RUNS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Name -> (unit, how one invocation's runs are summarised).  Memory reports
# the median run.  The times report the best run: on a shared host other
# tenants slow a run by 20-50% for seconds to minutes at a time, so the slower
# runs measure that load rather than risjrc (the rule timeit follows).  The
# record file keeps every run's values.
END_TO_END = {
    "setup_s": ("s", min),
    "wall_s": ("s", min),
    "work_per_s": ("1/s", max),
    "cpu_s": ("s", min),
    "peak_rss_mb": ("MB", statistics.median),
}
# design quality of the codebook a run wrote or read, from the output check
QUALITY_METRICS = {"codebook.mask_on_min": "L_s", "codebook.mask_off_max": "L_s", "codebook.warnings": "count"}

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402
from workloads import NAMES, workload, write_config  # noqa: E402


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # compile risjrc's modules once, not in every run
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Launches child processes in one scratch directory, before a deadline."""

    def __init__(self, workdir: Path, deadline: float, items: int):
        self.workdir = workdir
        self.deadline = deadline
        self.items = items  # work units one run completes
        self.n = 0

    def launch(self, mode: str, config: Path, codebook: Path, trace: bool = False) -> dict:
        self.n += 1
        k = self.n
        spec = {
            "src": str(SRC),
            "mode": mode,
            "config": str(config),
            "codebook": str(codebook),
            "csv": str(self.workdir / f"out-{k}.csv"),
            "result": str(self.workdir / f"result-{k}.json"),
            "trace": trace,
        }
        spec_path = self.workdir / f"spec-{k}.json"
        spec_path.write_text(json.dumps(spec))
        log_path = self.workdir / f"log-{k}.txt"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(log_path, "wb") as log:
            t_launch = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-s", str(HERE / "child.py"), str(spec_path)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=_child_env(),
                cwd=self.workdir,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        rec = {"index": k, "mode": mode, "trace": trace, "rc": rc, "ok": False}
        if rc != 0:
            rec["error"] = "timed out" if rc is None else log_path.read_text(errors="replace")[-2000:]
            return rec
        res = json.loads(Path(spec["result"]).read_text())
        rec.update(
            ok=True,
            output=res["output"],
            sha256=_sha256(res["output"]),
            config_hash=res["config_hash"],
            setup_s=res["t_setup"] - res["t_start"],
            wall_s=res["t_done"] - t_launch,
            work_s=res["t_done"] - res["t_setup"],
            work_per_s=self.items / (res["t_done"] - res["t_setup"]),
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mb=res["peak_rss_mb"],
        )
        if "trace" in res:
            rec["trace"] = res["trace"]
        return rec


def _provenance(risjrc_version: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "risjrc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_found": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_used": 1,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "risjrc": risjrc_version,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload and return its result line plus the full record."""
    t_begin = time.monotonic()
    if not (SRC / "risjrc" / "__init__.py").is_file():
        raise FileNotFoundError(f"library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import risjrc

    wl = workload(name, scale)
    seed_used = seed % 2**32
    provenance = _provenance(risjrc.__version__)
    provenance.update(
        workload=name, scale=scale, seed=seed, seed_used=seed_used, seconds=seconds, trace=int(trace),
        loadavg_start=_loadavg(),
    )
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = Runner(workdir, t_begin + DEADLINE_S, wl.items)
        config = workdir / "run.cfg"
        write_config(str(config), wl.config, seed_used)
        codebook = workdir / "prepared.riscb"
        provenance["codebook_sha256"] = provenance["prepare_s"] = None
        if wl.prepare is not None:
            t_prep = time.monotonic()
            prep_config = workdir / "prepare.cfg"
            write_config(str(prep_config), wl.prepare, seed_used)
            prep = runner.launch("design", prep_config, codebook)
            if not prep["ok"]:
                raise RuntimeError(f"codebook preparation failed:\n{prep['error']}")
            provenance["codebook_sha256"] = prep["sha256"]
            provenance["prepare_s"] = time.monotonic() - t_prep

        def out_path(k):
            return codebook if wl.mode == "experiment" else workdir / f"designed-{k}.riscb"

        # a unit is one untraced run, or with tracing an untraced + traced pair
        runs, unit_s = [], []
        t0 = time.monotonic()
        while True:
            typical = statistics.median(unit_s) if unit_s else 0.0
            done = len(unit_s)
            if done >= (1 if trace else MIN_RUNS) and time.monotonic() - t0 + typical > seconds:
                break
            if done and time.monotonic() + typical > runner.deadline:
                break
            t_unit = time.monotonic()
            for traced in (False, True) if trace else (False,):
                runs.append(runner.launch(wl.mode, config, out_path(runner.n + 1), trace=traced))
            unit_s.append(time.monotonic() - t_unit)
            if not runs[-1]["ok"]:
                break

        # one check per distinct output; every run must reproduce the first
        failures, advisories = [], []
        quality = dict.fromkeys(QUALITY_METRICS)
        checked = {}
        reference = next((r for r in runs if r["ok"]), None)
        for r in runs:
            if not r["ok"]:
                r["failures"] = [f"run {r['index']} exited with {r['rc']}"]
                continue
            if r["sha256"] not in checked:
                try:
                    checked[r["sha256"]] = wl.check(risjrc, str(config), r["output"], str(codebook))
                except Exception:  # a malformed output fails its runs, not the benchmark
                    checked[r["sha256"]] = ([f"output check raised:\n{traceback.format_exc()}"], [], {})
            fails, advice, found = checked[r["sha256"]]
            quality.update(found)
            r["failures"] = list(fails)
            r["reproduced"] = r["sha256"] == reference["sha256"]
            if not r["reproduced"]:
                r["failures"].append(f"run {r['index']} output differs from run {reference['index']} at the same seed")
            failures += [f for f in r["failures"] if f not in failures]
            advisories += [a for a in advice if a not in advisories]
        failed = sum(1 for r in runs if r["failures"])
        provenance["config_hash"] = next((r["config_hash"] for r in runs if r["ok"]), None)
        provenance["loadavg_end"] = _loadavg()

        plain = [r for r in runs if r["ok"] and not r["trace"]]
        traced = [r for r in runs if r["ok"] and r["trace"]]
        metrics = {}
        if not trace and plain:
            for key, (unit, summarise) in END_TO_END.items():
                metrics[key] = {"value": summarise(r[key] for r in plain), "unit": unit}
        elif traced:
            for key, (unit, _) in LAYER_METRICS.items():
                values = [r["trace"]["metrics"][key] for r in traced]
                value = None if None in values else statistics.median(values)
                metrics[key] = {"value": value, "unit": unit}
                if value is None:
                    metrics[key]["absent"] = True
            for key, unit in QUALITY_METRICS.items():
                metrics[key] = {"value": quality[key], "unit": unit}
            if plain:
                overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
                metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

        line = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
        record = {
            "provenance": provenance,
            "result": line,
            "failures": failures,
            "advisories": advisories,
            "items_per_run": wl.items,
            "item_name": wl.item_name,
            "runs": [{k: v for k, v in r.items() if k != "trace"} for r in runs],
            "trace": traced[0]["trace"] if traced else None,
        }
        out = WORK / f"{name}-seed{seed}-trace{int(trace)}{'' if scale == 'full' else '-' + scale}.json"
        out.write_text(json.dumps(record, indent=1))
        record["record_path"] = str(out)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_report(record: dict):
    prov, line = record["provenance"], record["result"]
    print(
        f"workload {prov['workload']} seed {prov['seed']} ({prov['scale']} scale, "
        f"{record['items_per_run']} {record['item_name']} per run): "
        f"{line['attempted']} runs, {line['failed']} failed"
    )
    for key, m in line["metrics"].items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key:38s} {shown:>14s} {m['unit']}")
    print(f"  {'failed_frac':38s} {line['failed'] / line['attempted']:>14.6g} frac")
    for text in record["failures"]:
        print(f"  FAILED: {text}")
    for text in record["advisories"]:
        print(f"  advisory (not gated): {text}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"record written to {record['record_path']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, RuntimeError, ImportError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    _print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
