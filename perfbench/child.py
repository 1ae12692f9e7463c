"""One workload execution in a fresh interpreter, timed from its first statement.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the library source directory, the mode ("design" or
"experiment"), the generated config file, the codebook path (written in
design mode, read in experiment mode), the CSV path, the result path and
whether to trace.  The run drives risjrc through the same public calls the
``risjrc`` command line makes.  All timestamps are ``time.monotonic()``, a
clock shared by every process on the machine, so the parent can measure
wall time from before it launched this process.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    import risjrc

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    cfg, plan = risjrc.load_config(spec["config"])
    cb = risjrc.load_codebook(spec["codebook"]) if spec["mode"] == "experiment" else None
    t_setup = time.monotonic()

    if spec["mode"] == "design":
        book = risjrc.build_codebook(cfg, schedule=plan.schedule_ls, solver=plan.solver, seed=plan.design_seed)
        risjrc.save_codebook(book, spec["codebook"])
        output = spec["codebook"]
    else:
        table = risjrc.run_experiment(plan, cfg, cb)
        risjrc.emit_csv(table, spec["csv"])
        output = spec["csv"]
    t_done = time.monotonic()

    result = {
        "t_start": T_START,
        "t_setup": t_setup,
        "t_done": t_done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output": output,
        "config_hash": risjrc.harness.config_hash(cfg, plan),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report(codebook_path=spec["codebook"], csv_path=spec["csv"])
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
