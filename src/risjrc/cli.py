"""Command-line front end over the experiment harness."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .channels import ScenarioConfig
from .codebook import load_codebook, save_codebook
from .harness import (
    ExperimentPlan,
    beampattern_csv,
    emit_csv,
    get_codebook,
    load_config,
    resolve_schedules,
    run_experiment,
    trace_rows,
    trial_rng,
    trial_trace_csv,
    write_default_config,
)
from .localization import hierarchical_localize, hierarchical_transmissions, make_scene, trial_width, true_cell


# path flag -> help; each subcommand takes the paths it reads, and every other value of a run is in its config
PATHS = {
    "config": "scenario/experiment config file (defaults apply if omitted)",
    "out": "output file path",
    "codebook": "load a previously designed codebook file",
}


def _load(args, kind: str):
    """The run's config and plan, and the codebook the run reads: the ``--codebook`` file, else a new design."""
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"{args.out}: output directory does not exist")  # else found only when the run writes
    cfg, plan = load_config(args.config) if args.config else (ScenarioConfig(), ExperimentPlan())
    cb = load_codebook(args.codebook) if getattr(args, "codebook", None) else None
    return cfg, replace(plan, kind=kind), get_codebook(cfg, plan, cb)


def _design_codebook(args, kind):
    _, _, book = _load(args, kind)
    out = args.out or "codebook.riscb"
    save_codebook(book, out)
    warn = sum(len(b.quality_warnings) for b in book.stages)
    print(f"wrote {out} (D={book.d}, N_r={book.n_ris}, schedule={book.schedule}, warnings={warn})")


def _localize(args, kind):
    cfg, plan, book = _load(args, kind)
    power = plan.power_list[0]
    scene = make_scene(cfg.with_power(power))
    schedule, _ = resolve_schedules([scene], plan, book)[0]
    rng = trial_rng(plan.master_seed, plan.kind, 0, 0, trial_width(schedule))
    stages = hierarchical_localize(scene, book, schedule, rng)
    for _, _, _, s, beams, stats, chosen, t_s, _ in trace_rows(stages, schedule, power, plan.master_seed):
        print(f"stage {s}: beams {beams} stats {[f'{v:.3e}' for v in stats]} -> chose {chosen} (T={t_s})")
    _, _, _, pair, correct = stages[-1]
    print(
        f"true cell {true_cell(scene.cfg)}, estimated {tuple(pair[0].tolist())}, "
        f"success={bool(correct[0])}, transmissions={hierarchical_transmissions(schedule)}"
    )
    if args.out:
        trial_trace_csv(stages, schedule, args.out, power, plan.master_seed)
        print(f"wrote {args.out}")


def _beampattern(args, kind):
    _, _, book = _load(args, kind)
    out = args.out or "beampattern.csv"
    beampattern_csv(book, out)
    print(f"wrote {out}")


def _experiment(args, kind):
    cfg, plan, book = _load(args, kind)
    table = run_experiment(plan, cfg, book)
    out = args.out or f"{plan.kind}.csv"
    emit_csv(table, out)
    print(f"wrote {out} ({len(table.rows)} rows, config {table.config_hash})")


def _write_config(args, kind):
    path = args.out or "risjrc.cfg"
    write_default_config(path)
    print(f"wrote {path}")


# subcommand -> (help, experiment kind, handler(args, kind), the PATHS it reads)
COMMANDS = {
    "design-codebook": (
        "design the hierarchical codebook and write it to a file", "codebook-report", _design_codebook, ("config", "out")
    ),
    "localize": ("run one localization trial and write its verbose trace", "overall-error-vs-P", _localize, PATHS),
    "stage-error": ("isolated per-stage error probabilities over the power sweep", "stage-error-vs-P", _experiment, PATHS),
    "calibrate": ("calibrated per-stage snapshot counts over the power sweep", "snapshots-vs-P", _experiment, PATHS),
    "overall-error": ("full-run localization error over the power sweep", "overall-error-vs-P", _experiment, PATHS),
    "se-sweep": ("average user spectral efficiency per scenario over the sweep", "se-vs-P", _experiment, PATHS),
    "count-transmissions": ("hierarchical vs exhaustive transmission counts", "transmission-count", _experiment, PATHS),
    "beampattern": ("dump per-beam axis response magnitudes over the grid", "codebook-report", _beampattern, PATHS),
    "write-config": ("write the default config file", None, _write_config, ("out",)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="risjrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, paths) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for path in paths:
            command.add_argument(f"--{path}", help=PATHS[path])
    args = parser.parse_args(argv)
    _, kind, handler, _ = COMMANDS[args.command]
    handler(args, kind)
    return 0


def run(argv=None) -> int:
    """``main`` for the command line: a rejected input or unreadable file prints one line, as argparse
    reports a bad option, and returns exit status 2 instead of raising."""
    try:
        return main(argv)
    except (ValueError, OSError) as e:
        print(f"risjrc: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
