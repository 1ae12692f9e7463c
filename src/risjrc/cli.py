"""Command-line front end over the experiment harness."""

from __future__ import annotations

import argparse
import sys

from .channels import ScenarioConfig
from .codebook import load_codebook, save_codebook
from .harness import (
    ExperimentPlan,
    beampattern_csv,
    config_hash,
    emit_csv,
    get_codebook,
    load_config,
    resolve_schedule,
    run_experiment,
    trace_rows,
    trial_rng,
    trial_trace_csv,
    write_default_config,
)
from .localization import hierarchical_localize, hierarchical_transmissions, make_scene, trial_width, true_cell


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="scenario/experiment config file (defaults apply if omitted)")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--trials", type=int, help="trials-per-point override")
    p.add_argument("--out", help="output file path")
    p.add_argument("--codebook", help="load a previously designed codebook file")
    p.add_argument("--parallel", type=int, help="worker thread count")


def _load(args, kind: str):
    cfg, plan = load_config(args.config) if args.config else (ScenarioConfig(), ExperimentPlan())
    plan.kind = kind
    for attr, value in (("master_seed", args.seed), ("trials", args.trials), ("parallel", args.parallel)):
        if value is not None:
            setattr(plan, attr, value)
    plan.validate()
    cb = load_codebook(args.codebook) if args.codebook else None
    return cfg, plan, cb


def _design_codebook(args, kind):
    cfg, plan, _ = _load(args, kind)
    out = args.out or "codebook.riscb"
    book = get_codebook(cfg, plan)
    save_codebook(book, out)
    warn = sum(len(b.quality_warnings) for b in book.stages)
    print(f"wrote {out} (D={book.d}, N_r={book.n_ris}, schedule={book.schedule}, warnings={warn})")


def _localize(args, kind):
    cfg, plan, cb = _load(args, kind)
    book = get_codebook(cfg, plan, cb)
    power = plan.power_list[0]
    cfg_p = cfg.with_power(power)
    schedule, _ = resolve_schedule(cfg_p, plan, book)
    scene = make_scene(cfg_p)
    rng = trial_rng(plan.master_seed, plan.kind, 0, 0, trial_width(schedule))
    stages = hierarchical_localize(scene, book, schedule, rng)
    for _, _, _, s, beams, stats, chosen, t_s, _ in trace_rows(stages, schedule, power, plan.master_seed):
        print(f"stage {s}: beams {beams} stats {[f'{v:.3e}' for v in stats]} -> chose {chosen} (T={t_s})")
    _, _, _, pair, correct = stages[-1]
    print(
        f"true cell {true_cell(cfg_p)}, estimated {tuple(pair[0].tolist())}, "
        f"success={bool(correct[0])}, transmissions={hierarchical_transmissions(schedule)}"
    )
    if args.out:
        trial_trace_csv(stages, schedule, args.out, power, plan.master_seed)
        print(f"wrote {args.out}")


def _beampattern(args, kind):
    cfg, plan, cb = _load(args, kind)
    out = args.out or "beampattern.csv"
    beampattern_csv(get_codebook(cfg, plan, cb), out)
    print(f"wrote {out}")


def _experiment(args, kind):
    cfg, plan, cb = _load(args, kind)
    table = run_experiment(plan, cfg, cb)
    out = args.out or f"{plan.kind}.csv"
    emit_csv(table, out)
    print(f"wrote {out} ({len(table.rows)} rows, config {config_hash(cfg, plan)})")


def _write_config(args, kind):
    path = args.out or "risjrc.cfg"
    write_default_config(path)
    print(f"wrote {path}")


# subcommand -> (help, experiment kind, handler(args, kind))
COMMANDS = {
    "design-codebook": ("design the hierarchical codebook and write it to a file", "codebook-report", _design_codebook),
    "localize": ("run one localization trial and write its verbose trace", "overall-error-vs-P", _localize),
    "stage-error": ("isolated per-stage error probabilities over the power sweep", "stage-error-vs-P", _experiment),
    "calibrate": ("calibrated per-stage snapshot counts over the power sweep", "snapshots-vs-P", _experiment),
    "overall-error": ("full-run localization error over the power sweep", "overall-error-vs-P", _experiment),
    "se-sweep": ("average user spectral efficiency per scenario over the sweep", "se-vs-P", _experiment),
    "count-transmissions": ("hierarchical vs exhaustive transmission counts", "transmission-count", _experiment),
    "beampattern": ("dump per-beam axis response magnitudes over the grid", "codebook-report", _beampattern),
    "write-config": ("write the default config file", None, _write_config),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="risjrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text))
    args = parser.parse_args(argv)
    _, kind, handler = COMMANDS[args.command]
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
