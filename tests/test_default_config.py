"""The default scenario (64x64 RIS, D=32, schedule 4/8/16/16/16) end to end through the CLI.

One default config and one codebook designed for it are written per module; every command then runs in
process through ``cli.main`` with ``--codebook``, so each reads that one design.  The design-seed pin at the
end runs the library on the default config with other design seeds.
"""

import contextlib
import csv
import io

import pytest

from risjrc import cli
from risjrc.channels import ScenarioConfig
from risjrc.codebook import SolverParams, build_codebook
from risjrc.harness import ExperimentPlan, resolve_schedules, run_experiment
from risjrc.localization import make_scene


def run(*argv) -> str:
    """Stdout of one in-process ``risjrc`` command, which must succeed."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def rows(path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the default config ``d.cfg``, its designed codebook ``cb.riscb`` and the
    design report ``design.txt``."""
    path = tmp_path_factory.mktemp("default")
    run("write-config", "--out", str(path / "d.cfg"))
    report = run("design-codebook", "--config", str(path / "d.cfg"), "--out", str(path / "cb.riscb"))
    (path / "design.txt").write_text(report)
    return path


def run_default(workdir, command: str, out: str) -> list:
    """The CSV rows of ``command`` on the default config and its codebook."""
    config, book = str(workdir / "d.cfg"), str(workdir / "cb.riscb")
    run(command, "--config", config, "--codebook", book, "--out", str(workdir / out))
    return rows(workdir / out)


@pytest.fixture(scope="module")
def calibrated(workdir) -> list:
    return run_default(workdir, "calibrate", "c.csv")


def test_default_config_calibrates(calibrated):
    # a feasible=0 row means a stage of the default scenario missed the error target within t_max
    details = [row["detail"] for row in calibrated]
    assert any("feasible=1" in d for d in details)
    assert not [d for d in details if "feasible=0" in d]


def test_default_config_schedules_agree(workdir, calibrated):
    # calibration reads one stream whatever the experiment kind, so the per-stage T that calibrate reports at
    # each power is the schedule that count-transmissions counts
    by_power = {}
    for row in calibrated:
        if row["metric"] == "calibrated_snapshots":
            stage = int(row["detail"].split(";")[0].removeprefix("stage="))
            by_power.setdefault(row["power"], {})[stage] = row["value"].removesuffix(".0")
    calibrated_schedules = {power: "/".join(t for _, t in sorted(by.items())) for power, by in by_power.items()}
    counted = {
        row["power"]: row["detail"].removeprefix("schedule=")
        for row in run_default(workdir, "count-transmissions", "t.csv")
        if row["metric"] == "transmissions_hierarchical"
    }
    assert calibrated_schedules and calibrated_schedules == counted


def test_default_config_codebook_has_no_warnings(workdir):
    # a beam whose residual exceeds its ceiling counts in the report's warnings=, so a solver change that
    # degrades beams at the paper's scale fails here
    report = (workdir / "design.txt").read_text()
    assert report.rstrip("\n").endswith("warnings=0)"), report


def test_default_config_localize_traces_every_stage(workdir):
    # one search trial at the first power, its schedule calibrated on the point's scene: one row per stage
    assert len(run_default(workdir, "localize", "trace.csv")) == 5


def test_default_config_se_ordering(workdir):
    # a power point's four scenarios read one fading draw, so benchmark >= stage-1 >= stage-5 >= no-ris must
    # hold at every power of the sweep
    se = {}
    for row in run_default(workdir, "se-sweep", "se.csv"):
        se.setdefault(row["power"], {})[row["detail"]] = float(row["value"])
    assert se
    for power, by in se.items():
        values = [by[f"scenario={s}"] for s in ("benchmark", "stage-1", "stage-5", "no-ris")]
        assert values == sorted(values, reverse=True), (power, values)


# The default config at 39 dBm, per design seed: the calibrated T of stages 1-5 (None where a stage misses the
# error target within t_max, so the search runs t_max = 512 snapshots there) and the overall error.  The seed
# only drives the perturbed solver starts, yet it decides whether stage 5 is feasible; "n_starts=1" designs
# from the matched starts alone and draws nothing.  The default seed, 0, was not chosen for its numbers.
_DESIGN_SEED_PIN = {
    0: ((88, 3, 1, 1, 2), 0.0825),
    1: ((70, 3, 1, 1, None), 0.997),
    2: ((82, 3, 1, 1, 2), 0.082),
    3: ((108, 3, 1, 1, None), 1.0),
    4: ((79, 3, 1, 1, 7), 0.087),
    5: ((73, 3, 1, 1, None), 0.999),
    6: ((90, 3, 1, 1, 103), 0.094),
    7: ((83, 3, 1, 1, 16), 0.0885),
    "n_starts=1": ((82, 3, 1, 1, 39), 0.089),
}


@pytest.mark.parametrize("design", list(_DESIGN_SEED_PIN))
def test_design_seed_decides_stage_5(design):
    cfg = ScenarioConfig()
    solver, seed = (SolverParams(n_starts=1), 0) if design == "n_starts=1" else (SolverParams(), design)
    plan = ExperimentPlan(power_list=(39.0,), design_seed=seed, solver=solver)
    cb = build_codebook(cfg, solver=solver, seed=seed)
    ((_, calibs),) = resolve_schedules([make_scene(cfg.with_power(39.0))], plan, cb)
    overall = [r["value"] for r in run_experiment(plan, cfg, cb).rows if r["metric"] == "overall_error"]
    schedule, error = _DESIGN_SEED_PIN[design]
    assert [c.t_s if c.feasible else None for c in calibs] == list(schedule)
    assert overall == [error]
