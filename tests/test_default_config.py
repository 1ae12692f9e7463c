"""The default scenario (64x64 RIS, D=32, schedule 4/8/16/16/16) end to end through the CLI.

One default config and one codebook designed for it are written per module; every command then runs in
process through ``cli.main`` with ``--codebook``, so each reads that one design.
"""

import contextlib
import csv
import io

import pytest

from risjrc import cli


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
