import csv
import re
import sys
from pathlib import Path

import pytest

from risjrc import cli
from risjrc.harness import CSV_COLUMNS

TINY_CONFIG = """[arrays]
n_ris = 16
[grid]
grid_size = 8
[pathloss]
model = standard_power
[codebook]
schedule = 4, 4, 4
[experiment]
power_list = 42
trials = 10
calib_trials = 40
t_max = 64
"""

# subcommand -> the paths it reads; every other value of a run is set in its config file
SUBCOMMANDS = {
    "design-codebook": ("--config", "--out"),
    "localize": ("--config", "--out", "--codebook"),
    "stage-error": ("--config", "--out", "--codebook"),
    "calibrate": ("--config", "--out", "--codebook"),
    "overall-error": ("--config", "--out", "--codebook"),
    "se-sweep": ("--config", "--out", "--codebook"),
    "count-transmissions": ("--config", "--out", "--codebook"),
    "beampattern": ("--config", "--out", "--codebook"),
    "write-config": ("--out",),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_writes_output(tmp_path, command):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    given = ["--config", str(config)] if "--config" in SUBCOMMANDS[command] else []
    assert cli.main([command, *given, "--out", str(out)]) == 0
    assert out.stat().st_size > 0


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_takes_only_the_paths_it_reads(capsys, command):
    with pytest.raises(SystemExit) as raised:
        cli.main([command, "--help"])
    assert raised.value.code == 0
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == {"--help", *SUBCOMMANDS[command]}
    # the config keys master_seed, trials and parallel set these; a path a subcommand does not read is refused
    # rather than ignored
    refused = {"--seed", "--trials", "--parallel", "--config", "--codebook"} - set(SUBCOMMANDS[command])
    for flag in refused:
        with pytest.raises(SystemExit) as raised:
            cli.run([command, flag, "1"])
        assert raised.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, names",
    [
        (None, None),  # names the file
        (TINY_CONFIG.replace("[codebook]\n", "[codebook]\nmu = auto\n"), "unknown key 'mu'"),
        ("mu = auto\n", "malformed config"),
        (TINY_CONFIG + "[experiment]\ntrials = 5\n", "malformed config"),
        (TINY_CONFIG + "schedule_source = literal-rule\n", "[experiment] schedule_source"),
        (TINY_CONFIG + "[power]\ntotal = 50\n", "unknown key 'total'"),  # each point runs at its power_list entry
    ],
    ids=["missing-file", "unknown-key", "no-section-header", "duplicate-section", "literal-rule", "power-total"],
)
def test_rejected_config_is_one_error_line(tmp_path, capsys, text, names):
    """``run`` reports a config it cannot read or accept as one stderr line and exit status 2."""
    config = tmp_path / "run.cfg"
    if text is not None:
        config.write_text(text)
    assert cli.run(["calibrate", "--config", str(config), "--out", str(tmp_path / "c.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("risjrc: error: ") and err.count("\n") == 1
    assert (names or str(config)) in err


def test_missing_output_directory_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", never)
    out = tmp_path / "missing" / "c.csv"
    assert cli.run(["calibrate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("risjrc: error: ") and err.count("\n") == 1
    assert str(out) in err


def test_experiment_prints_the_hash_its_rows_carry(tmp_path, capsys):
    # the config leaves the schedule unset, so a run on a 2/2/4 codebook hashes 2/2/4, not the default 4/4/4
    config, book, out = tmp_path / "tiny.cfg", tmp_path / "book.riscb", tmp_path / "t.csv"
    config.write_text(TINY_CONFIG.replace("schedule = 4, 4, 4", "schedule = 2, 2, 4"))
    cli.main(["design-codebook", "--config", str(config), "--out", str(book)])
    config.write_text(TINY_CONFIG.replace("schedule = 4, 4, 4\n", ""))
    hashes = []
    for given in ([], ["--codebook", str(book)]):
        capsys.readouterr()
        cli.main(["count-transmissions", "--config", str(config), "--out", str(out), *given])
        printed = capsys.readouterr().out.rstrip().removesuffix(")").rsplit(" ", 1)[1]
        with open(out, newline="") as f:
            assert {row["config_hash"] for row in csv.DictReader(f)} == {printed}
        hashes.append(printed)
    assert hashes[0] != hashes[1]


def test_manual_schedule_calibrate_prints_its_hash(tmp_path, capsys):
    # a manual schedule calibrates nothing: the CSV is its header, and the run still names the hash it ran under
    config, out = tmp_path / "manual.cfg", tmp_path / "c.csv"
    config.write_text(TINY_CONFIG + "schedule_source = manual\n")
    assert cli.run(["calibrate", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert re.fullmatch(rf"wrote {re.escape(str(out))} \(0 rows, config [0-9a-f]{{16}}\)\n", printed)
    assert out.read_text().splitlines() == [",".join(CSV_COLUMNS)]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is in the standard library from Python 3.11")
def test_installed_script_is_run():
    """The ``risjrc`` command is ``run``, which turns a rejected input into one error line and exit status 2."""
    import tomllib

    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["scripts"]["risjrc"] == "risjrc.cli:run"
