import csv

import pytest

from risjrc import cli
from risjrc.geometry import FieldError

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

SUBCOMMANDS = (
    "design-codebook",
    "localize",
    "stage-error",
    "calibrate",
    "overall-error",
    "se-sweep",
    "count-transmissions",
    "beampattern",
    "write-config",
)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_writes_output(tmp_path, command):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    assert out.stat().st_size > 0


@pytest.mark.parametrize(
    "flag, value, field",
    [("--seed", "-1", "master_seed"), ("--trials", "0", "trials"), ("--parallel", "0", "parallel")],
)
def test_bad_override_names_its_field(tmp_path, flag, value, field):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    with pytest.raises(FieldError) as raised:
        cli.main(["localize", "--config", str(config), flag, value])
    assert raised.value.fields == (field,)


@pytest.mark.parametrize(
    "text, names",
    [
        (None, None),  # names the file
        (TINY_CONFIG.replace("[codebook]\n", "[codebook]\nmu = auto\n"), "unknown key 'mu'"),
        ("mu = auto\n", "malformed config"),
        (TINY_CONFIG + "[experiment]\ntrials = 5\n", "malformed config"),
        (TINY_CONFIG + "schedule_source = literal-rule\n", "[experiment] schedule_source"),
    ],
    ids=["missing-file", "unknown-key", "no-section-header", "duplicate-section", "literal-rule"],
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
