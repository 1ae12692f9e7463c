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
    "text", [None, TINY_CONFIG.replace("[codebook]\n", "[codebook]\nmu = auto\n")], ids=["missing-file", "unknown-key"]
)
def test_rejected_config_is_one_error_line(tmp_path, capsys, text):
    """``run`` reports a config it cannot read or accept as one stderr line and exit status 2."""
    config = tmp_path / "run.cfg"
    if text is not None:
        config.write_text(text)
    assert cli.run(["calibrate", "--config", str(config), "--out", str(tmp_path / "c.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("risjrc: error: ") and err.count("\n") == 1
    assert (str(config) if text is None else "unknown key 'mu'") in err
