import csv
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import risjrc
from risjrc import cli, harness
from risjrc.channels import ScenarioConfig, draw_fading
from risjrc.codebook import SolverParams, build_codebook, load_codebook, save_codebook
from risjrc.comms import _se_samples, average_se, comm_phase_profile, stage_phase_profile
from risjrc.geometry import DirectionCosine, FieldError
from risjrc.harness import (
    ExperimentPlan,
    ResultTable,
    aux_rng,
    config_hash,
    emit_csv,
    get_codebook,
    load_config,
    resolve_schedule,
    resolve_schedules,
    run_experiment,
    run_localization_trials,
    trial_rng,
    trial_trace_csv,
    wilson_halfwidth,
    write_default_config,
)
from risjrc.localization import (
    SnapshotSchedule,
    StageEnsemble,
    descend,
    hierarchical_localize,
    make_scene,
    trial_width,
)

from conftest import desk_cfg
from test_cli import TINY_CONFIG
from test_comms import exact_mean_se


# an out-of-range text per parser, and explicit cases for the list keys
_BAD_TEXT = {int: "-1", float: "nan", str: "bogus"}
_BAD_LISTS = [
    ("codebook", "schedule", "4, 0, 16, 16, 16"),
    ("experiment", "power_list", "39, nan"),
    ("experiment", "snapshots", "2, 0, 1, 1, 1"),
]


class TestConfigIO:
    def test_default_roundtrip(self, tmp_path):
        path = tmp_path / "default.cfg"
        write_default_config(str(path))
        cfg, plan = load_config(str(path))
        assert (cfg.n_b, cfg.n_u, cfg.n_ris, cfg.grid_size) == (64, 16, 4096, 32)
        assert (cfg.d_bu, cfg.d_br, cfg.d_ru, cfg.d_rt) == (20.0, 10.0, 10.0, 5.0)
        assert (cfg.theta_r_deg, cfg.theta_u_deg) == (45.0, -25.0)
        assert (cfg.sigma_b2_dbm, cfg.sigma_u2_dbm) == (-94.0, -80.0)
        assert plan.schedule_ls == (4, 8, 16, 16, 16)
        assert cfg == ScenarioConfig()
        assert replace(plan, schedule_ls=None) == ExperimentPlan()
        assert config_hash(cfg, plan) == config_hash(ScenarioConfig(), ExperimentPlan())

    def test_default_split_is_the_loaders(self, tmp_path):
        path = tmp_path / "power.cfg"
        path.write_text("[power]\nradar_share = 0.5\n")
        cfg, _ = load_config(str(path))
        want = ScenarioConfig()
        assert vars(cfg) == vars(want)
        assert want.p_r_watts == want.p_u_watts == want.p_total_watts / 2

    @pytest.mark.parametrize(
        "section, key, text",
        [
            ("arrays", "bogus", "1"),
            # solver settings that are derived, not set: files from an older write-config must be regenerated
            ("codebook", "mu", "auto"),
            ("codebook", "on_weight", "auto"),
            ("codebook", "target_phase", "free"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, section, key, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[grid]\ngrid_size = 8\n[{section}]\n{key} = {text}\n")
        with pytest.raises(ValueError) as e:
            load_config(str(path))
        assert str(e.value) == f"{path}: unknown key {key!r} in section [{section}]"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ValueError, match="nonsense"):
            load_config(str(path))

    def test_bad_value_reports_location(self, tmp_path):
        path = tmp_path / "bad4.cfg"
        path.write_text("[arrays]\nn_b = sixty-four\n")
        with pytest.raises(ValueError, match=r"\[arrays\] n_b"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "key, text",
        [
            ("delta", "0"),
            ("delta", "1.5"),
            ("delta", "nan"),
            ("t_max", "0"),
            ("calib_trials", "0"),
            ("t_per_beam", "0"),
            ("trials", "-1"),
            ("parallel", "0"),
        ],
    )
    def test_out_of_range_plan_rejected(self, tmp_path, key, text):
        path = tmp_path / "bad5.cfg"
        path.write_text(f"[experiment]\n{key} = {text}\n")
        with pytest.raises(ValueError, match=key) as e:
            load_config(str(path))
        assert str(e.value).startswith(f"{path}: [experiment] {key}: {key} must be ")

    @pytest.mark.parametrize(
        "key, text",
        [
            ("n_starts", "0"),
            ("max_iters", "-5"),
            ("tol", "-1"),
        ],
    )
    def test_out_of_range_solver_rejected(self, tmp_path, key, text):
        path = tmp_path / "bad7.cfg"
        path.write_text(f"[codebook]\n{key} = {text}\n")
        with pytest.raises(ValueError, match=key) as e:
            load_config(str(path))
        assert str(e.value).startswith(f"{path}: [codebook] {key}: {key} must be ")

    @pytest.mark.parametrize(
        "section, key, text, field",
        [
            ("noise_dbm", "sigma_u2", "nan", "sigma_u2_dbm"),
            ("ris", "spacing_wavelengths", "inf", "ris_spacing"),
            ("ris", "spacing_wavelengths", "0", "ris_spacing"),
            ("power", "radar_share", "-0.1", "radar_share"),
            ("power", "radar_share", "1.5", "radar_share"),
            ("power", "radar_share", "nan", "radar_share"),
            ("pathloss", "model", "literal", "pathloss_model"),
            ("pathloss", "model", "standard", "pathloss_model"),
        ],
    )
    def test_non_finite_scenario_value_rejected(self, tmp_path, section, key, text, field):
        path = tmp_path / "bad6.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ValueError, match=field) as e:
            load_config(str(path))
        # the file's [section] key, then the message of the field it sets
        assert str(e.value).startswith(f"{path}: [{section}] {key}: {field} must be ")

    @pytest.mark.parametrize(
        "section, key, text, message",
        [
            ("directions", "v_bx", "3", "direction cosines must lie in [-1, 1], got (3.0, -0.112)"),
            ("directions", "v_ty", "nan", "direction cosines must be finite"),
            ("arrays", "n_ris", "10", "RIS element count must be a perfect square, got 10"),
        ],
    )
    def test_range_error_naming_no_field_names_its_key(self, tmp_path, section, key, text, message):
        path = tmp_path / "bad8.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ValueError) as e:
            load_config(str(path))
        assert str(e.value) == f"{path}: [{section}] {key}: {message}"

    @pytest.mark.parametrize(
        "section, key, text",
        [
            *((sec, key, _BAD_TEXT[parse]) for sec, key, *_, parse in harness.CONFIG_FIELDS if parse in _BAD_TEXT),
            *_BAD_LISTS,
            ("experiment", "kind", "power_list"),  # another key's name is no reason to name that key
            ("arrays", "n_ris", "0"),
            ("distances_m", "d_br", "0"),
            ("ris", "spacing_wavelengths", "0.75"),
        ],
    )
    def test_every_key_rejects_out_of_range_at_load(self, tmp_path, section, key, text):
        path = tmp_path / "bad9.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ValueError) as e:
            load_config(str(path))
        assert str(e.value).startswith(f"{path}: [{section}] {key}: ")

    def test_out_of_range_cases_cover_every_key(self):
        scalar = {(sec, key) for sec, key, *_, parse in harness.CONFIG_FIELDS if parse in _BAD_TEXT}
        lists = {(sec, key) for sec, key, _ in _BAD_LISTS}
        assert scalar | lists == {(sec, key) for sec, key, *_ in harness.CONFIG_FIELDS}



class TestFieldErrors:
    @pytest.mark.parametrize(
        "make, fields",
        [
            (lambda: ScenarioConfig(n_u=0), ("n_u",)),
            (lambda: ScenarioConfig(d_rt=-5.0), ("d_rt",)),
            (lambda: ScenarioConfig(radar_share=1.5), ("radar_share",)),
            (lambda: SolverParams(n_starts=0), ("n_starts",)),
            (lambda: ExperimentPlan(power_list=(39.0, math.inf)), ("power_list",)),
            (lambda: ExperimentPlan(master_seed=-1), ("master_seed",)),
            (lambda: ScenarioConfig(radar_share=-0.1), ("radar_share",)),
            (lambda: ScenarioConfig(radar_share=math.nan), ("radar_share",)),
            (lambda: ScenarioConfig(pathloss_model="literal"), ("pathloss_model",)),
        ],
    )
    def test_config_types_name_the_fields_at_fault(self, make, fields):
        with pytest.raises(FieldError) as e:
            make()
        assert e.value.fields == fields

    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0)], ids=["float", "bool", "numpy-float"])
    @pytest.mark.parametrize(
        "make, name",
        [
            *((ScenarioConfig, name) for name in ("n_b", "n_u", "grid_size", "n_ris")),
            *((SolverParams, name) for name in ("max_iters", "n_starts")),
            *(
                (ExperimentPlan, name)
                for name in ("trials", "parallel", "t_max", "calib_trials", "t_per_beam", "master_seed", "design_seed")
            ),
            (ExperimentPlan, "snapshots"),
            (ExperimentPlan, "schedule_ls"),
        ],
    )
    def test_count_fields_reject_non_integers(self, make, name, value):
        # a list field takes the value as one of its entries
        arg = (4, value) if name in ("snapshots", "schedule_ls") else value
        with pytest.raises(FieldError) as e:
            make(**{name: arg})
        assert e.value.fields == (name,)
        assert f"{name} must be " in str(e.value) and "integer" in str(e.value)

    @pytest.mark.parametrize("value", ["0.5", True], ids=["str", "bool"])
    @pytest.mark.parametrize(
        "make, name",
        [
            *(
                (ScenarioConfig, name)
                for name in (
                    *("theta_r_deg", "theta_u_deg", "zeta_b_deg", "zeta_r_deg"),
                    *("d_bu", "d_br", "d_ru", "d_rt", "alpha_bu", "alpha_br", "alpha_ru", "alpha_rt", "eta0_db"),
                    *("sigma_b2_dbm", "sigma_u2_dbm", "power", "radar_share", "ris_spacing"),
                )
            ),
            (SolverParams, "tol"),
            (ExperimentPlan, "delta"),
            (ExperimentPlan, "power_list"),
        ],
    )
    def test_real_fields_reject_strings_and_bools(self, make, name, value):
        # the list field takes the value as one of its entries
        arg = (39.0, value) if name == "power_list" else value
        with pytest.raises(FieldError) as e:
            make(**{name: arg})
        assert e.value.fields == (name,)
        assert f"{name} must be " in str(e.value) and "real number" in str(e.value)

    def test_real_fields_take_ints_and_numpy_reals(self):
        cfg = ScenarioConfig(power=36, d_bu=np.float64(20.0), radar_share=np.float32(0.25), eta0_db=np.int64(-30))
        plan = ExperimentPlan(delta=np.float32(0.125), power_list=(39, np.float64(42.0)))
        assert (cfg.p_r_watts, cfg.d_bu, plan.delta, plan.power_list) == (0.25 * 10**0.6, 20.0, 0.125, (39, 42.0))

    @pytest.mark.parametrize(
        "make, attr", [(ScenarioConfig, "n_b"), (SolverParams, "n_starts"), (ExperimentPlan, "trials")]
    )
    def test_config_types_are_frozen_and_checked_on_replace(self, make, attr):
        obj = make()
        with pytest.raises(FrozenInstanceError):
            setattr(obj, attr, 0)
        with pytest.raises(FieldError) as e:
            replace(obj, **{attr: 0})
        assert e.value.fields == (attr,)


class TestWilson:
    def test_known_value(self):
        # k=5, n=100, z=1.96: textbook Wilson interval half-width
        hw = wilson_halfwidth(5, 100)
        assert hw == pytest.approx(0.0455, abs=5e-4)

    def test_zero_and_full(self):
        assert 0 < wilson_halfwidth(0, 50) < 0.11
        assert wilson_halfwidth(50, 50) == pytest.approx(wilson_halfwidth(0, 50), rel=1e-12)

    @pytest.mark.parametrize("k, n", [(5, 3), (-1, 3), (0, 0)])
    def test_count_outside_trials_rejected(self, k, n):
        with pytest.raises(ValueError, match=rf"^need n >= 1 and k in 0\.\.n, got k={k}, n={n}$"):
            wilson_halfwidth(k, n)


class TestConfigHash:
    def test_sensitive_to_every_field(self):
        cfg = desk_cfg()
        plan = ExperimentPlan()
        base = config_hash(cfg, plan)
        # a valid changed value for every field; parallel is excluded by design (outputs do not depend on it),
        # and pathloss_model has a single legal value, so it cannot change
        moves = {
            ScenarioConfig: dict(
                n_b=32, n_u=8, n_ris=256, grid_size=8, theta_r_deg=46.0, theta_u_deg=-24.0, zeta_b_deg=-29.0,
                zeta_r_deg=26.0, v_b=DirectionCosine(0.1, 0.2), v_u=DirectionCosine(0.1, 0.2),
                v_t=DirectionCosine(0.1, 0.2), d_bu=21.0, d_br=11.0, d_ru=11.0, d_rt=6.0, alpha_bu=3.6,
                alpha_br=2.6, alpha_ru=2.9, alpha_rt=2.9, eta0_db=-31.0, sigma_b2_dbm=-93.0, sigma_u2_dbm=-79.0,
                power=43.0, radar_share=0.25, ris_spacing=0.5,
            ),
            ExperimentPlan: dict(
                kind="se-vs-P", power_list=(40.0,), trials=100, master_seed=4321, delta=0.1, t_max=256,
                calib_trials=100, schedule_source="manual", snapshots=(1, 1, 1, 1), t_per_beam=2,
                schedule_ls=(2, 4, 8, 16), design_seed=1,
            ),
            SolverParams: dict(max_iters=100, tol=1e-6, n_starts=2),
        }
        for owner, changed in moves.items():
            assert set(changed) == {f.name for f in fields(owner)} - {"pathloss_model", "parallel", "solver"}
            for name, value in changed.items():
                moved_cfg, moved_plan = cfg, plan
                if owner is ScenarioConfig:
                    moved_cfg = replace(cfg, **{name: value})
                elif owner is ExperimentPlan:
                    moved_plan = replace(plan, **{name: value})
                else:
                    moved_plan = replace(plan, solver=replace(plan.solver, **{name: value}))
                assert config_hash(moved_cfg, moved_plan) != base, name
        assert config_hash(cfg, replace(plan, parallel=4)) == base

    def test_list_and_tuple_plans_hash_alike(self):
        cfg = desk_cfg()
        as_list = ExperimentPlan(power_list=[39.0, 42.0, 45.0], snapshots=[3, 1, 2, 4], schedule_ls=[4, 4, 8, 8])
        as_tuple = ExperimentPlan(power_list=(39.0, 42.0, 45.0), snapshots=(3, 1, 2, 4), schedule_ls=(4, 4, 8, 8))
        assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
        assert config_hash(cfg, as_list) == config_hash(cfg, as_tuple)
        assert config_hash(cfg, ExperimentPlan(power_list=[39.0, 42.0, 45.0])) == config_hash(cfg, ExperimentPlan())

    @pytest.mark.parametrize(
        "cfg_fields, plan_fields",
        [
            ({}, {"power_list": (42,)}),
            ({}, {"power_list": (np.float64(42.0),)}),
            ({}, {"delta": np.float64(0.05)}),
            ({}, {"schedule_ls": (np.int64(4), 4, 4)}),
            ({}, {"snapshots": (np.int64(2), 1, 3)}),
            ({}, {"solver": SolverParams(tol=np.float64(1e-8), n_starts=np.int64(4))}),
            ({"power": 36, "n_ris": np.int64(16)}, {}),
            ({"v_t": DirectionCosine(np.float64(-0.4127), np.float64(0.5397))}, {}),
        ],
        ids=["int-power", "numpy-power", "delta", "schedule", "snapshots", "solver", "scenario", "direction"],
    )
    def test_number_spellings_hash_and_print_alike(self, tmp_path, cfg_fields, plan_fields):
        # a value spelled as a Python int or a numpy number hashes and prints as the config file's Python number
        def run(cfg, plan, name):
            table = run_experiment(plan, cfg)
            emit_csv(table, str(tmp_path / name))
            return table.config_hash, config_hash(cfg, plan), (tmp_path / name).read_bytes()

        cfg = desk_cfg(36.0, n_ris=16, grid_size=8)
        plan = ExperimentPlan(
            kind="transmission-count", power_list=(42.0,), schedule_ls=(4, 4, 4), schedule_source="manual",
            snapshots=(2, 1, 3),
        )
        want = run(cfg, plan, "want.csv")
        assert run(replace(cfg, **cfg_fields), replace(plan, **plan_fields), "got.csv") == want
        assert b",42.0," in want[2]

    def test_run_hashes_the_schedule_that_ran(self):
        # a plan that leaves the schedule unset hashes the schedule of the codebook it runs, and the book itself
        cfg = desk_cfg(n_ris=16, grid_size=8)
        plan = ExperimentPlan(kind="transmission-count", power_list=(42.0,), schedule_source="manual")

        def hashes(cb=None):
            return {row["config_hash"] for row in run_experiment(plan, cfg, cb).rows}

        default, other = (build_codebook(cfg, schedule=schedule) for schedule in ((4, 4, 4), (2, 2, 4)))
        assert hashes() == hashes(default) == {config_hash(cfg, plan, default)}
        assert hashes(other) == {config_hash(cfg, replace(plan, schedule_ls=(2, 2, 4)), other)} != hashes()

    def test_hash_covers_the_codebook(self, tmp_path):
        # two books of one schedule, designed at two seeds, hash apart; a saved and reloaded book hashes as the
        # fresh build it was saved from
        cfg, plan = desk_cfg(n_ris=16, grid_size=8), ExperimentPlan(schedule_ls=(4, 4, 4))
        seed0, seed1 = (build_codebook(cfg, schedule=(4, 4, 4), seed=seed) for seed in (0, 1))
        assert config_hash(cfg, plan, seed0) != config_hash(cfg, plan, seed1)
        save_codebook(seed1, str(tmp_path / "book.riscb"))
        assert config_hash(cfg, plan, load_codebook(str(tmp_path / "book.riscb"))) == config_hash(cfg, plan, seed1)


class TestResultTable:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ResultTable(), str(path))
        text = path.read_text()
        assert text.count("\n") == 1
        assert text.startswith("experiment,power,metric")

    def test_float_roundtrip(self, tmp_path):
        t = ResultTable()
        value = 0.1 + 0.2  # not exactly representable in decimal
        t.add(experiment="x", power=1.0, metric="m", value=value)
        path = tmp_path / "t.csv"
        emit_csv(t, str(path))
        cell = path.read_text().splitlines()[1].split(",")[4]
        assert float(cell) == value


def small_plan(**overrides):
    kwargs = dict(
        kind="overall-error-vs-P",
        power_list=(42.0,),
        trials=60,
        master_seed=77,
        schedule_source="manual",
        snapshots=(2, 1, 1, 1),
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestExperiments:
    def test_rerun_byte_identical(self, tmp_path, oracle_codebook_16):
        cfg = desk_cfg(n_ris=256, grid_size=16)
        paths = []
        for k in (1, 2):
            table = run_experiment(small_plan(), cfg, oracle_codebook_16)
            p = tmp_path / f"run{k}.csv"
            emit_csv(table, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_parallel_degree_independence(self, oracle_codebook_16):
        cfg = desk_cfg(n_ris=256, grid_size=16)
        sched = SnapshotSchedule((2, 1, 1, 1))
        scene = make_scene(cfg)
        serial = run_localization_trials(scene, oracle_codebook_16, sched, small_plan(parallel=1), 0)
        parallel = run_localization_trials(scene, oracle_codebook_16, sched, small_plan(parallel=2), 0)
        assert np.array_equal(serial, parallel)

    def test_row_count_stage_error(self, oracle_codebook_16):
        cfg = desk_cfg(n_ris=256, grid_size=16)
        plan = small_plan(kind="stage-error-vs-P", power_list=(39.0, 42.0), trials=200)
        table = run_experiment(plan, cfg, oracle_codebook_16)
        # one row per (power point, stage)
        assert len(table.rows) == 2 * cfg.n_stages

    def test_single_snapshot_fails_error_target_at_low_power(self, desk_codebook):
        cfg = desk_cfg()
        plan = small_plan(
            kind="stage-error-vs-P", power_list=(33.0,), trials=2000, snapshots=(1, 1, 1, 1)
        )
        table = run_experiment(plan, cfg, desk_codebook)
        stage1 = next(r for r in table.rows if r["detail"].startswith("stage=1"))
        assert stage1["value"] > 3 * 0.05

    def test_calibrated_point_does_not_depend_on_the_sweep(self, desk_codebook):
        # every power point calibrates on the same per-stage streams, so 42 dBm alone gives the rows
        # of the 42 dBm point of a sweep (the config hash covers the power list, so it is left out)
        def rows(powers):
            plan = small_plan(kind="snapshots-vs-P", power_list=powers, schedule_source="calibrated", calib_trials=1000)
            table = run_experiment(plan, desk_cfg(), desk_codebook)
            return [{**r, "config_hash": None} for r in table.rows if r["power"] == 42.0]

        alone = rows((42.0,))
        assert [r["metric"] for r in alone].count("calibrated_snapshots") == 4
        assert rows((39.0, 42.0, 45.0)) == alone

    @pytest.mark.parametrize(
        "kind, source",
        [
            ("overall-error-vs-P", "calibrated"),
            ("snapshots-vs-P", "calibrated"),
            ("stage-error-vs-P", "calibrated"),
            ("transmission-count", "calibrated"),
            ("overall-error-vs-P", "manual"),
        ],
    )
    def test_one_power_alone_matches_the_sweep(self, desk_codebook, kind, source):
        powers = (39.0, 42.0, 45.0)
        plan = small_plan(kind=kind, power_list=powers, schedule_source=source, calib_trials=1000)
        cfgs = [desk_cfg().with_power(p) for p in powers]
        swept = resolve_schedules([make_scene(c) for c in cfgs], plan, desk_codebook)
        alone = [resolve_schedule(c, plan, desk_codebook) for c in cfgs]
        assert swept == alone
        if source == "calibrated":
            assert all(len(calibs) == 4 for _, calibs in swept)
            assert len({schedule for schedule, _ in swept}) > 1  # the powers calibrate to different counts

    def test_default_scenario_calibrates_feasibly(self):
        # a run with no config: 64x64 RIS, D=32, schedule 4/8/16/16/16, design seed 0, 39/42/45 dBm, delta 0.05
        cfg, plan = ScenarioConfig(), ExperimentPlan()
        scenes = [make_scene(cfg.with_power(p)) for p in plan.power_list]
        resolved = resolve_schedules(scenes, plan, get_codebook(cfg, plan))
        assert [[r.feasible for r in calibs] for _, calibs in resolved] == [[True] * 5] * 3

    def test_calibrated_kinds_report_one_schedule(self, desk_codebook, tmp_path, capsys):
        # one config and seed: every calibrated kind, resolve_schedule and the localize trace give one schedule
        # per power, because calibration reads one stream whatever the kind
        powers = (39.0, 42.0, 45.0)
        config, book = tmp_path / "desk.cfg", tmp_path / "desk.riscb"
        config.write_text(
            "[arrays]\nn_ris = 1024\n[grid]\ngrid_size = 16\n[experiment]\n"
            "power_list = 39, 42, 45\ntrials = 50\nmaster_seed = 77\ncalib_trials = 1000\n"
        )
        save_codebook(desk_codebook, str(book))

        def rows(command) -> list:
            out = tmp_path / f"{command}.csv"
            assert cli.main([command, "--config", str(config), "--codebook", str(book), "--out", str(out)]) == 0
            with open(out, newline="") as f:
                return list(csv.DictReader(f))

        def details(rows_, metric) -> dict:
            by = {}
            for r in rows_:
                if r["metric"] == metric:
                    by.setdefault(float(r["power"]), []).append(dict(kv.split("=") for kv in r["detail"].split(";")))
            return by

        def joined(t_s) -> str:
            return "/".join(str(t) for t in t_s)

        cfg, plan = load_config(str(config))
        expected = {p: joined(resolve_schedule(cfg.with_power(p), plan, desk_codebook)[0].t_s) for p in powers}
        whole = (("overall-error", "overall_error"), ("count-transmissions", "transmissions_hierarchical"))
        per_stage = (("calibrate", "stage_error_at_calibrated_T"), ("stage-error", "stage_error"))
        schedules = [{p: d["schedule"] for p, (d,) in details(rows(c), m).items()} for c, m in whole]
        schedules += [{p: joined(d["T"] for d in ds) for p, ds in details(rows(c), m).items()} for c, m in per_stage]
        assert schedules == [expected] * 4
        assert len(set(expected.values())) > 1  # the powers calibrate to different counts
        capsys.readouterr()
        assert cli.main(["localize", "--config", str(config), "--codebook", str(book)]) == 0
        printed = [line.split("(T=")[1].rstrip(")") for line in capsys.readouterr().out.splitlines() if "(T=" in line]
        assert "/".join(printed) == expected[powers[0]]

    @pytest.mark.parametrize(
        "kind, ensembles",
        [
            ("overall-error-vs-P", 1),
            ("snapshots-vs-P", 1),
            ("transmission-count", 1),
            ("stage-error-vs-P", 1 + 2 * 4),  # plus one stage_error ensemble per power point and stage
        ],
    )
    def test_calibrated_sweep_draws_once_per_sweep(self, desk_codebook, monkeypatch, kind, ensembles):
        built = {"ensembles": 0, "scenes": 0}
        init, make = StageEnsemble.__init__, harness.make_scene

        def counting_init(self, *args):
            built["ensembles"] += 1
            init(self, *args)

        def counting_make(cfg):
            built["scenes"] += 1
            return make(cfg)

        monkeypatch.setattr(StageEnsemble, "__init__", counting_init)
        monkeypatch.setattr(harness, "make_scene", counting_make)
        plan = small_plan(kind=kind, power_list=(39.0, 45.0), trials=50, schedule_source="calibrated", calib_trials=200)
        run_experiment(plan, desk_cfg(), desk_codebook)
        assert built == {"ensembles": ensembles, "scenes": 2}

    @pytest.mark.parametrize("kind", ["se-vs-P", "overall-error-vs-P"])
    def test_one_scene_per_power_point(self, desk_codebook, monkeypatch, kind):
        powers, make = [], harness.make_scene
        monkeypatch.setattr(harness, "make_scene", lambda cfg: powers.append(cfg.power) or make(cfg))
        run_experiment(small_plan(kind=kind, power_list=(39.0, 42.0, 45.0), trials=50), desk_cfg(), desk_codebook)
        assert powers == [39.0, 42.0, 45.0]

    def test_transmission_count_rows(self, oracle_codebook_16):
        cfg = desk_cfg(n_ris=256, grid_size=16)
        plan = small_plan(kind="transmission-count", power_list=(42.0,), snapshots=(36, 1, 1, 1))
        table = run_experiment(plan, cfg, oracle_codebook_16)
        values = {r["metric"]: r["value"] for r in table.rows}
        assert values["transmissions_hierarchical"] == 4 * 39
        assert values["transmissions_exhaustive"] == 256.0

    @pytest.mark.parametrize(
        "scenario, plan_overrides, name",
        [
            (dict(n_ris=1024), {}, "N_r"),
            (dict(grid_size=8), {}, "D"),
            (dict(ris_spacing=0.5), {}, "spacing"),
            ({}, dict(schedule_ls=(4, 4, 4, 4)), "schedule"),
            (dict(v_b=DirectionCosine(-0.6, 0.4)), {}, "v_b"),
            (dict(v_u=DirectionCosine(-0.6, 0.4)), {}, "v_u"),
        ],
        ids=["N_r", "D", "spacing", "schedule", "v_b", "v_u"],
    )
    def test_codebook_mismatch_rejected(self, oracle_codebook_16, scenario, plan_overrides, name):
        cfg = desk_cfg(**{"n_ris": 256, "grid_size": 16, **scenario})
        with pytest.raises(ValueError, match=f"codebook designed for {name}="):
            run_experiment(small_plan(**plan_overrides), cfg, oracle_codebook_16)

    def test_trace_csv(self, tmp_path, oracle_codebook_16):
        cfg = desk_cfg(n_ris=256, grid_size=16)
        scene = make_scene(cfg)
        sched = SnapshotSchedule((2, 1, 1, 1))
        stages = hierarchical_localize(scene, oracle_codebook_16, sched, trial_rng(1, "overall-error-vs-P", 0, 0, 72))
        path = tmp_path / "trace.csv"
        trial_trace_csv(stages, sched, str(path), 42.0, 1)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("trial,seed,power,stage")
        assert len(lines) == 1 + cfg.n_stages


# The benchmark's overall-desk run (32x32 RIS, D=16, codebook designed at the master seed): per master seed,
# per power point of 39/42/45 dBm, the (stage, feasible, t_s, error_at_t) of each CalibrationResult at 4000
# calibration trials and delta 0.05, then the (overall_error, stage_error_conditional by stage) values at 1000
# trials.  Stage 1 bisects well inside t_max here, which the tiny-scale golden file never reaches.
_DESK_PIN = {
    1: (
        [
            [(1, True, 93, 0.05), (2, True, 5, 0.049), (3, True, 1, 0.004), (4, True, 1, 0.0065)],
            [(1, True, 47, 0.05), (2, True, 3, 0.04325), (3, True, 1, 0.003), (4, True, 1, 0.00475)],
            [(1, True, 24, 0.0495), (2, True, 2, 0.03775), (3, True, 1, 0.00225), (4, True, 1, 0.0035)],
        ],
        [
            (0.065, [0.046, 0.019916142557651992, 0.0, 0.0]),
            (0.067, [0.051, 0.01685985247629083, 0.0, 0.0]),
            (0.064, [0.048, 0.01680672268907563, 0.0, 0.0]),
        ],
    ),
    2: (
        [
            [(1, True, 132, 0.05), (2, True, 4, 0.04775), (3, True, 1, 0.00575), (4, True, 1, 0.00825)],
            [(1, True, 67, 0.04925), (2, True, 2, 0.048), (3, True, 1, 0.00425), (4, True, 1, 0.00575)],
            [(1, True, 34, 0.04925), (2, True, 1, 0.04875), (3, True, 1, 0.003), (4, True, 1, 0.005)],
        ],
        [
            (0.072, [0.048, 0.025210084033613446, 0.0, 0.0]),
            (0.069, [0.039, 0.031217481789802288, 0.0, 0.0]),
            (0.076, [0.054, 0.023255813953488372, 0.0, 0.0]),
        ],
    ),
}


class TestDeskScalePin:
    @pytest.mark.parametrize("seed", sorted(_DESK_PIN))
    def test_overall_desk_calibrations_and_errors(self, seed):
        calibrations, errors = _DESK_PIN[seed]
        cfg = desk_cfg()
        cb = risjrc.build_codebook(cfg, seed=seed)
        plan = ExperimentPlan(
            power_list=(39.0, 42.0, 45.0), trials=1000, master_seed=seed, calib_trials=4000, design_seed=seed
        )
        scenes = [make_scene(cfg.with_power(p)) for p in plan.power_list]
        got = [[(r.stage, r.feasible, r.t_s, r.error_at_t) for r in calibs] for _, calibs in resolve_schedules(scenes, plan, cb)]
        assert got == calibrations
        rows = run_experiment(plan, cfg, cb).rows
        for power, (overall, conditional) in zip(plan.power_list, errors):
            point = [(r["metric"], r["value"]) for r in rows if r["power"] == power]
            assert [v for m, v in point if m == "overall_error"] == [overall]
            assert [v for m, v in point if m == "stage_error_conditional"] == conditional


class TestSeSharedDraw:
    """The four scenarios of an se-vs-P power point read one fading draw, at criterion 6's scenario."""

    @pytest.fixture(scope="class")
    def sweep(self):
        cfg = desk_cfg(n_ris=4096, grid_size=32)
        cb = risjrc.build_codebook(cfg, schedule=(4, 8, 16, 16, 16), seed=0)
        plan = ExperimentPlan(kind="se-vs-P", power_list=(30.0, 46.0), trials=2000)
        value = {(r["power"], r["detail"]): (r["value"], r["ci_halfwidth"]) for r in run_experiment(plan, cfg, cb).rows}
        return cfg, cb, plan, value

    @staticmethod
    def profiles(cfg_p, cb) -> dict:
        """Each scenario's RIS profile, in the order the model ranks their SE."""
        return {
            "benchmark": comm_phase_profile(cfg_p),
            "stage-1": stage_phase_profile(cb, 1),
            "stage-5": stage_phase_profile(cb, 5),
            "no-ris": None,
        }

    def test_each_row_is_average_se_on_the_point_stream(self, sweep):
        cfg, cb, plan, value = sweep
        assert len(value) == 8
        for p_idx, power in enumerate(plan.power_list):
            cfg_p = cfg.with_power(power)
            for tag, omega in self.profiles(cfg_p, cb).items():
                est = average_se(cfg_p, omega, plan.trials, aux_rng(plan.master_seed, plan.kind, p_idx, 200))
                assert value[(power, f"scenario={tag}")] == (est.mean, est.halfwidth)

    @pytest.mark.parametrize("p_idx", [0, 1])
    def test_ordering_holds_trial_by_trial(self, sweep, p_idx):
        cfg, cb, plan, _ = sweep
        cfg_p = cfg.with_power(plan.power_list[p_idx])
        fading = draw_fading(aux_rng(plan.master_seed, plan.kind, p_idx, 200), (plan.trials,))
        se = [_se_samples(make_scene(cfg_p), omega, fading) for omega in self.profiles(cfg_p, cb).values()]
        for better, worse in zip(se, se[1:]):
            assert np.all(better >= worse)

    def test_one_stage_grid_lists_each_scenario_once(self):
        # at D = 2 the last stage is stage 1: one row each for benchmark, stage-1 and no-ris
        cfg = desk_cfg(n_ris=16, grid_size=2)
        plan = ExperimentPlan(kind="se-vs-P", power_list=(42.0,), trials=50)
        details = [row["detail"] for row in run_experiment(plan, cfg).rows]
        assert sorted(details) == ["scenario=benchmark", "scenario=no-ris", "scenario=stage-1"]

    def test_mean_gap_matches_the_exact_gap(self, sweep):
        # on one draw the benchmark - stage-1 gap is nearly the same on every trial, so its mean is exact to
        # far below the per-scenario ci_halfwidth
        cfg, cb, plan, value = sweep
        for power in plan.power_list:
            cfg_p = cfg.with_power(power)
            omegas = self.profiles(cfg_p, cb)
            exact = exact_mean_se(cfg_p, omegas["benchmark"]) - exact_mean_se(cfg_p, omegas["stage-1"])
            got = value[(power, "scenario=benchmark")][0] - value[(power, "scenario=stage-1")][0]
            assert got == pytest.approx(exact, abs=1e-4)
            assert value[(power, "scenario=stage-1")][1] > 100 * abs(got - exact)


class TestRngStreams:
    def test_trial_streams_distinct(self):
        a = trial_rng(1, "se-vs-P", 0, 0, 8).standard_normal(4)
        b = trial_rng(1, "se-vs-P", 0, 1, 8).standard_normal(4)
        c = trial_rng(1, "se-vs-P", 1, 0, 8).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_trial_streams_reproducible(self):
        a = trial_rng(9, "se-vs-P", 2, 3, 8).standard_normal(4)
        b = trial_rng(9, "se-vs-P", 2, 3, 8).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        first=st.integers(0, 10**6),
        n=st.integers(1, 30),
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        point=st.integers(0, 4),
        data=st.data(),
    )
    def test_block_draws_are_counter_ranges(self, first, n, steps, seed, point, data):
        # one draw of n rows equals, bit for bit, the concatenated draws of any split and each row drawn alone
        width = 4 * steps

        def rows(start, count):
            return trial_rng(seed, "overall-error-vs-P", point, start, width).bit_generator.random_raw((count, width))

        whole = rows(first, n)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
        bounds = [0, *cuts, n]
        blocks = [rows(first + a, b - a) for a, b in zip(bounds, bounds[1:])]
        np.testing.assert_array_equal(np.concatenate(blocks), whole)
        for t in range(n):
            np.testing.assert_array_equal(rows(first + t, 1)[0], whole[t])

    @pytest.mark.parametrize("width", [6, 2])
    def test_width_off_the_counter_step_rejected(self, width):
        with pytest.raises(ValueError, match="multiple of 4"):
            trial_rng(1, "overall-error-vs-P", 0, 3, width)


class TestTrialReproducibility:
    def test_localize_trace_is_row_zero_of_the_sweep(self, tmp_path, monkeypatch):
        config = tmp_path / "tiny.cfg"
        config.write_text(TINY_CONFIG + "schedule_source = manual\nsnapshots = 3, 1, 70\n")
        trace = tmp_path / "trace.csv"
        assert cli.main(["localize", "--config", str(config), "--out", str(trace)]) == 0
        with open(trace, newline="") as f:
            rows = list(csv.DictReader(f))

        cfg, plan = load_config(str(config))
        plan = replace(plan, kind="overall-error-vs-P")
        cb = get_codebook(cfg, plan)
        cfg_p = cfg.with_power(plan.power_list[0])
        schedule, _ = resolve_schedule(cfg_p, plan, cb)
        swept = []

        def recording(*args):
            swept.append(descend(*args))
            return swept[-1]

        monkeypatch.setattr(harness, "descend", recording)
        outcomes = run_localization_trials(make_scene(cfg_p), cb, schedule, plan, 0)
        (stages,) = swept
        assert len(rows) == len(stages) == cfg.n_stages
        for s, (row, (pairs, stats, chosen, _, correct)) in enumerate(zip(rows, stages), start=1):
            assert [float(v) for v in row["statistics"].split(";")] == stats[0].tolist()
            assert int(row["chosen"]) == chosen[0] + 1
            assert row["beam_indices"] == ";".join(str((a - 1) * 2**s + b) for a, b in pairs[0].tolist())
            assert bool(correct[0]) == outcomes[0, s - 1]
            assert int(row["success"]) == outcomes[0, -1]

    def test_block_trace_is_each_trial_traced_alone(self, tmp_path, desk_codebook):
        # an N-trial trace has N x stages rows; trial k's equal, bar the trial column, trial k drawn alone
        scene = make_scene(desk_cfg(39.0))
        sched = SnapshotSchedule((5, 2, 70, 1))
        width, n, n_stages = trial_width(sched), 6, len(sched.t_s)

        def trace(stages, name) -> list:
            trial_trace_csv(stages, sched, str(tmp_path / name), 39.0, 3)
            with open(tmp_path / name, newline="") as f:
                return list(csv.reader(f))[1:]

        block = trial_rng(3, "overall-error-vs-P", 0, 0, width).bit_generator.random_raw((n, width))
        rows = trace(descend(scene, desk_codebook, sched, block), "block.csv")
        assert len(rows) == n * n_stages
        for k in range(n):
            rng = trial_rng(3, "overall-error-vs-P", 0, k, width)
            alone = trace(hierarchical_localize(scene, desk_codebook, sched, rng), f"{k}.csv")
            ours = rows[k * n_stages : (k + 1) * n_stages]
            assert [row[0] for row in ours] == [str(k)] * n_stages
            assert [row[1:] for row in ours] == [row[1:] for row in alone]
        assert len({row[-1] for row in rows}) == 2  # trials both succeed and fail, so a shifted row would show

    def test_uneven_blocks_match_serial(self, desk_codebook):
        # 1001 trials split 333/334/334 over three workers: every block must start at its own counter
        scene = make_scene(desk_cfg(39.0))
        sched = SnapshotSchedule((5, 2, 1, 1))
        serial = run_localization_trials(scene, desk_codebook, sched, small_plan(trials=1001, parallel=1), 0)
        split = run_localization_trials(scene, desk_codebook, sched, small_plan(trials=1001, parallel=3), 0)
        assert np.array_equal(serial, split)
        assert 0 < serial[:, -1].sum() < 1001  # outcomes vary, so a repeated block would show

    def test_many_threads_switching_often_match_serial(self, desk_codebook):
        # more worker threads than cores, switching every microsecond; they share the scene and codebook
        scene = make_scene(desk_cfg(39.0))
        sched = SnapshotSchedule((5, 2, 1, 1))
        serial = run_localization_trials(scene, desk_codebook, sched, small_plan(trials=800, parallel=1), 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_localization_trials(scene, desk_codebook, sched, small_plan(trials=800, parallel=16), 0)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial, threaded)


def _modules_loaded_by_fresh_import(*packages) -> str:
    """The modules of ``packages`` that a fresh interpreter holds after ``import risjrc``, as printed."""
    src = os.path.dirname(os.path.dirname(risjrc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, risjrc; print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_multiprocessing():
    """The thread pool is imported only by a parallel sweep, so a fresh ``import risjrc`` stays light."""
    assert _modules_loaded_by_fresh_import("multiprocessing", "concurrent") == "[]"


def test_import_does_not_load_scipy():
    """The library runs on numpy alone: ``import scipy.special`` by itself costs about three times
    the benchmark's whole set-up, so a fresh ``import risjrc`` loads no scipy module."""
    assert _modules_loaded_by_fresh_import("scipy") == "[]"
