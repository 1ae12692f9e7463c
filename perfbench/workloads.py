"""The benchmark's workloads: generated config files and output checks.

``design-full``   build_codebook + save_codebook at full scale.  The
                  projected-gradient sensing solver does nearly all the work.
``overall-desk``  overall-error-vs-P at desk scale from a prepared codebook.
                  The per-trial localization loop and the vectorized
                  calibrator do the work; the codebook is only read.
``se-full``       se-vs-P at full scale from a prepared codebook.  The comms
                  Monte Carlo does the work; no localization runs.

Each workload has a full scale, which the benchmark measures, and a tiny
scale (16-element RIS, D=8) that ``smoke.py`` runs in seconds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

NAMES = ("design-full", "overall-desk", "se-full")
DELTA = 0.05
T_MAX = 512
FULL_SCHEDULE = "4, 8, 16, 16, 16"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "design" or "experiment"
    config: dict  # INI sections of the timed run, before the seed is applied
    prepare: dict | None  # INI sections of the untimed codebook design, if any
    items: int  # beams designed or Monte Carlo trials completed per run
    item_name: str
    # (risjrc, config path, output path, codebook path) -> (failures, advisories, quality)
    check: Callable


def _sections(n_ris, d, schedule, kind, powers=(36.0,), trials=1, calib_trials=1):
    return {
        "arrays": {"n_ris": n_ris},
        "grid": {"grid_size": d},
        "pathloss": {"model": "standard_power"},
        "codebook": {"schedule": schedule},
        "experiment": {
            "kind": kind,
            "power_list": ", ".join(str(p) for p in powers),
            "trials": trials,
            "parallel": 1,
            "delta": DELTA,
            "t_max": T_MAX,
            "calib_trials": calib_trials,
            "schedule_source": "calibrated",
        },
    }


def _axis_beams(d: int) -> int:
    return 2 * sum(2**s for s in range(1, int(math.log2(d)) + 1))


def workload(name: str, scale: str = "full") -> Workload:
    """The named workload at ``scale`` "full" (measured) or "tiny" (smoke)."""
    if scale not in ("full", "tiny"):
        raise ValueError(f"unknown scale {scale!r}")
    tiny = scale == "tiny"
    if name == "design-full":
        n_ris, d, sched = (16, 8, "4, 4, 4") if tiny else (4096, 32, FULL_SCHEDULE)
        run = _sections(n_ris, d, sched, "codebook-report")
        return Workload(name, "design", run, None, _axis_beams(d), "beams", check_design)
    if name == "overall-desk":
        # calibration trials stay at 4x the sweep trials, as in the acceptance suite
        n_ris, d, sched, trials = (16, 8, "4, 4, 4", 40) if tiny else (1024, 16, "4, 8, 16, 16", 1000)
        powers = (39.0, 42.0, 45.0)
        run = _sections(n_ris, d, sched, "overall-error-vs-P", powers, trials, 4 * trials)
        prep = _sections(n_ris, d, sched, "codebook-report")
        return Workload(name, "experiment", run, prep, trials * len(powers), "trials", check_overall)
    if name == "se-full":
        n_ris, d, sched, trials = (16, 8, "4, 4, 4", 100) if tiny else (4096, 32, FULL_SCHEDULE, 4000)
        powers = (30.0, 34.0, 38.0, 42.0, 46.0)
        run = _sections(n_ris, d, sched, "se-vs-P", powers, trials)
        prep = _sections(n_ris, d, sched, "codebook-report")
        return Workload(name, "experiment", run, prep, trials * len(powers) * 4, "trials", check_se)
    raise ValueError(f"unknown workload {name!r}")


def write_config(path: str, sections: dict, seed: int):
    """Write the INI file risjrc.load_config reads, seeded from ``seed``."""
    sections = {k: dict(v) for k, v in sections.items()}
    sections["codebook"]["design_seed"] = seed
    sections["experiment"]["master_seed"] = seed
    with open(path, "w") as f:
        for section, keys in sections.items():
            f.write(f"[{section}]\n")
            for key, value in keys.items():
                f.write(f"{key} = {value}\n")
            f.write("\n")


# ---------------------------------------------------------------------------
# output checks.  Each returns (failures, advisories, layer metrics); only
# failures fail a run.  The mask statistics are recomputed here from the
# steering-vector definition rather than through risjrc.mask_fidelity.


def _axis_steering(v, n, spacing):
    return np.exp(2j * np.pi * spacing * np.arange(n) * v)


def _axis_response(w_sensing, v_b, grid, spacing):
    """|r(v_j)^H diag(w) r(v_b)| over the sensing elements, one row per grid point."""
    l_s = w_sensing.shape[0]
    rows = np.stack([_axis_steering(v, l_s, spacing).conj() for v in grid]) * _axis_steering(v_b, l_s, spacing)
    return np.abs(rows @ w_sensing)


def _half_power_width(w_sensing, v_b, spacing, n_eval=2001):
    v = np.linspace(-1.0, 1.0, n_eval)
    p = _axis_response(w_sensing[:, None], v_b, v, spacing)[:, 0]
    k = int(np.argmax(p))
    above = p >= p[k] / math.sqrt(2.0)
    lo, hi = k, k
    while lo > 0 and above[lo - 1]:
        lo -= 1
    while hi < n_eval - 1 and above[hi + 1]:
        hi += 1
    return float(v[hi] - v[lo])


def codebook_quality(cb, cfg) -> dict:
    """Worst on-partition and off-partition mean response as fractions of L_s."""
    d = cb.d
    grid = -1.0 + (2.0 * np.arange(1, d + 1) - 1.0) / d
    on_min, off_max = math.inf, 0.0
    for book in cb.stages:
        block = d // book.w_x.shape[1]
        for w, v_b in ((book.w_x, cfg.v_b.vx), (book.w_y, cfg.v_b.vy)):
            resp = _axis_response(w[: book.l_s], v_b, grid, cb.spacing)
            for i in range(w.shape[1]):
                on = np.zeros(d, dtype=bool)
                on[i * block : (i + 1) * block] = True
                on_min = min(on_min, resp[on, i].mean() / book.l_s)
                off_max = max(off_max, resp[~on, i].mean() / book.l_s)
    return {
        "codebook.mask_on_min": float(on_min),
        "codebook.mask_off_max": float(off_max),
        "codebook.warnings": sum(len(b.quality_warnings) for b in cb.stages),
    }


def check_design(risjrc, config_path: str, output: str, codebook_path: str) -> tuple[list, list, dict]:
    cfg, plan = risjrc.load_config(config_path)
    cb = risjrc.load_codebook(output)
    fails = []
    expect = {"D": cfg.grid_size, "N_r": cfg.n_ris, "spacing": cfg.ris_spacing, "schedule": tuple(plan.schedule_ls)}
    got = {"D": cb.d, "N_r": cb.n_ris, "spacing": cb.spacing, "schedule": tuple(cb.schedule)}
    for key in expect:
        if expect[key] != got[key]:
            fails.append(f"codebook {key} {got[key]!r}, config has {expect[key]!r}")
    quality = codebook_quality(cb, cfg)
    if quality["codebook.mask_on_min"] < 0.7:
        fails.append(f"mask on-partition mean {quality['codebook.mask_on_min']:.3f} L_s < 0.7 L_s")
    if quality["codebook.mask_off_max"] > 0.25:
        fails.append(f"mask off-partition mean {quality['codebook.mask_off_max']:.3f} L_s > 0.25 L_s")
    widths = [
        _half_power_width(cb.stages[s].w_x[: cb.stages[s].l_s, 0], cfg.v_b.vx, cb.spacing)
        for s in range(min(3, cb.n_stages))
    ]
    if not all(a > b for a, b in zip(widths, widths[1:])):
        fails.append(f"beam widths over stages 1-3 do not narrow: {widths}")
    return fails, [], quality


def _rows(path: str) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _detail(text: str) -> dict:
    return dict(part.split("=", 1) for part in text.split(";") if part)


def check_overall(risjrc, config_path: str, output: str, codebook_path: str) -> tuple[list, list, dict]:
    cfg, plan = risjrc.load_config(config_path)
    cb = risjrc.load_codebook(codebook_path)
    rows = _rows(output)
    fails, advisories = [], []
    n_s = cfg.n_stages
    bound = n_s * plan.delta
    schedules = []
    for power in plan.power_list:
        at = [r for r in rows if float(r["power"]) == power]
        overall = [r for r in at if r["metric"] == "overall_error"]
        tx = [r for r in at if r["metric"] == "transmissions_hierarchical"]
        if len(overall) != 1 or len(tx) != 1:
            fails.append(f"P={power}: expected one overall_error and one transmissions row")
            continue
        err = float(overall[0]["value"])
        t_s = [int(t) for t in _detail(overall[0]["detail"])["schedule"].split("/")]
        schedules.append(t_s)
        if not err <= bound:
            fails.append(f"P={power}: overall error {err} > n_s*delta = {bound}")
        if float(tx[0]["value"]) != 4 * sum(t_s):
            fails.append(f"P={power}: transmissions {tx[0]['value']} != 4*sum(T_s) = {4 * sum(t_s)}")
        # every calibration behind the schedule must be feasible; recomputed
        # here because the CSV shows an infeasible stage only as T = t_max
        schedule, calibs = risjrc.harness.resolve_schedule(cfg.with_power(power), plan, cb)
        infeasible = [c.stage for c in calibs if not c.feasible]
        if infeasible or list(schedule.t_s) != t_s:
            fails.append(f"P={power}: calibration infeasible at stages {infeasible} or schedule differs")
        stage1 = [r for r in at if r["metric"] == "stage_error_conditional" and r["detail"].startswith("stage=1;")]
        if stage1 and float(stage1[0]["value"]) > plan.delta + float(stage1[0]["ci_halfwidth"]):
            advisories.append(f"P={power}: stage-1 error {stage1[0]['value']} > delta + CI")
    for lower_p, higher_p in zip(schedules, schedules[1:]):
        if any(t_hi > t_lo for t_lo, t_hi in zip(lower_p, higher_p)):
            fails.append(f"snapshot counts increase with power: {schedules}")
    return fails, advisories, codebook_quality(cb, cfg)


def check_se(risjrc, config_path: str, output: str, codebook_path: str) -> tuple[list, list, dict]:
    cfg, plan = risjrc.load_config(config_path)
    cb = risjrc.load_codebook(codebook_path)
    last = f"stage-{cb.n_stages}"
    se = {}
    for r in _rows(output):
        if r["metric"] == "spectral_efficiency":
            se[(float(r["power"]), _detail(r["detail"])["scenario"])] = float(r["value"])
    fails, advisories = [], []
    for power in plan.power_list:
        try:
            bench, s1, sl, none = (se[(power, k)] for k in ("benchmark", "stage-1", last, "no-ris"))
        except KeyError as e:
            fails.append(f"P={power}: missing scenario {e}")
            continue
        if not all(math.isfinite(v) for v in (bench, s1, sl, none)):
            fails.append(f"P={power}: non-finite spectral efficiency")
            continue
        if not s1 >= sl:
            fails.append(f"P={power}: stage-1 SE {s1} < {last} SE {sl}")
        if not sl - none >= 2.0:
            fails.append(f"P={power}: {last} - no-ris SE gap {sl - none} < 2")
        if not bench - s1 <= 1.0:
            fails.append(f"P={power}: benchmark - stage-1 SE gap {bench - s1} > 1")
        if not bench >= s1:
            advisories.append(f"P={power}: benchmark SE {bench} < stage-1 SE {s1}")
    return fails, advisories, codebook_quality(cb, cfg)
