"""Experiment orchestration: config files, RNG discipline, sweeps, CSV.

Every random quantity in an experiment is keyed by the master seed, the
experiment id and the power-point index.  The localization trials of a
sweep point read one counter-based Philox stream in which trial t owns a
fixed range of words, so a block of trials is one draw and any trial
reproduces alone (:func:`trial_rng`).  Calibration, stage-error and SE draws
come from tagged :func:`aux_rng` streams; calibration's is one stream whatever
the kind, power point or stage, so a configuration's calibrated kinds, power
points and stages search one ensemble (:func:`resolve_schedules`), and the SE
scenarios of a power point read one fading draw.  Results are bit-reproducible
and independent of the parallelism degree.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from . import comms
from .channels import ScenarioConfig, draw_fading
from .codebook import (
    Codebook,
    SolverParams,
    build_codebook,
    default_schedule,
    half_power_width,
    mask_fidelity,
    sensing_responses,
)
from .geometry import DirectionCosine, check_fields, direction_grid, is_integer, is_real, store_python_numbers
from .localization import (
    Scene,
    SnapshotSchedule,
    StageEnsemble,
    calibrate_snapshots,
    descend,
    exhaustive_transmissions,
    hierarchical_transmissions,
    make_scene,
    stage_error,
    trial_width,
)

SCHEDULE_SOURCES = ("manual", "calibrated")

CSV_COLUMNS = (
    "experiment",
    "power",
    "metric",
    "detail",
    "value",
    "ci_halfwidth",
    "trials",
    "master_seed",
    "config_hash",
)

TRACE_COLUMNS = (
    "trial",
    "seed",
    "power",
    "stage",
    "beam_indices",
    "statistics",
    "chosen",
    "t_s",
    "success",
)

BEAMPATTERN_COLUMNS = ("stage", "axis", "beam", "grid_index", "v", "response_mag")


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: experiment kind, sweep, budgets, and seeds; frozen and checked when built."""

    kind: str = "overall-error-vs-P"
    power_list: tuple = (39.0, 42.0, 45.0)
    trials: int = 2000
    master_seed: int = 1234
    parallel: int = 1
    delta: float = 0.05
    t_max: int = 512
    calib_trials: int = 4000
    schedule_source: str = "calibrated"
    snapshots: tuple | None = None  # manual per-stage counts
    t_per_beam: int = 1
    schedule_ls: tuple | None = None  # codebook sensing-element schedule
    design_seed: int = 0
    solver: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        check_fields(self, _PLAN_RULES)
        store_python_numbers(self)
        for name, number in (("power_list", float), ("snapshots", int), ("schedule_ls", int)):  # as a file loads them
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(number(v) for v in getattr(self, name)))


def trial_rng(master_seed: int, experiment: str, point_index: int, trial: int, width: int) -> np.random.Generator:
    """Generator at the start of trial ``trial``'s row in its sweep point's trial stream.

    A sweep point keys one Philox stream, and each trial owns ``width`` consecutive raw words of
    it, ``trial_width(schedule)`` for the search.  Reading n rows from here draws trials
    ``trial`` .. ``trial + n - 1`` in one call, the same words as each trial drawn alone.
    """
    if width % 4:
        raise ValueError(f"width must be a multiple of 4, the words of one Philox counter step, got {width}")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(_EXPERIMENT_IDS[experiment], point_index))
    return np.random.Generator(np.random.Philox(ss, counter=[trial * width // 4, 0, 0, 0]))


def aux_rng(master_seed: int, experiment: str, point_index: int, tag: int) -> np.random.Generator:
    """Generator for non-trial randomness (calibration etc.); tag >= 0."""
    ss = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(_EXPERIMENT_IDS[experiment], point_index, 1_000_000_000 + tag)
    )
    return np.random.default_rng(ss)


def wilson_halfwidth(k: int, n: int, z: float = 1.96) -> float:
    """Half-width of the Wilson score interval for k successes in n trials."""
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need n >= 1 and k in 0..n, got k={k}, n={n}")
    p = k / n
    denom = 1.0 + z**2 / n
    return z * math.sqrt(p * (1.0 - p) / n + z**2 / (4.0 * n**2)) / denom


# ---------------------------------------------------------------------------
# config file I/O


def _int_tuple(text: str) -> tuple | None:
    return tuple(int(x) for x in text.replace(",", " ").split()) or None


def _float_tuple(text: str) -> tuple | None:
    return tuple(float(x) for x in text.replace(",", " ").split()) or None


# (section, key, owner, attribute, parser): every key a config file may set.
# A parser returning None leaves the attribute at its dataclass default.
CONFIG_FIELDS = (
    ("arrays", "n_b", ScenarioConfig, "n_b", int),
    ("arrays", "n_u", ScenarioConfig, "n_u", int),
    ("arrays", "n_ris", ScenarioConfig, "n_ris", int),
    ("grid", "grid_size", ScenarioConfig, "grid_size", int),
    ("angles_deg", "theta_r", ScenarioConfig, "theta_r_deg", float),
    ("angles_deg", "theta_u", ScenarioConfig, "theta_u_deg", float),
    ("angles_deg", "zeta_b", ScenarioConfig, "zeta_b_deg", float),
    ("angles_deg", "zeta_r", ScenarioConfig, "zeta_r_deg", float),
    ("directions", "v_bx", ScenarioConfig, "v_b.vx", float),
    ("directions", "v_by", ScenarioConfig, "v_b.vy", float),
    ("directions", "v_ux", ScenarioConfig, "v_u.vx", float),
    ("directions", "v_uy", ScenarioConfig, "v_u.vy", float),
    ("directions", "v_tx", ScenarioConfig, "v_t.vx", float),
    ("directions", "v_ty", ScenarioConfig, "v_t.vy", float),
    ("distances_m", "d_bu", ScenarioConfig, "d_bu", float),
    ("distances_m", "d_br", ScenarioConfig, "d_br", float),
    ("distances_m", "d_ru", ScenarioConfig, "d_ru", float),
    ("distances_m", "d_rt", ScenarioConfig, "d_rt", float),
    ("pathloss", "alpha_bu", ScenarioConfig, "alpha_bu", float),
    ("pathloss", "alpha_br", ScenarioConfig, "alpha_br", float),
    ("pathloss", "alpha_ru", ScenarioConfig, "alpha_ru", float),
    ("pathloss", "alpha_rt", ScenarioConfig, "alpha_rt", float),
    ("pathloss", "eta0_db", ScenarioConfig, "eta0_db", float),
    ("pathloss", "model", ScenarioConfig, "pathloss_model", str),
    ("noise_dbm", "sigma_b2", ScenarioConfig, "sigma_b2_dbm", float),
    ("noise_dbm", "sigma_u2", ScenarioConfig, "sigma_u2_dbm", float),
    ("power", "radar_share", ScenarioConfig, "radar_share", float),
    ("ris", "spacing_wavelengths", ScenarioConfig, "ris_spacing", float),
    ("codebook", "schedule", ExperimentPlan, "schedule_ls", _int_tuple),
    ("codebook", "design_seed", ExperimentPlan, "design_seed", int),
    ("codebook", "max_iters", SolverParams, "max_iters", int),
    ("codebook", "tol", SolverParams, "tol", float),
    ("codebook", "n_starts", SolverParams, "n_starts", int),
    ("experiment", "kind", ExperimentPlan, "kind", str),
    ("experiment", "power_list", ExperimentPlan, "power_list", _float_tuple),
    ("experiment", "trials", ExperimentPlan, "trials", int),
    ("experiment", "master_seed", ExperimentPlan, "master_seed", int),
    ("experiment", "parallel", ExperimentPlan, "parallel", int),
    ("experiment", "delta", ExperimentPlan, "delta", float),
    ("experiment", "t_max", ExperimentPlan, "t_max", int),
    ("experiment", "calib_trials", ExperimentPlan, "calib_trials", int),
    ("experiment", "schedule_source", ExperimentPlan, "schedule_source", str),
    ("experiment", "snapshots", ExperimentPlan, "snapshots", _int_tuple),
    ("experiment", "t_per_beam", ExperimentPlan, "t_per_beam", int),
)


def load_config(path: str) -> tuple[ScenarioConfig, ExperimentPlan]:
    """Parse and validate a scenario + experiment config file.

    A rejected file is a one-line ValueError naming ``path``: ``malformed config``
    if configparser cannot read it, unknown sections or keys with their location,
    and a value out of range as ``<path>: [section] key: <message>``, the keys
    being those that set the fields its :class:`FieldError` names.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as f:
        try:
            parser.read_file(f, source=path)
        except configparser.Error as e:  # no section header, a repeated section or key, ...
            raise ValueError(f"{path}: malformed config: {' '.join(str(e).split())}") from None

    known = {(section, key): (owner, attr, parse) for section, key, owner, attr, parse in CONFIG_FIELDS}
    values = {ScenarioConfig: {}, ExperimentPlan: {}, SolverParams: {}}
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, text in parser.items(section):
            if (section, key) not in known:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
            owner, attr, parse = known[section, key]
            try:
                value = parse(text)
            except ValueError as e:
                raise ValueError(f"{path}: bad value for [{section}] {key}: {e}") from None
            if value is not None:
                values[owner][attr] = value

    scenario, base = values[ScenarioConfig], ScenarioConfig()
    try:
        for name in ("v_b", "v_u", "v_t"):
            vx, vy = (scenario.pop(f"{name}.{c}", getattr(getattr(base, name), c)) for c in ("vx", "vy"))
            scenario[name] = DirectionCosine(vx, vy)
        cfg = ScenarioConfig(**scenario)
        plan = ExperimentPlan(**values[ExperimentPlan], solver=SolverParams(**values[SolverParams]))
    except ValueError as e:  # a FieldError names the attributes at fault; "vx", "vy" those of direction `name`
        attrs = [f"{name}.{f}" if f in ("vx", "vy") else f for f in getattr(e, "fields", ())]
        keys = ", ".join(f"[{sec}] {key}" for sec, key, _, attr, _ in CONFIG_FIELDS if attr in attrs)
        raise ValueError(f"{path}: {keys + ': ' if keys else ''}{e}") from None
    return cfg, plan


def write_default_config(path: str):
    """Write every accepted config key at its default value."""
    cfg = ScenarioConfig()
    plan = ExperimentPlan(schedule_ls=default_schedule(cfg.grid_size, cfg.n_axis))
    owners = {ScenarioConfig: cfg, ExperimentPlan: plan, SolverParams: plan.solver}
    lines, section = ["# RIS joint radar-communication scenario"], None
    for sec, key, owner, attr, _ in CONFIG_FIELDS:
        if sec != section:
            lines.append(f"\n[{sec}]")
            section = sec
        value = attrgetter(attr)(owners[owner])
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {'' if value is None else value}".rstrip())
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def config_hash(cfg: ScenarioConfig, plan: ExperimentPlan, cb: Codebook | None = None) -> str:
    """Short digest over every result-affecting config and plan field, then each stage's fits and residuals of cb.

    The parallelism degree is excluded: outputs are independent of it.  An unset codebook schedule is
    hashed as the default it resolves to; :func:`run_experiment` hashes the codebook it ran, with its schedule.
    """
    if plan.schedule_ls is None:
        plan = replace(plan, schedule_ls=default_schedule(cfg.grid_size, cfg.n_axis))
    parts = []
    for f_ in fields(cfg):
        parts.append(f"{f_.name}={getattr(cfg, f_.name)!r}")
    for f_ in fields(plan):
        if f_.name == "parallel":
            continue
        parts.append(f"{f_.name}={getattr(plan, f_.name)!r}")
    fits = b"".join(b.phases.tobytes() + b.residuals.tobytes() for b in (cb.stages if cb else ()))
    return hashlib.sha256(";".join(parts).encode() + fits).hexdigest()[:16]


# ---------------------------------------------------------------------------
# result table

@dataclass
class ResultTable:
    """Append-only experiment results, sorted before emission, and the config hash their rows carry."""

    rows: list = field(default_factory=list)
    config_hash: str = ""

    def add(self, **kwargs):
        row = {c: kwargs.get(c, "") for c in CSV_COLUMNS}
        self.rows.append(row)

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=lambda r: tuple(str(r[c]) for c in CSV_COLUMNS))


def _fmt(value) -> str:
    if isinstance(value, list):
        return ";".join(map(_fmt, value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: tuple, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def emit_csv(table: ResultTable, path: str):
    """Write the table as RFC-4180 CSV with round-trippable floats."""
    _write_csv(path, CSV_COLUMNS, ([row[c] for c in CSV_COLUMNS] for row in table.sorted_rows()))


def trace_rows(stages: list, schedule: SnapshotSchedule, power: float, master_seed: int):
    """``TRACE_COLUMNS`` rows, trial after trial and stage after stage, of the search result
    ``stages`` (:func:`descend`'s arrays, trial t being row t).  The four candidates are listed by
    2-D beam index (a - 1) 2^s + b of their stage-s axis pair (a, b), the chosen one by its 1-based
    position among them."""
    columns = [
        (((pairs[..., 0] - 1) * 2**s + pairs[..., 1]).tolist(), stats.tolist(), (chosen + 1).tolist())
        for s, (pairs, stats, chosen, _, _) in enumerate(stages, start=1)
    ]
    for t, success in enumerate(stages[-1][4].tolist()):
        for s, (t_s, (beams, stats, chosen)) in enumerate(zip(schedule.t_s, columns), start=1):
            yield [t, master_seed, power, s, beams[t], stats[t], chosen[t], t_s, int(success)]


def trial_trace_csv(stages: list, schedule: SnapshotSchedule, path: str, power: float, master_seed: int):
    """Write the trace of every trial in the search result ``stages``: :func:`trace_rows`, one line per
    trial and stage, lists ``;``-joined."""
    _write_csv(path, TRACE_COLUMNS, trace_rows(stages, schedule, power, master_seed))


# ---------------------------------------------------------------------------
# experiment execution

def get_codebook(cfg: ScenarioConfig, plan: ExperimentPlan, cb: Codebook | None = None) -> Codebook:
    """``cb`` after checking it was designed for this scenario, else a new design."""
    if cb is None:
        return build_codebook(cfg, schedule=plan.schedule_ls, solver=plan.solver, seed=plan.design_seed)
    cb.check_fits(cfg, plan.schedule_ls)
    return cb


def resolve_schedules(scenes: list[Scene], plan: ExperimentPlan, cb: Codebook) -> list[tuple[SnapshotSchedule, list]]:
    """Per-stage snapshot counts for each power point of a sweep, per the plan's source.

    Returns one ``(schedule, calibs)`` per scene, ``calibs`` being the list of
    CalibrationResults (empty unless calibrated).  The manual source takes
    ``plan.snapshots``, or 1 at every stage when unset.  Calibration draws one
    :class:`StageEnsemble` on ``aux_rng(seed, "snapshots-vs-P", 0, 1)``, whatever
    the plan's kind, and searches it scene by scene and stage by stage; it is
    dropped on return.  So every calibrated kind, power point and stage of a
    configuration reads one draw, and the kinds report one schedule.
    """
    n_stages = scenes[0].cfg.n_stages
    if plan.schedule_source == "manual":
        t_s = plan.snapshots if plan.snapshots is not None else (1,) * n_stages
        if len(t_s) != n_stages:
            raise ValueError(f"snapshots must have {n_stages} entries, got {len(t_s)}")
        return [(SnapshotSchedule(tuple(t_s)), []) for _ in scenes]
    # calibrated: common random numbers across kinds, power points and stages, which keeps the calibrated
    # counts smoothly monotone across the sweep
    ens = StageEnsemble(cb, plan.calib_trials, aux_rng(plan.master_seed, "snapshots-vs-P", 0, 1))
    stages = range(1, n_stages + 1)
    calibs = [[calibrate_snapshots(ens, scene, s, plan.delta, plan.t_max) for s in stages] for scene in scenes]
    return [(SnapshotSchedule(tuple(r.t_s if r.feasible else plan.t_max for r in point)), point) for point in calibs]


def resolve_schedule(cfg: ScenarioConfig, plan: ExperimentPlan, cb: Codebook) -> tuple[SnapshotSchedule, list]:
    """Schedule and CalibrationResults of one power point: :func:`resolve_schedules` on a one-point sweep.

    A point resolves alone as it does inside any sweep, because every point
    reads the same draws.
    """
    return resolve_schedules([make_scene(cfg)], plan, cb)[0]


def run_localization_trials(
    scene: Scene,
    cb: Codebook,
    schedule: SnapshotSchedule,
    plan: ExperimentPlan,
    point_index: int,
) -> np.ndarray:
    """Per-stage correctness of one power point's trials, a (trials, stages) bool array: row t is trial t under
    any parallel degree, and the last column is each trial's success.  ``plan.parallel`` contiguous blocks, each
    one draw and one batched :func:`descend` whose ``correct`` columns it stacks, run on threads (numpy releases
    the GIL in most of each)."""
    width = trial_width(schedule)

    def run_block(trials: range) -> np.ndarray:
        rng = trial_rng(plan.master_seed, plan.kind, point_index, trials.start, width)
        stages = descend(scene, cb, schedule, rng.bit_generator.random_raw((len(trials), width)))
        return np.stack([correct for *_, correct in stages], axis=1)

    bounds = sorted({plan.trials * k // plan.parallel for k in range(plan.parallel + 1)})  # no empty block
    blocks = [range(*b) for b in zip(bounds, bounds[1:])]
    if plan.parallel <= 1:
        outcomes = [run_block(b) for b in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # lazy: keeps concurrent.futures out of `import risjrc`

        with ThreadPoolExecutor(max_workers=plan.parallel) as pool:
            outcomes = list(pool.map(run_block, blocks))
    return np.concatenate(outcomes)  # contiguous blocks, in trial order


def _power_points(cfg: ScenarioConfig, plan: ExperimentPlan, add):
    """Per sweep point: its index, its scene (the one both links read), and ``add`` bound to its power."""
    for p_idx, power in enumerate(plan.power_list):
        yield p_idx, make_scene(cfg.with_power(power)), functools.partial(add, power=power)


def _scheduled_points(cfg: ScenarioConfig, plan: ExperimentPlan, cb: Codebook, add):
    """:func:`_power_points` with each point's schedule and CalibrationResults beside its scene, the
    whole sweep's schedules resolved in one call."""
    points = list(_power_points(cfg, plan, add))
    schedules = resolve_schedules([scene for _, scene, _ in points], plan, cb)
    for (p_idx, scene, add_p), (schedule, calibs) in zip(points, schedules):
        yield p_idx, scene, schedule, calibs, add_p


def _stage_error_vs_p(cfg, plan, book, add):
    for p_idx, scene, schedule, _, add_p in _scheduled_points(cfg, plan, book, add):
        for s, t_s in enumerate(schedule.t_s, start=1):
            rng = aux_rng(plan.master_seed, plan.kind, p_idx, 100 + s)
            err = stage_error(scene, book, s, t_s, plan.trials, rng)
            hw = wilson_halfwidth(int(round(err * plan.trials)), plan.trials)
            add_p(metric="stage_error", detail=f"stage={s};T={t_s}", value=err, ci_halfwidth=hw)


def _snapshots_vs_p(cfg, plan, book, add):
    for _, _, _, calibs, add_p in _scheduled_points(cfg, plan, book, add):
        for res in calibs:
            add_p(
                metric="calibrated_snapshots",
                detail=f"stage={res.stage};feasible={int(res.feasible)}",
                value=float(res.t_s) if res.feasible else float("nan"),
            )
            if res.feasible:
                hw = wilson_halfwidth(int(round(res.error_at_t * res.trials)), res.trials)
                add_p(
                    metric="stage_error_at_calibrated_T",
                    detail=f"stage={res.stage};T={res.t_s}",
                    value=res.error_at_t,
                    ci_halfwidth=hw,
                )


def _overall_error_vs_p(cfg, plan, book, add):
    for p_idx, scene, schedule, _, add_p in _scheduled_points(cfg, plan, book, add):
        correct = run_localization_trials(scene, book, schedule, plan, p_idx)  # (N, stages)
        # alive[s]: trials right at every stage up to s, as no child of a wrong pair holds the cell; alive[0]: all
        alive = [len(correct), *correct.sum(axis=0).tolist()]
        n, wrong = alive[0], alive[0] - alive[-1]
        add_p(
            metric="overall_error",
            detail=f"schedule={'/'.join(str(t) for t in schedule.t_s)}",
            value=wrong / n,
            ci_halfwidth=wilson_halfwidth(wrong, n),
        )
        for s, t_s in enumerate(schedule.t_s, start=1):
            eligible, errs = alive[s - 1], alive[s - 1] - alive[s]
            if eligible:
                add_p(
                    metric="stage_error_conditional",
                    detail=f"stage={s};T={t_s};n={eligible}",
                    value=errs / eligible,
                    ci_halfwidth=wilson_halfwidth(errs, eligible),
                )
        add_p(metric="transmissions_hierarchical", value=float(hierarchical_transmissions(schedule)))


def _se_vs_p(cfg, plan, book, add):
    for p_idx, scene, add_p in _power_points(cfg, plan, add):
        scenarios = [
            ("benchmark", comms.comm_phase_profile(scene.cfg)),
            *((f"stage-{s}", comms.stage_phase_profile(book, s)) for s in sorted({1, book.n_stages})),  # 1 stage at D=2
            ("no-ris", None),
        ]
        # one draw for all the scenarios (common random numbers), so their differences are paired
        fading = draw_fading(aux_rng(plan.master_seed, plan.kind, p_idx, 200), (plan.trials,))
        for tag, omega in scenarios:
            est = comms._se_estimate(comms._se_samples(scene, omega, fading))
            add_p(metric="spectral_efficiency", detail=f"scenario={tag}", value=est.mean, ci_halfwidth=est.halfwidth)


def _transmission_count(cfg, plan, book, add):
    for _, scene, schedule, _, add_p in _scheduled_points(cfg, plan, book, add):
        add_p(
            metric="transmissions_hierarchical",
            detail=f"schedule={'/'.join(str(t) for t in schedule.t_s)}",
            value=float(hierarchical_transmissions(schedule)),
        )
        add_p(
            metric="transmissions_exhaustive",
            detail=f"t_per_beam={plan.t_per_beam}",
            value=float(exhaustive_transmissions(scene.cfg.grid_size, plan.t_per_beam)),
        )


def _codebook_report(cfg, plan, book, add):
    for st in mask_fidelity(book):
        detail = f"stage={st.stage};beam={st.beam};axis={st.axis}"
        add(metric="mask_on_mean", detail=detail, value=st.on_mean)
        add(metric="mask_off_mean", detail=detail, value=st.off_mean)
    for sb in book.stages:
        hpw = half_power_width(sb.w_x[: sb.l_s, 0], book.v_b.vx, book.spacing)
        add(metric="half_power_width", detail=f"stage={sb.stage};beam=1;axis=x", value=hpw)
        for i, residual in enumerate(sb.residuals, start=1):
            add(metric="design_residual", detail=f"stage={sb.stage};beam={i};axis=x", value=float(residual))


# Experiment kind -> function(cfg, plan, codebook, add_row).  The order
# numbers the kinds, and the numbers key every RNG stream: append only.
_EXPERIMENTS = {
    "stage-error-vs-P": _stage_error_vs_p,
    "snapshots-vs-P": _snapshots_vs_p,
    "overall-error-vs-P": _overall_error_vs_p,
    "se-vs-P": _se_vs_p,
    "transmission-count": _transmission_count,
    "codebook-report": _codebook_report,
}
EXPERIMENT_KINDS = tuple(_EXPERIMENTS)
_EXPERIMENT_IDS = {kind: n for n, kind in enumerate(EXPERIMENT_KINDS, start=1)}

# (field, rule, check) rows that ExperimentPlan checks when built; chained comparisons also reject nan
_PLAN_RULES = (
    ("kind", f"one of {EXPERIMENT_KINDS}", lambda x: x in EXPERIMENT_KINDS),
    (
        "power_list",
        "a non-empty tuple or list of finite real numbers",
        lambda x: isinstance(x, (tuple, list)) and len(x) > 0 and all(is_real(v) and math.isfinite(v) for v in x),
    ),
    *(
        (name, "an integer >= 1", lambda x: is_integer(x) and x >= 1)
        for name in ("trials", "parallel", "t_max", "calib_trials", "t_per_beam")
    ),
    *((name, "an integer >= 0", lambda x: is_integer(x) and x >= 0) for name in ("master_seed", "design_seed")),
    ("delta", "a real number in (0, 1)", lambda x: is_real(x) and 0 < x < 1),
    ("schedule_source", f"one of {SCHEDULE_SOURCES}", lambda x: x in SCHEDULE_SOURCES),
    *(
        (name, "unset or integer entries >= 1", lambda x: not x or all(is_integer(v) and v >= 1 for v in x))
        for name in ("snapshots", "schedule_ls")
    ),
)


def run_experiment(plan: ExperimentPlan, cfg: ScenarioConfig, cb: Codebook | None = None) -> ResultTable:
    """Execute the planned sweep and return the result table, whose config hash covers the codebook that ran."""
    book = get_codebook(cfg, plan, cb)
    table = ResultTable(config_hash=config_hash(cfg, replace(plan, schedule_ls=book.schedule), book))
    add = functools.partial(
        table.add, experiment=plan.kind, trials=plan.trials, master_seed=plan.master_seed, config_hash=table.config_hash
    )
    _EXPERIMENTS[plan.kind](cfg, plan, book, add)
    return table


def beampattern_csv(cb: Codebook, path: str):
    """Raw per-beam axis response magnitudes over the grid, at the codebook's incidence, for plotting."""
    grid = direction_grid(cb.d)
    rows = []
    for book, axis, resp in sensing_responses(cb):
        for i in range(book.n_beams_axis):
            rows += ([book.stage, axis, i + 1, j + 1, float(grid[j]), float(resp[j, i])] for j in range(cb.d))
    _write_csv(path, BEAMPATTERN_COLUMNS, rows)
