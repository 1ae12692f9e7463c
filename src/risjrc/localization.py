"""Hierarchical target search, the exhaustive baseline, and snapshot budgeting.

The per-beam decision statistic is the averaged de-rotated output of the
receive beamformer pointed back at the RIS.  Because every channel in the
model is rank-1, that statistic has an exact scalar form

    z_bar = gamma * g_br^2 * c * (N_b^2 sqrt(p_r/N_b)
            + N_b sqrt(p_u/N_b) * chi * u_bar) + n_bar

with c the squared two-axis RIS response of the beam toward the target,
chi the transmit-side beam cross-correlation, u_bar the average of the
de-rotated user-stream symbols, and n_bar the averaged beamformed noise
(variance N_b sigma_b^2 / T).  The trial engines simulate z_bar directly
from that law, which is algebraically exact and keeps Monte Carlo sweeps
fast; the full matrix pipeline in :mod:`risjrc.channels` is used by the
test-suite to validate the equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    FadingDraw,
    PathGains,
    ScenarioConfig,
    complex_normal,
    draw_fading,
    path_gains,
)
from .codebook import Codebook
from .geometry import nearest_grid_index, ris_axis_steering, ula_steering


def beam_statistic(y_r: np.ndarray, s_r: np.ndarray, theta_r_deg: float) -> float:
    """Average-power statistic of one received block.

    Beamforms with conj(b(theta_r)), de-rotates by the radar symbols, and
    returns |mean|^2 over the snapshots.
    """
    b = ula_steering(theta_r_deg, y_r.shape[0])
    z = (b @ y_r) * s_r.conj()
    return float(np.abs(z.mean()) ** 2)


@dataclass
class Scene:
    """Scenario constants cached for fast per-trial statistic evaluation."""

    cfg: ScenarioConfig
    gains: PathGains
    q_x: np.ndarray  # conj(r_x(v_tx)) * r_x(v_bx), per axis element
    q_y: np.ndarray
    chi: complex  # b(theta_r)^H b(theta_u)
    corr_x: np.ndarray  # r(v_tx)^H r(v_j) over the grid, full axis aperture
    corr_y: np.ndarray


def make_scene(cfg: ScenarioConfig) -> Scene:
    n_axis = cfg.n_axis
    sp = cfg.ris_spacing
    rx_t = ris_axis_steering(cfg.v_t.vx, n_axis, sp)
    ry_t = ris_axis_steering(cfg.v_t.vy, n_axis, sp)
    rx_b = ris_axis_steering(cfg.v_b.vx, n_axis, sp)
    ry_b = ris_axis_steering(cfg.v_b.vy, n_axis, sp)
    b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
    b_u = ula_steering(cfg.theta_u_deg, cfg.n_b)
    grid = cfg.grid
    corr_x = np.array([rx_t.conj() @ ris_axis_steering(v, n_axis, sp) for v in grid])
    corr_y = np.array([ry_t.conj() @ ris_axis_steering(v, n_axis, sp) for v in grid])
    return Scene(
        cfg=cfg,
        gains=path_gains(cfg),
        q_x=rx_t.conj() * rx_b,
        q_y=ry_t.conj() * ry_b,
        chi=complex(b_r.conj() @ b_u),
        corr_x=corr_x,
        corr_y=corr_y,
    )


def trial_coefficients(scene: Scene, fading: FadingDraw) -> tuple[complex, complex]:
    """Per-trial coherent and cross-stream coefficients of the statistic."""
    cfg = scene.cfg
    gamma = fading.rho * scene.gains.eta_rt**2
    g_br = fading.beta_br * scene.gains.eta_br
    common = gamma * g_br**2
    coh = common * cfg.n_b**2 * math.sqrt(cfg.p_r_watts / cfg.n_b)
    cross = common * cfg.n_b * math.sqrt(cfg.p_u_watts / cfg.n_b) * scene.chi
    return coh, cross


def qpsk_product_mean(rng: np.random.Generator, t_s: int) -> complex:
    """Mean of T de-rotated user symbols (uniform fourth roots of unity)."""
    k = rng.integers(0, 4, size=t_s)
    return complex(np.exp(1j * k * np.pi / 2).mean())


@dataclass
class StageDecision:
    stage: int
    beam_indices: list  # 2-D beam indices of the four candidates
    statistics: list
    chosen: int  # position in the candidate list, 1..4
    t_s: int
    correct: bool  # the chosen beam contains the true cell


@dataclass
class TrialRecord:
    true_cell: tuple
    est_cell: tuple
    stages: list = field(default_factory=list)
    total_transmissions: int = 0
    success: bool = False


@dataclass(frozen=True)
class SnapshotSchedule:
    t_s: tuple
    provenance: str = "manual"  # manual | literal-rule | calibrated

    def __post_init__(self):
        if any(t < 1 for t in self.t_s):
            raise ValueError("snapshot counts must be >= 1")


def hierarchical_transmissions(schedule: SnapshotSchedule) -> int:
    return 4 * sum(schedule.t_s)


def exhaustive_transmissions(d: int, t_per_beam: int = 1) -> int:
    return d * d * t_per_beam


def stage_candidates(s: int, parent_ab: tuple | None) -> list:
    """Axis-index pairs of the four beams probed at stage s (all 1-based).

    Stage 1 probes all four quadrant beams; later stages probe the four
    children of the previously chosen axis pair.
    """
    if s == 1:
        pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    else:
        a, b = parent_ab
        pairs = [(2 * a - 1, 2 * b - 1), (2 * a - 1, 2 * b), (2 * a, 2 * b - 1), (2 * a, 2 * b)]
    return pairs


def beam_2d_index(s: int, ab: tuple) -> int:
    a, b = ab
    return (a - 1) * 2**s + b


def true_cell(cfg: ScenarioConfig) -> tuple:
    """1-based grid cell nearest to the configured target direction."""
    return (
        nearest_grid_index(cfg.v_t.vx, cfg.grid_size),
        nearest_grid_index(cfg.v_t.vy, cfg.grid_size),
    )


def true_axis_partition(cell_index: int, s: int, d: int) -> int:
    """1-based stage-s axis partition containing a final-grid cell index."""
    block = d // 2**s
    return (cell_index - 1) // block + 1


def hierarchical_localize(
    scene: Scene,
    cb: Codebook,
    schedule: SnapshotSchedule,
    rng: np.random.Generator,
    fading: FadingDraw | None = None,
) -> TrialRecord:
    """Run one multi-stage search trial and return its full trace.

    Fading and the target cross-section are drawn once per trial; symbols
    and receiver noise are redrawn for every beam transmission.  Ties in
    the argmax go to the lowest candidate position.
    """
    cfg = scene.cfg
    n_stages = cfg.n_stages
    if cb.n_stages != n_stages:
        raise ValueError(f"codebook has {cb.n_stages} stages, scenario needs {n_stages}")
    if len(schedule.t_s) != n_stages:
        raise ValueError(f"schedule has {len(schedule.t_s)} entries, scenario needs {n_stages}")
    if fading is None:
        fading = draw_fading(rng)
    coh, cross = trial_coefficients(scene, fading)
    noise_scale = math.sqrt(cfg.n_b * cfg.sigma_b2_watts)

    record = TrialRecord(true_cell=true_cell(cfg), est_cell=(0, 0))
    parent = None
    for s in range(1, n_stages + 1):
        book = cb.stage(s)
        t_s = schedule.t_s[s - 1]
        pairs = stage_candidates(s, parent)
        stats = []
        for a, b in pairs:
            a_x = scene.q_x @ book.w_x[:, a - 1]
            a_y = scene.q_y @ book.w_y[:, b - 1]
            c = (a_x * a_y) ** 2
            u_bar = qpsk_product_mean(rng, t_s)
            n_bar = noise_scale * complex(complex_normal(rng, t_s).mean())
            stats.append(float(np.abs(c * (coh + cross * u_bar) + n_bar) ** 2))
        chosen = int(np.argmax(stats))
        parent = pairs[chosen]
        truth = tuple(true_axis_partition(cell, s, cfg.grid_size) for cell in record.true_cell)
        record.stages.append(
            StageDecision(
                stage=s,
                beam_indices=[beam_2d_index(s, p) for p in pairs],
                statistics=stats,
                chosen=chosen + 1,
                t_s=t_s,
                correct=parent == truth,
            )
        )
    record.est_cell = parent
    record.total_transmissions = hierarchical_transmissions(schedule)
    record.success = record.est_cell == record.true_cell
    return record


def exhaustive_localize(scene: Scene, rng: np.random.Generator, t_per_beam: int = 1) -> TrialRecord:
    """Scan all D x D matched pencil beams and pick the argmax statistic."""
    cfg = scene.cfg
    d = cfg.grid_size
    fading = draw_fading(rng)
    coh, cross = trial_coefficients(scene, fading)
    noise_scale = math.sqrt(cfg.n_b * cfg.sigma_b2_watts)

    c = (np.outer(scene.corr_x, scene.corr_y)) ** 2  # D x D squared responses
    k = rng.integers(0, 4, size=(d, d, t_per_beam))
    u_bar = np.exp(1j * k * np.pi / 2).mean(axis=2)
    n_bar = noise_scale * complex_normal(rng, (d, d, t_per_beam)).mean(axis=2)
    stats = np.abs(c * (coh + cross * u_bar) + n_bar) ** 2
    flat = int(np.argmax(stats))
    est = (flat // d + 1, flat % d + 1)
    rec = TrialRecord(true_cell=true_cell(cfg), est_cell=est)
    rec.total_transmissions = exhaustive_transmissions(d, t_per_beam)
    rec.success = est == rec.true_cell
    return rec


@dataclass(frozen=True)
class SnapshotRule:
    """Literal evaluation of the stage power-snapshot sizing rule."""

    delta: float
    kappa: float
    ratio: float  # kappa / (1 - kappa)
    product_signed: float  # p_r * T_s as written
    physical: bool  # True when the product is positive
    t_literal: int | None
    product_magnitude: float
    t_magnitude: int


def snapshot_rule_literal(
    delta: float,
    p_r: float,
    l_s: int,
    n_b: int,
    eta_br: float,
    eta_rt: float,
    sigma_b2: float,
) -> SnapshotRule:
    """Evaluate the closed-form stage sizing rule exactly as stated.

    kappa = 2(1 - 2 delta / 3) exceeds 1 for every delta in (0, 1), so the
    signed product is negative and flagged non-physical; the magnitude
    variant |kappa/(1-kappa)| is reported alongside as a usable reading.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    kappa = 2.0 * (1.0 - 2.0 * delta / 3.0)
    ratio = kappa / (1.0 - kappa)
    base = sigma_b2 / (n_b**2 * float(l_s) ** 8 * eta_br**2 * eta_rt**2)
    product = ratio * base
    physical = product > 0
    t_literal = max(1, math.ceil(product / p_r)) if physical else None
    product_mag = abs(product)
    t_magnitude = max(1, math.ceil(product_mag / p_r))
    return SnapshotRule(
        delta=delta,
        kappa=kappa,
        ratio=ratio,
        product_signed=product,
        physical=physical,
        t_literal=t_literal,
        product_magnitude=product_mag,
        t_magnitude=t_magnitude,
    )


def overall_error_bound(delta: float, n_s: int) -> float:
    """Union bound on the final localization error probability."""
    return n_s * delta


class StageEnsemble:
    """Vectorized isolated-stage simulator over a Monte Carlo trial batch.

    Conditions on correct ancestor decisions: the four candidates are the
    children of the true stage-(s-1) partition.  Snapshot sums are
    maintained incrementally so the error rate can be evaluated at an
    increasing sequence of snapshot counts on common random draws (the
    QPSK symbol sum is drawn through multinomial counts and the noise sum
    through a single scaled Gaussian; both are exact).
    """

    def __init__(self, scene: Scene, cb: Codebook, stage: int, trials: int, rng: np.random.Generator):
        cfg = scene.cfg
        self.rng = rng
        self.trials = trials
        book = cb.stage(stage)
        cell = true_cell(cfg)
        if stage == 1:
            parent = None
        else:
            parent = (
                true_axis_partition(cell[0], stage - 1, cfg.grid_size),
                true_axis_partition(cell[1], stage - 1, cfg.grid_size),
            )
        pairs = stage_candidates(stage, parent)
        truth = (
            true_axis_partition(cell[0], stage, cfg.grid_size),
            true_axis_partition(cell[1], stage, cfg.grid_size),
        )
        self.true_pos = pairs.index(truth)
        a_x = np.array([scene.q_x @ book.w_x[:, a - 1] for a, _ in pairs])
        a_y = np.array([scene.q_y @ book.w_y[:, b - 1] for _, b in pairs])
        self.c = (a_x * a_y) ** 2  # (4,)

        fad = complex_normal(rng, (trials, 4))
        gamma = fad[:, 3] * scene.gains.eta_rt**2
        g_br = fad[:, 0] * scene.gains.eta_br
        common = gamma * g_br**2
        self.coh = common * cfg.n_b**2 * math.sqrt(cfg.p_r_watts / cfg.n_b)
        self.cross = common * cfg.n_b * math.sqrt(cfg.p_u_watts / cfg.n_b) * scene.chi
        self.noise_scale = math.sqrt(cfg.n_b * cfg.sigma_b2_watts)

        zeros = np.zeros((trials, 4), dtype=complex)
        self._checkpoints = {0: (zeros, zeros.copy())}

    def _sums_at(self, t_s: int) -> tuple:
        if t_s not in self._checkpoints:
            t0 = max(t for t in self._checkpoints if t < t_s)
            u_sum, n_sum = self._checkpoints[t0]
            dt = t_s - t0
            counts = self.rng.multinomial(dt, [0.25] * 4, size=(self.trials, 4))
            u_sum = u_sum + counts @ np.array([1.0, 1.0j, -1.0, -1.0j])
            n_sum = n_sum + math.sqrt(dt) * complex_normal(self.rng, (self.trials, 4))
            self._checkpoints[t_s] = (u_sum, n_sum)
        return self._checkpoints[t_s]

    def error_rate(self, t_s: int) -> float:
        """Empirical stage error probability at t_s snapshots per beam."""
        if t_s < 1:
            raise ValueError("snapshot count must be >= 1")
        u_sum, n_sum = self._sums_at(t_s)
        u_bar = u_sum / t_s
        n_bar = self.noise_scale * n_sum / t_s
        stats = np.abs(self.c[None, :] * (self.coh[:, None] + self.cross[:, None] * u_bar) + n_bar) ** 2
        return float(np.mean(np.argmax(stats, axis=1) != self.true_pos))


def stage_error(
    scene: Scene, cb: Codebook, stage: int, t_s: int, trials: int, rng: np.random.Generator
) -> float:
    """Isolated stage-error probability at a fixed snapshot count."""
    return StageEnsemble(scene, cb, stage, trials, rng).error_rate(t_s)


@dataclass(frozen=True)
class CalibrationResult:
    stage: int
    delta: float
    trials: int
    t_max: int
    feasible: bool
    t_s: int | None
    error_at_t: float | None


def calibrate_snapshots(
    scene: Scene,
    cb: Codebook,
    stage: int,
    delta: float,
    rng: np.random.Generator,
    trials: int = 4000,
    t_max: int = 512,
) -> CalibrationResult:
    """Smallest snapshot count whose empirical stage error is <= delta.

    Doubles the snapshot count until the target is met (sharing random
    draws across counts), then bisects.  Reports infeasibility at t_max
    instead of raising.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    ens = StageEnsemble(scene, cb, stage, trials, rng)

    t = 1
    err = ens.error_rate(t)
    if err <= delta:
        return CalibrationResult(stage, delta, trials, t_max, True, 1, err)
    t_lo = 1  # highest failing count
    t_hi = None
    while t < t_max:
        t = min(2 * t, t_max)
        err = ens.error_rate(t)
        if err <= delta:
            t_hi, err_hi = t, err
            break
        t_lo = t
    if t_hi is None:
        return CalibrationResult(stage, delta, trials, t_max, False, None, err)
    while t_hi - t_lo > 1:
        mid = (t_lo + t_hi) // 2
        err = ens.error_rate(mid)
        if err <= delta:
            t_hi, err_hi = mid, err
        else:
            t_lo = mid
    return CalibrationResult(stage, delta, trials, t_max, True, t_hi, err_hi)
