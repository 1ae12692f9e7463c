"""Hierarchical target search, the exhaustive baseline, and snapshot budgeting.

The per-beam decision statistic is the averaged de-rotated output of the
receive beamformer pointed back at the RIS.  Because every channel in the
model is rank-1, that statistic has an exact scalar form

    z_bar = gamma * g_br^2 * c * (N_b^2 sqrt(p_r/N_b)
            + N_b sqrt(p_u/N_b) * chi * u_bar) + n_bar

with c the squared two-axis RIS response of the beam toward the target,
chi the transmit-side beam cross-correlation, u_bar the average of the
de-rotated user-stream symbols, and n_bar the averaged beamformed noise
(variance N_b sigma_b^2 / T).  The engines simulate z_bar directly from
that law, which is algebraically exact; the full matrix pipeline in
:mod:`risjrc.channels` is the test-suite's oracle for it.  :func:`descend`,
the search over a block of trials, and the calibrator's
:class:`StageEnsemble` read their draws from raw words by one layout: normals
through :func:`normals_from_words`, then 64-snapshot chunks of symbol words.
Both take the snapshot means through :func:`_snapshot_means` and decide
through :func:`stage_decision`.  The search result is :func:`descend`'s
per-stage arrays, one row per trial; :func:`hierarchical_localize` returns
them for one row drawn from a generator.  The exhaustive baseline draws the
same symbol law through :func:`qpsk_product_sum` and returns its estimated cell.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    FadingDraw,
    PathGains,
    ScenarioConfig,
    complex_from_parts,
    draw_fading,
    fading_from_normals,
    normals_from_words,
    path_gains,
)
from .codebook import Codebook, StageBook
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
    noise_scale: float  # sqrt(N_b sigma_b^2), std of one beamformed noise sample


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
        noise_scale=math.sqrt(cfg.n_b * cfg.sigma_b2_watts),
    )


def trial_coefficients(scene: Scene, fading: FadingDraw) -> tuple:
    """Per-trial coherent and cross-stream coefficients; elementwise over array fading fields."""
    cfg = scene.cfg
    gamma = fading.rho * scene.gains.eta_rt**2
    g_br = fading.beta_br * scene.gains.eta_br
    common = gamma * g_br**2
    coh = common * cfg.n_b**2 * math.sqrt(cfg.p_r_watts / cfg.n_b)
    cross = common * cfg.n_b * math.sqrt(cfg.p_u_watts / cfg.n_b) * scene.chi
    return coh, cross


def decision_statistic(c, coh, cross, u_bar, n_bar):
    """|z_bar|^2 of one probed beam; broadcasts when any argument is an array."""
    return np.abs(c * (coh + cross * u_bar) + n_bar) ** 2


_CHILDREN = ((0, 0), (0, 1), (1, 0), (1, 1))  # offsets of the four children of an axis pair, in probe order
_LOW_BITS = np.array([(1 << b) - 1 for b in range(65)], dtype=np.uint64)  # _LOW_BITS[b] keeps a word's low b bits


def _symbol_sums(words: np.ndarray, t) -> np.ndarray:
    """Sums of t de-rotated QPSK symbols from raw words laid out (K, ..., 2), with K >= ceil(t/64).

    The last axis holds the real and the imaginary sign component, and word k of a component
    carries its signs 64k to 64k + 63: only its low min(64, t - 64k) bits count.  ``t`` broadcasts
    against the middle axes.
    """
    t = np.asarray(t)
    k = np.arange(len(words)).reshape((-1,) + (1,) * (words.ndim - 1))
    ones = np.bitwise_count(words & _LOW_BITS[np.clip(t[..., None] - 64 * k, 0, 64)]).sum(axis=0, dtype=np.int64)
    a, b = ones[..., 0], ones[..., 1]  # A = 2a - t and B = 2b - t
    sums = np.empty(np.broadcast_shapes(a.shape, t.shape), complex)
    sums.real, sums.imag = a + b - t, b - a
    return sums


def qpsk_product_sum(rng: np.random.Generator, t, size=()) -> np.ndarray:
    """Sum of t de-rotated user symbols s_u conj(s_r), each uniform over {1, j, -1, -j}.

    Rotated by 45 degrees, a QPSK symbol has independent random real and imaginary signs, so the
    sum is ((A + B) + j(B - A))/2 with A and B each 2 popcount(t random bits) - t: an exact
    Gaussian integer.  The bits are one (ceil(max t/64), *size, 2) block of raw 64-bit words of
    ``rng``'s bit generator (word 0 of every sum, then word 1, ...), as :func:`_symbol_sums`
    reads them.  ``t`` broadcasts against ``size``.
    """
    size, t = tuple(size), np.asarray(t)
    return _symbol_sums(rng.bit_generator.random_raw((-(-int(t.max(initial=0)) // 64), *size, 2)), t)


def qpsk_product_mean(rng: np.random.Generator, t_s, size=()) -> np.ndarray:
    """Mean of t_s de-rotated user symbols."""
    return qpsk_product_sum(rng, t_s, size) / t_s


def _snapshot_means(scene: Scene, noise_re, noise_im, words, t) -> tuple:
    """Means ``(u_bar, n_bar)`` over t snapshots per beam: the symbol sums of ``words`` (laid out as
    :func:`_symbol_sums` reads them) and the unit noise pair ``noise_re + j noise_im`` scaled to the
    sum of t beamformed noise samples, each divided by t."""
    n_sum = scene.noise_scale * complex_from_parts(noise_re, noise_im, np.sqrt(t / 2.0))
    return _symbol_sums(words, t) / t, n_sum / t


def stage_decision(scene: Scene, book: StageBook, parents, coh, cross, u_bar, n_bar) -> tuple:
    """One search stage over N trials: probe the four children of each parent axis pair.

    ``parents`` holds (N, 2) 1-based axis pairs of the previous stage ((1, 1) at stage 1), or
    one row that all trials share; ``coh``/``cross`` are (N,) trial coefficients and
    ``u_bar``/``n_bar`` (N, 4) snapshot means.  Returns the candidate pairs (one row per row of
    ``parents``, 4, 2), their statistics (N, 4), the chosen position (N,) and the chosen pair
    (N, 2); ties go to the lowest position.
    """
    pairs = 2 * parents[:, None, :] - 1 + np.array(_CHILDREN)
    gain_x, gain_y = scene.q_x @ book.w_x, scene.q_y @ book.w_y
    c = (gain_x[pairs[..., 0] - 1] * gain_y[pairs[..., 1] - 1]) ** 2
    stats = decision_statistic(c, coh[:, None], cross[:, None], u_bar, n_bar)
    chosen = np.argmax(stats, axis=1)
    return pairs, stats, chosen, np.take_along_axis(pairs, chosen[:, None, None], axis=1)[:, 0]


def _is_integer(t) -> bool:
    return isinstance(t, (int, np.integer)) and not isinstance(t, bool)


@dataclass(frozen=True)
class SnapshotSchedule:
    t_s: tuple

    def __post_init__(self):
        if not all(_is_integer(t) for t in self.t_s):
            raise ValueError(f"snapshot counts must be integers, got {self.t_s}")
        if any(t < 1 for t in self.t_s):
            raise ValueError("snapshot counts must be >= 1")


def hierarchical_transmissions(schedule: SnapshotSchedule) -> int:
    return 4 * sum(schedule.t_s)


def exhaustive_transmissions(d: int, t_per_beam: int = 1) -> int:
    return d * d * t_per_beam


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


def true_stage_pair(cell: tuple, s: int, d: int) -> tuple:
    """Stage-s axis-partition pair containing a final-grid cell."""
    return tuple(true_axis_partition(i, s, d) for i in cell)


def trial_width(schedule: SnapshotSchedule) -> int:
    """Raw 64-bit words one search trial reads: 8 + 8 stages for its normals, then 8 ceil(T_s/64)
    per stage for its symbol sums.  A multiple of 8, so every trial starts on a whole Philox counter step."""
    return 8 + 8 * len(schedule.t_s) + 8 * sum(-(-t // 64) for t in schedule.t_s)


def descend(scene: Scene, cb: Codebook, schedule: SnapshotSchedule, words) -> list:
    """The multi-stage search over an (N, W) block of raw 64-bit words, one row per trial; W is ``trial_width``.

    Every row has the same layout whatever the trial's decisions, so any subset of trials
    reproduces alone.  Its first 8 + 8 * stages words become standard normals through
    :func:`normals_from_words`: the fading as :func:`fading_from_normals` reads it, then the real
    and the imaginary parts of the (stages, 4) noise sums.  The rest holds, stage after stage, the
    words that :func:`qpsk_product_sum` would draw for that stage's four symbol sums.  A (0, W)
    block gives empty arrays.
    Returns the search result: per stage ``stage_decision``'s four arrays ``(pairs, stats, chosen, pair)``
    and ``correct``, whether each trial's chosen pair holds the true cell.
    """
    cfg = scene.cfg
    if cb.n_stages != cfg.n_stages:
        raise ValueError(f"codebook has {cb.n_stages} stages, scenario needs {cfg.n_stages}")
    if len(schedule.t_s) != cfg.n_stages:
        raise ValueError(f"schedule has {len(schedule.t_s)} entries, scenario needs {cfg.n_stages}")
    width, words = trial_width(schedule), np.asarray(words)
    if words.ndim != 2 or words.shape[1] != width:
        raise ValueError(f"trial block must have {width} words per row, got shape {words.shape}")
    n_s, t = cfg.n_stages, np.array(schedule.t_s)
    n_normals = 8 + 8 * n_s
    normals, raw = normals_from_words(words[:, :n_normals]), words[:, n_normals:]
    chunks = -(-t // 64)  # words per symbol sum and sign component, per stage
    ends = 8 * np.cumsum(chunks)

    noise_re, noise_im = np.moveaxis(normals[:, 8:].reshape(-1, 2, n_s, 4), 1, 0)
    coh, cross = trial_coefficients(scene, fading_from_normals(normals))

    cell = true_cell(cfg)
    parents = np.ones((len(coh), 2), dtype=int)  # the root, whose children are the stage-1 quadrants
    stages = []
    for s, (book, t_s, k, end) in enumerate(zip(cb.stages, t, chunks, ends), start=1):
        symbols = np.moveaxis(raw[:, end - 8 * k : end].reshape(-1, k, 4, 2), 1, 0)
        u_bar, n_bar = _snapshot_means(scene, noise_re[:, s - 1], noise_im[:, s - 1], symbols, t_s)
        decision = stage_decision(scene, book, parents, coh, cross, u_bar, n_bar)
        parents = decision[3]
        stages.append((*decision, np.all(parents == true_stage_pair(cell, s, cfg.grid_size), axis=1)))
    return stages


def hierarchical_localize(scene: Scene, cb: Codebook, schedule: SnapshotSchedule, rng: np.random.Generator) -> list:
    """One search trial: :func:`descend`'s per-stage arrays for one row, the next
    ``trial_width(schedule)`` raw words of ``rng``'s bit generator.  Row 0 of the last stage's
    chosen pair is the estimated cell, and of its correctness column the trial's success."""
    return descend(scene, cb, schedule, rng.bit_generator.random_raw((1, trial_width(schedule))))


def exhaustive_localize(scene: Scene, rng: np.random.Generator, t_per_beam: int = 1) -> tuple:
    """Scan all D x D matched pencil beams and return the 1-based cell (i, j) of the argmax statistic."""
    if not _is_integer(t_per_beam) or t_per_beam < 1:
        raise ValueError(f"t_per_beam must be an integer >= 1, got {t_per_beam!r}")
    d = scene.cfg.grid_size
    coh, cross = trial_coefficients(scene, draw_fading(rng))
    c = (np.outer(scene.corr_x, scene.corr_y)) ** 2  # D x D squared responses
    u_bar = qpsk_product_mean(rng, t_per_beam, (d, d))
    # the sum of t_per_beam unit complex Gaussian samples is one draw scaled by sqrt(t_per_beam)
    n_sum = complex_from_parts(rng.standard_normal((d, d)), rng.standard_normal((d, d)), math.sqrt(t_per_beam / 2))
    n_bar = scene.noise_scale * n_sum / t_per_beam
    stats = decision_statistic(c, coh, cross, u_bar, n_bar)
    flat = int(np.argmax(stats))
    return flat // d + 1, flat % d + 1


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


class _ChunkStore:
    """Symbol words of one ensemble in 64-snapshot chunks of shape (trials, 4, 2), chunk k the k-th
    drawn from ``bits``; every view of a :class:`StageEnsemble` reads this one store."""

    def __init__(self, bits, trials: int):
        self.bits = bits
        self.words = np.empty((0, trials, 4, 2), np.uint64)

    def first(self, k: int) -> np.ndarray:
        """Chunks 0..k-1, drawing the ones not drawn yet."""
        if (missing := k - len(self.words)) > 0:
            self.words = np.concatenate([self.words, self.bits.random_raw((missing, *self.words.shape[1:]))])
        return self.words[:k]


class StageEnsemble:
    """Vectorized isolated-stage simulator over a Monte Carlo trial batch.

    Conditions on correct ancestor decisions: the four candidates are the
    children of the true stage-(s-1) partition, decided by
    :func:`stage_decision`.  Each trial reads raw words as :func:`descend`
    does: one (trials, 16) block of normals (the fading, then one unit noise
    pair per candidate, 4 real parts then 4 imaginary parts), then symbol
    words in 64-snapshot chunks of shape (trials, 4, 2), chunk k being the
    k-th drawn after the block.  A chunk is drawn when a count first needs
    it, so the ensemble holds trials x 64 B per 64 snapshots of the largest
    count probed, and ``error_rate(t_s)`` reads chunks 0..ceil(t_s/64) - 1
    whatever counts were probed before.

    None of these draws depends on the transmit power; only the trial
    coefficients ``coh`` and ``cross`` do.  :meth:`at` gives a view of the
    same draws at another scene, such as another power point of a sweep:
    views share the noise pairs and one chunk store, so a chunk drawn
    through any view is the chunk every view reads.
    """

    def __init__(self, scene: Scene, cb: Codebook, stage: int, trials: int, rng: np.random.Generator):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        self.book = cb.stage(stage)
        self.stage, self.trials = stage, trials
        bits = rng.bit_generator
        normals = normals_from_words(bits.random_raw((trials, 16)))
        self.fading = fading_from_normals(normals)
        self.noise_re, self.noise_im = normals[:, 8:12], normals[:, 12:]
        self.chunks = _ChunkStore(bits, trials)
        self._set_scene(scene)

    def _set_scene(self, scene: Scene):
        """Set what depends on the scene: the candidates, the true child and the trial coefficients."""
        self.scene = scene
        cell, d, stage = true_cell(scene.cfg), scene.cfg.grid_size, self.stage
        self.parent = np.array([(1, 1) if stage == 1 else true_stage_pair(cell, stage - 1, d)])  # shared by all trials
        a, b = true_stage_pair(cell, stage, d)
        self.truth = _CHILDREN.index(((a - 1) % 2, (b - 1) % 2))  # the true child's probe position
        self.coh, self.cross = trial_coefficients(scene, self.fading)

    def at(self, scene: Scene) -> StageEnsemble:
        """A view of these draws at ``scene``, with its own trial coefficients."""
        view = copy.copy(self)
        view._set_scene(scene)
        return view

    def error_rate(self, t_s: int) -> float:
        """Empirical stage error probability at t_s snapshots per beam."""
        if not _is_integer(t_s) or t_s < 1:
            raise ValueError(f"snapshot count must be an integer >= 1, got {t_s!r}")
        words = self.chunks.first(-(-t_s // 64))  # the symbol chunks t_s snapshots read
        u_bar, n_bar = _snapshot_means(self.scene, self.noise_re, self.noise_im, words, t_s)
        _, _, chosen, _ = stage_decision(self.scene, self.book, self.parent, self.coh, self.cross, u_bar, n_bar)
        return float(np.mean(chosen != self.truth))


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


def calibrate_snapshots(ens: StageEnsemble, delta: float, t_max: int = 512) -> CalibrationResult:
    """Smallest snapshot count at which the ensemble's stage error is <= delta.

    Doubles the snapshot count until the target is met (every count reads
    the ensemble's one set of draws), then bisects.  Reports infeasibility
    at t_max instead of raising.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")

    t_lo, t = 0, 1  # t_lo: highest failing count
    while (err := ens.error_rate(t)) > delta:
        if t >= t_max:
            return CalibrationResult(ens.stage, delta, ens.trials, t_max, False, None, err)
        t_lo, t = t, min(2 * t, t_max)
    t_hi, err_hi = t, err
    while t_hi - t_lo > 1:
        mid = (t_lo + t_hi) // 2
        err = ens.error_rate(mid)
        if err <= delta:
            t_hi, err_hi = mid, err
        else:
            t_lo = mid
    return CalibrationResult(ens.stage, delta, ens.trials, t_max, True, t_hi, err_hi)
