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
``tests/reference.py`` is the test-suite's oracle for it.  :func:`descend`,
the search over a block of trials, and the calibrator's
:class:`StageEnsemble` read their draws from raw words by one layout: normals
through :func:`normals_from_words`, then 64-snapshot chunks of symbol words.
Both decide through :func:`stage_decision`, in real arithmetic over the terms
of :func:`stage_terms` (c coh, c cross, the noise and its std), built once per stage
by :func:`descend` and once per (scene, stage) by the ensemble, so a probe only
counts sign bits and forms four statistics.  Its decisions, not its bits, are
those of :func:`decision_statistic`, the complex form of the law that the
exhaustive baseline uses.  The ensemble holds only draws and takes the scene
and the stage per call, so one ensemble serves every power point and stage.
The search result is :func:`descend`'s per-stage arrays, one row per trial.

A power point's :class:`Scene` holds the fading-free terms of both links: the
search's RIS products, chi and noise scale, and the user link's SE factors that
:func:`risjrc.comms._se_samples` reads.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import (
    FadingDraw,
    PathGains,
    ScenarioConfig,
    build_link_matrices,
    complex_from_parts,
    draw_fading,
    fading_from_normals,
    normals_from_words,
    path_gains,
)
from .codebook import Codebook, response_rows
from .geometry import check_count, is_integer, nearest_grid_index, ris_axis_steering, ula_steering


@dataclass
class Scene:
    """The fading-free terms of one power point, read by the target search and the user link alike."""

    cfg: ScenarioConfig
    gains: PathGains
    q_x: np.ndarray  # conj(r_x(v_tx)) * r_x(v_bx), per axis element
    q_y: np.ndarray
    chi: complex  # b(theta_r)^H b(theta_u)
    noise_scale: float  # sqrt(N_b sigma_b^2), std of one beamformed noise sample
    m_direct: np.ndarray  # 2x2 direct-path SE factor M_d
    norm_d: float  # ‖M_d‖²
    m_outer: np.ndarray  # 2x2 cascade SE factor before the RIS gain and P
    p: np.ndarray  # P, 2x2 diagonal sqrt powers
    r_u: tuple  # r_x(v_u), r_y(v_u)
    r_b: tuple  # r_x(v_b), r_y(v_b)


def make_scene(cfg: ScenarioConfig) -> Scene:
    n_axis = cfg.n_axis
    sp = cfg.ris_spacing
    rx_t = ris_axis_steering(cfg.v_t.vx, n_axis, sp)
    ry_t = ris_axis_steering(cfg.v_t.vy, n_axis, sp)
    rx_b = ris_axis_steering(cfg.v_b.vx, n_axis, sp)
    ry_b = ris_axis_steering(cfg.v_b.vy, n_axis, sp)
    b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
    b_u = ula_steering(cfg.theta_u_deg, cfg.n_b)
    link = build_link_matrices(cfg)
    m_direct = np.outer(link.c.conj().T @ ula_steering(cfg.zeta_b_deg, cfg.n_u), b_u.conj() @ link.f) @ link.p
    return Scene(
        cfg=cfg,
        gains=path_gains(cfg),
        q_x=rx_t.conj() * rx_b,
        q_y=ry_t.conj() * ry_b,
        chi=complex(b_r.conj() @ b_u),
        noise_scale=math.sqrt(cfg.n_b * cfg.sigma_b2_watts),
        m_direct=m_direct,
        norm_d=np.vdot(m_direct, m_direct).real,
        m_outer=np.outer(link.c.conj().T @ ula_steering(cfg.zeta_r_deg, cfg.n_u), b_r.conj() @ link.f),
        p=link.p,
        r_u=(ris_axis_steering(cfg.v_u.vx, n_axis, sp), ris_axis_steering(cfg.v_u.vy, n_axis, sp)),
        r_b=(rx_b, ry_b),
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


def _set_bits(words: np.ndarray, t) -> np.ndarray:
    """Set bits among the low t of runs of K words laid out (K, ...), word k holding bits 64k to 64k + 63;
    ``t`` broadcasts against ``words[0]``."""
    k = np.arange(len(words)).reshape((-1,) + (1,) * (words.ndim - 1))
    return np.bitwise_count(words & _LOW_BITS[np.clip(t - 64 * k, 0, 64)]).sum(axis=0, dtype=np.int64)


def qpsk_product_sum(rng: np.random.Generator, t, size=()) -> np.ndarray:
    """Sum of t de-rotated user symbols s_u conj(s_r), each uniform over {1, j, -1, -j}.

    Rotated by 45 degrees, a QPSK symbol has independent random real and imaginary signs, so the
    sum is ((A + B) + j(B - A))/2 with A and B each 2 popcount(t random bits) - t: an exact
    Gaussian integer.  The bits are one (ceil(max t/64), *size, 2) block of raw 64-bit words of
    ``rng``'s bit generator (word 0 of every sum, then word 1, ...; the last axis is the real and
    the imaginary sign component), as :func:`_set_bits` reads them.  ``t`` broadcasts against ``size``.
    """
    size, t = tuple(size), np.asarray(t)
    words = rng.bit_generator.random_raw((-(-int(t.max(initial=0)) // 64), *size, 2))
    a, b = np.moveaxis(_set_bits(words, t[..., None]), -1, 0)  # A = 2a - t and B = 2b - t
    sums = np.empty(np.broadcast_shapes(a.shape, t.shape), complex)
    sums.real, sums.imag = a + b - t, b - a
    return sums


def qpsk_product_mean(rng: np.random.Generator, t_s, size=()) -> np.ndarray:
    """Mean of t_s de-rotated user symbols."""
    return qpsk_product_sum(rng, t_s, size) / t_s


def stage_terms(scene: Scene, cb: Codebook, stage: int, parents, coh, cross, noise) -> tuple:
    """What :func:`stage_decision` reads besides the symbol counts: from (N, 2) 1-based parent axis pairs
    (or one row that all trials share), (N,) ``coh``/``cross`` and (2, 4, N) unit noise pairs, the candidate
    pairs (rows of ``parents``, 4, 2), a (4, 4, N) block, candidate k in row k, of the real and imaginary
    parts of c coh and c cross, the noise and the scene's noise_scale.  Callers check that ``cb`` fits the scene."""
    book = cb.stage(stage)
    pairs = 2 * parents[:, None, :] - 1 + np.array(_CHILDREN)
    gain_x, gain_y = scene.q_x @ book.w_x, scene.q_y @ book.w_y
    c = ((gain_x[pairs[..., 0] - 1] * gain_y[pairs[..., 1] - 1]) ** 2).T  # (4, rows of parents)
    c_coh, c_cross = c * coh, c * cross
    return pairs, np.stack([c_coh.real, c_coh.imag, c_cross.real, c_cross.imag]), noise, scene.noise_scale


def stage_decision(terms: tuple, ones, t: int) -> tuple:
    """One search stage over N trials: decide among the four children of each parent axis pair.

    From :func:`stage_terms`' ``terms`` and the (2, 4, N) counts (a, b) of set real and imaginary sign
    bits among t, :func:`decision_statistic` part by part: |c coh + c cross u_bar + n_bar|^2 with
    u_bar = ((a + b - t) + j(b - a))/t and n_bar = noise_scale noise sqrt(t/2)/t.  Returns the candidate
    pairs, their statistics (N, 4), the chosen position (N,) and pair (N, 2); ties go to the lowest position.
    """
    pairs, (ar, ai, br, bi), (nr, ni), noise_scale = terms
    a, b = ones
    sr, si = (a + b - t).astype(float), (b - a).astype(float)  # t u_bar; a cast: an int-float ufunc is slower
    g = noise_scale * math.sqrt(t / 2.0)  # the std of a sum of t beamformed noise samples
    zr, tmp = br * sr, bi * si  # in place from here: fresh temporaries cost as much as the arithmetic
    zr -= tmp
    zr += np.multiply(nr, g, out=tmp)
    zr *= 1.0 / t
    zr += ar
    zi = np.multiply(bi, sr, out=sr)  # sr and si are spent once zi has them
    zi += np.multiply(br, si, out=si)
    zi += np.multiply(ni, g, out=tmp)
    zi *= 1.0 / t
    zi += ai
    stats = np.add(np.square(zr, out=zr), np.square(zi, out=zi), out=zr)  # (4, N)
    best = np.maximum(stats[0], stats[1]), np.maximum(stats[2], stats[3])
    chosen = np.where(best[1] > best[0], 2 + (stats[3] > stats[2]), stats[1] > stats[0])  # first maximum
    return pairs, stats.T, chosen, np.take(pairs.reshape(-1, 2), 4 * np.arange(len(pairs)) + chosen, axis=0)


@dataclass(frozen=True)
class SnapshotSchedule:
    t_s: tuple

    def __post_init__(self):
        if not isinstance(self.t_s, Sequence) or not all(is_integer(t) for t in self.t_s):
            raise ValueError(f"snapshot counts must be integers in a sequence, got {self.t_s!r}")
        object.__setattr__(self, "t_s", tuple(self.t_s))  # a list would compare and hash apart from its tuple
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
    and ``correct``, whether each trial's chosen pair holds the true cell.  ``cb`` must fit the scene.
    """
    cfg = scene.cfg
    cb.check_fits(cfg)
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

    noise = normals[:, 8:].reshape(-1, 2, n_s, 4).transpose(2, 1, 3, 0)  # (stages, 2, 4, N)
    coh, cross = trial_coefficients(scene, fading_from_normals(normals))

    cell = true_cell(cfg)
    parents = np.ones((len(coh), 2), dtype=int)  # the root, whose children are the stage-1 quadrants
    stages = []
    for s, (t_s, k, end) in enumerate(zip(t, chunks, ends), start=1):
        ones = _set_bits(raw[:, end - 8 * k : end].reshape(-1, k, 4, 2).transpose(1, 3, 2, 0), t_s)  # (2, 4, N)
        decision = stage_decision(stage_terms(scene, cb, s, parents, coh, cross, noise[s - 1]), ones, t_s)
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
    if not is_integer(t_per_beam) or t_per_beam < 1:
        raise ValueError(f"t_per_beam must be an integer >= 1, got {t_per_beam!r}")
    cfg = scene.cfg
    d = cfg.grid_size
    coh, cross = trial_coefficients(scene, draw_fading(rng))
    # row j of conj(response_rows(v_b)) is the matched beam toward cell j, so its gain is that row @ q, as in the search
    gain_x, gain_y = (
        response_rows(cfg.n_axis, v_b, cfg.grid, cfg.ris_spacing).conj() @ q
        for v_b, q in ((cfg.v_b.vx, scene.q_x), (cfg.v_b.vy, scene.q_y))
    )
    c = np.outer(gain_x, gain_y) ** 2  # D x D squared responses
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


class StageEnsemble:
    """Vectorized isolated-stage simulator over a Monte Carlo trial batch.

    Conditions on correct ancestor decisions: the four candidates are the children of the true
    stage-(s-1) partition, decided by :func:`stage_decision`.  Each trial reads raw words as
    :func:`descend` does: one (trials, 16) block of normals (the fading, then one unit noise pair per
    candidate, 4 real parts then 4 imaginary parts), then symbol words in 64-snapshot chunks of shape
    (trials, 4, 2), chunk k being the k-th drawn after the block.  A chunk is drawn when a count first
    needs it and kept as (2, 4, trials) words beside their set-bit counts, so the ensemble holds
    trials x 72 B per 64 snapshots of the largest count probed, and ``error_rate(scene, stage, t_s)``
    reads chunks 0..ceil(t_s/64) - 1 whatever was probed before.

    None of these draws depends on the scene or the stage, so one ensemble serves every (power point,
    stage) pair of a sweep: both are arguments of :meth:`error_rate`, which builds the trial
    coefficients once per scene and its :func:`stage_terms` once per (scene, stage), so that a probe
    only masks and counts its last chunk, adds the counts before it and decides.
    """

    def __init__(self, cb: Codebook, trials: int, rng: np.random.Generator):
        check_count("trials", trials)
        self.cb, self.trials = cb, trials
        self.bits = rng.bit_generator
        normals = normals_from_words(self.bits.random_raw((trials, 16)))
        self.fading = fading_from_normals(normals)
        self.noise = normals[:, 8:].reshape(trials, 2, 4).transpose(1, 2, 0).copy()  # (2, 4, trials)
        self.words = np.empty((0, 2, 4, trials), np.uint64)  # the symbol chunks drawn so far, (2, 4, trials) each
        self.counts = np.empty((0, 2, 4, trials), np.uint8)  # the set bits of each whole chunk
        self.scene = self.stage = None  # the scene and stage that error_rate last built terms and truth for

    def error_rate(self, scene: Scene, stage: int, t_s: int) -> float:
        """Empirical error probability of ``stage`` at ``scene`` and t_s snapshots per beam."""
        if not is_integer(t_s) or t_s < 1:
            raise ValueError(f"snapshot count must be an integer >= 1, got {t_s!r}")
        if scene is not self.scene or stage != self.stage:
            self.cb.check_fits(scene.cfg)  # rejects a codebook designed for another scenario
            self.cb.stage(stage)  # and a stage out of range
            self.stage = self.terms = None  # the last terms go before the next are built
            if scene is not self.scene:
                self.coefficients, self.scene = trial_coefficients(scene, self.fading), scene
            cell, d = true_cell(scene.cfg), self.cb.d
            parent = np.array([(1, 1) if stage == 1 else true_stage_pair(cell, stage - 1, d)])  # shared by all trials
            self.terms = stage_terms(scene, self.cb, stage, parent, *self.coefficients, self.noise)
            a, b = true_stage_pair(cell, stage, d)
            self.truth, self.stage = _CHILDREN.index(((a - 1) % 2, (b - 1) % 2)), stage  # the true child's position
        k = -(-t_s // 64)  # the symbol chunks t_s snapshots read
        if (missing := k - len(self.words)) > 0:
            new = self.bits.random_raw((missing, self.trials, 4, 2)).transpose(0, 3, 2, 1)
            self.words = np.concatenate([self.words, new])
            self.counts = np.concatenate([self.counts, np.bitwise_count(new)])
        last = np.bitwise_count(self.words[k - 1] & _LOW_BITS[t_s - 64 * (k - 1)])  # its low t_s - 64(k - 1) bits
        ones = self.counts[: k - 1].sum(axis=0, dtype=np.int32) + last
        _, _, chosen, _ = stage_decision(self.terms, ones, t_s)
        return np.count_nonzero(chosen != self.truth) / self.trials


def stage_error(
    scene: Scene, cb: Codebook, stage: int, t_s: int, trials: int, rng: np.random.Generator
) -> float:
    """Isolated stage-error probability at a fixed snapshot count."""
    return StageEnsemble(cb, trials, rng).error_rate(scene, stage, t_s)


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
    ens: StageEnsemble, scene: Scene, stage: int, delta: float, t_max: int = 512
) -> CalibrationResult:
    """Smallest snapshot count at which the ensemble's error of ``stage`` at ``scene`` is <= delta.

    Doubles the snapshot count until the target is met (every count reads
    the ensemble's one set of draws, which every scene and stage share), then
    bisects.  Reports infeasibility at t_max instead of raising.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    check_count("t_max", t_max)

    t_lo, t = 0, 1  # t_lo: highest failing count
    while (err := ens.error_rate(scene, stage, t)) > delta:
        if t >= t_max:
            return CalibrationResult(stage, delta, ens.trials, t_max, False, None, err)
        t_lo, t = t, min(2 * t, t_max)
    t_hi, err_hi = t, err
    while t_hi - t_lo > 1:
        mid = (t_lo + t_hi) // 2
        err = ens.error_rate(scene, stage, mid)
        if err <= delta:
            t_hi, err_hi = mid, err
        else:
            t_lo = mid
    return CalibrationResult(stage, delta, ens.trials, t_max, True, t_hi, err_hi)
