import csv
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from risjrc.channels import (
    FadingDraw,
    PhaseProfile,
    complex_normal,
    draw_fading,
    path_gains,
)
from risjrc import localization
from risjrc.comms import average_se
from risjrc.geometry import DirectionCosine, direction_grid, ris_axis_steering, ula_steering
from risjrc.harness import trial_trace_csv
from risjrc.localization import (
    SnapshotSchedule,
    StageEnsemble,
    calibrate_snapshots,
    candidate_statistics,
    descend,
    exhaustive_localize,
    exhaustive_transmissions,
    hierarchical_localize,
    hierarchical_transmissions,
    make_scene,
    qpsk_product_sum,
    snapshot_rule_literal,
    stage_decision,
    stage_error,
    trial_coefficients,
    trial_width,
    true_axis_partition,
    true_cell,
    true_stage_pair,
)

from conftest import desk_cfg, tiny_cfg
from reference import (
    beam_statistic,
    build_channels,
    build_matched_codebook,
    decision_statistic,
    make_transmit_block,
    overall_error_bound,
    radar_receive,
)


def _scalar_normals(words) -> list:
    """Box-Muller on word pairs with scalar math: the law of ``channels.normals_from_words``."""
    u = [((int(w) >> 11) + 0.5) * 2.0**-53 for w in words]
    normals = []
    for u_r, u_a in zip(u[0::2], u[1::2]):
        radius, angle = math.sqrt(-2.0 * math.log(u_r)), 2.0 * math.pi * u_a
        normals += [radius * math.cos(angle), radius * math.sin(angle)]
    return normals


def _scalar_symbol_sum(words, t) -> complex:
    """Sum of t de-rotated QPSK symbols from its (real, imaginary) sign words, one pair per 64 snapshots."""
    ones = [0, 0]
    for k, pair in enumerate(words):
        bits = min(64, t - 64 * k)
        for c, w in enumerate(pair):
            ones[c] += bin(int(w) & ((1 << bits) - 1)).count("1")
    a, b = (2 * n - t for n in ones)
    return complex(a + b, b - a) / 2


def _children(parent) -> list:
    """The four axis pairs probed under ``parent`` ((1, 1), the root, at stage 1), in probe order."""
    a, b = parent
    return [(2 * a - 1 + i, 2 * b - 1 + j) for i in (0, 1) for j in (0, 1)]


def reference_localize(scene, cb, schedule, row):
    """The per-candidate scalar search loop that the batched descent replaced, kept as its oracle.

    Reads one trial's word row by the layout ``descend`` documents (8 + 8 stages words of normals,
    then per stage ceil(T_s/64) chunks of (4 candidates, 2 sign components) words) with scalar
    Box-Muller and popcounts, and evaluates each candidate with scalar arithmetic.
    Returns the chosen axis pair and the four statistics of every stage.
    """
    cfg = scene.cfg
    n_s = cfg.n_stages
    z = _scalar_normals(row[: 8 + 8 * n_s])
    fading = FadingDraw(*(complex(z[i], z[4 + i]) / math.sqrt(2.0) for i in range(4)))
    noise_re, noise_im = z[8 : 8 + 4 * n_s], z[8 + 4 * n_s :]
    coh, cross = trial_coefficients(scene, fading)
    start = 8 + 8 * n_s
    parent, chosen, statistics = (1, 1), [], []
    for s in range(1, n_s + 1):
        t = schedule.t_s[s - 1]
        chunks = -(-t // 64)
        stage_words = row[start : start + 8 * chunks]
        start += 8 * chunks
        book = cb.stage(s)
        pairs = _children(parent)
        stats = []
        for k, (a, b) in enumerate(pairs):
            c = ((scene.q_x @ book.w_x[:, a - 1]) * (scene.q_y @ book.w_y[:, b - 1])) ** 2
            u = _scalar_symbol_sum([stage_words[8 * j + 2 * k : 8 * j + 2 * k + 2] for j in range(chunks)], t) / t
            i = 4 * (s - 1) + k
            n = scene.noise_scale * complex(noise_re[i], noise_im[i]) * math.sqrt(t / 2.0) / t
            stats.append(float(decision_statistic(c, coh, cross, u, n)))
        parent = pairs[int(np.argmax(stats))]
        chosen.append(parent)
        statistics.append(stats)
    return chosen, statistics


@functools.cache
def matched_desk_codebook():
    return build_matched_codebook(desk_cfg())


@functools.cache
def desk_scene(power_dbm):
    return make_scene(desk_cfg(power_dbm))


class TestDescent:
    @settings(max_examples=25, deadline=None)
    @given(
        power=st.floats(33.0, 50.0),
        schedule=st.lists(st.integers(1, 150), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        designed=st.booleans(),
    )
    def test_matches_scalar_reference_on_equal_draws(self, desk_codebook, power, schedule, seed, designed):
        cb = desk_codebook if designed else matched_desk_codebook()
        scene = make_scene(desk_cfg(power))
        sched = SnapshotSchedule(tuple(schedule))
        words = np.random.default_rng(seed).bit_generator.random_raw((8, trial_width(sched)))
        stages = descend(scene, cb, sched, words)
        for k in range(8):
            chosen, statistics = reference_localize(scene, cb, sched, words[k])
            for s, (_, stats, _, pair, _) in enumerate(stages):
                assert tuple(pair[k].tolist()) == chosen[s]
                np.testing.assert_allclose(stats[k], statistics[s], rtol=1e-12, atol=0)

    def test_any_subset_of_trials_reproduces_alone(self, desk_codebook):
        # a block of trials is a Philox counter range: trial k alone starts k rows in
        scene = make_scene(desk_cfg(39.0))
        sched = SnapshotSchedule((5, 2, 100, 1))
        width = trial_width(sched)
        batch = descend(scene, desk_codebook, sched, np.random.Philox(key=7).random_raw((12, width)))
        for k in (0, 5, 11):
            counter = [k * width // 4, 0, 0, 0]
            words = np.random.Philox(key=7, counter=counter).random_raw((1, width))
            alone = descend(scene, desk_codebook, sched, words)
            rng = np.random.Generator(np.random.Philox(key=7, counter=counter))
            drawn = hierarchical_localize(scene, desk_codebook, sched, rng)
            for one in (alone, drawn):
                for in_batch, by_itself in zip(batch, one, strict=True):
                    for x, y in zip(in_batch, by_itself, strict=True):
                        np.testing.assert_array_equal(x[k], y[0])

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_a_wrong_stage_is_never_righted(self, desk_codebook, seed):
        # the children of a wrong pair never hold the true cell, so each trial's correct columns run True, then
        # False: the overall-error sweep counts the trials right up to stage s as column s's True entries
        scene = make_scene(desk_cfg(20.0))  # about 2/3 of the trials fail at stage 1, and a few at each later stage
        sched = SnapshotSchedule((1, 1, 1, 1))
        words = np.random.Philox(key=seed).random_raw((2000, trial_width(sched)))
        correct = np.stack([c for *_, c in descend(scene, desk_codebook, sched, words)], axis=1)
        assert not np.any(correct[:, 1:] & ~correct[:, :-1])
        lost = np.count_nonzero(correct[:, :-1] & ~correct[:, 1:], axis=0)  # trials first wrong at stages 2-4
        assert np.all(lost > 0) and 0 < np.count_nonzero(~correct[:, 0]) < len(correct)

    def test_zero_trials_give_empty_stages(self, desk_codebook):
        sched = SnapshotSchedule((3, 1, 1, 1))
        stages = descend(make_scene(desk_cfg()), desk_codebook, sched, np.zeros((0, trial_width(sched)), np.uint64))
        assert len(stages) == 4
        for pairs, stats, chosen, pair, correct in stages:
            assert (pairs.shape, stats.shape, chosen.shape, pair.shape, correct.shape) == (
                (0, 4, 2), (0, 4), (0,), (0, 2), (0,)
            )

    def test_ties_go_to_the_lowest_position(self):
        # statistics from the noise alone (no signal terms, a noise std of 1, T = 2), with ties: the first
        # maximum wins, as np.argmax picks it
        noise = np.array([[1, 1, 1, 1], [0, 2, 2, 1], [0, 1, 2, -2], [3, 0, 0, -3], [0, 0, -1, 1], [2, -2, 2, -2]]).T
        terms = (np.ones((1, 4, 2), int), np.zeros((4, 4, 6)), np.stack([noise, 0 * noise]).astype(float), 1.0)
        _, stats, chosen, _ = stage_decision(terms, np.zeros((2, 4, 6), int), 2)
        np.testing.assert_array_equal(chosen, np.argmax(stats, axis=1))
        np.testing.assert_array_equal(chosen, [0, 1, 2, 0, 2, 0])

    @pytest.mark.parametrize("shape", [(3, 71), (3, 73), (72,), (0,)])
    def test_block_of_wrong_width_rejected(self, desk_codebook, shape):
        sched = SnapshotSchedule((63, 3, 1, 1))
        assert trial_width(sched) == 72
        with pytest.raises(ValueError, match=rf"72 words per row, got shape \({shape[0]},"):
            descend(make_scene(desk_cfg()), desk_codebook, sched, np.zeros(shape, np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_symbol_sums_are_reachable_gaussian_integers(self, t, seed):
        # a sum of t fourth roots of unity: integer parts, |re| + |im| <= t, re + im = t mod 2;
        # per-row counts broadcast against the size
        t = np.array([[t], [t + 70]])
        u = qpsk_product_sum(np.random.default_rng(seed), t, (2, 50))
        re, im = u.real.astype(int), u.imag.astype(int)
        np.testing.assert_array_equal(u, re + 1j * im)
        assert np.all(np.abs(re) + np.abs(im) <= t)
        assert np.all((re + im - t) % 2 == 0)


class TestSignSumLaw:
    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    def test_word_sums_equal_explicit_symbol_sums(self, t, seed):
        # rebuild each symbol from the same raw words: bit i of a sum's real and imaginary words are
        # the signs (a, b) of its symbol i, which is ((a + b) + j(b - a))/2 (word i // 64, bit i % 64)
        size = (3,)
        u = qpsk_product_sum(np.random.default_rng(seed), t, size)
        words = np.random.default_rng(seed).bit_generator.random_raw((-(-t // 64), *size, 2))
        for e in range(size[0]):
            total = 0
            for i in range(t):
                a, b = (1 if int(words[i // 64, e, c]) >> (i % 64) & 1 else -1 for c in (0, 1))
                total += complex(a + b, b - a) / 2
            assert u[e] == total

    def test_single_symbols_are_uniform_over_the_roots(self):
        u = qpsk_product_sum(np.random.default_rng(0), 1, (200_000,))
        for root in (1, 1j, -1, -1j):
            assert np.mean(u == root) == pytest.approx(0.25, abs=4 * math.sqrt(0.25 * 0.75 / 200_000))


class TestBeamStatistic:
    def test_zero_input(self):
        assert beam_statistic(np.zeros((8, 5), complex), np.ones(5, complex), 45.0) == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        s_r = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        rot = np.exp(1j * 1.234)
        a = beam_statistic(y, s_r, 45.0)
        b = beam_statistic(y * rot, s_r * rot, 45.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_noiseless_closed_form_against_pipeline(self):
        # single-stream transmit makes the statistic a pure coherent term
        cfg = tiny_cfg(radar_share=1.0, power=10 * math.log10(4.0) + 30)
        rng = np.random.default_rng(1)
        fad = draw_fading(rng)
        cs = build_channels(cfg, fad)
        cb = build_matched_codebook(cfg)
        book = cb.stage(1)
        omega = PhaseProfile(book.w_x[:, 0], book.w_y[:, 0])
        x = make_transmit_block(cfg, 9, rng)
        y = radar_receive(x, omega, cfg.v_t, cs.gamma, cs, cfg, 0.0, rng)
        stat_pipeline = beam_statistic(y, x.s_r, cfg.theta_r_deg)

        scene = make_scene(cfg)
        coh, _ = trial_coefficients(scene, fad)
        a_x = scene.q_x @ book.w_x[:, 0]
        a_y = scene.q_y @ book.w_y[:, 0]
        stat_engine = abs((a_x * a_y) ** 2 * coh) ** 2
        assert stat_pipeline == pytest.approx(stat_engine, rel=1e-9)


class TestEngineLaw:
    @settings(max_examples=40, deadline=None)
    @given(
        power=st.floats(20.0, 60.0),
        t_s=st.integers(1, 16),
        stage=st.integers(1, 3),
        beam=st.integers(0, 63),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_statistic_matches_pipeline_with_noise_and_both_streams(self, power, t_s, stage, beam, seed):
        # the scalar law, fed the same symbols and the same noise matrix as the
        # receive pipeline: u_bar = mean(s_u conj(s_r)), n_bar = mean((b_r @ noise) conj(s_r))
        cfg = tiny_cfg(power)
        cb = build_matched_codebook(cfg)
        book = cb.stage(stage)
        a, b = divmod(beam % 4**stage, 2**stage)
        rng = np.random.default_rng(seed)
        fad = draw_fading(rng)
        cs = build_channels(cfg, fad)
        x = make_transmit_block(cfg, t_s, rng)
        omega = PhaseProfile(book.w_x[:, a], book.w_y[:, b])
        sigma_b2 = cfg.sigma_b2_watts
        y = radar_receive(x, omega, cfg.v_t, cs.gamma, cs, cfg, sigma_b2, np.random.default_rng(seed + 1))
        noise = np.sqrt(sigma_b2) * complex_normal(np.random.default_rng(seed + 1), (cfg.n_b, t_s))
        stat_pipeline = beam_statistic(y, x.s_r, cfg.theta_r_deg)

        scene = make_scene(cfg)
        coh, cross = trial_coefficients(scene, fad)
        c = ((scene.q_x @ book.w_x[:, a]) * (scene.q_y @ book.w_y[:, b])) ** 2
        u_bar = np.mean(x.s_u * x.s_r.conj())
        n_bar = np.mean((ula_steering(cfg.theta_r_deg, cfg.n_b) @ noise) * x.s_r.conj())
        stat_engine = decision_statistic(c, coh, cross, u_bar, n_bar)
        scale = (abs(c * (coh + cross * u_bar)) + abs(n_bar)) ** 2
        assert abs(stat_pipeline - stat_engine) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(t_s=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_symbol_products_are_fourth_roots_of_unity(self, t_s, seed):
        # the de-rotated product s_u conj(s_r) of two QPSK symbols is one of
        # 1, j, -1, -j: the law the engines sample as sums of independent random signs
        x = make_transmit_block(tiny_cfg(), t_s, np.random.default_rng(seed))
        products = x.s_u * x.s_r.conj()
        roots = np.array([1.0, 1.0j, -1.0, -1.0j])
        assert np.all(np.min(np.abs(products[:, None] - roots), axis=1) <= 1e-15)


_FADING = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)


class TestCoefficientLaw:
    @settings(max_examples=40, deadline=None)
    @given(
        draws=arrays(np.complex128, st.tuples(st.integers(1, 16), st.just(4)), elements=_FADING),
        power=st.floats(20.0, 60.0),
    )
    def test_batch_matches_per_trial_calls(self, draws, power):
        # one law for both shapes: a batch equals its trials drawn one at a
        # time bit for bit, and the scalar calls up to rounding, because
        # numpy's array complex multiply may round differently from the scalar one
        scene = make_scene(tiny_cfg(power))
        coh, cross = trial_coefficients(scene, FadingDraw(*draws.T))
        singles = [trial_coefficients(scene, FadingDraw(*row[:, None])) for row in draws]
        np.testing.assert_array_equal(coh, np.concatenate([c for c, _ in singles]))
        np.testing.assert_array_equal(cross, np.concatenate([x for _, x in singles]))
        scalars = [trial_coefficients(scene, FadingDraw(*row)) for row in draws]
        tol = 16 * np.finfo(float).eps
        np.testing.assert_allclose(coh, [c for c, _ in scalars], rtol=tol, atol=0)
        np.testing.assert_allclose(cross, [x for _, x in scalars], rtol=tol, atol=0)


class TestDescentIndexing:
    @staticmethod
    def trace_beams(tmp_path) -> list:
        """The trace's ``beam_indices`` column for a hand-built two-stage trial that picks (2, 1) at stage 1."""
        stages = []
        for parent, chosen in (((1, 1), 2), ((2, 1), 0)):
            pairs = np.array([_children(parent)])
            stages.append((pairs, np.zeros((1, 4)), np.array([chosen]), pairs[:, chosen], np.array([True])))
        trial_trace_csv(stages, SnapshotSchedule((1, 1)), str(tmp_path / "trace.csv"), 42.0, 1)
        with open(tmp_path / "trace.csv", newline="") as f:
            return [row["beam_indices"] for row in csv.DictReader(f)]

    def test_child_set_of_third_quadrant(self, tmp_path):
        assert self.trace_beams(tmp_path)[1] == "9;10;13;14"

    def test_stage_one_candidates(self, tmp_path):
        assert self.trace_beams(tmp_path)[0] == "1;2;3;4"

    def test_axis_partition_of_cell(self):
        assert true_axis_partition(7, 1, 16) == 1
        assert true_axis_partition(9, 1, 16) == 2
        assert true_axis_partition(7, 4, 16) == 7


class TestNoiselessOracle:
    def test_all_cells_small_grid(self):
        # brute-force every on-grid target on a small instance
        d = 8
        grid = direction_grid(d)
        base = desk_cfg(n_ris=256, grid_size=d, sigma_b2_dbm=-math.inf)
        cb = build_matched_codebook(base)
        sched = SnapshotSchedule((1,) * base.n_stages)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                cfg = desk_cfg(
                    n_ris=256,
                    grid_size=d,
                    sigma_b2_dbm=-math.inf,
                    v_t=DirectionCosine(grid[i - 1], grid[j - 1]),
                )
                scene = make_scene(cfg)
                *_, pair, correct = hierarchical_localize(scene, cb, sched, np.random.default_rng(1))[-1]
                assert tuple(pair[0].tolist()) == (i, j)
                assert correct[0]
                assert exhaustive_localize(scene, np.random.default_rng(2)) == (i, j)

    def test_descent_consistency(self):
        cfg = desk_cfg()
        cb = build_matched_codebook(cfg)
        sched = SnapshotSchedule((2,) * cfg.n_stages)
        scene = make_scene(cfg)
        for seed in range(20):
            prev = (1, 1)  # the root, parent of the stage-1 quadrants
            for pairs, _, chosen, pair, _ in hierarchical_localize(scene, cb, sched, np.random.default_rng(seed)):
                a, b = pairs[0, chosen[0]].tolist()
                assert pair[0].tolist() == [a, b]
                assert ((a + 1) // 2, (b + 1) // 2) == prev
                prev = (a, b)


def reference_exhaustive(scene, words, t) -> tuple:
    """The first-maximum cell of ``decision_statistic`` over all D x D matched pencil beams, read from one row of
    words by the layout ``exhaustive_localize`` documents, with scalar Box-Muller and popcounts."""
    cfg = scene.cfg
    d = cfg.grid_size
    n = 8 + 2 * d * d
    z = _scalar_normals(words[:n])
    coh, cross = trial_coefficients(scene, FadingDraw(*(complex(z[i], z[4 + i]) / math.sqrt(2.0) for i in range(4))))
    # the matched beam toward v_j gains r(v_t)^H r(v_j) on each axis
    steer = functools.partial(ris_axis_steering, n_axis=cfg.n_axis, spacing_wavelengths=cfg.ris_spacing)
    gains = [steer(v_t).conj() @ steer(cfg.grid).T for v_t in (cfg.v_t.vx, cfg.v_t.vy)]
    stats = []
    for m in range(d * d):
        c = (gains[0][m // d] * gains[1][m % d]) ** 2
        u = _scalar_symbol_sum([words[n + 2 * (d * d * k + m) :][:2] for k in range(-(-t // 64))], t) / t
        noise = scene.noise_scale * complex(z[8 + m], z[8 + d * d + m]) * math.sqrt(t / 2.0) / t
        stats.append(float(decision_statistic(c, coh, cross, u, noise)))
    return divmod(int(np.argmax(stats)), d)


class TestExhaustiveScan:
    @pytest.mark.parametrize("d", [8, 16])
    @pytest.mark.parametrize("t", [1, 5, 70])
    @pytest.mark.parametrize("power", [-20.0, -10.0, 0.0])
    def test_decides_like_the_complex_law_on_equal_words(self, d, t, power):
        # at these powers the scan misses the true cell in up to 4 trials of 5, so the decisions test the noise
        scene = make_scene(desk_cfg(power, grid_size=d))
        width = 8 + 2 * d * d * (1 + -(-t // 64))
        for seed in range(8):
            row = np.random.default_rng(seed).bit_generator.random_raw(width)
            i, j = reference_exhaustive(scene, row, t)
            assert exhaustive_localize(scene, np.random.default_rng(seed), t) == (i + 1, j + 1)

    @pytest.mark.parametrize("t, chunks", [(64, 1), (65, 2)])
    def test_reads_a_fixed_number_of_words(self, t, chunks):
        d = 8
        rng, fresh = np.random.default_rng(3), np.random.default_rng(3)
        exhaustive_localize(make_scene(desk_cfg(grid_size=d)), rng, t)
        fresh.bit_generator.random_raw(8 + 2 * d * d * (1 + chunks))
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_reads_the_fading_of_the_search(self, desk_codebook, monkeypatch):
        fadings = []

        def recording(scene, fading):
            fadings.append(fading)
            return trial_coefficients(scene, fading)

        monkeypatch.setattr(localization, "trial_coefficients", recording)
        scene, sched = make_scene(desk_cfg()), SnapshotSchedule((3, 1, 1, 1))
        for seed in range(3):
            hierarchical_localize(scene, desk_codebook, sched, np.random.default_rng(seed))
            exhaustive_localize(scene, np.random.default_rng(seed), 5)
        assert len(fadings) == 6
        for search, scan in zip(fadings[0::2], fadings[1::2]):
            assert [f[0] for f in vars(search).values()] == list(vars(scan).values())


class TestCandidateStatistics:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 40).filter(lambda k: k != 4),
        n=st.integers(1, 30),
        t=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_complex_law(self, k, n, t, seed):
        rng = np.random.default_rng(seed)
        c_coh, c_cross = (complex_normal(rng, (k, n)) * 10.0 ** rng.uniform(-3, 3, (k, n)) for _ in range(2))
        block = np.stack([c_coh.real, c_coh.imag, c_cross.real, c_cross.imag])
        noise, ones = rng.standard_normal((2, k, n)), rng.integers(0, t + 1, (2, k, n))
        noise_scale = 10.0 ** rng.uniform(-3, 3)
        inputs = [x.copy() for x in (block, noise, ones)]
        got = candidate_statistics(block, noise, noise_scale, ones, t)
        for before, after in zip(inputs, (block, noise, ones)):
            np.testing.assert_array_equal(before, after)  # the inputs are read, not overwritten
        u_bar = ((ones[0] + ones[1] - t) + 1j * (ones[1] - ones[0])) / t
        n_bar = noise_scale * (noise[0] + 1j * noise[1]) * math.sqrt(t / 2.0) / t
        expected = decision_statistic(1.0, c_coh, c_cross, u_bar, n_bar)
        scale = (np.abs(c_coh) + np.abs(c_cross * u_bar) + np.abs(n_bar)) ** 2
        assert got.shape == (k, n)
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)


class TestTransmissionAccounting:
    def test_schedule_totals(self):
        sched = SnapshotSchedule((36, 1, 1, 1, 1))
        assert hierarchical_transmissions(sched) == 160

    def test_exhaustive_totals(self):
        assert exhaustive_transmissions(32, 1) == 1024
        assert exhaustive_transmissions(16, 1) == 256


class TestSnapshotRule:
    def test_kappa_value(self):
        rule = snapshot_rule_literal(0.05, 1.0, 4, 64, 1e-3, 1e-3, 1e-12)
        assert rule.kappa == pytest.approx(29 / 15, abs=1e-12)
        assert rule.kappa == pytest.approx(1.9333, abs=1e-4)

    def test_literal_product_flagged_negative(self):
        rule = snapshot_rule_literal(0.05, 1.0, 4, 64, 1e-3, 1e-3, 1e-12)
        assert rule.ratio == pytest.approx(-29 / 14, abs=1e-12)
        assert rule.product_signed < 0
        assert not rule.physical
        assert rule.t_literal is None

    def test_magnitude_variant_scales_as_inverse_eighth_power(self):
        a = snapshot_rule_literal(0.05, 1e-9, 4, 64, 1e-3, 1e-3, 1e-12)
        b = snapshot_rule_literal(0.05, 1e-9, 8, 64, 1e-3, 1e-3, 1e-12)
        assert a.product_magnitude / b.product_magnitude == pytest.approx(256.0, rel=1e-12)
        assert a.t_magnitude == math.ceil(a.product_magnitude / 1e-9)

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            snapshot_rule_literal(0.0, 1.0, 4, 64, 1e-3, 1e-3, 1e-12)
        with pytest.raises(ValueError):
            snapshot_rule_literal(1.0, 1.0, 4, 64, 1e-3, 1e-3, 1e-12)

    @pytest.mark.parametrize(
        "name, value",
        # each used to raise ZeroDivisionError, or (p_r < 0, sigma_b2 < 0) to return a count
        [("delta", 0.75), ("p_r", 0.0), ("p_r", -1e-9), ("l_s", 0), ("n_b", 0), ("eta_br", 0.0), ("eta_rt", 0.0),
         ("sigma_b2", -1e-12)],
    )
    def test_invalid_argument_is_named(self, name, value):
        args = dict(delta=0.05, p_r=1e-9, l_s=4, n_b=64, eta_br=1.78e-3, eta_rt=3.32e-3, sigma_b2=4e-13)
        with pytest.raises(ValueError, match=rf"^{name} must"):
            snapshot_rule_literal(**{**args, name: value})

    def test_above_three_quarters_the_product_is_physical(self):
        rule = snapshot_rule_literal(0.9, 1e-9, 4, 64, 1e-3, 1e-3, 1e-12)
        assert rule.kappa == pytest.approx(0.8, abs=1e-12)
        assert rule.product_signed > 0 and rule.physical
        assert rule.t_literal == rule.t_magnitude == math.ceil(rule.product_magnitude / 1e-9)

    def test_noiseless_receiver_needs_one_snapshot(self):
        rule = snapshot_rule_literal(0.05, 1e-9, 4, 64, 1e-3, 1e-3, 0.0)
        assert rule.product_magnitude == 0.0 and not rule.physical and rule.t_magnitude == 1


class TestOverallBound:
    def test_values(self):
        assert overall_error_bound(0.05, 5) == pytest.approx(0.25)
        assert overall_error_bound(0.0, 7) == 0.0


# every (power, stage, count) of a grid, for the probe-order test to shuffle
_GRID_PROBES = [(p, s, t) for p in (39.0, 42.0, 45.0) for s in (1, 2, 3, 4) for t in (1, 2, 7, 64, 65, 130, 200)]


class TestCalibration:
    def test_noiseless_calibrates_to_one(self, desk_codebook):
        cfg = desk_cfg(sigma_b2_dbm=-math.inf)
        scene = make_scene(cfg)
        for s in range(1, cfg.n_stages + 1):
            ens = StageEnsemble(desk_codebook, 1000, np.random.default_rng(s))
            res = calibrate_snapshots(ens, scene, s, 0.05, t_max=8)
            assert res.feasible and res.t_s == 1

    def test_error_monotone_in_snapshots(self, desk_codebook):
        cfg = desk_cfg(36.0)
        scene = make_scene(cfg)
        ens = StageEnsemble(desk_codebook, 10_000, np.random.default_rng(0))
        errs = [ens.error_rate(scene, 1, t) for t in (1, 4, 16, 64)]
        hw = 2 * 1.96 * math.sqrt(0.25 / 10_000)
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + hw

    def test_infeasible_reported(self, desk_codebook):
        cfg = desk_cfg(20.0)  # far too little power for one-snapshot accuracy
        scene = make_scene(cfg)
        res = calibrate_snapshots(StageEnsemble(desk_codebook, 500, np.random.default_rng(1)), scene, 1, 0.05, t_max=2)
        assert not res.feasible
        assert res.t_s is None

    @pytest.mark.parametrize(
        "cfg, stage, t_max, expected",
        [
            (desk_cfg(sigma_b2_dbm=-math.inf), 1, 8, [1]),  # feasible at T = 1
            (desk_cfg(20.0), 1, 6, [1, 2, 4, 6]),  # infeasible, doubling capped at t_max
            (desk_cfg(32.5), 2, 64, [1, 2, 4, 8, 16, 32, 24, 20, 18, 19]),  # a bisection that moves both ends
        ],
        ids=["t1", "infeasible", "bisection"],
    )
    def test_evaluation_order(self, desk_codebook, monkeypatch, cfg, stage, t_max, expected):
        # the search order only: doubling until the target is met (or t_max), then bisection;
        # error rates do not depend on it (test_error_rate_does_not_depend_on_probe_order)
        seen = []
        error_rate = StageEnsemble.error_rate

        def recording(self, scene, stage, t_s):
            seen.append(t_s)
            return error_rate(self, scene, stage, t_s)

        monkeypatch.setattr(StageEnsemble, "error_rate", recording)
        ens = StageEnsemble(desk_codebook, 500, np.random.default_rng(3))
        calibrate_snapshots(ens, make_scene(cfg), stage, 0.05, t_max=t_max)
        assert seen == expected

    @settings(max_examples=20, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 200), min_size=1, max_size=5),
        stage=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_error_rate_does_not_depend_on_probe_order(self, desk_codebook, counts, stage, seed):
        scene = desk_scene(33.0)
        shared = StageEnsemble(desk_codebook, 300, np.random.default_rng(seed))
        for t in counts:
            alone = StageEnsemble(desk_codebook, 300, np.random.default_rng(seed))
            assert shared.error_rate(scene, stage, t) == alone.error_rate(scene, stage, t)

    @settings(max_examples=20, deadline=None)
    @given(
        probes=st.lists(
            st.tuples(st.sampled_from((39.0, 42.0, 45.0)), st.integers(1, 4), st.integers(1, 200)),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(probes=[(39.0, 1, 200), (45.0, 1, 10)], seed=5)
    @example(probes=[(42.0, 3, 1), (39.0, 1, 130), (42.0, 3, 70), (45.0, 2, 5), (42.0, 1, 2)], seed=6)
    @example(probes=[_GRID_PROBES[i] for i in np.random.default_rng(0).permutation(len(_GRID_PROBES))], seed=9)
    def test_power_views_read_the_draws_of_a_fresh_ensemble(self, desk_codebook, probes, seed):
        # one ensemble probed at several powers and stages, in any order (the last example: stages 1-4 at three
        # scenes, counts shuffled): a count probed at any (scene, stage) reads what a fresh ensemble there reads,
        # whichever probe drew the chunks first
        ens = StageEnsemble(desk_codebook, 300, np.random.default_rng(seed))
        scenes = {p: desk_scene(p) for p in (39.0, 42.0, 45.0)}
        for p, stage, t in probes:
            fresh = StageEnsemble(desk_codebook, 300, np.random.default_rng(seed))
            assert ens.error_rate(scenes[p], stage, t) == fresh.error_rate(scenes[p], stage, t)
        assert len(ens.words) == -(-max(t for *_, t in probes) // 64)

    def test_ensemble_layout_rebuilt_from_raw_words(self, desk_codebook, monkeypatch):
        # per trial 16 words of normals (fading, then 4 real and 4 imaginary noise parts), then
        # 64-snapshot chunks of (trials, 4 candidates, 2 sign components) words in draw order
        trials, stage, t = 5, 2, 130
        scene = desk_scene(33.0)
        decisions = []

        def recording(*args):
            decisions.append(stage_decision(*args))
            return decisions[-1]

        monkeypatch.setattr(localization, "stage_decision", recording)
        ens = StageEnsemble(desk_codebook, trials, np.random.default_rng(4))
        ens.error_rate(scene, stage, 1)  # draws chunk 0; chunks 1 and 2 follow when t needs them
        err = ens.error_rate(scene, stage, t)
        _, stats, chosen, _ = decisions[-1]

        words = np.random.default_rng(4).bit_generator.random_raw(16 * trials + 3 * 8 * trials)
        normal_words, chunks = words[: 16 * trials].reshape(trials, 16), words[16 * trials :].reshape(3, trials, 4, 2)
        cell, d = true_cell(scene.cfg), scene.cfg.grid_size
        pairs = _children(true_stage_pair(cell, stage - 1, d))
        book = desk_codebook.stage(stage)
        for i in range(trials):
            z = _scalar_normals(normal_words[i])
            fading = FadingDraw(*(complex(z[j], z[4 + j]) / math.sqrt(2.0) for j in range(4)))
            coh, cross = trial_coefficients(scene, fading)
            expected = []
            for k, (a, b) in enumerate(pairs):
                c = ((scene.q_x @ book.w_x[:, a - 1]) * (scene.q_y @ book.w_y[:, b - 1])) ** 2
                u = _scalar_symbol_sum(chunks[:, i, k], t) / t
                n = scene.noise_scale * complex(z[8 + k], z[12 + k]) * math.sqrt(t / 2.0) / t
                expected.append(float(decision_statistic(c, coh, cross, u, n)))
            np.testing.assert_allclose(stats[i], expected, rtol=1e-12, atol=0)
            assert chosen[i] == np.argmax(expected)
        assert err == np.mean(chosen != pairs.index(true_stage_pair(cell, stage, d)))

    def test_error_decreases_with_power(self, desk_codebook):
        errs = []
        for p in (36.0, 42.0, 48.0):
            scene = make_scene(desk_cfg(p))
            errs.append(stage_error(scene, desk_codebook, 1, 4, 10_000, np.random.default_rng(11)))
        hw = 2 * 1.96 * math.sqrt(0.25 / 10_000)
        assert errs[1] <= errs[0] + hw
        assert errs[2] <= errs[1] + hw


class TestEngineAgainstPipeline:
    def test_stage_one_error_rates_agree(self, desk_codebook):
        # the vectorized ensemble and the per-trial engine sample the same law
        cfg = desk_cfg(39.0)
        scene = make_scene(cfg)
        trials = 4000
        err_batch = stage_error(scene, desk_codebook, 1, 2, trials, np.random.default_rng(21))
        # one batched descent equals each trial alone (TestDescent); its last stage-1 column marks a correct pick
        sched = SnapshotSchedule((2, 1, 1, 1))
        words = np.random.default_rng(10_000).bit_generator.random_raw((trials, trial_width(sched)))
        stages = descend(scene, desk_codebook, sched, words)
        err_trial = float(np.mean(~stages[0][4]))
        hw = 2 * 1.96 * math.sqrt(0.25 / trials)
        assert err_trial == pytest.approx(err_batch, abs=hw)


class TestInputRanges:
    @pytest.mark.parametrize("stage", [0, -1, 4])
    def test_stage_error_rejects_stage_out_of_range(self, stage):
        cfg = tiny_cfg()
        cb = build_matched_codebook(cfg)
        with pytest.raises(ValueError, match=r"stage must be in 1\.\.3"):
            stage_error(make_scene(cfg), cb, stage, 1, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"stage must be in 1\.\.3"):
            calibrate_snapshots(StageEnsemble(cb, 10, np.random.default_rng(0)), make_scene(cfg), stage, 0.05)

    @pytest.mark.parametrize("delta", [math.nan, 0.0, 1.0, 1.5])
    def test_calibration_rejects_delta_out_of_range(self, delta):
        cfg = tiny_cfg()
        ens = StageEnsemble(build_matched_codebook(cfg), 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
            calibrate_snapshots(ens, make_scene(cfg), 1, delta)

    @pytest.mark.parametrize("t_s", [(1.5, 2, 3), (2.0, 2, 3), (np.float64(2), 2, 3), (True, 2, 3), ("2", 2, 3)])
    def test_schedule_rejects_non_integer_counts(self, t_s):
        with pytest.raises(ValueError, match="snapshot counts must be integers"):
            SnapshotSchedule(t_s)

    @pytest.mark.parametrize("t_s", [0, 1.5, 2.0, True])
    def test_stage_error_rejects_non_integer_or_zero_count(self, t_s):
        cfg = tiny_cfg()
        with pytest.raises(ValueError, match="snapshot count must be an integer >= 1"):
            stage_error(make_scene(cfg), build_matched_codebook(cfg), 1, t_s, 10, np.random.default_rng(0))

    def test_schedule_accepts_numpy_integers(self):
        assert SnapshotSchedule((np.int64(2), np.int32(1), 3)).t_s == (2, 1, 3)

    def test_schedule_from_a_list_is_the_tuple_schedule(self):
        sched = SnapshotSchedule([3, 1])
        assert sched.t_s == (3, 1) and sched == SnapshotSchedule((3, 1))
        assert hash(sched) == hash(SnapshotSchedule((3, 1)))

    @pytest.mark.parametrize("t_s", [5, None, {3, 1}])
    def test_schedule_rejects_a_non_sequence(self, t_s):
        with pytest.raises(ValueError, match="snapshot counts must be integers in a sequence"):
            SnapshotSchedule(t_s)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_ensemble_rejects_no_trials(self, trials):
        cfg = tiny_cfg()
        cb = build_matched_codebook(cfg)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            stage_error(make_scene(cfg), cb, 1, 1, trials, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            StageEnsemble(cb, trials, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            average_se(cfg, None, trials, np.random.default_rng(0))

    @pytest.mark.parametrize("trials", [2.5, True, np.float64(3)])
    def test_ensemble_rejects_non_integer_trials(self, trials):
        cfg = tiny_cfg()
        with pytest.raises(ValueError, match="trials must be an integer, got"):
            StageEnsemble(build_matched_codebook(cfg), trials, np.random.default_rng(0))
        with pytest.raises(ValueError, match="trials must be an integer, got"):
            average_se(cfg, None, trials, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "t_max, message", [(2.5, "an integer"), (True, "an integer"), (np.float64(4), "an integer"), (0, ">= 1")]
    )
    def test_calibration_rejects_bad_t_max(self, t_max, message):
        cfg = tiny_cfg()
        ens = StageEnsemble(build_matched_codebook(cfg), 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"t_max must be {message}, got"):
            calibrate_snapshots(ens, make_scene(cfg), 1, 0.05, t_max=t_max)

    @pytest.mark.parametrize(
        "field, name, value",
        [
            ("grid_size", "D", 4),
            ("grid_size", "D", 8),
            ("grid_size", "D", 32),
            ("n_ris", "N_r", 256),
            ("ris_spacing", "spacing", 0.5),
            ("v_b", "v_b", DirectionCosine(-0.6, 0.4)),
            ("v_u", "v_u", DirectionCosine(-0.6, 0.4)),
        ],
    )
    def test_codebook_of_another_geometry_rejected(self, desk_codebook, field, name, value):
        # the desk codebook fits desk_cfg() only; stage 4 is past the last stage of a D=4 scene
        scene, fitting = make_scene(desk_cfg(**{field: value})), make_scene(desk_cfg())
        designed = {"D": 16, "N_r": 1024, "spacing": 0.25, "v_b": fitting.cfg.v_b, "v_u": fitting.cfg.v_u}[name]
        message = re.escape(f"codebook designed for {name}={designed!r}; scenario has {name}={value!r}")
        for stage in (1, 3, 4):
            with pytest.raises(ValueError, match=message):
                StageEnsemble(desk_codebook, 10, np.random.default_rng(0)).error_rate(scene, stage, 4)
        ens = StageEnsemble(desk_codebook, 10, np.random.default_rng(0))
        ens.error_rate(fitting, 1, 4)
        with pytest.raises(ValueError, match=message):  # a new scene is checked, not only the first
            calibrate_snapshots(ens, scene, 1, 0.05)
        with pytest.raises(ValueError, match=message):
            stage_error(scene, desk_codebook, 1, 4, 10, np.random.default_rng(0))
        sched = SnapshotSchedule((1,) * scene.cfg.n_stages)
        with pytest.raises(ValueError, match=message):
            descend(scene, desk_codebook, sched, np.zeros((2, trial_width(sched)), np.uint64))
        with pytest.raises(ValueError, match=message):
            hierarchical_localize(scene, desk_codebook, sched, np.random.default_rng(0))

    @pytest.mark.parametrize("t_per_beam", [0, -1, 1.5, 2.0, np.float64(3), True])
    def test_exhaustive_rejects_no_snapshots(self, t_per_beam):
        with pytest.raises(ValueError, match="t_per_beam must be an integer >= 1"):
            exhaustive_localize(make_scene(tiny_cfg()), np.random.default_rng(0), t_per_beam=t_per_beam)
