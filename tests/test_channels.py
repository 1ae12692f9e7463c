import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from risjrc.channels import (
    FadingDraw,
    PhaseProfile,
    ScenarioConfig,
    complex_normal,
    draw_fading,
    normals_from_words,
    pathloss,
    path_gains,
)
from risjrc.geometry import DirectionCosine, ris_axis_steering, ris_full_steering, ula_steering

from conftest import desk_cfg, tiny_cfg
from reference import (
    build_channels,
    make_transmit_block,
    radar_receive,
    squared_spatial_response,
    target_response,
    ue_receive,
)


class TestPathloss:
    def test_unity_at_reference_ratio(self):
        # eta0 = -30 dB -> 1e-3 linear; d = 1e-3^(1/2.7) m makes the power gain eta0 d^-alpha 1
        assert pathloss(1e-3 ** (1 / 2.7), 2.7, -30.0) == pytest.approx(1.0, rel=1e-12)

    def test_reference_distance_unit_exponent(self):
        # at the 1 m reference the power gain is eta0 whatever the exponent; the amplitude is its root
        assert pathloss(1.0, 1.0, -30.0) == pytest.approx(math.sqrt(1e-3), rel=1e-12)
        assert pathloss(1.0, 3.5, -30.0) == pytest.approx(math.sqrt(1e-3), rel=1e-12)

    def test_standard_power_form(self):
        expected = math.sqrt(1e-3 * 10**-2.5)
        assert pathloss(10.0, 2.5, -30.0) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            pathloss(0.0, 2.5, -30.0)


class TestFading:
    def test_moments(self):
        rng = np.random.default_rng(42)
        z = complex_normal(rng, 100_000)
        assert abs(z.mean()) < 0.02
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.03)

    def test_complex_normal_is_the_complex_division_bit_for_bit(self):
        # part by part, scaled by 1/sqrt(2): np.sqrt(0.5) is one ulp larger and would move every draw
        z = complex_normal(np.random.default_rng(5), 4096)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(4096), rng.standard_normal(4096)
        np.testing.assert_array_equal(z.view(np.float64), ((x + 1j * y) / np.sqrt(2.0)).view(np.float64))

    def test_determinism(self):
        a = draw_fading(np.random.default_rng(7))
        b = draw_fading(np.random.default_rng(7))
        assert a == b


class TestNormalsFromWords:
    def test_standard_normal_law(self):
        # bounds fixed from n alone: 5 standard errors for the mean, the variance (sqrt(2/n)) and the
        # pair correlation, and the Kolmogorov-Smirnov statistic at a 1e-6 level, sqrt(ln(2/1e-6)/2)/sqrt(n)
        n = 2**17
        z = normals_from_words(np.random.Philox(key=11).random_raw(n))
        assert abs(z.mean()) <= 5 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 5 * math.sqrt(2 / n)
        assert abs(np.corrcoef(z[0::2], z[1::2])[0, 1]) <= 5 / math.sqrt(n / 2)
        assert stats.kstest(z, "norm").statistic <= math.sqrt(math.log(2 / 1e-6) / 2) / math.sqrt(n)

    def test_extreme_words_stay_finite(self):
        # u never reaches 0: the smallest word gives u = 2^-54, the largest rounds up to u = 1
        words = np.array([[0, 0], [2**64 - 1, 2**64 - 1]], dtype=np.uint64)
        z = normals_from_words(words)
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(z[0], [math.sqrt(108 * math.log(2)), 0.0], rtol=1e-15, atol=1e-12)
        np.testing.assert_array_equal(z[1], [0.0, -0.0])

    @staticmethod
    def vectorized_normals(words) -> np.ndarray:
        """The whole-block expression that the half-by-half, in-place ``normals_from_words`` replaced."""
        u = ((words >> np.uint64(11)) + 0.5) * 2.0**-53
        radius, angle = np.sqrt(-2.0 * np.log(u[..., 0::2])), 2.0 * np.pi * u[..., 1::2]
        z = np.empty(u.shape)
        z[..., 0::2], z[..., 1::2] = radius * np.cos(angle), radius * np.sin(angle)
        return z

    @pytest.mark.parametrize(
        "block",
        [
            lambda bits: bits.random_raw(2**16),
            lambda bits: bits.random_raw((4000, 16)),
            lambda bits: bits.random_raw((500, 72))[:, : 8 + 8 * 4],  # the normals slice of a four-stage descent
            lambda bits: bits.random_raw((0, 40)),
            lambda bits: np.array([[0, 2**64 - 1, 2**64 - 1, 0]], dtype=np.uint64),
        ],
        ids=["flat", "ensemble", "descent-slice", "empty", "extremes"],
    )
    def test_bits_match_the_vectorized_expression(self, block):
        # not the scalar Box-Muller of the search oracle: math.log and math.cos need not round as numpy's do
        words = block(np.random.Philox(key=12))
        z = normals_from_words(words)
        assert z.shape == words.shape
        np.testing.assert_array_equal(z.view(np.uint64), self.vectorized_normals(words).view(np.uint64))


class TestScenarioConfig:
    def test_power_split_invariant(self):
        # one stored share: the two stream powers sum to the total by construction
        for share in (0.0, 0.25, 0.5, 1.0):
            cfg = ScenarioConfig(power=36.0, radar_share=share)
            assert cfg.p_r_watts + cfg.p_u_watts == pytest.approx(cfg.p_total_watts, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        units=st.sampled_from(["dBm", "dB"]),
        power=st.floats(-60.0, 80.0),
        new_power=st.floats(-60.0, 80.0),
        share=st.floats(0.0, 1.0),
    )
    def test_replace_is_with_power(self, units, power, new_power, share):
        cfg = ScenarioConfig(n_ris=16, grid_size=8, power=power, power_units=units, radar_share=share)
        moved = replace(cfg, power=new_power)
        assert moved == cfg.with_power(new_power)
        assert (moved.power, moved.power_units, moved.radar_share) == (new_power, units, share)

    def test_grid_power_of_two(self):
        with pytest.raises(ValueError, match="grid_size"):
            desk_cfg(grid_size=12)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma_u2_dbm", math.nan),
            ("sigma_b2_dbm", math.nan),
            ("sigma_u2_dbm", math.inf),
            ("power", math.inf),
            ("d_bu", math.nan),
            ("alpha_ru", math.inf),
            ("eta0_db", math.nan),
            ("theta_u_deg", math.nan),
            ("ris_spacing", math.inf),
            ("ris_spacing", math.nan),
            ("ris_spacing", 0.0),
            ("ris_spacing", -0.25),
        ],
    )
    def test_non_finite_or_bad_spacing_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(n_ris=16, grid_size=8, **{field: value})

    @pytest.mark.parametrize("field", ["sigma_b2_dbm", "sigma_u2_dbm"])
    def test_minus_infinite_noise_is_noiseless(self, field):
        cfg = ScenarioConfig(n_ris=16, grid_size=8, **{field: -math.inf})
        assert (cfg.sigma_b2_watts if field == "sigma_b2_dbm" else cfg.sigma_u2_watts) == 0.0

    def test_with_power_preserves_split(self):
        cfg = desk_cfg(36.0).with_power(42.0)
        assert cfg.p_r_watts == pytest.approx(cfg.p_u_watts)
        assert cfg.p_r_watts + cfg.p_u_watts == pytest.approx(cfg.p_total_watts)

    def test_with_power_in_db_keeps_an_uneven_split(self):
        # 10 dB re 1 W is 10 W, split 3:1; at 13 dB the radar keeps three quarters of 10^1.3 W
        cfg = ScenarioConfig(power=10.0, power_units="dB", radar_share=0.75).with_power(13.0)
        assert cfg.p_total_watts == 10.0**1.3
        assert cfg.p_r_watts == pytest.approx(0.75 * cfg.p_total_watts, rel=1e-12)
        assert cfg.p_u_watts == pytest.approx(0.25 * cfg.p_total_watts, rel=1e-12)


class TestBuildChannels:
    def test_unit_fading_entry_magnitudes(self):
        cfg = tiny_cfg()
        fad = FadingDraw(1.0, 1.0, 1.0, 1.0)
        cs = build_channels(cfg, fad)
        eta = path_gains(cfg)
        np.testing.assert_allclose(np.abs(cs.h_br), eta.eta_br, rtol=1e-12)

    def test_rank_one(self):
        cs = build_channels(tiny_cfg(), draw_fading(np.random.default_rng(0)))
        for h in (cs.h_bu, cs.h_br, cs.h_ru):
            sv = np.linalg.svd(h, compute_uv=False)
            assert sv[1] / sv[0] < 1e-9

    def test_table_scale_shape(self):
        cfg = desk_cfg(n_ris=4096, grid_size=32)
        cs = build_channels(cfg, draw_fading(np.random.default_rng(0)))
        assert cs.h_br.shape == (4096, 64)
        assert cs.h_bu.shape == (16, 64)
        assert cs.h_ru.shape == (16, 4096)


class TestTargetResponse:
    def test_zero_coefficient(self):
        t = target_response(DirectionCosine(0.3, -0.2), 0.0, 16)
        assert np.all(t == 0)

    def test_trace_matches_direct_sum(self):
        v = DirectionCosine(0.37, -0.51)
        gamma = 0.8 - 0.3j
        t = target_response(v, gamma, 16)
        r = ris_full_steering(v, 16)
        direct = gamma * np.sum(r.conj() * r.conj())
        assert np.trace(t) == pytest.approx(direct, rel=1e-12)

    def test_rank_one(self):
        t = target_response(DirectionCosine(0.1, 0.9), 1.0 + 0.5j, 16)
        sv = np.linalg.svd(t, compute_uv=False)
        assert sv[1] / sv[0] < 1e-12


class TestTransmitBlock:
    def test_shape_and_unit_symbols(self):
        cfg = tiny_cfg()
        blk = make_transmit_block(cfg, 20, np.random.default_rng(0))
        assert blk.x.shape == (cfg.n_b, 20)
        np.testing.assert_allclose(np.abs(blk.s_r), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(blk.s_u), 1.0, atol=1e-12)

    def test_rank_one_when_single_stream(self):
        cfg = tiny_cfg(radar_share=1.0, power=10 * math.log10(2.0) + 30)
        blk = make_transmit_block(cfg, 8, np.random.default_rng(1))
        sv = np.linalg.svd(blk.x, compute_uv=False)
        assert sv[1] / sv[0] < 1e-12

    def test_mean_column_power_is_total(self):
        cfg = tiny_cfg()
        blk = make_transmit_block(cfg, 400, np.random.default_rng(2))
        col_power = np.sum(np.abs(blk.x) ** 2, axis=0).mean()
        assert col_power == pytest.approx(cfg.p_total_watts, rel=0.05)

    def test_reconstruction(self):
        cfg = tiny_cfg()
        blk = make_transmit_block(cfg, 10, np.random.default_rng(3))
        b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
        b_u = ula_steering(cfg.theta_u_deg, cfg.n_b)
        x = math.sqrt(cfg.p_r_watts / cfg.n_b) * np.outer(b_r, blk.s_r)
        x += math.sqrt(cfg.p_u_watts / cfg.n_b) * np.outer(b_u, blk.s_u)
        np.testing.assert_allclose(blk.x, x, rtol=1e-12)


class TestSquaredSpatialResponse:
    def test_matched_profile_reaches_aperture_squared(self):
        L = 12
        v_in, v_scan = 0.133, -0.4
        w = ris_axis_steering(v_in, L).conj() * ris_axis_steering(v_scan, L)
        c = squared_spatial_response(w, v_scan, v_in)
        assert c == pytest.approx(L**2, rel=1e-12)

    def test_triangle_bound(self):
        rng = np.random.default_rng(5)
        L = 12
        for _ in range(50):
            w = np.exp(1j * rng.uniform(0, 2 * np.pi, L))
            c = squared_spatial_response(w, rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(c) <= L**2 + 1e-9

    def test_designed_wide_beam_illuminates_its_partition(self, desk_codebook):
        # the stage-1 sensing part keeps |c| near L^2 across its half-space
        cfg = desk_cfg()
        book = desk_codebook.stage(1)
        l_s = book.l_s
        g = book.w_x[:l_s, 0]
        grid = np.asarray(cfg.grid)
        on = [
            abs(squared_spatial_response(g, v, cfg.v_b.vx, cfg.ris_spacing))
            for v in grid[: cfg.grid_size // 2]
        ]
        assert np.mean(np.sqrt(on)) >= 0.7 * l_s


def dense_radar_output(cfg, cs, omega, x):
    """Oracle: the full matrix product with materialized reflection/target."""
    w = omega.full
    t = target_response(cfg.v_t, cs.gamma, cfg.n_ris, cfg.ris_spacing)
    return cs.h_br.T @ np.diag(w).T @ t @ np.diag(w) @ cs.h_br @ x.x


class TestRadarReceive:
    def test_matches_dense_product(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(11)
        cs = build_channels(cfg, draw_fading(rng))
        x = make_transmit_block(cfg, 6, rng)
        omega = PhaseProfile(
            np.exp(1j * rng.uniform(0, 2 * np.pi, 4)), np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        )
        y = radar_receive(x, omega, cfg.v_t, cs.gamma, cs, cfg, 0.0, rng)
        y_dense = dense_radar_output(cfg, cs, omega, x)
        assert np.max(np.abs(y - y_dense)) / np.max(np.abs(y_dense)) < 1e-9

    def test_factorization_equivalence_random_profiles(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(12)
        for _ in range(100):
            fad = draw_fading(rng)
            cs = build_channels(cfg, fad)
            v_t = DirectionCosine(rng.uniform(-1, 1), rng.uniform(-1, 1))
            x = make_transmit_block(cfg, 3, rng)
            omega = PhaseProfile(
                np.exp(1j * rng.uniform(0, 2 * np.pi, 4)),
                np.exp(1j * rng.uniform(0, 2 * np.pi, 4)),
            )
            y = radar_receive(x, omega, v_t, cs.gamma, cs, cfg, 0.0, rng)
            w = omega.full
            t = target_response(v_t, cs.gamma, cfg.n_ris, cfg.ris_spacing)
            y_dense = cs.h_br.T @ np.diag(w).T @ t @ np.diag(w) @ cs.h_br @ x.x
            assert np.max(np.abs(y - y_dense)) <= 1e-9 * max(np.max(np.abs(y_dense)), 1e-300)

    def test_zero_target(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(13)
        cs = build_channels(cfg, draw_fading(rng))
        x = make_transmit_block(cfg, 4, rng)
        omega = PhaseProfile(np.ones(4, complex), np.ones(4, complex))
        y = radar_receive(x, omega, cfg.v_t, 0.0, cs, cfg, 0.0, rng)
        assert np.all(y == 0)

    def test_noise_variance(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(14)
        cs = build_channels(cfg, draw_fading(rng))
        x = make_transmit_block(cfg, 2000, rng)
        omega = PhaseProfile(np.ones(4, complex), np.ones(4, complex))
        sigma2 = 0.37
        y = radar_receive(x, omega, cfg.v_t, 0.0, cs, cfg, sigma2, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(sigma2, rel=0.03)


class TestUeReceive:
    def test_direct_only_when_cascade_zero(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(15)
        cs = build_channels(cfg, draw_fading(rng))
        cs.h_ru = np.zeros_like(cs.h_ru)
        x = make_transmit_block(cfg, 5, rng)
        omega = PhaseProfile(np.ones(4, complex), np.ones(4, complex))
        y = ue_receive(x, cs, omega, cfg, 0.0, rng)
        np.testing.assert_allclose(y, cs.h_bu @ x.x, rtol=1e-12)

    def test_signal_rank_at_most_two(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(16)
        cs = build_channels(cfg, draw_fading(rng))
        x = make_transmit_block(cfg, 8, rng)
        omega = PhaseProfile(np.ones(4, complex), np.ones(4, complex))
        y = ue_receive(x, cs, omega, cfg, 0.0, rng)
        sv = np.linalg.svd(y, compute_uv=False)
        assert sv[2] / sv[0] < 1e-9

    def test_energy_scales_linearly_with_power(self):
        cfg1 = tiny_cfg(30.0)
        cfg2 = cfg1.with_power(30.0 + 10 * math.log10(2))
        rng1, rng2 = np.random.default_rng(17), np.random.default_rng(17)
        sigma2 = cfg1.sigma_u2_watts
        e1 = e2 = 0.0
        trials = 400
        t_s = 16
        for _ in range(trials):
            fad = draw_fading(rng1)
            draw_fading(rng2)  # keep streams aligned
            cs1 = build_channels(cfg1, fad)
            cs2 = build_channels(cfg2, fad)
            omega = PhaseProfile(np.ones(4, complex), np.ones(4, complex))
            x1 = make_transmit_block(cfg1, t_s, rng1)
            x2 = make_transmit_block(cfg2, t_s, rng2)
            e1 += np.sum(np.abs(ue_receive(x1, cs1, omega, cfg1, sigma2, rng1)) ** 2)
            e2 += np.sum(np.abs(ue_receive(x2, cs2, omega, cfg2, sigma2, rng2)) ** 2)
        noise_floor = trials * cfg1.n_u * t_s * sigma2
        assert (e2 - noise_floor) / (e1 - noise_floor) == pytest.approx(2.0, rel=0.02)


class TestDeterminism:
    def test_identical_seeds_identical_outputs(self):
        cfg = tiny_cfg()

        def run(seed):
            rng = np.random.default_rng(seed)
            cs = build_channels(cfg, draw_fading(rng))
            x = make_transmit_block(cfg, 7, rng)
            omega = PhaseProfile(np.ones(4, complex), np.ones(4, complex))
            return radar_receive(x, omega, cfg.v_t, cs.gamma, cs, cfg, cfg.sigma_b2_watts, rng)

        np.testing.assert_array_equal(run(123), run(123))
