import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import exp1

from risjrc.channels import (
    FadingDraw,
    PhaseProfile,
    build_link_matrices,
    complex_from_parts,
    draw_fading,
    fading_from_normals,
    path_gains,
)
from risjrc.codebook import build_codebook
from risjrc.comms import (
    _se_samples,
    average_se,
    comm_phase_profile,
    spectral_efficiency,
    stage_phase_profile,
)
from risjrc.geometry import ris_axis_steering, ula_steering
from risjrc.localization import make_scene

from conftest import desk_cfg, tiny_cfg
from reference import build_channels, build_matched_codebook, effective_channel


class TestLinkMatrices:
    def test_column_norms(self):
        link = build_link_matrices(desk_cfg())
        np.testing.assert_allclose(np.linalg.norm(link.f, axis=0), 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(link.c, axis=0), 1.0, rtol=1e-12)

    def test_identical_angles_collapse_rank(self):
        cfg = desk_cfg(theta_u_deg=45.0)  # same as theta_r
        link = build_link_matrices(cfg)
        sv = np.linalg.svd(link.f, compute_uv=False)
        assert sv[1] / sv[0] < 1e-12

    def test_default_angles_nearly_orthogonal(self):
        cfg = desk_cfg()
        b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
        b_u = ula_steering(cfg.theta_u_deg, cfg.n_b)
        assert abs(b_r.conj() @ b_u) / cfg.n_b < 0.1

    def test_power_matrix(self):
        cfg = desk_cfg()
        link = build_link_matrices(cfg)
        assert link.p[0, 0] == pytest.approx(math.sqrt(cfg.p_r_watts))
        assert link.p[1, 1] == pytest.approx(math.sqrt(cfg.p_u_watts))


class TestEffectiveChannel:
    def test_zero_channels_give_zero(self):
        cfg = tiny_cfg()
        cs = build_channels(cfg, draw_fading(np.random.default_rng(0)))
        cs.h_bu *= 0
        cs.h_br *= 0
        cs.h_ru *= 0
        link = build_link_matrices(cfg)
        h = effective_channel(cs, comm_phase_profile(cfg), link)
        assert np.all(h == 0)

    def test_matched_cascade_gain_chain(self):
        # with the direct path removed and the full RIS steering at the user,
        # the (1,1) entry is the product of the array gains along the chain
        cfg = tiny_cfg()
        from risjrc.channels import FadingDraw

        cs = build_channels(cfg, FadingDraw(1.0, 1.0, 1.0, 1.0))
        cs.h_bu *= 0
        link = build_link_matrices(cfg)
        h = effective_channel(cs, comm_phase_profile(cfg), link)
        eta = path_gains(cfg)
        expected = (
            math.sqrt(cfg.n_u)
            * eta.eta_ru
            * cfg.n_ris
            * eta.eta_br
            * math.sqrt(cfg.n_b)
            * math.sqrt(cfg.p_r_watts)
        )
        assert abs(h[0, 0]) == pytest.approx(expected, rel=1e-9)

    def test_scaling_with_power(self):
        cfg1 = tiny_cfg(30.0)
        cfg2 = cfg1.with_power(30.0 + 10 * math.log10(4.0))
        fad = draw_fading(np.random.default_rng(1))
        cs = build_channels(cfg1, fad)
        h1 = effective_channel(cs, None, build_link_matrices(cfg1))
        h2 = effective_channel(cs, None, build_link_matrices(cfg2))
        np.testing.assert_allclose(h2, 2.0 * h1, rtol=1e-12)

    def test_shape(self):
        cfg = tiny_cfg()
        cs = build_channels(cfg, draw_fading(np.random.default_rng(2)))
        h = effective_channel(cs, None, build_link_matrices(cfg))
        assert h.shape == (2, 2)


class TestSpectralEfficiency:
    def test_zero_channel(self):
        assert spectral_efficiency(np.zeros((2, 2)), 1e-3) == 0.0

    def test_identity_scaled_by_noise(self):
        sigma = 0.37
        assert spectral_efficiency(sigma * np.eye(2), sigma**2) == pytest.approx(2.0, rel=1e-12)

    def test_diagonal_closed_form(self):
        a, b, s2 = 1.7, 0.4, 0.09
        h = np.diag([a, b]).astype(complex)
        expected = math.log2(1 + a**2 / s2) + math.log2(1 + b**2 / s2)
        assert spectral_efficiency(h, s2) == pytest.approx(expected, rel=1e-12)

    def test_determinant_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            s2 = rng.uniform(0.01, 2.0)
            lam = np.linalg.svd(h, compute_uv=False) ** 2
            expected = sum(math.log2(1 + l / s2) for l in lam)
            assert spectral_efficiency(h, s2) == pytest.approx(expected, rel=1e-9)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            spectral_efficiency(np.eye(2), 0.0)


class _ConstantRng:
    """Stub generator: every Gaussian draw is the same constant."""

    def standard_normal(self, size=None):
        return np.full(size, math.sqrt(0.5)) if size is not None else math.sqrt(0.5)


class TestAverageSe:
    def test_matches_pipeline_single_draw(self, desk_codebook):
        cfg = desk_cfg()
        omega = stage_phase_profile(desk_codebook, 1)
        est = average_se(cfg, omega, 1, np.random.default_rng(5))
        cs = build_channels(cfg, draw_fading(np.random.default_rng(5)))
        link = build_link_matrices(cfg)
        se = spectral_efficiency(effective_channel(cs, omega, link), cfg.sigma_u2_watts)
        assert est.mean == pytest.approx(se, rel=1e-12)

    def test_degenerate_fading_zero_halfwidth(self):
        cfg = tiny_cfg()
        est = average_se(cfg, None, 50, _ConstantRng())
        assert est.halfwidth == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_power(self):
        means = []
        for p in (30.0, 36.0, 42.0):
            est = average_se(desk_cfg(p), None, 500, np.random.default_rng(6))
            means.append(est.mean)
        assert means[0] < means[1] < means[2]

    def test_se_nondecreasing_in_comm_elements(self):
        # growing matched comm block, averaged over random sensing phases
        cfg = desk_cfg(n_ris=256, grid_size=16)
        n_axis = cfg.n_axis
        rng0 = np.random.default_rng(7)
        comm_x, comm_y = (
            ris_axis_steering(v_b, n_axis, cfg.ris_spacing).conj() * ris_axis_steering(v_u, n_axis, cfg.ris_spacing)
            for v_b, v_u in ((cfg.v_b.vx, cfg.v_u.vx), (cfg.v_b.vy, cfg.v_u.vy))
        )
        splits = (0, 4, 8, 12, 16)
        means = np.zeros(len(splits))
        n_sensing_draws = 40
        for _ in range(n_sensing_draws):
            sensing = np.exp(1j * rng0.uniform(0, 2 * np.pi, n_axis))
            for k, c_s in enumerate(splits):
                w_x, w_y = sensing.copy(), sensing.copy()
                if c_s:
                    w_x[-c_s:] = comm_x[-c_s:]
                    w_y[-c_s:] = comm_y[-c_s:]
                est = average_se(cfg, PhaseProfile(w_x, w_y), 250, np.random.default_rng(8))
                means[k] += est.mean / n_sensing_draws
        assert np.all(np.diff(means) >= -0.05)

    def test_scenario_ordering_smoke(self, desk_codebook):
        cfg = desk_cfg()
        rng = lambda: np.random.default_rng(9)
        bench = average_se(cfg, comm_phase_profile(cfg), 800, rng()).mean
        s1 = average_se(cfg, stage_phase_profile(desk_codebook, 1), 800, rng()).mean
        s_last = average_se(cfg, stage_phase_profile(desk_codebook, desk_codebook.n_stages), 800, rng()).mean
        no_ris = average_se(cfg, None, 800, rng()).mean
        assert bench >= s1 >= s_last >= no_ris


class TestBatchedSeOracle:
    """The batched rank-1 closed form against the per-trial ``slogdet`` pipeline."""

    @settings(max_examples=40, deadline=None)
    @given(
        power=st.floats(-30.0, 50.0),
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(1, 40),
        scenario=st.sampled_from(["no-ris", "benchmark", "random"]),
        phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=8, max_size=8),
    )
    def test_per_trial_values_match_pipeline(self, power, seed, trials, scenario, phases):
        cfg = tiny_cfg(power)
        omega = {
            "no-ris": None,
            "benchmark": comm_phase_profile(cfg),
            "random": PhaseProfile(np.exp(1j * np.array(phases[:4])), np.exp(1j * np.array(phases[4:]))),
        }[scenario]
        got = _se_samples(make_scene(cfg), omega, draw_fading(np.random.default_rng(seed), (trials,)))
        rng = np.random.default_rng(seed)
        link = build_link_matrices(cfg)
        want = [
            spectral_efficiency(effective_channel(build_channels(cfg, draw_fading(rng)), omega, link), cfg.sigma_u2_watts)
            for _ in range(trials)
        ]
        # the oracle's own cancellation error reaches ~1e-12 relative
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 60))
    def test_batched_draw_is_the_draw_fading_stream(self, seed, trials):
        block = fading_from_normals(np.random.default_rng(seed).standard_normal((trials, 8)))
        rng = np.random.default_rng(seed)
        successive = np.array([list(vars(draw_fading(rng)).values()) for _ in range(trials)])
        np.testing.assert_array_equal(np.array(list(vars(block).values())).T, successive)

    @pytest.mark.parametrize("power", [30.0, 42.0])
    def test_no_ris_matches_exact_mean(self, power):
        # SE = log2(1 + c·X) with X = |β_bu|² ~ Exp(1), so E[SE] = e^{1/c}·E₁(1/c)/ln 2
        cfg = desk_cfg(power)
        h_unit = effective_channel(build_channels(cfg, FadingDraw(0.0, 1.0, 0.0, 0.0)), None, build_link_matrices(cfg))
        c = np.linalg.norm(h_unit) ** 2 / cfg.sigma_u2_watts
        exact = math.exp(1.0 / c) * exp1(1.0 / c) / math.log(2.0)
        est = average_se(cfg, None, 200_000, np.random.default_rng(11))
        sigma = est.halfwidth / 1.96
        assert abs(est.mean - exact) < 4.0 * sigma


class TestLinkTerms:
    """The fading-independent SE terms come from the power point's scene and read the same bits from any scene."""

    @pytest.mark.parametrize("scenario", ["benchmark", "stage-1", "no-ris"])
    def test_se_bits_are_the_same_from_two_scenes_of_one_config(self, desk_codebook, scenario):
        cfg = desk_cfg(30.0)
        omega = {"benchmark": comm_phase_profile(cfg), "stage-1": stage_phase_profile(desk_codebook, 1), "no-ris": None}
        samples = lambda scene: _se_samples(scene, omega[scenario], draw_fading(np.random.default_rng(12), (300,)))
        run = lambda: average_se(cfg, omega[scenario], 300, np.random.default_rng(12))
        first, first_mean = samples(make_scene(cfg)), run()
        make_scene(cfg.with_power(46.0))
        assert samples(make_scene(cfg)).tobytes() == first.tobytes()
        assert run() == first_mean

    @pytest.mark.parametrize("size", [(50,), (3, 7)])
    def test_fading_fields_are_contiguous_in_the_one_layout(self, size):
        x = np.random.default_rng(13).standard_normal((*size, 8))
        former = np.moveaxis(complex_from_parts(x[..., :4], x[..., 4:8]), -1, 0)
        draw = draw_fading(np.random.default_rng(13), size)
        for got, want in zip(vars(draw).values(), former):
            assert got.flags.c_contiguous and got.shape == size
            assert got.tobytes() == want.tobytes()

    def test_single_fading_draw_is_numpy_scalars(self):
        draw = draw_fading(np.random.default_rng(13))
        assert all(type(v) is np.complex128 for v in vars(draw).values())

    def test_no_ris_samples_are_the_general_form_with_b_zero(self):
        cfg, trials = desk_cfg(36.0), 300
        got = _se_samples(make_scene(cfg), None, draw_fading(np.random.default_rng(14), (trials,)))
        beta = draw_fading(np.random.default_rng(14), (trials,))
        link, eta, s2 = build_link_matrices(cfg), path_gains(cfg), cfg.sigma_u2_watts
        u_b, b_u = ula_steering(cfg.zeta_b_deg, cfg.n_u), ula_steering(cfg.theta_u_deg, cfg.n_b)
        m_direct = np.outer(link.c.conj().T @ u_b, b_u.conj() @ link.f) @ link.p
        m_cascade = np.zeros((2, 2), dtype=complex)
        a, b = beta.beta_bu * eta.eta_bu, np.zeros(trials, dtype=complex)
        norm_d, norm_c = np.vdot(m_direct, m_direct).real, np.vdot(m_cascade, m_cascade).real
        cross, det_sum = np.vdot(m_cascade, m_direct), np.linalg.det(m_direct + m_cascade)
        frob = np.abs(a) ** 2 * norm_d + np.abs(b) ** 2 * norm_c + 2.0 * (a * b.conj() * cross).real
        det2 = np.abs(a * b) ** 2 * abs(det_sum) ** 2
        assert got.tobytes() == np.log2(1.0 + frob / s2 + det2 / s2**2).tobytes()


def exact_mean_se(cfg, omega, nodes=60, phases=16):
    """E[SE] over the three link fades by quadrature, numpy only.

    With unit-fading channels G_d (direct) and G_c (cascade through ``omega``) from the matrix
    pipeline, A = ‖G_d‖²/σ², B = ‖G_c‖²/σ², C = |⟨G_c, G_d⟩|/σ² and D = |det(G_d + G_c)|²/σ⁴, the SE
    of a draw is log2(1 + A X₁ + B X₂X₃ + 2C√(X₁X₂X₃) cos φ + D X₁X₂X₃) with Xᵢ = |βᵢ|² ~ Exp(1) and φ
    uniform.  Each Xᵢ = eᵗ is integrated by the trapezoid rule in t on [-25, 4] with weight e^(t - eᵗ),
    normalized, and φ by the equispaced rule.
    """
    link, s2 = build_link_matrices(cfg), cfg.sigma_u2_watts
    g_d = effective_channel(build_channels(cfg, FadingDraw(0.0, 1.0, 0.0, 0.0)), None, link)
    g_c = np.zeros((2, 2))
    if omega is not None:
        g_c = effective_channel(build_channels(cfg, FadingDraw(1.0, 0.0, 1.0, 0.0)), omega, link)
    a, b = np.vdot(g_d, g_d).real / s2, np.vdot(g_c, g_c).real / s2
    c, d = abs(np.vdot(g_c, g_d)) / s2, abs(np.linalg.det(g_d + g_c)) ** 2 / s2**2
    t = np.linspace(-25.0, 4.0, nodes)
    w = np.full(nodes, t[1] - t[0])
    w[[0, -1]] /= 2
    w *= np.exp(t - np.exp(t))
    w /= w.sum()  # so a constant integrates exactly: the 60 raw weights sum to 1 + 2.2e-8
    x1, x2, x3 = np.ix_(np.exp(t), np.exp(t), np.exp(t))
    weight = w[:, None, None] * w[None, :, None] * w[None, None, :]
    prod = x1 * x2 * x3
    base, amp = 1.0 + a * x1 + b * x2 * x3 + d * prod, 2.0 * c * np.sqrt(prod)
    phi = 2.0 * np.pi * np.arange(phases) / phases
    return sum(np.sum(weight * np.log2(base + amp * math.cos(p))) for p in phi) / phases


class TestExactSe:
    """Criterion 6's scenario, checked against its exact mean SE rather than only against its ordering."""

    @pytest.fixture(scope="class")
    def full_codebook(self):
        return build_codebook(desk_cfg(n_ris=4096, grid_size=32), schedule=(4, 8, 16, 16, 16), seed=0)

    @pytest.mark.parametrize("k, power", [(0, 30.0), (1, 46.0)])
    def test_monte_carlo_matches_the_exact_mean(self, full_codebook, k, power):
        cfg = desk_cfg(power, n_ris=4096, grid_size=32)
        scenarios = [
            comm_phase_profile(cfg),
            stage_phase_profile(full_codebook, 1),
            stage_phase_profile(full_codebook, 5),
            None,
        ]
        exact = [exact_mean_se(cfg, omega) for omega in scenarios]
        assert exact[0] >= exact[1] >= exact[2] > exact[3]
        # without a RIS, SE = log2(1 + A·X) and E[SE] = e^{1/A}·E₁(1/A)/ln 2
        g_d = effective_channel(build_channels(cfg, FadingDraw(0.0, 1.0, 0.0, 0.0)), None, build_link_matrices(cfg))
        inv = cfg.sigma_u2_watts / np.linalg.norm(g_d) ** 2
        assert exact[3] == pytest.approx(math.exp(inv) * exp1(inv) / math.log(2.0), abs=1e-6)
        for tag, (omega, value) in enumerate(zip(scenarios, exact)):
            est = average_se(cfg, omega, 20_000, np.random.default_rng((2718, k, tag)))
            assert abs(est.mean - value) < 4.0 * est.halfwidth / 1.96


class TestStagePhaseProfile:
    @pytest.mark.parametrize("beam", [0, -1, 3])
    def test_out_of_range_beam_rejected(self, beam):
        cb = build_matched_codebook(tiny_cfg())  # two axis beams at stage 1
        with pytest.raises(ValueError, match=r"beam must be in 1\.\.2, got "):
            stage_phase_profile(cb, 1, beam=beam)

    def test_out_of_range_stage_rejected(self):
        with pytest.raises(ValueError, match=r"stage must be in 1\.\.3"):
            stage_phase_profile(build_matched_codebook(tiny_cfg()), 0)

    def test_beam_column(self):
        cb = build_matched_codebook(tiny_cfg())
        omega = stage_phase_profile(cb, 2, beam=3)
        np.testing.assert_array_equal(omega.omega_x, cb.stage(2).w_x[:, 2])
        np.testing.assert_array_equal(omega.omega_y, cb.stage(2).w_y[:, 2])
