import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjrc.codebook import (
    SolverParams,
    _unit_phase,
    assemble_stage,
    auto_on_weight,
    build_codebook,
    build_matched_codebook,
    design_comm_phases,
    design_sensing_phases,
    load_codebook,
    mask_fidelity,
    matched_axis_beam,
    partition_indices,
    response_rows,
    save_codebook,
    unit_modulus_projection,
)
from risjrc.geometry import direction_grid, ris_axis_steering
from risjrc.localization import make_scene, trial_coefficients
from risjrc.channels import draw_fading

from conftest import desk_cfg, tiny_cfg


def fit_one_beam(s, i, l_s, v_b_axis, grid, params=None, rng=None, spacing=0.25):
    """Axis beam (s, i) through the stage solver alone; without ``rng``, from its matched start only."""
    params = params or SolverParams()
    if rng is None:
        params, rng = replace(params, n_starts=1), np.random.default_rng(0)  # one start draws nothing
    g, res = design_sensing_phases(s, l_s, [i], [v_b_axis], grid, params, spacing, [rng])
    return g[0][0], float(res[0])


def reference_sensing_fit(s, i, l_s, v_b_axis, grid, params=None, rng=None, spacing=0.25):
    """Per-start projected-gradient fit against ``response_rows(v_b)`` itself: no ramp, no batching."""
    params = params or SolverParams()
    part = partition_indices(s, i, len(grid))
    mask = part.mask(len(grid))
    a = response_rows(l_s, v_b_axis, grid, spacing)
    wts = np.where(mask, np.sqrt(auto_on_weight(s) if params.on_weight is None else params.on_weight), 1.0)
    a_w = wts[:, None] * a
    mu = params.mu if params.mu is not None else 0.5 / np.linalg.svd(a_w, compute_uv=False)[0] ** 2
    phase0 = np.angle(matched_axis_beam(v_b_axis, part.midpoint(grid), l_s, spacing))
    n_perturbed = params.n_starts - 1 if rng is not None else 0
    starts = [np.exp(1j * (phase0 + params.init_perturbation * rng.standard_normal(l_s))) for _ in range(n_perturbed)]
    starts = [np.exp(1j * phase0)] + starts

    def target(g):
        phases = np.exp(1j * np.angle(a @ g)) if params.target_phase == "free" else 1.0
        return wts * l_s * mask * phases

    best_res, best_g = np.inf, None
    for g in starts:
        t_w = target(g)
        prev = r_opt = np.linalg.norm(a_w @ g - t_w)
        g_opt = g
        for _ in range(params.max_iters):
            g = np.exp(1j * np.angle(g + mu * (a_w.conj().T @ (t_w - a_w @ g))))
            t_w = target(g)
            res = np.linalg.norm(a_w @ g - t_w)
            if res < r_opt:
                r_opt, g_opt = res, g
            if abs(prev - res) < params.tol * max(prev, 1e-300):
                break
            prev = res
        if r_opt < best_res:
            best_res, best_g = r_opt, g_opt
    return best_g, best_res


def reference_stages(cfg, schedule, seed):
    """(w_x, w_y, residuals_x, residuals_y) per stage from per-beam reference fits, drawn in
    ``build_codebook``'s RNG order: stage, then beam, one generator per beam.  Each axis is fitted
    independently at its own incidence with no ramp, from the beam's one generator."""
    grid = direction_grid(cfg.grid_size)
    ss = np.random.SeedSequence(seed)
    out = []
    for s, l_s in enumerate(schedule, start=1):
        beams = {"x": [], "y": []}
        for i in range(1, 2**s + 1):
            child = ss.spawn(2)[0]
            for axis, v_b, v_u in (("x", cfg.v_b.vx, cfg.v_u.vx), ("y", cfg.v_b.vy, cfg.v_u.vy)):
                rng = np.random.default_rng(child)
                g, r = reference_sensing_fit(s, i, l_s, v_b, grid, rng=rng, spacing=cfg.ris_spacing)
                h = design_comm_phases(cfg.n_axis - l_s, v_b, v_u, cfg.ris_spacing, offset=l_s)
                beams[axis].append((np.concatenate([g, h]), r))
        out.append([np.stack([b[k] for b in beams[axis]], axis=-1) for k in (0, 1) for axis in "xy"])
    return out


class TestPartitions:
    def test_first_half_at_stage_one(self):
        p = partition_indices(1, 1, 32)
        np.testing.assert_array_equal(p.indices, np.arange(1, 17))

    def test_single_cell_at_last_stage(self):
        p = partition_indices(5, 7, 32)
        np.testing.assert_array_equal(p.indices, [7])

    def test_partition_property(self):
        for s in (1, 2, 3):
            seen = np.concatenate([partition_indices(s, i, 32).indices for i in range(1, 2**s + 1)])
            np.testing.assert_array_equal(np.sort(seen), np.arange(1, 33))
            assert len(set(seen)) == 32

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            partition_indices(1, 3, 32)
        with pytest.raises(ValueError):
            partition_indices(6, 1, 32)


class TestResponseRows:
    def test_khatri_rao_row_identity(self):
        rng = np.random.default_rng(0)
        grid = direction_grid(16)
        for _ in range(20):
            l_s = int(rng.integers(2, 12))
            v_b = rng.uniform(-1, 1)
            g = np.exp(1j * rng.uniform(0, 2 * np.pi, l_s))
            a = response_rows(l_s, v_b, grid, 0.25)
            r_b = ris_axis_steering(v_b, l_s)
            for j, v in enumerate(grid):
                direct = ris_axis_steering(v, l_s).conj() @ (g * r_b)
                assert abs(a[j] @ g - direct) <= 1e-12 * abs(direct)


class TestSensingDesign:
    def test_output_unit_modulus(self):
        grid = direction_grid(16)
        g, _ = fit_one_beam(1, 2, 4, 0.133, grid, rng=np.random.default_rng(1))
        np.testing.assert_allclose(np.abs(g), 1.0, atol=1e-12)

    def test_projection_idempotent(self):
        grid = direction_grid(16)
        g, _ = fit_one_beam(2, 1, 8, 0.133, grid, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(unit_modulus_projection(g), g)

    def test_in_loop_projection_maps_zero_to_one(self):
        g = np.array([0j, 3 - 4j, -2 + 0j, 1e-300j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _unit_phase(g)
        assert u[0] == 1
        np.testing.assert_allclose(u, unit_modulus_projection(g), rtol=0, atol=1e-15)

    def test_final_stage_keeps_matched_gain(self):
        # single-cell partition designed with the full aperture
        d = 16
        grid = direction_grid(d)
        l_s = 16
        idx = 11
        g, _ = fit_one_beam(4, idx, l_s, 0.133, grid, rng=np.random.default_rng(3))
        a = response_rows(l_s, 0.133, grid, 0.25)
        assert np.abs(a[idx - 1] @ g) >= 0.9 * l_s

    def test_one_generator_per_beam_required(self):
        grid = direction_grid(16)
        with pytest.raises(ValueError, match="one generator per beam"):
            design_sensing_phases(1, 4, [1, 2], [0.1, 0.1], grid, SolverParams(), 0.25, [np.random.default_rng(0)])

    def test_two_incidences_equal_two_single_calls(self):
        # the solve does not depend on the incidence: one call ramped to two equals a call per incidence
        grid, params, v_b = direction_grid(16), SolverParams(), (0.133, -0.41)

        def solve(v):
            rngs = [np.random.default_rng(seed) for seed in (11, 12, 13, 14)]
            return design_sensing_phases(2, 8, [1, 2, 3, 4], v, grid, params, 0.25, rngs)

        g, res = solve(v_b)
        assert g.shape == (2, 4, 8) and res.shape == (4,)
        for j, v in enumerate(v_b):
            g_one, res_one = solve([v])
            np.testing.assert_array_equal(g[j], g_one[0])
            np.testing.assert_array_equal(res, res_one)

    def test_deterministic_given_seed(self):
        grid = direction_grid(16)
        g1, r1 = fit_one_beam(2, 3, 8, 0.133, grid, rng=np.random.default_rng(9))
        g2, r2 = fit_one_beam(2, 3, 8, 0.133, grid, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(g1, g2)
        assert r1 == r2

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        s=st.integers(1, 4),
        l_s=st.integers(2, 12),
        v_b=st.floats(-1.0, 1.0),
        seed=st.none() | st.integers(0, 2**32 - 1),
        target_phase=st.sampled_from(["free", "fixed"]),
        mu=st.sampled_from([None, 1e-3]),
        max_iters=st.integers(0, 4),
        tol=st.sampled_from([1e-8, 1e-3, 3e-2]),
    )
    def test_matches_reference(self, data, s, l_s, v_b, seed, target_phase, mu, max_iters, tol):
        """Ramp identity: the canonical (v_b = 0) solve, ramped back to v_b, equals the direct fit.

        A few iterations isolate the identity from the solver's own conditioning: a matched
        start can sit on an unstable fixed point that grows a last-bit difference several-fold
        per iteration, and with l_s = 1 the free target leaves only a global phase, on which all
        iterates tie.  TestBuildCodebook compares full-length solves at codebook scale.
        """
        grid = direction_grid(16)
        i = data.draw(st.integers(1, 2**s))
        params = SolverParams(target_phase=target_phase, mu=mu, max_iters=max_iters, tol=tol)
        rng = (lambda: None) if seed is None else (lambda: np.random.default_rng(seed))
        g, res = fit_one_beam(s, i, l_s, v_b, grid, params, rng=rng())
        g_ref, res_ref = reference_sensing_fit(s, i, l_s, v_b, grid, params, rng=rng())
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-10)
        assert res == pytest.approx(res_ref, rel=0, abs=1e-10)

    def test_fixed_phase_variant_runs(self):
        grid = direction_grid(16)
        params = SolverParams(target_phase="fixed")
        g, res = fit_one_beam(1, 1, 4, 0.133, grid, params, rng=np.random.default_rng(4))
        np.testing.assert_allclose(np.abs(g), 1.0, atol=1e-12)
        assert res > 0


class TestSolverParams:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("target_phase", "Free"),
            ("n_starts", 0),
            ("max_iters", -5),
            ("tol", -1.0),
            ("tol", float("nan")),
            ("mu", 0.0),
            ("mu", float("inf")),
            ("on_weight", -1.0),
            ("init_perturbation", -0.1),
            ("init_perturbation", float("nan")),
            ("residual_ceiling_factor", 0.0),
        ],
    )
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverParams(**{name: value})

    def test_edge_values_accepted(self):
        SolverParams(target_phase="fixed", n_starts=1, max_iters=0, tol=0.0, mu=1e-3, on_weight=1.0)
        SolverParams(init_perturbation=0.0, residual_ceiling_factor=float("inf"))


class TestCommDesign:
    def test_identical_directions_give_ones(self):
        h = design_comm_phases(6, 0.25, 0.25)
        np.testing.assert_allclose(h, np.ones(6), atol=1e-12)

    def test_gain_reaches_element_count(self):
        c_s, offset = 12, 4
        v_b, v_u = 0.133, 0.105
        h = design_comm_phases(c_s, v_b, v_u, offset=offset)
        n_axis = offset + c_s
        r_u = ris_axis_steering(v_u, n_axis)[offset:]
        r_b = ris_axis_steering(v_b, n_axis)[offset:]
        gain = abs(r_u.conj() @ (h * r_b))
        assert gain == pytest.approx(c_s, abs=1e-9)

    def test_random_profiles_never_beat_it(self):
        rng = np.random.default_rng(5)
        c_s, offset = 12, 4
        v_b, v_u = 0.133, 0.105
        n_axis = offset + c_s
        r_u = ris_axis_steering(v_u, n_axis)[offset:]
        r_b = ris_axis_steering(v_b, n_axis)[offset:]
        for _ in range(100):
            h = np.exp(1j * rng.uniform(0, 2 * np.pi, c_s))
            assert abs(r_u.conj() @ (h * r_b)) <= c_s + 1e-9

    def test_zero_elements_allowed(self):
        assert design_comm_phases(0, 0.1, 0.2).size == 0


class TestAssembleStage:
    def test_stage_one_has_four_beams(self, desk_codebook):
        omega = assemble_stage(desk_codebook.stage(1).w_x, desk_codebook.stage(1).w_y)
        assert omega.shape == (desk_codebook.n_ris, 4)

    def test_column_is_pairwise_kronecker(self, desk_codebook):
        book = desk_codebook.stage(2)
        omega = assemble_stage(book.w_x, book.w_y)
        s = 2
        for a in (1, 3):
            for b in (2, 4):
                col = (a - 1) * 2**s + (b - 1)
                np.testing.assert_allclose(
                    omega[:, col], np.kron(book.w_x[:, a - 1], book.w_y[:, b - 1]), atol=1e-12
                )

    def test_unit_modulus(self, desk_codebook):
        book = desk_codebook.stage(1)
        omega = assemble_stage(book.w_x, book.w_y)
        np.testing.assert_allclose(np.abs(omega), 1.0, atol=1e-12)

    def test_first_quadrant_beam_wins_for_third_quadrant_target(self, desk_codebook):
        # target in -1 <= vx, vy <= 0 must light up the (1,1) stage-1 beam
        from risjrc.geometry import DirectionCosine

        cfg = desk_cfg(v_t=DirectionCosine(-0.5, -0.5))
        scene = make_scene(cfg)
        book = desk_codebook.stage(1)
        coh, _ = trial_coefficients(scene, draw_fading(np.random.default_rng(0)))
        stats = []
        for a in (1, 2):
            for b in (1, 2):
                a_x = scene.q_x @ book.w_x[:, a - 1]
                a_y = scene.q_y @ book.w_y[:, b - 1]
                stats.append(abs((a_x * a_y) ** 2 * coh) ** 2)
        assert int(np.argmax(stats)) == 0


class TestBuildCodebook:
    def test_stage_structure(self, five_stage_codebook):
        cb = five_stage_codebook
        assert cb.n_stages == 5
        assert [b.n_beams_axis for b in cb.stages] == [2, 4, 8, 16, 32]
        assert sum(b.n_beams_axis for b in cb.stages) == 62

    def test_split_sums_to_aperture(self, five_stage_codebook):
        for b in five_stage_codebook.stages:
            assert b.l_s + b.c_s == 32

    def test_all_entries_unit_modulus(self, five_stage_codebook):
        for b in five_stage_codebook.stages:
            np.testing.assert_allclose(np.abs(b.w_x), 1.0, atol=1e-12)
            np.testing.assert_allclose(np.abs(b.w_y), 1.0, atol=1e-12)

    def test_mask_gates(self, five_stage_codebook):
        cfg = desk_cfg(grid_size=32)
        for st in mask_fidelity(five_stage_codebook, cfg):
            l_s = five_stage_codebook.schedule[st.stage - 1]
            assert st.on_mean >= 0.7 * l_s, st
            assert st.off_mean <= 0.25 * l_s, st

    def test_determinism(self):
        cfg = tiny_cfg()
        cb1 = build_codebook(cfg, seed=5)
        cb2 = build_codebook(cfg, seed=5)
        for b1, b2 in zip(cb1.stages, cb2.stages):
            np.testing.assert_array_equal(b1.w_x, b2.w_x)
            np.testing.assert_array_equal(b1.w_y, b2.w_y)

    @staticmethod
    def assert_matches_reference(cb, cfg, seed):
        for book, ref in zip(cb.stages, reference_stages(cfg, cb.schedule, seed), strict=True):
            for got, want in zip((book.w_x, book.w_y, book.residuals_x, book.residuals_y), ref):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_tiny_matches_reference(self):
        cfg = tiny_cfg()
        self.assert_matches_reference(build_codebook(cfg, seed=3), cfg, 3)

    def test_desk_matches_reference(self, desk_codebook):
        self.assert_matches_reference(desk_codebook, desk_cfg(), 0)

    @pytest.mark.parametrize("which", ["tiny", "desk"])
    def test_axes_ramp_one_canonical_fit(self, request, which):
        # w_y's sensing block is w_x's moved from incidence v_bx to v_by, with one residual per beam
        if which == "tiny":
            cfg, cb = tiny_cfg(), build_codebook(tiny_cfg(), seed=3)
        else:
            cfg, cb = desk_cfg(), request.getfixturevalue("desk_codebook")
        for book in cb.stages:
            np.testing.assert_array_equal(book.residuals_y, book.residuals_x)
            r_x, r_y = (ris_axis_steering(v, book.l_s, cfg.ris_spacing) for v in (cfg.v_b.vx, cfg.v_b.vy))
            ramp = r_y.conj() * r_x
            want = unit_modulus_projection(ramp[:, None] * book.w_x[: book.l_s])
            np.testing.assert_allclose(book.w_y[: book.l_s], want, rtol=0, atol=1e-12)

    def test_schedule_length_checked(self):
        with pytest.raises(ValueError):
            build_codebook(tiny_cfg(), schedule=(4, 8))


class TestSerialization:
    def test_roundtrip(self, tmp_path, desk_codebook):
        path = tmp_path / "book.riscb"
        save_codebook(desk_codebook, str(path))
        loaded = load_codebook(str(path))
        assert loaded.d == desk_codebook.d
        assert loaded.n_ris == desk_codebook.n_ris
        assert loaded.schedule == desk_codebook.schedule
        for b1, b2 in zip(desk_codebook.stages, loaded.stages):
            np.testing.assert_array_equal(b1.w_x, b2.w_x)
            np.testing.assert_array_equal(b1.w_y, b2.w_y)
            np.testing.assert_array_equal(b1.residuals_x, b2.residuals_x)

    def test_rejects_other_files(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a codebook")
        with pytest.raises(ValueError):
            load_codebook(str(p))


@pytest.fixture(scope="module")
def saved_tiny_book(tmp_path_factory):
    """Bytes of a saved tiny codebook and a scratch path to write variants to."""
    path = tmp_path_factory.mktemp("books") / "book.riscb"
    save_codebook(build_matched_codebook(tiny_cfg()), str(path))
    return path.read_bytes(), path


_TOP_KEYS = {"d": 8, "n_ris": 16, "spacing": 0.25, "schedule": [4]}
_STAGE_1 = dict(stage=1, l_s=4, c_s=0, n_beams_axis=2, residuals_x=[], residuals_y=[], quality_warnings=[])


class TestMalformedFiles:
    @settings(max_examples=60, deadline=None)
    @given(draw=st.data())
    def test_every_truncation_rejected(self, saved_tiny_book, draw):
        data, path = saved_tiny_book
        path.write_bytes(data[: draw.draw(st.integers(0, len(data) - 1))])
        with pytest.raises(ValueError, match=path.name):
            load_codebook(str(path))

    @settings(max_examples=20, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64))
    def test_trailing_bytes_rejected(self, saved_tiny_book, extra):
        data, path = saved_tiny_book
        path.write_bytes(data + extra)
        with pytest.raises(ValueError, match="trailing"):
            load_codebook(str(path))

    @pytest.mark.parametrize(
        "header, match",
        [
            ({"d": 8}, "codebook header lacks key 'n_ris'"),
            ([1, 2], "codebook header is not a JSON object"),
            ({**_TOP_KEYS, "stages": 3}, "'stages' is not a list"),
            ({**_TOP_KEYS, "stages": [{"stage": 1}]}, "stage 1 lacks key 'l_s'"),
            ({**_TOP_KEYS, "n_ris": "16", "stages": [_STAGE_1]}, "key 'n_ris' is not an integer"),
            ({**_TOP_KEYS, "stages": [{**_STAGE_1, "n_beams_axis": -1}]}, "stage 1 key 'n_beams_axis' is -1"),
            ({**_TOP_KEYS, "n_ris": 15, "stages": [_STAGE_1]}, "key 'n_ris' is not a positive square"),
            ({**_TOP_KEYS, "schedule": [4, 4, 4], "stages": []}, "key 'schedule' is not 0 integers"),
            ({**_TOP_KEYS, "schedule": [], "stages": []}, "key 'd' is 8, not 2\\*\\*n for n = 0"),
        ],
    )
    def test_incomplete_header_rejected(self, tmp_path, header, match):
        path = tmp_path / "header.riscb"
        path.write_bytes(b"RISCB1\n" + json.dumps(header).encode() + b"\n")
        with pytest.raises(ValueError, match=f"{path.name}: .*{match}"):
            load_codebook(str(path))

    @pytest.mark.parametrize(
        "edit, match",
        [
            ({"stage": 1, "residuals_x": [1.0]}, "stage 1 key 'residuals_x' is not 2 finite numbers >= 0"),
            ({"stage": 1, "residuals_y": ["a", None]}, "stage 1 key 'residuals_y' is not 2 finite numbers >= 0"),
            ({"stage": 1, "residuals_y": [float("nan"), -3.0]}, "stage 1 key 'residuals_y' is not 2 finite"),
            ({"stage": 2, "residuals_x": [0.0, -3.0, 0.0, 0.0]}, "stage 2 key 'residuals_x' is not 4 finite"),
            ({"stage": 3, "residuals_x": [float("inf")] * 8}, "stage 3 key 'residuals_x' is not 8 finite"),
            ({"spacing": -1.0}, "codebook header key 'spacing' is not in \\(0, 0.5\\]: -1.0"),
            ({"spacing": 0}, "codebook header key 'spacing' is not in \\(0, 0.5\\]: 0"),
            ({"spacing": float("nan")}, "codebook header key 'spacing' is not in \\(0, 0.5\\]: nan"),
            ({"spacing": 0.75}, "codebook header key 'spacing' is not in \\(0, 0.5\\]: 0.75"),
        ],
        ids=["short", "not-numbers", "nan-negative", "negative", "infinite", "spacing-neg", "spacing-0", "spacing-nan",
             "spacing-0.75"],
    )
    def test_bad_header_values_rejected(self, saved_tiny_book, edit, match):
        # the saved book with one header value replaced; the payload stays whole
        data, path = saved_tiny_book
        header_line, payload = data[len(b"RISCB1\n") :].split(b"\n", 1)
        header = json.loads(header_line)
        edit = dict(edit)
        target = header["stages"][edit.pop("stage") - 1] if "stage" in edit else header
        target.update(edit)
        path.write_bytes(b"RISCB1\n" + json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=f"{path.name}: .*{match}"):
            load_codebook(str(path))

    def test_stage_count_must_match_d(self, saved_tiny_book):
        # the D=8 book with its last stage cut from both the header and the payload
        data, path = saved_tiny_book
        header_line, payload = data[len(b"RISCB1\n") :].split(b"\n", 1)
        header = json.loads(header_line)
        header["schedule"], header["stages"] = header["schedule"][:2], header["stages"][:2]
        last_stage_bytes = 2 * 4 * 2**3 * 16  # w_x and w_y: 4 axis elements x 8 beams, complex128
        path.write_bytes(b"RISCB1\n" + json.dumps(header).encode() + b"\n" + payload[:-last_stage_bytes])
        with pytest.raises(ValueError, match=f"{path.name}: .*key 'd' is 8, not 2\\*\\*n for n = 2"):
            load_codebook(str(path))


class TestOneBasedStage:
    @pytest.mark.parametrize("s", [0, -1, 4])
    def test_out_of_range_stage_rejected(self, s):
        cb = build_matched_codebook(tiny_cfg())  # stages 1..3
        with pytest.raises(ValueError, match=r"stage must be in 1\.\.3, got "):
            cb.stage(s)

    def test_stages_in_range(self):
        cb = build_matched_codebook(tiny_cfg())
        assert [cb.stage(s).stage for s in (1, 2, 3)] == [1, 2, 3]
