import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjrc.codebook import (
    SolverParams,
    assemble_stage,
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
        g, _ = design_sensing_phases(1, 2, 4, 0.133, grid, rng=np.random.default_rng(1))
        np.testing.assert_allclose(np.abs(g), 1.0, atol=1e-12)

    def test_projection_idempotent(self):
        grid = direction_grid(16)
        g, _ = design_sensing_phases(2, 1, 8, 0.133, grid, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(unit_modulus_projection(g), g)

    def test_final_stage_keeps_matched_gain(self):
        # single-cell partition designed with the full aperture
        d = 16
        grid = direction_grid(d)
        l_s = 16
        idx = 11
        g, _ = design_sensing_phases(4, idx, l_s, 0.133, grid, rng=np.random.default_rng(3))
        a = response_rows(l_s, 0.133, grid, 0.25)
        assert np.abs(a[idx - 1] @ g) >= 0.9 * l_s

    def test_non_unit_init_rejected(self):
        grid = direction_grid(16)
        with pytest.raises(ValueError):
            design_sensing_phases(1, 1, 4, 0.1, grid, init=np.full(4, 0.5 + 0j))

    def test_deterministic_given_seed(self):
        grid = direction_grid(16)
        g1, r1 = design_sensing_phases(2, 3, 8, 0.133, grid, rng=np.random.default_rng(9))
        g2, r2 = design_sensing_phases(2, 3, 8, 0.133, grid, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(g1, g2)
        assert r1 == r2

    def test_fixed_phase_variant_runs(self):
        grid = direction_grid(16)
        params = SolverParams(target_phase="fixed")
        g, res = design_sensing_phases(1, 1, 4, 0.133, grid, params, rng=np.random.default_rng(4))
        np.testing.assert_allclose(np.abs(g), 1.0, atol=1e-12)
        assert res > 0


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
