import math

import numpy as np
import pytest

from risjrc.geometry import (
    DirectionCosine,
    FieldError,
    axis_size,
    direction_grid,
    nearest_grid_index,
    ris_axis_steering,
    ris_full_steering,
    ula_steering,
)

from reference import direction_cosines


class TestUlaSteering:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(ula_steering(0.0, 4), np.ones(4))

    def test_endfire_alternates_sign(self):
        np.testing.assert_allclose(ula_steering(90.0, 2), [1, -1], atol=1e-12)

    def test_entry_matches_phase_formula(self):
        v = ula_steering(45.0, 3)
        expected = np.exp(1j * 2 * np.pi * math.sin(math.radians(45.0)))
        np.testing.assert_allclose(v[2], expected, rtol=1e-12)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            ula_steering(float("nan"), 4)

    def test_first_entry_is_one(self):
        assert ula_steering(-63.2, 16)[0] == 1 + 0j


class TestDirectionCosines:
    def test_zero_elevation_gives_origin(self):
        dc = direction_cosines(123.4, 0.0)
        assert dc.vx == pytest.approx(0.0, abs=1e-15)
        assert dc.vy == pytest.approx(0.0, abs=1e-15)

    def test_reference_direction(self):
        dc = direction_cosines(-37.40, 42.79)
        assert dc.vx == pytest.approx(-0.4127, abs=1e-3)
        assert dc.vy == pytest.approx(0.5397, abs=1e-3)

    def test_disk_boundary(self):
        dc = direction_cosines(90.0, 90.0)
        assert dc.vx == pytest.approx(1.0)
        assert dc.vy == pytest.approx(0.0, abs=1e-15)

    def test_invalid_cosines_rejected(self):
        with pytest.raises(ValueError):
            DirectionCosine(1.5, 0.0)


class TestRisSteering:
    def test_boresight_all_ones(self):
        np.testing.assert_allclose(ris_axis_steering(0.0, 8, 0.25), np.ones(8))

    def test_quarter_wavelength_quadrature(self):
        np.testing.assert_allclose(ris_axis_steering(1.0, 2, 0.25), [1, 1j], atol=1e-12)

    def test_half_wavelength_endfire(self):
        np.testing.assert_allclose(ris_axis_steering(1.0, 2, 0.5), [1, -1], atol=1e-12)

    def test_spacing_bounds(self):
        with pytest.raises(ValueError):
            ris_axis_steering(0.5, 4, 0.6)
        with pytest.raises(ValueError):
            ris_axis_steering(0.5, 4, 0.0)

    @pytest.mark.parametrize("v", [1.5, -1.01, math.nan, math.inf, [0.2, -1.01], [0.0, math.nan]])
    def test_cosine_out_of_range_rejected(self, v):
        with pytest.raises(ValueError, match="direction cosine"):
            ris_axis_steering(v, 4)

    def test_array_of_cosines_equals_row_loop(self):
        for d, n, spacing in ((16, 16, 0.25), (32, 64, 0.25), (8, 4, 0.3)):
            v = direction_grid(d)
            rows = np.stack([ris_axis_steering(x, n, spacing) for x in v])
            np.testing.assert_array_equal(ris_axis_steering(v, n, spacing), rows)

    def test_full_steering_hand_kronecker(self):
        v = DirectionCosine(1.0, 1.0)
        np.testing.assert_allclose(ris_full_steering(v, 4, 0.25), [1, 1j, 1j, -1], atol=1e-12)

    def test_full_steering_boresight(self):
        np.testing.assert_allclose(ris_full_steering(DirectionCosine(0, 0), 16), np.ones(16))

    def test_kronecker_index_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            vx, vy = rng.uniform(-1, 1, 2)
            n_axis = 8
            rx = ris_axis_steering(vx, n_axis)
            ry = ris_axis_steering(vy, n_axis)
            full = ris_full_steering(DirectionCosine(vx, vy), n_axis**2)
            for a in range(n_axis):
                for b in range(n_axis):
                    assert full[a * n_axis + b] == pytest.approx(rx[a] * ry[b])

    def test_non_square_count_rejected(self):
        with pytest.raises(ValueError):
            ris_full_steering(DirectionCosine(0, 0), 15)
        assert axis_size(64) == 8

    @pytest.mark.parametrize("n_ris", [0, -1, 15])
    def test_bad_count_names_its_field(self, n_ris):
        with pytest.raises(FieldError) as e:
            axis_size(n_ris)
        assert e.value.fields == ("n_ris",)


class TestFieldErrors:
    @pytest.mark.parametrize(
        "vx, vy, fields",
        [(math.nan, 0.0, ("vx",)), (0.0, math.inf, ("vy",)), (1.5, -2.0, ("vx", "vy")), (0.5, -1.01, ("vy",))],
    )
    def test_direction_cosine_names_the_components_at_fault(self, vx, vy, fields):
        with pytest.raises(FieldError) as e:
            DirectionCosine(vx, vy)
        assert e.value.fields == fields

    @pytest.mark.parametrize("vx, vy, fields", [("0.1", 0.0, ("vx",)), (0.0, True, ("vy",)), ("0", False, ("vx", "vy"))])
    def test_direction_cosine_rejects_strings_and_bools(self, vx, vy, fields):
        with pytest.raises(FieldError, match="real numbers") as e:
            DirectionCosine(vx, vy)
        assert e.value.fields == fields


class TestInvariants:
    def test_unit_modulus_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            theta = rng.uniform(-89.9, 89.9)
            v = rng.uniform(-1, 1)
            n = int(rng.integers(1, 33))
            assert np.max(np.abs(np.abs(ula_steering(theta, n)) - 1)) < 1e-12
            assert np.max(np.abs(np.abs(ris_axis_steering(v, n)) - 1)) < 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            theta = rng.uniform(-89.9, 89.9)
            np.testing.assert_allclose(
                ula_steering(-theta, 12), ula_steering(theta, 12).conj(), atol=1e-12
            )
            v = rng.uniform(-1, 1)
            np.testing.assert_allclose(
                ris_axis_steering(-v, 12), ris_axis_steering(v, 12).conj(), atol=1e-12
            )

    def test_kronecker_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            vx, vy = rng.uniform(-1, 1, 2)
            rx = ris_axis_steering(vx, 6)
            ry = ris_axis_steering(vy, 6)
            full = ris_full_steering(DirectionCosine(vx, vy), 36)
            assert np.max(np.abs(full - np.kron(rx, ry))) < 1e-12


class TestGrid:
    def test_cell_centers(self):
        g = direction_grid(4)
        np.testing.assert_allclose(g, [-0.75, -0.25, 0.25, 0.75])

    def test_nearest_index(self):
        assert nearest_grid_index(-0.74, 4) == 1
        assert nearest_grid_index(0.9, 4) == 4
        assert nearest_grid_index(direction_grid(16)[6], 16) == 7
