import json
import math
import os
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risjrc.codebook import (
    CODEBOOK_MAGIC,
    START_PERTURBATION,
    SolverParams,
    _stage_book,
    auto_on_weight,
    build_codebook,
    design_comm_phases,
    design_sensing_phases,
    load_codebook,
    mask_fidelity,
    partition_indices,
    response_rows,
    save_codebook,
    unit_modulus_projection,
)
from risjrc.comms import comm_phase_profile
from risjrc.geometry import DirectionCosine, direction_grid, ris_axis_steering
from risjrc.localization import make_scene, trial_coefficients
from risjrc.channels import ScenarioConfig, draw_fading

from conftest import desk_cfg, tiny_cfg
from reference import assemble_stage, build_matched_codebook


def fit_one_beam(s, i, l_s, v_b_axis, grid, params=None, rng=None, spacing=0.25):
    """Axis beam (s, i) at incidence ``v_b_axis``: the stage solver's canonical fit, ramped by hand as
    conj(r(v_b)) * fit; without ``rng``, from its matched start only."""
    params = params or SolverParams()
    if rng is None:
        params, rng = replace(params, n_starts=1), np.random.default_rng(0)  # one start draws nothing
    h, res = design_sensing_phases(s, l_s, [i], grid, params, spacing, [rng])
    return unit_modulus_projection(ris_axis_steering(v_b_axis, l_s, spacing).conj() * h[0]), float(res[0])


def reference_sensing_fit(s, i, l_s, v_b_axis, grid, params=None, rng=None, spacing=0.25):
    """Per-start accelerated MM fit against ``response_rows(v_b)`` itself: no ramp, no batching, and the
    extrapolated point's response formed directly rather than from stored Gram terms."""
    params = params or SolverParams()
    part = partition_indices(s, i, len(grid))
    mask = part.mask(len(grid))
    a = response_rows(l_s, v_b_axis, grid, spacing)
    wts = np.where(mask, np.sqrt(auto_on_weight(s)), 1.0)
    a_w = wts[:, None] * a
    mu = 1.0 / np.linalg.svd(a_w, compute_uv=False)[0] ** 2
    r_b, r_mid = (ris_axis_steering(v, l_s, spacing) for v in (v_b_axis, part.midpoint(grid)))
    phase0 = np.angle(r_b.conj() * r_mid)
    n_perturbed = params.n_starts - 1 if rng is not None else 0
    starts = [np.exp(1j * (phase0 + START_PERTURBATION * rng.standard_normal(l_s))) for _ in range(n_perturbed)]
    starts = [np.exp(1j * phase0)] + starts

    def target(g):
        return wts * l_s * mask * np.exp(1j * np.angle(a @ g))

    def mm_step(g):
        return np.exp(1j * np.angle(g + mu * (a_w.conj().T @ (target(g) - a_w @ g))))

    def residual(g):
        return np.linalg.norm(a_w @ g - target(g))

    best_res, best_g = np.inf, None
    for g in starts:
        g_prev, k, res = g, 1, residual(g)
        for _ in range(params.max_iters):
            beta = max(k - 1, 0) / (k + 2)
            g_new = mm_step(g + beta * (g - g_prev))
            res_new, k = residual(g_new), k + 1
            if res_new > res:  # keep g: retry an extrapolated step as the plain step from g, stop after a plain one
                if beta == 0:
                    break
                k = 0
                continue
            g_prev, g, prev, res = g, g_new, res, res_new
            if abs(prev - res) < params.tol * max(prev, 1e-300):
                break
        if res < best_res:
            best_res, best_g = res, g
    return best_g, best_res


def reference_stages(cfg, schedule, seed):
    """(w_x, w_y, x residuals, y residuals) per stage from per-beam reference fits, drawn in
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


def divide_phase(g):
    """g / |g| by numpy's complex division, exact zeros to 1: the in-loop projection ``reference_stage_solve`` pins."""
    mag = np.abs(g)
    return np.divide(g, mag, out=np.ones_like(g), where=mag > 0)


def reference_stage_solve(s, l_s, parts, grid, params, spacing, rngs):
    """``design_sensing_phases`` with the straightforward loop: the residual and fit of every row still
    iterating are scattered into the full-size arrays on every iteration, h, h G and y are separate arrays,
    beta_k is computed from a float k, steps are formed out of place, keeping the iterate of a rejected step
    is an ``np.where`` and iterates are projected by ``divide_phase``.  The solver must return the same
    values, bit for bit."""
    d = len(grid)
    a0 = response_rows(l_s, 0.0, grid, spacing)
    specs = [partition_indices(s, i, d) for i in parts]
    masks = np.array([p.mask(d) for p in specs])
    w_on = auto_on_weight(s)
    wts = np.where(masks, math.sqrt(w_on), 1.0)
    sigma_max = np.linalg.svd(wts[:, :, None] * a0, compute_uv=False)[:, 0]

    phase0 = np.angle(ris_axis_steering([p.midpoint(grid) for p in specs], l_s, spacing))
    n_starts = params.n_starts
    pert = np.stack([np.vstack([np.zeros(l_s), rng.standard_normal((n_starts - 1, l_s))]) for rng in rngs])
    h = np.exp(1j * (phase0[:, None, :] + START_PERTURBATION * pert)).reshape(-1, l_s)
    mu = np.repeat(1.0 / sigma_max**2, n_starts)[:, None]
    gram = a0.T @ a0.conj()
    a_on = a0[np.repeat([p.indices - 1 for p in specs], n_starts, axis=0)]
    a_on_c = a_on.conj()

    def gram_terms(h, a_on):
        hg = h @ gram
        y = np.einsum("nbl,nl->nb", a_on, h)
        mag = np.abs(y)
        res2 = np.vecdot(h, hg).real + (w_on * (mag - l_s) ** 2 - mag**2).sum(axis=1)
        return hg, y, np.sqrt(np.maximum(res2, 0.0))

    def mm_step(h, hg, y, a_on_c, mu):
        c = (w_on - 1.0) * y - w_on * l_s * divide_phase(y)
        return divide_phase(h - mu * (hg + (c[:, None, :] @ a_on_c)[:, 0]))

    hg, y, res = gram_terms(h, a_on)
    last_h, last_res = h.copy(), res.copy()
    h_p, hg_p, y_p, k = h, hg, y, np.ones(len(h))
    ids = np.arange(len(h))
    for _ in range(params.max_iters):
        beta = (np.maximum(k - 1.0, 0.0) / (k + 2.0))[:, None]
        z = h + beta * (h - h_p)
        h_new = mm_step(z, hg + beta * (hg - hg_p), y + beta * (y - y_p), a_on_c, mu)
        hg_new, y_new, res_new = gram_terms(h_new, a_on)
        back = res_new > res
        k = np.where(back, 0.0, k + 1.0)
        h_new = np.where(back[:, None], h, h_new)
        hg_new = np.where(back[:, None], hg, hg_new)
        y_new = np.where(back[:, None], y, y_new)
        res_new = np.where(back, res, res_new)
        last_res[ids], last_h[ids] = res_new, h_new
        going = np.where(back, beta[:, 0] > 0, ~(np.abs(res - res_new) < params.tol * np.maximum(res, 1e-300)))
        h_p, hg_p, y_p, h, hg, y, res = h, hg, y, h_new, hg_new, y_new, res_new
        if not going.all():
            state = (ids, h, hg, y, h_p, hg_p, y_p, k, res, a_on, a_on_c, mu)
            ids, h, hg, y, h_p, hg_p, y_p, k, res, a_on, a_on_c, mu = (x[going] for x in state)
            if not ids.size:
                break

    k = np.argmin(last_res.reshape(-1, n_starts), axis=1)
    best = np.arange(len(specs)) * n_starts + k
    return last_h[best], last_res[best]


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
        for book in build_codebook(tiny_cfg(), seed=1).stages:
            for w in (book.w_x, book.w_y):
                np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(*[st.sampled_from([0.0, -0.0, 5e-324, -4e-320, 3e-310, 2.2e-308, 1e-300, 1e300, -1e300, 3e300])
                        | st.floats(-1e300, 1e300)] * 2),
            min_size=1,
            max_size=24,
        )
    )
    def test_projection_contract(self, parts):
        """Exact zeros map to 1.  Where |g| is at least the smallest normal float, the projection has the values
        of numpy's g / |g|.  Bytes may differ only in the sign of an exactly-zero part: numpy's complex division
        computes the real part as (re + im * 0) / |g| and the imaginary part as (im - re * 0) / |g|, so it gives
        -0-1j for -0-1j, where re * (1/|g|) gives 0-1j.  Below it, where 1/|g| overflows or holds few bits, the
        projection is exp(j angle(g)).  No input warns."""
        g = np.empty(len(parts), dtype=complex)
        g.real, g.imag = np.array(parts).T
        mag, tiny = np.abs(g), np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = unit_modulus_projection(g)
        assert np.all(got[mag == 0] == 1)
        small = (mag > 0) & (mag < tiny)
        np.testing.assert_allclose(got[small], np.exp(1j * np.angle(g[small])), rtol=0, atol=1e-15)
        got, want = got[mag >= tiny], g[mag >= tiny] / mag[mag >= tiny]
        np.testing.assert_array_equal(got, want)
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert np.all(got.view(float)[differ] == 0) and np.all(want.view(float)[differ] == 0)

    def test_projection_keeps_nan(self):
        # a nan iterate must stay visible, not become the unit entry that zeros map to
        got = unit_modulus_projection(np.array([complex(np.nan, 0.0), 0j, 1 + 1j]))
        assert np.isnan(got[0]) and got[1] == 1 and got[2] == (1 + 1j) / abs(1 + 1j)

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
            design_sensing_phases(1, 4, [1, 2], grid, SolverParams(), 0.25, [np.random.default_rng(0)])

    def test_at_least_one_beam_required(self):
        with pytest.raises(ValueError, match="at least one beam"):
            design_sensing_phases(1, 4, [], direction_grid(16), SolverParams(), 0.25, [])

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
        max_iters=st.integers(0, 4),
        tol=st.sampled_from([1e-8, 1e-3, 3e-2]),
    )
    def test_matches_reference(self, data, s, l_s, v_b, seed, max_iters, tol):
        """Ramp identity: the canonical (v_b = 0) solve, ramped back to v_b, equals the direct fit.

        A few iterations isolate the identity from the solver's own conditioning: a matched
        start can sit on an unstable fixed point that grows a last-bit difference several-fold
        per iteration, and with l_s = 1 the refit target leaves only a global phase, on which all
        iterates tie.  TestBuildCodebook compares full-length solves at codebook scale.
        """
        grid = direction_grid(16)
        i = data.draw(st.integers(1, 2**s))
        params = SolverParams(max_iters=max_iters, tol=tol)
        rng = (lambda: None) if seed is None else (lambda: np.random.default_rng(seed))
        g, res = fit_one_beam(s, i, l_s, v_b, grid, params, rng=rng())
        g_ref, res_ref = reference_sensing_fit(s, i, l_s, v_b, grid, params, rng=rng())
        np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-10)
        assert res == pytest.approx(res_ref, rel=0, abs=1e-10)


# grid size and default schedule of tiny_cfg, desk_cfg and the 64x64-RIS scenario
SCALES = {"tiny": (8, (4, 4, 4)), "desk": (16, (4, 8, 16, 16)), "full": (32, (4, 8, 16, 16, 16))}


def stage_solves(d, schedule, seed):
    """(s, l_s, parts, grid, seeds) per stage of ``build_codebook(..., seed=seed)`` at grid size d, the
    generator seeds spawned in its order."""
    grid = direction_grid(d)
    ss = np.random.SeedSequence(seed)
    for s, l_s in enumerate(schedule, start=1):
        yield s, l_s, range(1, 2**s + 1), grid, ss.spawn(2 * 2**s)[0::2]


def assert_stage_solves_match_reference(d, schedule, params, seed, spacing=0.25):
    """Every stage solve of ``build_codebook(..., seed=seed)`` at grid size d equals ``reference_stage_solve``
    bit for bit, both fed generators from the same seeds."""
    for s, l_s, parts, grid, children in stage_solves(d, schedule, seed):
        got = design_sensing_phases(s, l_s, parts, grid, params, spacing, [np.random.default_rng(c) for c in children])
        want = reference_stage_solve(s, l_s, parts, grid, params, spacing, [np.random.default_rng(c) for c in children])
        for g, w, what in zip(got, want, ("fits", "residuals")):
            assert np.array_equal(g, w), f"stage {s} {what} differ from the reference loop"


class TestStageSolveBits:
    """The solver's loop returns the values of ``reference_stage_solve``, to the bit."""

    # at spacing 0.5 some desk rows fit exactly and sit on the residual's rounding floor, where a plain MM step
    # does not lower the residual and the row stops at its iterate
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scale, spacing", [(k, 0.25) for k in SCALES] + [("desk", 0.5)], ids=[*SCALES, "desk-spacing-0.5"])
    def test_codebook_scales(self, scale, spacing, seed):
        assert_stage_solves_match_reference(*SCALES[scale], SolverParams(), seed, spacing)

    @pytest.mark.parametrize("max_iters", [12, 40])
    def test_kept_iterates_are_returned(self, max_iters):
        # with four starts the rows that keep their iterate lose to another start of their beam; with one start
        # every row is returned, and at every stage some keep theirs by iteration 2
        params = SolverParams(max_iters=max_iters, tol=0.0, n_starts=1)
        assert_stage_solves_match_reference(16, (4, 8, 16, 16), params, 0, spacing=0.5)

    @pytest.mark.parametrize("n_starts", [1, 4])
    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    @pytest.mark.parametrize("max_iters", [0, 1, 3, 37])
    def test_stopping_rules(self, max_iters, tol, n_starts):
        # rows stop at different iterations and improve on only some of them
        params = SolverParams(max_iters=max_iters, tol=tol, n_starts=n_starts)
        assert_stage_solves_match_reference(16, (4, 8, 16, 16), params, 1)


class TestSolverDescent:
    """At mu = 1 / sigma_max**2 each projected step minimizes a majorizer of the residual.  A step that raises
    it is rejected and the row keeps its last iterate: after an extrapolated step the next iteration takes the
    MM step from that iterate, and after a plain MM step the row stops.  So a row's accepted residual never
    rises and the solver returns each row's last iterate."""

    @pytest.mark.parametrize("spacing", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("scale", SCALES)
    def test_residual_never_rises(self, scale, spacing):
        d, schedule = SCALES[scale]
        for s, l_s, parts, grid, _ in stage_solves(d, schedule, 0):
            rngs = [np.random.default_rng(0) for _ in parts]  # one start draws nothing
            res = np.array([
                design_sensing_phases(s, l_s, parts, grid, SolverParams(max_iters=k, tol=0.0, n_starts=1), spacing, rngs)[1]
                for k in range(41)
            ])
            prev = res[:-1]
            slack = np.where(prev > 0, 1e-12 * prev, 1e-12 * l_s * math.sqrt(d))
            rose = np.argwhere(res[1:] > prev + slack)
            assert not rose.size, f"stage {s}: (iteration, beam) {rose[0]} raised the residual"

    @staticmethod
    def gram_evaluations(monkeypatch, spacing):
        """Per stage of the desk schedule, the calls of a one-start stage solve with ``tol`` 0 and 40 iterations
        to ``np.einsum``, which it makes once per evaluation of the Gram terms."""
        calls, einsum = [], np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **kw: calls.append(1) or einsum(*a, **kw))
        params = SolverParams(max_iters=40, tol=0.0, n_starts=1)
        for s, l_s, parts, grid, _ in stage_solves(*SCALES["desk"], 0):
            calls.clear()
            design_sensing_phases(s, l_s, parts, grid, params, spacing, [np.random.default_rng(0) for _ in parts])
            yield s, len(calls)

    def test_one_gram_evaluation_per_iteration(self, monkeypatch):
        """A stage solve evaluates the Gram terms once for the starts and once per iteration, rejected steps
        included.  At spacing 0.25 some row of every desk stage runs all 40 iterations."""
        for s, n in self.gram_evaluations(monkeypatch, 0.25):
            assert n == 41, f"stage {s}"

    def test_rejected_plain_step_stops_the_row(self, monkeypatch):
        """With ``tol`` 0 only a rejected plain step stops a row.  At spacing 0.5 the desk rows of stages 1-3
        fit exactly, and on the residual's rounding floor their plain steps are rejected long before the cap."""
        for s, n in self.gram_evaluations(monkeypatch, 0.5):
            assert s == 4 or n < 41, f"stage {s}"

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scale", ["desk", "full"])
    def test_rows_stop_by_tol(self, scale, seed):
        """Every row stops by ``tol`` before the default ``max_iters``: with four times the cap, every stage
        returns the same fits and residuals."""
        for s, l_s, parts, grid, children in stage_solves(*SCALES[scale], seed):
            got, capped = (
                design_sensing_phases(s, l_s, parts, grid, params, 0.25, [np.random.default_rng(c) for c in children])
                for params in (SolverParams(), SolverParams(max_iters=2000))
            )
            for g, w, what in zip(got, capped, ("fits", "residuals")):
                assert np.array_equal(g, w), f"stage {s} {what} change with the iteration cap"

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scale", ["desk", "full"])
    def test_residual_is_the_returned_fits(self, scale, seed):
        """Each returned residual is || W (A(0) h - t(h)) || of the fit h returned with it, over all D rows."""
        spacing = 0.25
        for s, l_s, parts, grid, children in stage_solves(*SCALES[scale], seed):
            fits, res = design_sensing_phases(
                s, l_s, parts, grid, SolverParams(), spacing, [np.random.default_rng(c) for c in children])
            y = fits @ response_rows(l_s, 0.0, grid, spacing).T
            masks = np.array([partition_indices(s, i, len(grid)).mask(len(grid)) for i in parts])
            w = np.where(masks, math.sqrt(auto_on_weight(s)), 1.0)
            want = np.linalg.norm(w * (y - l_s * masks * unit_modulus_projection(y)), axis=1)
            np.testing.assert_allclose(res, want, rtol=1e-9, atol=0, err_msg=f"stage {s}")


class TestSolverParams:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_starts", 0),
            ("max_iters", -5),
            ("tol", -1.0),
            ("tol", float("nan")),
        ],
    )
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverParams(**{name: value})

    def test_edge_values_accepted(self):
        SolverParams(n_starts=1, max_iters=0, tol=0.0)


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

    @pytest.mark.parametrize("which", ["desk", "full"])
    def test_comm_blocks_are_the_benchmark_tail(self, desk_codebook, which):
        # every stage's comm block is the SE benchmark profile without its first l_s elements, bit for bit
        cfg = desk_cfg() if which == "desk" else ScenarioConfig()
        cb = desk_codebook if which == "desk" else build_codebook(cfg)
        bench = comm_phase_profile(cfg)
        for book in cb.stages:
            for w, omega in ((book.w_x, bench.omega_x), (book.w_y, bench.omega_y)):
                np.testing.assert_array_equal(w[book.l_s :], np.tile(omega[book.l_s :, None], book.n_beams_axis))


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
        for st in mask_fidelity(five_stage_codebook):
            l_s = five_stage_codebook.schedule[st.stage - 1]
            assert st.on_mean >= 0.7 * l_s, st
            assert st.off_mean <= 0.25 * l_s, st

    def test_mask_fidelity_reads_the_codebook_incidence(self):
        # a matched beam's response at its own incidence does not depend on that incidence; read at
        # the default incidence instead, this book's stage-1 on-mean would drop from 3.54 to 1.61
        got = mask_fidelity(build_matched_codebook(tiny_cfg(v_b=DirectionCosine(-0.6, 0.4))))
        want = mask_fidelity(build_matched_codebook(tiny_cfg()))
        assert [(st.stage, st.beam, st.axis) for st in got] == [(st.stage, st.beam, st.axis) for st in want]
        means = [[(st.on_mean, st.off_mean) for st in stats] for stats in (got, want)]
        np.testing.assert_allclose(*means, rtol=0, atol=1e-12)
        assert got[0].on_mean == pytest.approx(3.543, abs=1e-3)

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
            for got, want in zip((book.w_x, book.w_y, book.residuals, book.residuals), ref):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_tiny_matches_reference(self):
        cfg = tiny_cfg()
        self.assert_matches_reference(build_codebook(cfg, seed=3), cfg, 3)

    def test_desk_matches_reference(self, desk_codebook):
        self.assert_matches_reference(desk_codebook, desk_cfg(), 0)

    @pytest.mark.parametrize("which", ["tiny", "desk"])
    def test_axes_ramp_one_canonical_fit(self, request, which):
        # w_y's sensing block is w_x's moved from incidence v_bx to v_by; w_x's is the canonical fit moved to v_bx
        if which == "tiny":
            cfg, cb = tiny_cfg(), build_codebook(tiny_cfg(), seed=3)
        else:
            cfg, cb = desk_cfg(), request.getfixturevalue("desk_codebook")
        for book in cb.stages:
            assert book.phases.shape == (2**book.stage, book.l_s) and book.residuals.shape == (2**book.stage,)
            r_x, r_y = (ris_axis_steering(v, book.l_s, cfg.ris_spacing) for v in (cfg.v_b.vx, cfg.v_b.vy))
            np.testing.assert_allclose(book.w_x[: book.l_s], (r_x.conj() * book.phases).T, rtol=0, atol=1e-12)
            want = unit_modulus_projection((r_y.conj() * r_x)[:, None] * book.w_x[: book.l_s])
            np.testing.assert_allclose(book.w_y[: book.l_s], want, rtol=0, atol=1e-12)

    def test_matched_beams_are_matched_axis_beams(self, oracle_codebook_16):
        cfg, grid = desk_cfg(n_ris=256, grid_size=16), direction_grid(16)
        for book in oracle_codebook_16.stages:
            mids = [partition_indices(book.stage, i, cfg.grid_size).midpoint(grid) for i in range(1, 2**book.stage + 1)]
            for w, v_b in ((book.w_x, cfg.v_b.vx), (book.w_y, cfg.v_b.vy)):
                r_b, r_mids = (ris_axis_steering(v, cfg.n_axis, cfg.ris_spacing) for v in (v_b, mids))
                want = (r_b.conj() * r_mids).T
                np.testing.assert_allclose(w, want, rtol=0, atol=1e-15)

    def test_schedule_length_checked(self):
        with pytest.raises(ValueError):
            build_codebook(tiny_cfg(), schedule=(4, 8))

    @pytest.mark.parametrize("entry", [True, 2.0, "4"])
    def test_schedule_entries_must_be_integers(self, entry):
        # True and 2.0 pass a range check; the solver would die on them inside numpy
        with pytest.raises(ValueError, match=f"schedule entries must be integers in 1..4, got {entry!r}"):
            build_codebook(tiny_cfg(), schedule=(4, 4, entry))


def _header_and_payload(data: bytes) -> tuple[dict, bytes]:
    header_line, payload = data[len(CODEBOOK_MAGIC) :].split(b"\n", 1)
    return json.loads(header_line), payload


class TestSerialization:
    @staticmethod
    def assert_roundtrip(cb, path):
        save_codebook(cb, str(path))
        loaded = load_codebook(str(path))
        for key in ("d", "n_ris", "spacing", "v_b", "v_u", "schedule"):
            assert getattr(loaded, key) == getattr(cb, key), key
        for b1, b2 in zip(cb.stages, loaded.stages, strict=True):
            assert (b2.stage, b2.l_s, b2.c_s, b2.quality_warnings) == (b1.stage, b1.l_s, b1.c_s, b1.quality_warnings)
            for key in ("phases", "residuals", "w_x", "w_y"):
                np.testing.assert_array_equal(getattr(b2, key), getattr(b1, key), err_msg=key)
        return loaded

    def test_roundtrip(self, tmp_path, desk_codebook):
        self.assert_roundtrip(desk_codebook, tmp_path / "book.riscb")

    def test_stage_warns_above_the_ceiling(self):
        # l_s = 4 at D = 8: the ceiling is 4 sqrt(8) = 11.3; a residual at it does not warn, one an ulp above it does
        cfg, ceiling = tiny_cfg(), 4 * math.sqrt(8)
        residuals = np.array([0.0, ceiling, np.nextafter(ceiling, np.inf), 99.0])
        book = _stage_book(2, cfg.n_axis, np.ones((4, 4), complex), residuals, cfg.v_b, cfg.v_u, cfg.ris_spacing, 8)
        assert book.quality_warnings == ["stage 2 beam 3: residual 11.3 above 11.3", "stage 2 beam 4: residual 99 above 11.3"]

    def test_loaded_residual_above_the_ceiling_warns(self, tmp_path):
        # the warnings are derived from the file's residuals, not stored next to them
        cb = build_codebook(tiny_cfg(), seed=1)
        path = tmp_path / "book.riscb"
        assert not any(b.quality_warnings for b in self.assert_roundtrip(cb, path).stages)
        header, payload = _header_and_payload(path.read_bytes())
        header["residuals"][0][1] = 100.0
        path.write_bytes(CODEBOOK_MAGIC + json.dumps(header).encode() + b"\n" + payload)
        assert [b.quality_warnings for b in load_codebook(str(path)).stages] == [
            ["stage 1 beam 2: residual 100 above 11.3"], [], []
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        v_b=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        v_u=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        spacing=st.floats(0.05, 0.5),
        schedule=st.tuples(*[st.integers(1, 4)] * 3),
        max_iters=st.integers(0, 5),
        n_starts=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_of_drawn_tiny_designs(self, v_b, v_u, spacing, schedule, max_iters, n_starts, seed):
        cfg = tiny_cfg(v_b=DirectionCosine(*v_b), v_u=DirectionCosine(*v_u), ris_spacing=spacing)
        solver = SolverParams(max_iters=max_iters, n_starts=n_starts)
        cb = build_codebook(cfg, schedule=schedule, solver=solver, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            loaded = self.assert_roundtrip(cb, Path(tmp) / "book.riscb")
        # the engines check a codebook against its scenario: a file round trip must keep it fitting
        loaded.check_fits(cfg, schedule)

    def test_roundtrip_with_numpy_integers(self, tmp_path):
        # ScenarioConfig and build_codebook accept numpy integers, so save_codebook must write them
        cfg = desk_cfg(n_ris=np.int64(16), grid_size=np.int64(8))
        schedule = (np.int64(2), np.int64(4), np.int64(4))
        path = tmp_path / "book.riscb"
        loaded = self.assert_roundtrip(build_codebook(cfg, schedule=schedule, solver=SolverParams(max_iters=5)), path)
        loaded.check_fits(cfg, schedule)
        header, _ = _header_and_payload(path.read_bytes())
        assert (header["d"], header["n_ris"], header["schedule"]) == (8, 16, [2, 4, 4])

    def test_loads_from_a_pipe(self, tmp_path):
        # a pipe has no size and cannot seek: the loader reads it once to the end, as it does a file
        cb = build_matched_codebook(tiny_cfg())
        save_codebook(cb, str(tmp_path / "book.riscb"))
        r, w = os.pipe()
        os.write(w, (tmp_path / "book.riscb").read_bytes())  # under 2 KB, within the pipe's buffer
        os.close(w)
        try:
            loaded = load_codebook(f"/dev/fd/{r}")
        finally:
            os.close(r)
        for b1, b2 in zip(cb.stages, loaded.stages, strict=True):
            np.testing.assert_array_equal(b2.phases, b1.phases)

    def test_payload_is_canonical_fits(self, tmp_path, five_stage_codebook):
        # 2**s x l_s complex128 fits per stage, 936 phases for 4/8/16/16/16, and no axis beams
        path = tmp_path / "book.riscb"
        save_codebook(five_stage_codebook, str(path))
        header, payload = _header_and_payload(path.read_bytes())
        assert sum(2**s * l_s for s, l_s in enumerate(header["schedule"], 1)) == 936
        assert len(payload) == 936 * 16
        assert sorted(header) == ["d", "n_ris", "residuals", "schedule", "spacing", "v_b", "v_u"]

    def test_rejects_other_files(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a codebook")
        with pytest.raises(ValueError):
            load_codebook(str(p))

    @pytest.mark.parametrize("magic", [b"RISCB1\n", b"RISCB2\n"])
    def test_rejects_first_format(self, saved_tiny_book, magic):
        data, path = saved_tiny_book
        path.write_bytes(magic + data[len(CODEBOOK_MAGIC) :])
        with pytest.raises(ValueError, match=f"{path.name}: not a RISCB3 codebook file"):
            load_codebook(str(path))


@pytest.fixture(scope="module")
def saved_tiny_book(tmp_path_factory):
    """Bytes of a saved tiny codebook and a scratch path to write variants to."""
    path = tmp_path_factory.mktemp("books") / "book.riscb"
    save_codebook(build_matched_codebook(tiny_cfg()), str(path))
    return path.read_bytes(), path


# a consistent one-stage header with no payload
_TOP_KEYS = {"d": 2, "n_ris": 16, "spacing": 0.25, "schedule": [4], "v_b": [0.1, -0.2], "v_u": [0.0, 0.3],
             "residuals": [[0.0, 0.0]]}
# a 2**50-element axis: its header asks for a 2**55-byte stage-1 payload, and the file holds 2 phases
HUGE_HEADER_BOOK = (CODEBOOK_MAGIC + json.dumps({**_TOP_KEYS, "n_ris": 2**100, "schedule": [2**50]}).encode() + b"\n"
                    + np.ones(2, "<c16").tobytes())
# a whole 1-element stage on a 2**50-element axis: every check passes, and the comm block asks for 2**50 - 1 entries
WIDE_AXIS_BOOK = (CODEBOOK_MAGIC + json.dumps({**_TOP_KEYS, "n_ris": 2**100, "schedule": [1]}).encode() + b"\n"
                  + np.ones(2, "<c16").tobytes())


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
            ({**_TOP_KEYS, "residuals": 3}, "'residuals' is not a list"),
            ({k: v for k, v in _TOP_KEYS.items() if k != "v_u"}, "codebook header lacks key 'v_u'"),
            ({**_TOP_KEYS, "n_ris": "16"}, "key 'n_ris' is not an integer"),
            (_TOP_KEYS, "stage 1 payload has 0 of 128 bytes"),
            ({**_TOP_KEYS, "n_ris": 15}, "key 'n_ris' is not a positive square"),
            ({**_TOP_KEYS, "schedule": [4, 5]}, "key 'schedule' is not integers in 1..4"),
            ({**_TOP_KEYS, "d": 8, "schedule": []}, "key 'd' is 8, not 2\\*\\*n for n = 0"),
        ],
    )
    def test_incomplete_header_rejected(self, tmp_path, header, match):
        path = tmp_path / "header.riscb"
        path.write_bytes(CODEBOOK_MAGIC + json.dumps(header).encode() + b"\n")
        with pytest.raises(ValueError, match=f"{path.name}: .*{match}"):
            load_codebook(str(path))

    @pytest.mark.parametrize(
        "key, stage, value, match",
        [
            ("residuals", 1, [1.0], "key 'residuals' stage 1 is not 2 finite numbers >= 0"),
            ("residuals", 1, ["a", None], "key 'residuals' stage 1 is not 2 finite numbers >= 0"),
            ("residuals", 1, [float("nan"), -3.0], "key 'residuals' stage 1 is not 2 finite"),
            ("residuals", 2, [0.0, -3.0, 0.0, 0.0], "key 'residuals' stage 2 is not 4 finite"),
            ("residuals", 3, [float("inf")] * 8, "key 'residuals' stage 3 is not 8 finite"),
            ("spacing", None, -1.0, "codebook header key 'spacing' is not in \\(0, 0.5\\]: -1.0"),
            ("spacing", None, 0, "codebook header key 'spacing' is not in \\(0, 0.5\\]: 0"),
            ("spacing", None, float("nan"), "codebook header key 'spacing' is not in \\(0, 0.5\\]: nan"),
            ("spacing", None, 0.75, "codebook header key 'spacing' is not in \\(0, 0.5\\]: 0.75"),
            ("v_b", None, [0.1], "key 'v_b' is not 2 direction cosines in \\[-1, 1\\]: \\[0.1\\]"),
            ("v_b", None, [0.1, 0.2, 0.3], "key 'v_b' is not 2 direction cosines"),
            ("v_b", None, [0.1, -1.5], "key 'v_b' is not 2 direction cosines"),
            ("v_u", None, [float("nan"), 0.0], "key 'v_u' is not 2 direction cosines"),
            ("v_u", None, ["0.1", 0.0], "key 'v_u' is not 2 direction cosines"),
            ("v_u", None, [True, 0.0], "key 'v_u' is not 2 direction cosines"),
            ("v_u", None, {"vx": 0.1, "vy": 0.0}, "key 'v_u' is not a list"),
            ("residuals", None, [[0.0, 0.0]], "key 'residuals' has 1 entries, not one per stage \\(3\\)"),
        ],
        ids=["short", "not-numbers", "nan-negative", "negative", "infinite", "spacing-neg", "spacing-0", "spacing-nan",
             "spacing-0.75", "v_b-short", "v_b-long", "v_b-above-1", "v_u-nan", "v_u-string", "v_u-bool", "v_u-object",
             "residual-stages"],
    )
    def test_bad_header_values_rejected(self, saved_tiny_book, key, stage, value, match):
        # the saved book with one header value replaced; the payload stays whole
        data, path = saved_tiny_book
        header, payload = _header_and_payload(data)
        if stage is None:
            header[key] = value
        else:
            header[key][stage - 1] = value
        path.write_bytes(CODEBOOK_MAGIC + json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=f"{path.name}: .*{match}"):
            load_codebook(str(path))

    @pytest.mark.parametrize("phase", [complex("nan"), 2 + 0j, 0j], ids=["nan", "two", "zero"])
    def test_non_unit_phase_rejected(self, saved_tiny_book, phase):
        # the saved book with its last canonical phase, in stage 3, overwritten
        data, path = saved_tiny_book
        path.write_bytes(data[:-16] + np.array([phase], dtype="<c16").tobytes())
        with pytest.raises(ValueError, match=f"{path.name}: stage 3 payload holds a phase that is not unit modulus"):
            load_codebook(str(path))

    def test_header_cannot_ask_for_more_than_the_file_holds(self, tmp_path):
        # the loader reads no more than the file holds, so the header cannot make it allocate 2**55 bytes
        path = tmp_path / "huge.riscb"
        path.write_bytes(HUGE_HEADER_BOOK)
        with pytest.raises(ValueError, match=f"{path.name}: stage 1 payload has 32 of {2**55} bytes"):
            load_codebook(str(path))

    def test_axis_too_wide_to_allocate_names_n_ris(self, tmp_path):
        # 2**50 int64 entries exceed any 48-bit address space, so the allocation fails on every machine
        path = tmp_path / "wide.riscb"
        path.write_bytes(WIDE_AXIS_BOOK)
        with pytest.raises(ValueError, match=f"{path.name}: codebook header key 'n_ris' asks for more memory than there "
                                             f"is: {2**100}"):
            load_codebook(str(path))

    def test_piped_header_cannot_ask_for_more_than_the_pipe_holds(self):
        r, w = os.pipe()
        os.write(w, HUGE_HEADER_BOOK)  # under 1 KB, within the pipe's buffer
        os.close(w)
        try:
            with pytest.raises(ValueError, match=f"stage 1 payload has 32 of {2**55} bytes"):
                load_codebook(f"/dev/fd/{r}")
        finally:
            os.close(r)

    def test_d_beyond_a_float_fails_on_its_residuals(self, tmp_path):
        # 1024 stages claim D = 2**1024, whose square root overflows a float; stage 2 lacks its residuals
        header = {**_TOP_KEYS, "n_ris": 1, "schedule": [1] * 1024, "d": 2**1024, "residuals": [[0, 0]] * 1024}
        path = tmp_path / "deep.riscb"
        path.write_bytes(CODEBOOK_MAGIC + json.dumps(header).encode() + b"\n" + np.ones(2, "<c16").tobytes())
        with pytest.raises(ValueError, match=f"{path.name}: .*key 'residuals' stage 2 is not 4 finite numbers"):
            load_codebook(str(path))

    def test_stage_count_must_match_d(self, saved_tiny_book):
        # the D=8 book with its last stage cut from both the header and the payload
        data, path = saved_tiny_book
        header, payload = _header_and_payload(data)
        for key in ("schedule", "residuals"):
            header[key] = header[key][:2]
        last_stage_bytes = 2**3 * 4 * 16  # 8 canonical fits of 4 elements, complex128
        path.write_bytes(CODEBOOK_MAGIC + json.dumps(header).encode() + b"\n" + payload[:-last_stage_bytes])
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
