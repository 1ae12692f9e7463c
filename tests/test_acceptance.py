"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np
import pytest

from risjrc.channels import PhaseProfile, draw_fading
from risjrc.codebook import (
    build_codebook,
    design_comm_phases,
    half_power_width,
    mask_fidelity,
    response_rows,
)
from risjrc.comms import average_se, comm_phase_profile, stage_phase_profile
from risjrc.geometry import (
    DirectionCosine,
    direction_grid,
    ris_axis_steering,
    ris_full_steering,
)
from risjrc.harness import (
    ExperimentPlan,
    emit_csv,
    run_experiment,
    run_localization_trials,
    wilson_halfwidth,
)
from risjrc.localization import (
    SnapshotSchedule,
    exhaustive_localize,
    exhaustive_transmissions,
    hierarchical_localize,
    hierarchical_transmissions,
    make_scene,
    snapshot_rule_literal,
)

from conftest import desk_cfg
from reference import (
    build_channels,
    make_transmit_block,
    overall_error_bound,
    radar_receive,
    target_response,
)


def report(n, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {n}: {name}{' - ' + extra if extra else ''}")
    assert ok, f"criterion {n} ({name}) failed: {extra}"


class TestCriterion1Identities:
    def test_analytic_identities(self):
        rng = np.random.default_rng(0)
        ok = True

        # Kronecker steering reconstruction
        for _ in range(100):
            vx, vy = rng.uniform(-1, 1, 2)
            full = ris_full_steering(DirectionCosine(vx, vy), 64)
            rebuilt = np.kron(ris_axis_steering(vx, 8), ris_axis_steering(vy, 8))
            ok &= np.max(np.abs(full - rebuilt)) < 1e-9

        # Khatri-Rao vectorization identity
        grid = direction_grid(16)
        for _ in range(50):
            l_s = int(rng.integers(2, 16))
            v_b = rng.uniform(-1, 1)
            g = np.exp(1j * rng.uniform(0, 2 * np.pi, l_s))
            a = response_rows(l_s, v_b, grid, 0.25)
            r_b = ris_axis_steering(v_b, l_s)
            direct = np.array([ris_axis_steering(v, l_s).conj() @ (g * r_b) for v in grid])
            ok &= np.max(np.abs(a @ g - direct)) <= 1e-9 * np.max(np.abs(direct))

        # comm-phase maximum gain equals the element count
        for c_s, offset in ((4, 0), (12, 4), (28, 4)):
            v_b, v_u = rng.uniform(-1, 1, 2)
            h = design_comm_phases(c_s, v_b, v_u, offset=offset)
            n_axis = offset + c_s
            r_u = ris_axis_steering(v_u, n_axis)[offset:]
            r_b_c = ris_axis_steering(v_b, n_axis)[offset:]
            ok &= abs(abs(r_u.conj() @ (h * r_b_c)) - c_s) < 1e-9 * c_s

        # noiseless echo factorization vs the full matrix product
        cfg = desk_cfg(n_ris=16, grid_size=8)
        for _ in range(20):
            fad = draw_fading(rng)
            cs = build_channels(cfg, fad)
            x = make_transmit_block(cfg, 4, rng)
            omega = PhaseProfile(
                np.exp(1j * rng.uniform(0, 2 * np.pi, 4)),
                np.exp(1j * rng.uniform(0, 2 * np.pi, 4)),
            )
            y = radar_receive(x, omega, cfg.v_t, cs.gamma, cs, cfg, 0.0, rng)
            w = omega.full
            t = target_response(cfg.v_t, cs.gamma, cfg.n_ris, cfg.ris_spacing)
            y_dense = cs.h_br.T @ np.diag(w).T @ t @ np.diag(w) @ cs.h_br @ x.x
            ok &= np.max(np.abs(y - y_dense)) <= 1e-9 * np.max(np.abs(y_dense))

        report(1, "analytic identities to 1e-9", ok)


class TestCriterion2NoiselessOracle:
    def test_oracle_localization_all_cells(self, oracle_codebook_16):
        t0 = time.time()
        d = 16
        grid = direction_grid(d)
        sched = SnapshotSchedule((1, 1, 1, 1))
        failures = 0
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                cfg = desk_cfg(
                    n_ris=256,
                    grid_size=d,
                    sigma_b2_dbm=-math.inf,
                    v_t=DirectionCosine(grid[i - 1], grid[j - 1]),
                )
                scene = make_scene(cfg)
                *_, pair, _ = hierarchical_localize(scene, oracle_codebook_16, sched, np.random.default_rng(0))[-1]
                failures += tuple(pair[0].tolist()) != (i, j)
                failures += exhaustive_localize(scene, np.random.default_rng(0)) != (i, j)
        elapsed = time.time() - t0
        report(
            2,
            "noiseless oracle localization, 256/256 cells",
            failures == 0 and elapsed < 120,
            f"failures={failures}, {elapsed:.1f}s",
        )


class TestCriterion3TransmissionCounts:
    def test_counts(self):
        hier = hierarchical_transmissions(SnapshotSchedule((36, 1, 1, 1, 1)))
        exh = exhaustive_transmissions(32, 1)
        report(3, "transmission counts 160 and 1024", hier == 160 and exh == 1024, f"{hier}, {exh}")


MID_P = 42.0
ACCEPT_SEED = 20_240_817


def overall_error_plan(trials=10_000, **overrides):
    kwargs = dict(
        kind="overall-error-vs-P",
        power_list=(MID_P,),
        trials=trials,
        master_seed=ACCEPT_SEED,
        schedule_source="calibrated",
        delta=0.05,
        calib_trials=40_000,
        t_max=512,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestCriterion4StagewiseErrorControl:
    def test_calibrated_error_control(self, desk_codebook):
        t0 = time.time()
        cfg = desk_cfg(MID_P)
        delta = 0.05
        table = run_experiment(overall_error_plan(), cfg, desk_codebook)
        rows = {(r["metric"], r["detail"]): r for r in table.rows}
        ok = True
        msgs = []
        for (metric, detail), r in rows.items():
            if metric == "stage_error_conditional":
                ok &= r["value"] <= delta + r["ci_halfwidth"]
                msgs.append(f"{detail.split(';')[0]}={r['value']:.4f}(+-{r['ci_halfwidth']:.4f})")
        overall = next(r for (m, _), r in rows.items() if m == "overall_error")
        bound = overall_error_bound(delta, cfg.n_stages)
        ok &= overall["value"] <= bound + overall["ci_halfwidth"]
        msgs.append(f"overall={overall['value']:.4f} bound={bound}")
        elapsed = time.time() - t0
        ok &= elapsed < 600
        report(4, "calibrated stagewise error control", ok, "; ".join(msgs) + f"; {elapsed:.0f}s")


class TestCriterion5SnapshotMonotonicity:
    def test_calibrated_snapshots(self, desk_codebook):
        cfg = desk_cfg(MID_P)
        powers = (39.0, 42.0, 45.0)
        plan = overall_error_plan(kind="snapshots-vs-P", power_list=powers, trials=1)
        table = run_experiment(plan, cfg, desk_codebook)
        t_of = {}
        for r in table.rows:
            if r["metric"] == "calibrated_snapshots":
                stage = int(r["detail"].split(";")[0].split("=")[1])
                t_of[(r["power"], stage)] = r["value"]
        ok = True
        msgs = []
        for p in powers:
            ts = [t_of[(p, s)] for s in range(1, cfg.n_stages + 1)]
            ok &= not any(math.isnan(t) for t in ts)
            ok &= ts[0] >= ts[1] >= ts[2]
            msgs.append(f"P={p}: T={[int(t) for t in ts]}")
        for s in range(1, cfg.n_stages + 1):
            series = [t_of[(p, s)] for p in powers]
            ok &= all(a >= b for a, b in zip(series, series[1:]))
        ok &= all(t_of[(powers[-1], s)] == 1 for s in range(3, cfg.n_stages + 1))
        report(5, "calibrated snapshot monotonicity", ok, "; ".join(msgs))


class TestCriterion6SpectralEfficiencyOrdering:
    def test_se_ordering(self):
        t0 = time.time()
        cfg = desk_cfg(n_ris=4096, grid_size=32)  # full-size geometry
        cb = build_codebook(cfg, schedule=(4, 8, 16, 16, 16), seed=0)
        powers = (30.0, 34.0, 38.0, 42.0, 46.0)
        trials = 2000
        ok = True
        msgs = []
        for k, p in enumerate(powers):
            cfg_p = cfg.with_power(p)
            rng = lambda tag: np.random.default_rng((ACCEPT_SEED, k, tag))
            bench = average_se(cfg_p, comm_phase_profile(cfg_p), trials, rng(0)).mean
            s1 = average_se(cfg_p, stage_phase_profile(cb, 1), trials, rng(1)).mean
            s5 = average_se(cfg_p, stage_phase_profile(cb, 5), trials, rng(2)).mean
            nor = average_se(cfg_p, None, trials, rng(3)).mean
            ok &= bench >= s1 >= s5 >= nor
            ok &= bench - s1 <= 1.0
            if p == powers[-1]:
                ok &= s5 - nor >= 2.0 and bench - nor >= 2.0
            msgs.append(f"P={p}: {bench:.2f}>={s1:.2f}>={s5:.2f}>={nor:.2f}")
        elapsed = time.time() - t0
        report(6, "spectral-efficiency ordering and gaps", ok, "; ".join(msgs) + f"; {elapsed:.0f}s")


class TestCriterion7CodebookQuality:
    def test_mask_gates_and_widths(self, five_stage_codebook):
        cfg = desk_cfg(grid_size=32)
        cb = five_stage_codebook
        ok = True
        worst = {}
        for st in mask_fidelity(cb):
            l_s = cb.schedule[st.stage - 1]
            ok &= st.on_mean >= 0.7 * l_s
            ok &= st.off_mean <= 0.25 * l_s
            key = st.stage
            on, off = worst.get(key, (9e9, 0.0))
            worst[key] = (min(on, st.on_mean / l_s), max(off, st.off_mean / l_s))
        widths = []
        for s in (1, 2, 3):
            book = cb.stage(s)
            widths.append(half_power_width(book.w_x[: book.l_s, 0], cfg.v_b.vx, cb.spacing))
        ok &= widths[0] > widths[1] > widths[2]
        extra = "; ".join(f"s{s}: on>={on:.2f}L off<={off:.2f}L" for s, (on, off) in sorted(worst.items()))
        report(7, "codebook mask gates and narrowing beams", ok, extra + f"; widths={['%.3f' % w for w in widths]}")


class TestCriterion8SnapshotRuleLiteral:
    def test_literal_rule(self):
        rule4 = snapshot_rule_literal(0.05, 1e-9, 4, 64, 1.78e-3, 3.32e-3, 4e-13)
        rule8 = snapshot_rule_literal(0.05, 1e-9, 8, 64, 1.78e-3, 3.32e-3, 4e-13)
        ok = abs(rule4.kappa - 1.9333) <= 1e-4
        ok &= rule4.product_signed < 0 and not rule4.physical and rule4.t_literal is None
        ok &= rule4.t_magnitude >= 1 and rule8.t_magnitude >= 1
        ratio = rule4.product_magnitude / rule8.product_magnitude
        ok &= abs(ratio - 256.0) < 1e-9
        ok &= rule4.t_magnitude == math.ceil(rule4.product_magnitude / 1e-9)
        report(
            8,
            "closed-form rule: kappa, sign flag, eighth-power scaling",
            ok,
            f"kappa={rule4.kappa:.5f}, product={rule4.product_signed:.3e}, ratio={ratio:.1f}",
        )


class TestCriterion9Determinism:
    def test_byte_identical_and_parallel_independent(self, tmp_path, desk_codebook):
        cfg = desk_cfg(MID_P)
        paths = []
        for k in (1, 2):
            table = run_experiment(overall_error_plan(), cfg, desk_codebook)
            p = tmp_path / f"rep{k}.csv"
            emit_csv(table, str(p))
            paths.append(p)
        byte_identical = paths[0].read_bytes() == paths[1].read_bytes()

        plan1 = overall_error_plan(trials=2000, parallel=1)
        plan2 = overall_error_plan(trials=2000, parallel=4)
        sched = SnapshotSchedule((63, 3, 1, 1))
        r1 = run_localization_trials(make_scene(cfg), desk_codebook, sched, plan1, 0)
        r2 = run_localization_trials(make_scene(cfg), desk_codebook, sched, plan2, 0)

        p1 = tmp_path / "par1.csv"
        p2 = tmp_path / "par4.csv"
        emit_csv(run_experiment(plan1, cfg, desk_codebook), str(p1))
        emit_csv(run_experiment(plan2, cfg, desk_codebook), str(p2))
        csv_across_parallel = p1.read_bytes() == p2.read_bytes()
        parallel_match = np.array_equal(r1, r2)
        report(
            9,
            "byte-identical reruns; parallel-degree independence",
            byte_identical and parallel_match and csv_across_parallel,
            f"bytes={byte_identical}, parallel_match={parallel_match}, csv_across_parallel={csv_across_parallel}",
        )
