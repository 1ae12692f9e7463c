"""Choosing the per-stage snapshot budget.

Early stages sense with few RIS elements and little array gain, so the
same beam must be repeated; later stages need a single shot.  This demo
calibrates the smallest per-stage snapshot count that meets a 5% stage
error target across transmit powers, and contrasts it with the
closed-form sizing rule (whose literal form is non-physical and is
reported with a sign flag).
"""

import numpy as np

from risjrc import ScenarioConfig, build_codebook
from risjrc.channels import path_gains
from risjrc.localization import StageEnsemble, calibrate_snapshots, make_scene, snapshot_rule_literal, stage_error

DELTA = 0.05


def cfg_at(p_dbm):
    return ScenarioConfig(n_ris=1024, grid_size=16, power=p_dbm)


cb = build_codebook(cfg_at(42.0), seed=0)

print(f"stage error target delta = {DELTA}")
print()
print("P [dBm] | stage | error at T=1 | calibrated T")
for p in (36.0, 39.0, 42.0, 45.0):
    scene = make_scene(cfg_at(p))
    for s in (1, 2, 3, 4):
        err1 = stage_error(scene, cb, s, 1, 4000, np.random.default_rng((7, s)))
        cal = calibrate_snapshots(StageEnsemble(cb, 20_000, np.random.default_rng((8, s))), scene, s, DELTA)
        t_star = cal.t_s if cal.feasible else f">{cal.t_max}"
        print(f"  {p:5.1f} |   {s}   |    {err1:.3f}     |  {t_star}")
    print()

print("=== closed-form sizing rule, evaluated literally ===")
cfg = cfg_at(42.0)
eta = path_gains(cfg)
rule = snapshot_rule_literal(DELTA, cfg.p_r_watts, 4, cfg.n_b, eta.eta_br, eta.eta_rt, cfg.sigma_b2_watts)
print(f"kappa = {rule.kappa:.5f} (exceeds 1 for every valid delta)")
print(f"signed power-snapshot product = {rule.product_signed:.3e} -> physical: {rule.physical}")
print(f"magnitude reading: product = {rule.product_magnitude:.3e}, T = {rule.t_magnitude}")
print("empirical calibration above is the authoritative budget")
