"""Multi-stage target localization, trial by trial.

Runs one verbose search trial (four beams per stage, descending into the
chosen quadrant), then a small Monte Carlo comparison of the hierarchical
search against the exhaustive pencil-beam baseline.
"""

import numpy as np

from risjrc import ScenarioConfig, build_codebook
from risjrc.localization import (
    SnapshotSchedule,
    exhaustive_localize,
    hierarchical_localize,
    hierarchical_transmissions,
    exhaustive_transmissions,
    make_scene,
)

cfg = ScenarioConfig(
    n_ris=1024,
    grid_size=16,
    pathloss_model="standard_power",
    power=45.0,
)
cb = build_codebook(cfg, seed=0)
scene = make_scene(cfg)
schedule = SnapshotSchedule((32, 2, 1, 1), "calibrated")

print(f"target direction cosines: ({cfg.v_t.vx}, {cfg.v_t.vy})")
print(f"snapshot schedule: {schedule.t_s}")
print()

rec = hierarchical_localize(scene, cb, schedule, np.random.default_rng(3))
for dec in rec.stages:
    stats = ", ".join(f"{v:.2e}" for v in dec.statistics)
    print(f"stage {dec.stage}: beams {dec.beam_indices}  stats [{stats}]  -> pick #{dec.chosen}")
print(f"true cell {rec.true_cell}, estimate {rec.est_cell}, success={rec.success}")
print(f"transmissions used: {rec.total_transmissions}")

print()
print("=== Monte Carlo: hierarchical vs exhaustive (500 trials) ===")
trials = 500
hits_h = hits_e = 0
for t in range(trials):
    rng = np.random.default_rng((1000, t))
    hits_h += hierarchical_localize(scene, cb, schedule, rng).success
    hits_e += exhaustive_localize(scene, np.random.default_rng((2000, t)), t_per_beam=1).success
print(f"hierarchical: {hits_h / trials:.1%} success with {hierarchical_transmissions(schedule)} transmissions")
print(f"exhaustive:   {hits_e / trials:.1%} success with {exhaustive_transmissions(cfg.grid_size)} transmissions")
