"""Multi-stage target localization on the block engine.

Runs one verbose search trial (four beams per stage, descending into the
chosen quadrant), then a small Monte Carlo comparison of the hierarchical
search, one batched descent over all trials, against the exhaustive
pencil-beam baseline.
"""

import numpy as np

from risjrc import ScenarioConfig, build_codebook
from risjrc.harness import trace_rows
from risjrc.localization import (
    SnapshotSchedule,
    descend,
    exhaustive_localize,
    exhaustive_transmissions,
    hierarchical_localize,
    hierarchical_transmissions,
    make_scene,
    trial_width,
    true_cell,
)

cfg = ScenarioConfig(
    n_ris=1024,
    grid_size=16,
    pathloss_model="standard_power",
    power=45.0,
)
cb = build_codebook(cfg, seed=0)
scene = make_scene(cfg)
schedule = SnapshotSchedule((32, 2, 1, 1))
cell = true_cell(cfg)

print(f"target direction cosines: ({cfg.v_t.vx}, {cfg.v_t.vy})")
print(f"snapshot schedule: {schedule.t_s}")
print()

stages = hierarchical_localize(scene, cb, schedule, np.random.default_rng(3))
for _, _, _, s, beams, stats, chosen, _, _ in trace_rows(stages, schedule, cfg.power, 3):
    print(f"stage {s}: beams {beams}  stats [{', '.join(f'{v:.2e}' for v in stats)}]  -> pick #{chosen}")
*_, pair, correct = stages[-1]
print(f"true cell {cell}, estimate {tuple(pair[0].tolist())}, success={bool(correct[0])}")
print(f"transmissions used: {hierarchical_transmissions(schedule)}")

print()
print("=== Monte Carlo: hierarchical vs exhaustive (500 trials) ===")
trials = 500
words = np.random.default_rng(1000).bit_generator.random_raw((trials, trial_width(schedule)))
hits_h = int(descend(scene, cb, schedule, words)[-1][-1].sum())  # the last stage's correctness is success
hits_e = sum(exhaustive_localize(scene, np.random.default_rng((2000, t))) == cell for t in range(trials))
print(f"hierarchical: {hits_h / trials:.1%} success with {hierarchical_transmissions(schedule)} transmissions")
print(f"exhaustive:   {hits_e / trials:.1%} success with {exhaustive_transmissions(cfg.grid_size)} transmissions")
