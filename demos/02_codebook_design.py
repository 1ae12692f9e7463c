"""Designing the hierarchical RIS codebook.

Builds the per-stage axis beams for a 32x32 RIS over a 32-point grid with
the (4, 8, 16, 16, 16) sensing split, reports design quality, and shows
the beams narrowing stage by stage.  Also demonstrates saving/loading the
codebook file and dumping raw beampattern data for plotting.
"""

import numpy as np

from risjrc import ScenarioConfig, build_codebook, load_codebook, mask_fidelity, save_codebook
from risjrc.codebook import half_power_width
from risjrc.harness import beampattern_csv

cfg = ScenarioConfig(n_ris=1024, grid_size=32, power=36.0)

print("designing codebook (5 stages, 2+4+8+16+32 beams per axis, both axes)...")
cb = build_codebook(cfg, schedule=(4, 8, 16, 16, 16), seed=0)
warnings = sum(len(b.quality_warnings) for b in cb.stages)
print(f"done; schedule={cb.schedule}, design-quality warnings: {warnings}")

print()
print("stage | L_s | C_s | beams | worst on-mean/L | worst off-mean/L | half-power width")
stats = mask_fidelity(cb)
for book in cb.stages:
    sel = [s for s in stats if s.stage == book.stage]
    on = min(s.on_mean for s in sel) / book.l_s
    off = max(s.off_mean for s in sel) / book.l_s
    hpw = half_power_width(book.w_x[: book.l_s, 0], cb.v_b.vx, cb.spacing)
    print(
        f"  {book.stage}   | {book.l_s:3d} | {book.c_s:3d} | {book.n_beams_axis:4d}  |"
        f"      {on:.3f}      |      {off:.3f}      |  {hpw:.3f}"
    )

save_codebook(cb, "codebook.riscb")
reloaded = load_codebook("codebook.riscb")
match = all(
    np.array_equal(a.w_x, b.w_x) and np.array_equal(a.w_y, b.w_y)
    for a, b in zip(cb.stages, reloaded.stages)
)
print()
print(f"wrote codebook.riscb; reload matches exactly: {match}")

beampattern_csv(cb, "beampattern.csv")
print("wrote beampattern.csv (per-beam axis response magnitude over the grid)")
