"""Array responses and the rank-1 scalar law of the radar echo.

Walks through the building blocks: ULA/planar steering vectors, the
direction-cosine parameterization, the pathloss law, the structural fact
that the RIS echo collapses to a product of two one-axis responses, and the
scalar decision statistic that the target search simulates from it.
"""

import math

import numpy as np

from risjrc import (
    DirectionCosine,
    ScenarioConfig,
    direction_grid,
    draw_fading,
    make_scene,
    pathloss,
    ris_axis_steering,
    ula_steering,
)
from risjrc.codebook import response_rows
from risjrc.localization import qpsk_product_mean, trial_coefficients, true_cell

print("=== steering vectors ===")
b = ula_steering(45.0, 8)
print(f"8-element ULA toward 45 deg, first three entries: {np.round(b[:3], 4)}")
print(f"all unit modulus: {np.allclose(np.abs(b), 1)}")

# direction cosines of azimuth az and elevation el: (sin(el) sin(az), sin(el) cos(az))
az, el = math.radians(-37.40), math.radians(42.79)
dc = DirectionCosine(math.sin(el) * math.sin(az), math.sin(el) * math.cos(az))
print(f"direction cosines of (az=-37.40, el=42.79): ({dc.vx:.4f}, {dc.vy:.4f})")

# an 8x8 RIS, rows along x: element (m, n) has phase 2 pi d (m vx + n vy), so the planar steering vector is
# the Kronecker product of the two axis vectors, x outer
rx = ris_axis_steering(dc.vx, 8, 0.25)
ry = ris_axis_steering(dc.vy, 8, 0.25)
m, n = np.divmod(np.arange(64), 8)
r = np.exp(2j * np.pi * 0.25 * (m * dc.vx + n * dc.vy))
print(f"planar steering = kron of axis steerings: {np.allclose(r, np.kron(rx, ry))}")

print()
print("=== pathloss ===")
# amplitude gain sqrt(eta0 * d^-alpha): the power law eta0 * d^-alpha, read as a power gain
print(f"base-RIS amplitude at 10 m, alpha 2.5, eta0 -30 dB: {pathloss(10.0, 2.5, -30.0):.3e}")

print()
print("=== echo factorization ===")
# The echo crosses the RIS twice (base station -> RIS -> target -> RIS -> base station).  For a
# Kronecker profile w = kron(w_x, w_y) and the target response T = conj(r(v_t)) r(v_t)^H, the dense
# N_r x N_r form r(v_b)^T diag(w) T diag(w) r(v_b) equals c = (a_x a_y)^2, with the one-axis
# responses a = r_ax(v_t)^H diag(w_ax) r_ax(v_b).
cfg = ScenarioConfig(n_ris=256, grid_size=8, power=36.0)
n_axis, sp = cfg.n_axis, cfg.ris_spacing
rng = np.random.default_rng(0)
w_x, w_y = np.exp(2j * np.pi * rng.random((2, n_axis)))
tx, ty = (ris_axis_steering(v, n_axis, sp) for v in (cfg.v_t.vx, cfg.v_t.vy))
bx, by = (ris_axis_steering(v, n_axis, sp) for v in (cfg.v_b.vx, cfg.v_b.vy))
r_t, r_b, w = np.kron(tx, ty), np.kron(bx, by), np.kron(w_x, w_y)
dense = (w * r_b) @ np.outer(r_t.conj(), r_t.conj()) @ (w * r_b)
a_x, a_y = tx.conj() @ (w_x * bx), ty.conj() @ (w_y * by)
print(f"N_r = {cfg.n_ris}: |dense - (a_x a_y)^2| / |dense| = {abs(dense - (a_x * a_y) ** 2) / abs(dense):.1e}")
# a scene stores q = conj(r_ax(v_t)) * r_ax(v_b) per axis, so a one-axis response is one dot product
scene = make_scene(cfg)
print(f"a_x = q_x . w_x and a_y = q_y . w_y: {np.allclose([scene.q_x @ w_x, scene.q_y @ w_y], [a_x, a_y])}")

print()
print("=== scalar decision statistic ===")
# Each probed beam's statistic is |c (coh + cross u_bar) + n_bar|^2: coh and cross carry the fading and
# the stream powers, u_bar is the mean of T de-rotated user symbols and n_bar the averaged beamformed
# noise.  Probe the matched pencil beam of every grid cell, T = 16 snapshots each.  The beam toward cell j
# is conj(r_ax(v_b)) * r_ax(v_j), row j of conj(response_rows), and its gain at the target is beam @ q.
t = 16
coh, cross = trial_coefficients(scene, draw_fading(rng))
grid = direction_grid(cfg.grid_size)
g_x, g_y = (
    response_rows(n_axis, v_b, grid, sp).conj() @ q for q, v_b in ((scene.q_x, cfg.v_b.vx), (scene.q_y, cfg.v_b.vy))
)
c = np.outer(g_x, g_y) ** 2
u_bar = qpsk_product_mean(rng, t, c.shape)
n_bar = scene.noise_scale * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)) / math.sqrt(2 * t)
stats = np.abs(c * (coh + cross * u_bar) + n_bar) ** 2
i, j = np.unravel_index(np.argmax(stats), stats.shape)
print(f"strongest of {stats.size} pencil beams: cell ({i + 1}, {j + 1}); true cell {true_cell(cfg)}")
print(f"strongest / median statistic: {stats.max() / np.median(stats):.1e}")
