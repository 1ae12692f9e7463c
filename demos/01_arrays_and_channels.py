"""Array responses and the rank-1 mmWave channel model.

Walks through the building blocks: ULA/planar steering vectors, the
direction-cosine parameterization, the pathloss law, and the key
structural fact that the RIS echo collapses to a product of two one-axis
responses.
"""

import numpy as np

from risjrc import (
    DirectionCosine,
    PhaseProfile,
    ScenarioConfig,
    build_channels,
    direction_cosines,
    draw_fading,
    make_transmit_block,
    pathloss,
    radar_receive,
    ris_axis_steering,
    ris_full_steering,
    target_response,
    ula_steering,
)

print("=== steering vectors ===")
b = ula_steering(45.0, 8)
print(f"8-element ULA toward 45 deg, first three entries: {np.round(b[:3], 4)}")
print(f"all unit modulus: {np.allclose(np.abs(b), 1)}")

dc = direction_cosines(-37.40, 42.79)
print(f"direction cosines of (az=-37.40, el=42.79): ({dc.vx:.4f}, {dc.vy:.4f})")

r = ris_full_steering(dc, 64, spacing_wavelengths=0.25)
rx = ris_axis_steering(dc.vx, 8, 0.25)
ry = ris_axis_steering(dc.vy, 8, 0.25)
print(f"planar steering = kron of axis steerings: {np.allclose(r, np.kron(rx, ry))}")

print()
print("=== pathloss ===")
# amplitude gain sqrt(eta0 * d^-alpha): the power law eta0 * d^-alpha, read as a power gain
print(f"base-RIS amplitude at 10 m, alpha 2.5, eta0 -30 dB: {pathloss(10.0, 2.5, -30.0):.3e}")

print()
print("=== channel synthesis ===")
cfg = ScenarioConfig(n_ris=1024, grid_size=16, power=36.0)
rng = np.random.default_rng(0)
fading = draw_fading(rng)
cs = build_channels(cfg, fading)
print(f"H_br: {cs.h_br.shape}, rank {np.linalg.matrix_rank(cs.h_br)}")
print(f"H_bu: {cs.h_bu.shape}, H_ru: {cs.h_ru.shape}")
print(f"scattering coefficient gamma = {cs.gamma:.3e}")

print()
print("=== echo factorization ===")
# The received echo through the RIS equals gamma * c_x * c_y * B * X with
# one-axis squared responses c_x, c_y; verify against the dense product.
small = ScenarioConfig(n_ris=16, grid_size=8, power=36.0)
cs_small = build_channels(small, fading)
x = make_transmit_block(small, 4, rng)
omega = PhaseProfile(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)), np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
y = radar_receive(x, omega, small.v_t, cs_small.gamma, cs_small, small, 0.0, rng)
w = omega.full
t = target_response(small.v_t, cs_small.gamma, small.n_ris, small.ris_spacing)
y_dense = cs_small.h_br.T @ np.diag(w).T @ t @ np.diag(w) @ cs_small.h_br @ x.x
print(f"max |factored - dense| = {np.abs(y - y_dense).max():.3e}")
