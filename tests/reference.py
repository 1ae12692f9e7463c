"""Test oracles: the dense matrix model of both links and the ideal matched codebook.

The library simulates the target search and the user link from exact rank-1
scalar laws (``risjrc.localization.make_scene``, ``stage_terms`` and
``candidate_statistics``; ``risjrc.comms._se_samples``).  This module keeps the
second, literal model of the same physics that the tests check those laws
against: the channel matrices, the N_b x T_s transmit block and the received
blocks, the 2x2 effective channel, the received-block beam statistic, the
complex form of the per-beam statistic, and the full-aperture matched
codebook.  Nothing in the package imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from risjrc.channels import FadingDraw, LinkMatrices, PhaseProfile, ScenarioConfig, complex_normal, path_gains
from risjrc.codebook import Codebook, _stage_book, partition_indices
from risjrc.geometry import DirectionCosine, direction_grid, ris_axis_steering, ris_full_steering, ula_steering


def direction_cosines(azimuth_deg: float, elevation_deg: float) -> DirectionCosine:
    """Direction cosines (sin(el)*sin(az), sin(el)*cos(az)) of a direction."""
    if not (math.isfinite(azimuth_deg) and math.isfinite(elevation_deg)):
        raise ValueError("angles must be finite")
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return DirectionCosine(math.sin(el) * math.sin(az), math.sin(el) * math.cos(az))


@dataclass
class ChannelSet:
    """The three rank-1 LoS channels plus the target scattering coefficient."""

    h_bu: np.ndarray  # N_u x N_b
    h_br: np.ndarray  # N_r x N_b
    h_ru: np.ndarray  # N_u x N_r
    g_bu: complex
    g_br: complex
    g_ru: complex
    gamma: complex


def build_channels(cfg: ScenarioConfig, fading: FadingDraw) -> ChannelSet:
    """Assemble the LoS channel matrices from geometry, pathloss, and fading."""
    eta = path_gains(cfg)
    g_bu = fading.beta_bu * eta.eta_bu
    g_br = fading.beta_br * eta.eta_br
    g_ru = fading.beta_ru * eta.eta_ru
    gamma = fading.rho * eta.eta_rt**2

    b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
    b_u = ula_steering(cfg.theta_u_deg, cfg.n_b)
    u_b = ula_steering(cfg.zeta_b_deg, cfg.n_u)
    u_r = ula_steering(cfg.zeta_r_deg, cfg.n_u)
    r_b = ris_full_steering(cfg.v_b, cfg.n_ris, cfg.ris_spacing)
    r_u = ris_full_steering(cfg.v_u, cfg.n_ris, cfg.ris_spacing)

    h_bu = g_bu * np.outer(u_b, b_u.conj())
    h_br = g_br * np.outer(r_b, b_r.conj())
    h_ru = g_ru * np.outer(u_r, r_u.conj())
    return ChannelSet(h_bu=h_bu, h_br=h_br, h_ru=h_ru, g_bu=g_bu, g_br=g_br, g_ru=g_ru, gamma=gamma)


def target_response(
    v_t: DirectionCosine, gamma: complex, n_ris: int, spacing_wavelengths: float = 0.25
) -> np.ndarray:
    """Target response matrix gamma * conj(r(v_t)) r(v_t)^H.  N_r x N_r."""
    r_t = ris_full_steering(v_t, n_ris, spacing_wavelengths)
    return gamma * np.outer(r_t.conj(), r_t.conj())


@dataclass
class TransmitBlock:
    """One block of dual-stream transmit symbols and the radiated signal."""

    s_r: np.ndarray  # T_s radar-stream symbols, unit modulus
    s_u: np.ndarray  # T_s user-stream symbols, unit modulus
    x: np.ndarray  # N_b x T_s


def qpsk_symbols(rng: np.random.Generator, t_s: int) -> np.ndarray:
    k = rng.integers(0, 4, size=t_s)
    return np.exp(1j * (np.pi / 4 + k * np.pi / 2))


def make_transmit_block(cfg: ScenarioConfig, t_s: int, rng: np.random.Generator) -> TransmitBlock:
    """Draw QPSK streams and beamform them toward the RIS and the user."""
    if t_s < 1:
        raise ValueError("snapshot count must be >= 1")
    s_r = qpsk_symbols(rng, t_s)
    s_u = qpsk_symbols(rng, t_s)
    b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
    b_u = ula_steering(cfg.theta_u_deg, cfg.n_b)
    x = np.sqrt(cfg.p_r_watts / cfg.n_b) * np.outer(b_r, s_r) + np.sqrt(
        cfg.p_u_watts / cfg.n_b
    ) * np.outer(b_u, s_u)
    return TransmitBlock(s_r=s_r, s_u=s_u, x=x)


def squared_spatial_response(
    w_axis: np.ndarray, v_scan: float, v_incident: float, spacing_wavelengths: float = 0.25
) -> complex:
    """Squared one-axis RIS response toward ``v_scan`` for an incident ``v_incident``.

    Squared because the RIS is traversed on both the forward and echo paths.
    """
    n = len(w_axis)
    r_scan = ris_axis_steering(v_scan, n, spacing_wavelengths)
    r_inc = ris_axis_steering(v_incident, n, spacing_wavelengths)
    c = r_scan.conj() @ (w_axis * r_inc)
    return c**2


def radar_receive(
    x: TransmitBlock,
    omega: PhaseProfile,
    v_t: DirectionCosine,
    gamma: complex,
    channels: ChannelSet,
    cfg: ScenarioConfig,
    sigma_b2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Echo received at the base station through the RIS, N_b x T_s.

    Evaluates H_br^T diag(w)^T T diag(w) H_br X + noise through the rank-1
    factors of H_br and T, avoiding any N_r x N_r product.
    """
    n_axis = cfg.n_axis
    rx_t = ris_axis_steering(v_t.vx, n_axis, cfg.ris_spacing)
    ry_t = ris_axis_steering(v_t.vy, n_axis, cfg.ris_spacing)
    rx_b = ris_axis_steering(cfg.v_b.vx, n_axis, cfg.ris_spacing)
    ry_b = ris_axis_steering(cfg.v_b.vy, n_axis, cfg.ris_spacing)
    # one-axis responses r_ax^H(v_t) diag(w_ax) r_ax(v_b)
    a_x = rx_t.conj() @ (omega.omega_x * rx_b)
    a_y = ry_t.conj() @ (omega.omega_y * ry_b)
    b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
    y = gamma * channels.g_br**2 * (a_x * a_y) ** 2 * np.outer(b_r.conj(), b_r.conj() @ x.x)
    if sigma_b2 > 0:
        y = y + np.sqrt(sigma_b2) * complex_normal(rng, y.shape)
    return y


def ue_receive(
    x: TransmitBlock,
    channels: ChannelSet,
    omega: PhaseProfile | None,
    cfg: ScenarioConfig,
    sigma_u2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Signal at the user through the direct and RIS-reflected paths, N_u x T_s.

    ``omega=None`` removes the RIS cascade entirely (no-RIS baseline).
    """
    y = channels.h_bu @ x.x
    if omega is not None:
        w = omega.full
        y = y + channels.h_ru @ (w[:, None] * (channels.h_br @ x.x))
    if sigma_u2 > 0:
        y = y + np.sqrt(sigma_u2) * complex_normal(rng, y.shape)
    return y


def effective_channel(
    channels: ChannelSet, omega: PhaseProfile | None, link: LinkMatrices
) -> np.ndarray:
    """Combined 2x2 downlink channel C^H (H_bu + H_ru diag(w) H_br) F P.

    ``omega=None`` drops the RIS cascade (no-RIS baseline).
    """
    h = channels.h_bu
    if omega is not None:
        w = omega.full
        h = h + channels.h_ru @ (w[:, None] * channels.h_br)
    return link.c.conj().T @ h @ link.f @ link.p


def beam_statistic(y_r: np.ndarray, s_r: np.ndarray, theta_r_deg: float) -> float:
    """Average-power statistic of one received block.

    Beamforms with conj(b(theta_r)), de-rotates by the radar symbols, and
    returns |mean|^2 over the snapshots.
    """
    b = ula_steering(theta_r_deg, y_r.shape[0])
    z = (b @ y_r) * s_r.conj()
    return float(np.abs(z.mean()) ** 2)


def decision_statistic(c, coh, cross, u_bar, n_bar):
    """|z_bar|^2 of one probed beam, the complex form of the law that ``localization.candidate_statistics``
    evaluates in real arithmetic; broadcasts when any argument is an array."""
    return np.abs(c * (coh + cross * u_bar) + n_bar) ** 2


def overall_error_bound(delta: float, n_s: int) -> float:
    """Union bound on the final localization error probability."""
    return n_s * delta


def assemble_stage(w_x: np.ndarray, w_y: np.ndarray) -> np.ndarray:
    """Two-dimensional stage beams: column (a-1)*2^s + b is w_x[:,a] kron w_y[:,b]."""
    return np.kron(w_x, w_y)


def build_matched_codebook(cfg: ScenarioConfig) -> Codebook:
    """Ideal reference codebook of full-aperture matched beams.

    Every stage uses all axis elements for sensing (no comm split) and
    each beam is the closed-form matched profile toward its partition
    midpoint, exact on the grid point at the final stage.  Useful as a
    noiseless oracle and as an upper-gain reference.
    """
    grid = direction_grid(cfg.grid_size)
    n_axis, stages = cfg.n_axis, []
    for s in range(1, cfg.n_stages + 1):
        mids = [partition_indices(s, i, cfg.grid_size).midpoint(grid) for i in range(1, 2**s + 1)]
        phases = ris_axis_steering(mids, n_axis, cfg.ris_spacing)
        stages.append(_stage_book(s, n_axis, phases, np.zeros(2**s), cfg.v_b, cfg.v_u, cfg.ris_spacing, cfg.grid_size))
    return Codebook(cfg.grid_size, cfg.n_ris, cfg.ris_spacing, cfg.v_b, cfg.v_u, (n_axis,) * cfg.n_stages, stages)
