"""User-link precoding, effective channel, and spectral efficiency."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet, PhaseProfile, ScenarioConfig, draw_fading, path_gains
from .codebook import Codebook, matched_axis_beam
from .geometry import check_count, ris_axis_steering, ula_steering


@dataclass
class LinkMatrices:
    """Transmit precoder, receive combiner, and power allocation."""

    f: np.ndarray  # N_b x 2, columns unit norm
    c: np.ndarray  # N_u x 2, columns unit norm
    p: np.ndarray  # 2 x 2 diagonal, sqrt powers


def build_link_matrices(cfg: ScenarioConfig) -> LinkMatrices:
    f = np.column_stack(
        [ula_steering(cfg.theta_r_deg, cfg.n_b), ula_steering(cfg.theta_u_deg, cfg.n_b)]
    ) / math.sqrt(cfg.n_b)
    c = np.column_stack(
        [ula_steering(cfg.zeta_r_deg, cfg.n_u), ula_steering(cfg.zeta_b_deg, cfg.n_u)]
    ) / math.sqrt(cfg.n_u)
    p = np.diag([math.sqrt(cfg.p_r_watts), math.sqrt(cfg.p_u_watts)])
    return LinkMatrices(f=f, c=c, p=p)


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


def spectral_efficiency(h_eff: np.ndarray, sigma_u2: float) -> float:
    """log2 det(I + H H^H / sigma^2) of one effective-channel realization."""
    if sigma_u2 <= 0:
        raise ValueError("noise power must be positive")
    m = np.eye(2) + (h_eff @ h_eff.conj().T) / sigma_u2
    sign, logdet = np.linalg.slogdet(m)
    return float(logdet / math.log(2.0))


def comm_phase_profile(cfg: ScenarioConfig) -> PhaseProfile:
    """Full-RIS profile steering the base-station beam at the user (benchmark)."""
    n_axis = cfg.n_axis
    return PhaseProfile(
        omega_x=matched_axis_beam(cfg.v_b.vx, cfg.v_u.vx, n_axis, cfg.ris_spacing),
        omega_y=matched_axis_beam(cfg.v_b.vy, cfg.v_u.vy, n_axis, cfg.ris_spacing),
    )


def stage_phase_profile(cb: Codebook, stage: int, beam: int = 1) -> PhaseProfile:
    """Axis profile pair of one codebook beam (same axis beam on both axes)."""
    book = cb.stage(stage)
    if not 1 <= beam <= book.n_beams_axis:
        raise ValueError(f"beam must be in 1..{book.n_beams_axis}, got {beam}")
    return PhaseProfile(omega_x=book.w_x[:, beam - 1], omega_y=book.w_y[:, beam - 1])


def _cascade_axis_gain(cfg: ScenarioConfig, omega: PhaseProfile) -> complex:
    """r(v_u)^H diag(w) r(v_b) over the full RIS, via the axis factors."""
    n_axis = cfg.n_axis
    sp = cfg.ris_spacing
    ax = ris_axis_steering(cfg.v_u.vx, n_axis, sp).conj() @ (
        omega.omega_x * ris_axis_steering(cfg.v_b.vx, n_axis, sp)
    )
    ay = ris_axis_steering(cfg.v_u.vy, n_axis, sp).conj() @ (
        omega.omega_y * ris_axis_steering(cfg.v_b.vy, n_axis, sp)
    )
    return ax * ay


@dataclass(frozen=True)
class SeEstimate:
    mean: float
    halfwidth: float  # 95% normal-approximation half-width
    trials: int


def _se_samples(
    cfg: ScenarioConfig,
    omega: PhaseProfile | None,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Spectral efficiency of each of ``trials`` fading draws, in one batch.

    The effective channel is ``H = a·M_d + b·M_c``: ``M_d`` and ``M_c``
    are the fading-independent rank-1 factors of the direct and cascade
    terms, ``a = β_bu·η_bu`` and ``b = β_ru·η_ru·β_br·η_br``.  Both
    factors are rank 1, so ``det H = a·b·det(M_d + M_c)`` and

        SE = log2(1 + ‖H‖_F²/σ² + |det H|²/σ⁴),

    with ``‖H‖_F² = |a|²‖M_d‖² + |b|²‖M_c‖² + 2·Re(a·b̄·⟨M_c, M_d⟩)``.
    Without a RIS, ``b = 0`` and the det term is exactly 0.
    """
    sigma_u2 = cfg.sigma_u2_watts
    if sigma_u2 <= 0:
        raise ValueError("noise power must be positive")
    link = build_link_matrices(cfg)
    eta = path_gains(cfg)
    b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
    b_u = ula_steering(cfg.theta_u_deg, cfg.n_b)
    u_b = ula_steering(cfg.zeta_b_deg, cfg.n_u)
    u_r = ula_steering(cfg.zeta_r_deg, cfg.n_u)
    m_direct = np.outer(link.c.conj().T @ u_b, b_u.conj() @ link.f) @ link.p
    beta = draw_fading(rng, (trials,))
    a = beta.beta_bu * eta.eta_bu
    if omega is None:
        m_cascade = np.zeros((2, 2), dtype=complex)
        b = np.zeros(trials, dtype=complex)
    else:
        a_ru = _cascade_axis_gain(cfg, omega)
        m_cascade = a_ru * np.outer(link.c.conj().T @ u_r, b_r.conj() @ link.f) @ link.p
        b = (beta.beta_ru * eta.eta_ru) * (beta.beta_br * eta.eta_br)
    norm_d = np.vdot(m_direct, m_direct).real
    norm_c = np.vdot(m_cascade, m_cascade).real
    cross = np.vdot(m_cascade, m_direct)
    det_sum = np.linalg.det(m_direct + m_cascade)
    frob = np.abs(a) ** 2 * norm_d + np.abs(b) ** 2 * norm_c + 2.0 * (a * b.conj() * cross).real
    det2 = np.abs(a * b) ** 2 * abs(det_sum) ** 2
    return np.log2(1.0 + frob / sigma_u2 + det2 / sigma_u2**2)


def average_se(
    cfg: ScenarioConfig,
    omega: PhaseProfile | None,
    trials: int,
    rng: np.random.Generator,
) -> SeEstimate:
    """Monte Carlo mean spectral efficiency over small-scale fading draws.

    Only the three link fading coefficients are redrawn; the target
    cross-section plays no role in the user link.  All trials are drawn
    in one ``draw_fading`` call, the same stream as one call per trial,
    and evaluated by the rank-1 closed form of ``_se_samples``;
    ``spectral_efficiency`` of ``effective_channel`` is its oracle.
    """
    check_count("trials", trials)
    values = _se_samples(cfg, omega, trials, rng)
    mean = float(values.mean())
    halfwidth = float(1.96 * values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SeEstimate(mean=mean, halfwidth=halfwidth, trials=trials)
