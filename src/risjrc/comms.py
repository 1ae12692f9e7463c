"""User-link precoding, effective channel, and spectral efficiency."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import ChannelSet, FadingDraw, PathGains, PhaseProfile, ScenarioConfig, draw_fading, path_gains
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


class _LinkTerms(NamedTuple):
    """What the SE of a scenario config needs besides its fading and RIS profile; arrays read-only."""

    eta: PathGains
    m_direct: np.ndarray  # 2x2 direct-path factor M_d
    norm_d: float  # ‖M_d‖²
    m_outer: np.ndarray  # 2x2 cascade factor before the RIS gain and P
    p: np.ndarray  # 2x2 diagonal sqrt powers
    axis: tuple  # r_x(v_u), r_x(v_b), r_y(v_u), r_y(v_b)


@functools.lru_cache(maxsize=8)  # a sweep reads each power point's entry on consecutive calls
def _link_terms(cfg: ScenarioConfig) -> _LinkTerms:
    """The fading-independent SE terms of ``cfg``, built once per config: every scenario of a power
    point reads the same entry."""
    link = build_link_matrices(cfg)
    b_r = ula_steering(cfg.theta_r_deg, cfg.n_b)
    b_u = ula_steering(cfg.theta_u_deg, cfg.n_b)
    u_b = ula_steering(cfg.zeta_b_deg, cfg.n_u)
    u_r = ula_steering(cfg.zeta_r_deg, cfg.n_u)
    m_direct = np.outer(link.c.conj().T @ u_b, b_u.conj() @ link.f) @ link.p
    m_outer = np.outer(link.c.conj().T @ u_r, b_r.conj() @ link.f)
    n_axis, sp = cfg.n_axis, cfg.ris_spacing
    axis = tuple(ris_axis_steering(v, n_axis, sp) for v in (cfg.v_u.vx, cfg.v_b.vx, cfg.v_u.vy, cfg.v_b.vy))
    for array in (m_direct, m_outer, link.p, *axis):  # one cached entry is shared by every caller
        array.flags.writeable = False
    return _LinkTerms(path_gains(cfg), m_direct, np.vdot(m_direct, m_direct).real, m_outer, link.p, axis)


def _cascade_axis_gain(cfg: ScenarioConfig, omega: PhaseProfile) -> complex:
    """r(v_u)^H diag(w) r(v_b) over the full RIS, via the axis factors."""
    rx_u, rx_b, ry_u, ry_b = _link_terms(cfg).axis
    return (rx_u.conj() @ (omega.omega_x * rx_b)) * (ry_u.conj() @ (omega.omega_y * ry_b))


@dataclass(frozen=True)
class SeEstimate:
    mean: float
    halfwidth: float  # 95% normal-approximation half-width
    trials: int


def _se_samples(cfg: ScenarioConfig, omega: PhaseProfile | None, fading: FadingDraw) -> np.ndarray:
    """Spectral efficiency of profile ``omega`` on each draw of ``fading``, in one batch.

    The effective channel is ``H = a·M_d + b·M_c``: ``M_d`` and ``M_c``
    are the fading-independent rank-1 factors of the direct and cascade
    terms, ``a = β_bu·η_bu`` and ``b = β_ru·η_ru·β_br·η_br``.  Both
    factors are rank 1, so ``det H = a·b·det(M_d + M_c)`` and

        SE = log2(1 + ‖H‖_F²/σ² + |det H|²/σ⁴),

    with ``‖H‖_F² = |a|²‖M_d‖² + |b|²‖M_c‖² + 2·Re(a·b̄·⟨M_c, M_d⟩)``.
    Everything but the fading and the RIS gain comes from ``_link_terms``,
    built once per config.  Without a RIS, ``b = 0``: the cascade, cross and
    det terms are exact zeros, so the SE is ``log2(1 + |a|²‖M_d‖²/σ²)``,
    which is evaluated directly.
    """
    sigma_u2 = cfg.sigma_u2_watts
    if sigma_u2 <= 0:
        raise ValueError("noise power must be positive")
    terms = _link_terms(cfg)
    eta = terms.eta
    a = fading.beta_bu * eta.eta_bu
    if omega is None:
        return np.log2(1.0 + np.abs(a) ** 2 * terms.norm_d / sigma_u2)
    m_cascade = (_cascade_axis_gain(cfg, omega) * terms.m_outer) @ terms.p
    b = (fading.beta_ru * eta.eta_ru) * (fading.beta_br * eta.eta_br)
    norm_c = np.vdot(m_cascade, m_cascade).real
    cross = np.vdot(m_cascade, terms.m_direct)
    det_sum = np.linalg.det(terms.m_direct + m_cascade)
    frob = np.abs(a) ** 2 * terms.norm_d + np.abs(b) ** 2 * norm_c + 2.0 * (a * b.conj() * cross).real
    det2 = np.abs(a * b) ** 2 * abs(det_sum) ** 2
    return np.log2(1.0 + frob / sigma_u2 + det2 / sigma_u2**2)


def _se_estimate(values: np.ndarray) -> SeEstimate:
    """Mean of per-trial SE ``values`` and its 95% normal-approximation half-width."""
    trials = len(values)
    halfwidth = float(1.96 * values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SeEstimate(mean=float(values.mean()), halfwidth=halfwidth, trials=trials)


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
    and evaluated by the rank-1 closed form of ``_se_samples`` over terms
    built once per ``cfg``, so the scenarios of one power point share them;
    ``spectral_efficiency`` of ``effective_channel`` is its oracle.  A sweep
    that compares profiles on one draw calls the same two pieces.
    """
    check_count("trials", trials)
    return _se_estimate(_se_samples(cfg, omega, draw_fading(rng, (trials,))))
