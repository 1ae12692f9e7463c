"""User-link RIS profiles and spectral efficiency.

The SE benchmark, ``comm_phase_profile``, is the codebook's comm block
(``design_comm_phases``) over all elements of each axis.

The Monte Carlo SE runs on the rank-1 closed form of ``_se_samples``; the
dense 2x2 effective channel that it is checked against, ``effective_channel``,
is a test oracle in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import FadingDraw, PhaseProfile, ScenarioConfig, draw_fading
from .codebook import Codebook, design_comm_phases
from .geometry import check_count
from .localization import Scene, make_scene


def spectral_efficiency(h_eff: np.ndarray, sigma_u2: float) -> float:
    """log2 det(I + H H^H / sigma^2) of one effective-channel realization."""
    if sigma_u2 <= 0:
        raise ValueError("noise power must be positive")
    m = np.eye(2) + (h_eff @ h_eff.conj().T) / sigma_u2
    sign, logdet = np.linalg.slogdet(m)
    return float(logdet / math.log(2.0))


def comm_phase_profile(cfg: ScenarioConfig) -> PhaseProfile:
    """Full-RIS profile steering the base-station beam at the user: the paper's "RIS-assisted MIMO system
    without sensing" benchmark."""
    n_axis = cfg.n_axis
    return PhaseProfile(
        omega_x=design_comm_phases(n_axis, cfg.v_b.vx, cfg.v_u.vx, cfg.ris_spacing),
        omega_y=design_comm_phases(n_axis, cfg.v_b.vy, cfg.v_u.vy, cfg.ris_spacing),
    )


def stage_phase_profile(cb: Codebook, stage: int, beam: int = 1) -> PhaseProfile:
    """Axis profile pair of one codebook beam (same axis beam on both axes)."""
    book = cb.stage(stage)
    if not 1 <= beam <= book.n_beams_axis:
        raise ValueError(f"beam must be in 1..{book.n_beams_axis}, got {beam}")
    return PhaseProfile(omega_x=book.w_x[:, beam - 1], omega_y=book.w_y[:, beam - 1])


@dataclass(frozen=True)
class SeEstimate:
    mean: float
    halfwidth: float  # 95% normal-approximation half-width
    trials: int


def _se_samples(scene: Scene, omega: PhaseProfile | None, fading: FadingDraw) -> np.ndarray:
    """Spectral efficiency of profile ``omega`` on each draw of ``fading``, in one batch.

    The effective channel is ``H = a·M_d + b·M_c``: ``M_d`` and ``M_c``
    are the fading-independent rank-1 factors of the direct and cascade
    terms, ``a = β_bu·η_bu`` and ``b = β_ru·η_ru·β_br·η_br``.  Both
    factors are rank 1, so ``det H = a·b·det(M_d + M_c)`` and

        SE = log2(1 + ‖H‖_F²/σ² + |det H|²/σ⁴),

    with ``‖H‖_F² = |a|²‖M_d‖² + |b|²‖M_c‖² + 2·Re(a·b̄·⟨M_c, M_d⟩)``.
    Everything but the fading and the RIS gain r(v_u)^H diag(w) r(v_b),
    formed from its axis factors, comes from the power point's ``scene``.
    Without a RIS, ``b = 0``: the cascade, cross and det terms are exact
    zeros, so the SE is ``log2(1 + |a|²‖M_d‖²/σ²)``, which is evaluated directly.
    """
    sigma_u2 = scene.cfg.sigma_u2_watts
    if sigma_u2 <= 0:
        raise ValueError("noise power must be positive")
    eta = scene.gains
    a = fading.beta_bu * eta.eta_bu
    if omega is None:
        return np.log2(1.0 + np.abs(a) ** 2 * scene.norm_d / sigma_u2)
    (rx_u, ry_u), (rx_b, ry_b) = scene.r_u, scene.r_b
    gain = (rx_u.conj() @ (omega.omega_x * rx_b)) * (ry_u.conj() @ (omega.omega_y * ry_b))
    m_cascade = (gain * scene.m_outer) @ scene.p
    b = (fading.beta_ru * eta.eta_ru) * (fading.beta_br * eta.eta_br)
    norm_c = np.vdot(m_cascade, m_cascade).real
    cross = np.vdot(m_cascade, scene.m_direct)
    det_sum = np.linalg.det(scene.m_direct + m_cascade)
    frob = np.abs(a) ** 2 * scene.norm_d + np.abs(b) ** 2 * norm_c + 2.0 * (a * b.conj() * cross).real
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
    and evaluated by the rank-1 closed form of ``_se_samples`` on the scene
    of ``cfg``; ``spectral_efficiency`` of the dense effective channel of
    ``tests/reference.py`` is its oracle.  A sweep that compares profiles
    on one draw calls the same two pieces on its power point's one scene.
    """
    check_count("trials", trials)
    return _se_estimate(_se_samples(make_scene(cfg), omega, draw_fading(rng, (trials,))))
