"""LoS mmWave channel synthesis and received-signal models.

All channels are rank-1 line-of-sight outer products; the receive
operations exploit that structure so nothing of size N_r x N_r is ever
materialized, while remaining algebraically exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geometry import (
    DirectionCosine,
    axis_size,
    direction_grid,
    ris_axis_steering,
    ris_full_steering,
    ula_steering,
)

PATHLOSS_MODELS = ("literal", "standard", "standard_power")


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def db_to_linear(p_db: float) -> float:
    return 10.0 ** (p_db / 10.0)


def _total_watts(power: float, units: str) -> float:
    return dbm_to_watts(power) if units == "dBm" else db_to_linear(power)


@dataclass
class ScenarioConfig:
    """Scenario geometry, power budget, and model switches.

    Powers are stored in the configured units (``power_units``); all
    internal math is in linear watts.  The radar/user split must sum to
    the total transmit power; each share left unset is half of the total.
    """

    # array sizes
    n_b: int = 64
    n_u: int = 16
    n_ris: int = 4096
    grid_size: int = 32
    # ULA departure/arrival angles, degrees
    theta_r_deg: float = 45.0
    theta_u_deg: float = -25.0
    zeta_b_deg: float = -30.0
    zeta_r_deg: float = 25.0
    # direction cosines at the RIS
    v_b: DirectionCosine = field(default_factory=lambda: DirectionCosine(0.133, -0.112))
    v_u: DirectionCosine = field(default_factory=lambda: DirectionCosine(0.105, -0.343))
    v_t: DirectionCosine = field(default_factory=lambda: DirectionCosine(-0.4127, 0.5397))
    # link distances, metres
    d_bu: float = 20.0
    d_br: float = 10.0
    d_ru: float = 10.0
    d_rt: float = 5.0
    # pathloss exponents
    alpha_bu: float = 3.5
    alpha_br: float = 2.5
    alpha_ru: float = 2.8
    alpha_rt: float = 2.8
    eta0_db: float = -30.0
    pathloss_model: str = "literal"
    # noise powers
    sigma_b2_dbm: float = -94.0
    sigma_u2_dbm: float = -80.0
    # transmit power and split
    power: float = 36.0
    power_units: str = "dBm"
    p_r_watts: float | None = None
    p_u_watts: float | None = None
    # RIS element spacing in wavelengths
    ris_spacing: float = 0.25

    def __post_init__(self):
        for name in ("p_r_watts", "p_u_watts"):
            if getattr(self, name) is None:
                setattr(self, name, self.p_total_watts / 2)
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # -inf dBm is a noiseless receiver (0 W), not a malformed value
            noiseless = value == -math.inf and f.name in ("sigma_b2_dbm", "sigma_u2_dbm")
            if isinstance(value, float) and not math.isfinite(value) and not noiseless:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.ris_spacing <= 0:
            raise ValueError(f"ris_spacing must be > 0, got {self.ris_spacing!r}")
        if self.grid_size < 2 or self.grid_size & (self.grid_size - 1):
            raise ValueError(f"grid_size must be a power of two >= 2, got {self.grid_size}")
        axis_size(self.n_ris)
        if self.pathloss_model not in PATHLOSS_MODELS:
            raise ValueError(f"pathloss_model must be one of {PATHLOSS_MODELS}")
        if self.power_units not in ("dBm", "dB"):
            raise ValueError("power_units must be 'dBm' or 'dB'")
        if self.p_r_watts < 0 or self.p_u_watts < 0:
            raise ValueError("power split entries must be >= 0")
        total = self.p_total_watts
        if not math.isclose(self.p_r_watts + self.p_u_watts, total, rel_tol=1e-9, abs_tol=1e-30):
            raise ValueError(
                f"p_r_watts + p_u_watts = {self.p_r_watts + self.p_u_watts!r} "
                f"does not match total power {total!r} W"
            )

    @property
    def n_axis(self) -> int:
        return axis_size(self.n_ris)

    @property
    def n_stages(self) -> int:
        return int(round(math.log2(self.grid_size)))

    @property
    def p_total_watts(self) -> float:
        return _total_watts(self.power, self.power_units)

    @property
    def sigma_b2_watts(self) -> float:
        return dbm_to_watts(self.sigma_b2_dbm)

    @property
    def sigma_u2_watts(self) -> float:
        return dbm_to_watts(self.sigma_u2_dbm)

    def with_power(self, power: float) -> "ScenarioConfig":
        """Copy of the config at a new total power, preserving the split ratio."""
        total_old = self.p_total_watts
        frac_r = self.p_r_watts / total_old if total_old > 0 else 0.5
        total_new = _total_watts(power, self.power_units)
        return replace(
            self,
            power=power,
            p_r_watts=frac_r * total_new,
            p_u_watts=(1.0 - frac_r) * total_new,
        )

    @property
    def grid(self) -> np.ndarray:
        return direction_grid(self.grid_size)


def pathloss(d: float, alpha: float, eta0_db: float, model: str = "literal") -> float:
    """Large-scale amplitude gain of a path of length ``d`` metres.

    ``literal`` evaluates (eta0_lin / d)**alpha with eta0_lin the linear
    form of the dB reference loss.  ``standard`` evaluates the usual
    power law eta0_lin * d**-alpha.  ``standard_power`` treats that power
    law as a power gain and returns its square root as the amplitude.
    """
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    eta0 = db_to_linear(eta0_db)
    if model == "literal":
        return (eta0 / d) ** alpha
    if model == "standard":
        return eta0 * d ** (-alpha)
    if model == "standard_power":
        return math.sqrt(eta0 * d ** (-alpha))
    raise ValueError(f"unknown pathloss model {model!r}")


@dataclass(frozen=True)
class PathGains:
    """Large-scale amplitude gains of the four links."""

    eta_bu: float
    eta_br: float
    eta_ru: float
    eta_rt: float


def path_gains(cfg: ScenarioConfig) -> PathGains:
    m = cfg.pathloss_model
    return PathGains(
        eta_bu=pathloss(cfg.d_bu, cfg.alpha_bu, cfg.eta0_db, m),
        eta_br=pathloss(cfg.d_br, cfg.alpha_br, cfg.eta0_db, m),
        eta_ru=pathloss(cfg.d_ru, cfg.alpha_ru, cfg.eta0_db, m),
        eta_rt=pathloss(cfg.d_rt, cfg.alpha_rt, cfg.eta0_db, m),
    )


@dataclass(frozen=True)
class FadingDraw:
    """One realization of the small-scale coefficients and the target RCS."""

    beta_br: complex
    beta_bu: complex
    beta_ru: complex
    rho: complex


def complex_from_parts(re, im, scale=1.0 / np.sqrt(2.0)) -> np.ndarray:
    """(re + j im) * scale, written part by part because numpy's complex arithmetic costs several times
    more; the default gives the bits of ``(re + 1j * im) / np.sqrt(2.0)`` (``np.sqrt(0.5)`` is 1 ulp larger)."""
    z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im), np.shape(scale)), complex)
    z.real, z.imag = re * scale, im * scale
    return z


def complex_normal(rng: np.random.Generator, size=None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws, zero mean, unit variance: real parts, then imaginary."""
    return complex_from_parts(rng.standard_normal(size), rng.standard_normal(size))


def normals_from_words(words: np.ndarray) -> np.ndarray:
    """Standard normals from raw 64-bit words by Box-Muller, one normal per word along the last axis.

    Each word maps to u = ((w >> 11) + 0.5) 2^-53 in (0, 1], never 0; words 2i and 2i + 1 give the
    radius sqrt(-2 ln u) and the angle 2 pi u of normals 2i (cosine) and 2i + 1 (sine).
    """
    u = ((words >> np.uint64(11)) + 0.5) * 2.0**-53
    radius, angle = np.sqrt(-2.0 * np.log(u[..., 0::2])), 2.0 * np.pi * u[..., 1::2]
    z = np.empty(u.shape)
    z[..., 0::2], z[..., 1::2] = radius * np.cos(angle), radius * np.sin(angle)
    return z


def fading_from_normals(normals: np.ndarray) -> FadingDraw:
    """The fading of each row of a ``(..., >= 8)`` block of standard normals: 4 real parts, then 4
    imaginary parts, in the order br, bu, ru, rho; later entries are ignored."""
    return FadingDraw(*np.moveaxis(complex_from_parts(normals[..., :4], normals[..., 4:8]), -1, 0))


def draw_fading(rng: np.random.Generator, size: tuple = ()) -> FadingDraw:
    """``size`` fading draws, each from the next 8 standard normals of ``rng``."""
    return fading_from_normals(rng.standard_normal((*size, 8)))


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
class PhaseProfile:
    """Kronecker-factored unit-modulus RIS configuration."""

    omega_x: np.ndarray
    omega_y: np.ndarray

    @property
    def full(self) -> np.ndarray:
        return np.kron(self.omega_x, self.omega_y)


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
