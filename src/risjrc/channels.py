"""Scenario configuration, pathloss, fading draws and the link matrices of the LoS mmWave model.

All channels are rank-1 line-of-sight outer products, so the library never
forms a channel matrix: the target search and the user link are simulated
from exact scalar laws (``localization.make_scene``, ``comms._se_samples``).
The dense model of the same physics, the channel matrices and the
received-signal blocks, is the test oracle in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geometry import (
    DirectionCosine,
    FieldError,
    axis_size,
    check_fields,
    direction_grid,
    is_integer,
    is_real,
    store_python_numbers,
    ula_steering,
)

def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def db_to_linear(p_db: float) -> float:
    return 10.0 ** (p_db / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario geometry, power budget, and model switches.

    The total transmit power is stored once, in the configured units
    (``power_units``), and split by ``radar_share``, the radar stream's
    fraction of it; the user stream has the rest.  An experiment sets it to
    each entry of its plan's ``power_list`` in turn.  All internal math is in
    linear watts: ``p_r_watts`` and ``p_u_watts`` derive the two stream
    powers from the total, so ``replace(cfg, power=P)`` keeps the split.
    ``pathloss_model`` names the one pathloss law, ``standard_power``.
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
    pathloss_model: str = "standard_power"
    # noise powers
    sigma_b2_dbm: float = -94.0
    sigma_u2_dbm: float = -80.0
    # transmit power and split
    power: float = 36.0
    power_units: str = "dBm"
    radar_share: float = 0.5
    # RIS element spacing in wavelengths
    ris_spacing: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            if f.type != "float":  # the real-valued fields; the rules check the rest
                continue
            value = getattr(self, f.name)
            if not is_real(value):
                raise FieldError((f.name,), f"{f.name} must be a real number, got {value!r}")
            # -inf dBm is a noiseless receiver (0 W), not a malformed value
            noiseless = value == -math.inf and f.name in ("sigma_b2_dbm", "sigma_u2_dbm")
            if not math.isfinite(value) and not noiseless:
                raise FieldError((f.name,), f"{f.name} must be finite, got {value!r}")
        check_fields(self, _SCENARIO_RULES)
        axis_size(self.n_ris)
        store_python_numbers(self)

    @property
    def n_axis(self) -> int:
        return axis_size(self.n_ris)

    @property
    def n_stages(self) -> int:
        return int(round(math.log2(self.grid_size)))

    @property
    def p_total_watts(self) -> float:
        return dbm_to_watts(self.power) if self.power_units == "dBm" else db_to_linear(self.power)

    @property
    def p_r_watts(self) -> float:
        return self.radar_share * self.p_total_watts

    @property
    def p_u_watts(self) -> float:
        return (1.0 - self.radar_share) * self.p_total_watts

    @property
    def sigma_b2_watts(self) -> float:
        return dbm_to_watts(self.sigma_b2_dbm)

    @property
    def sigma_u2_watts(self) -> float:
        return dbm_to_watts(self.sigma_u2_dbm)

    def with_power(self, power: float) -> "ScenarioConfig":
        """Copy of the config at a new total power, in its units and with its radar share."""
        return replace(self, power=power)

    @property
    def grid(self) -> np.ndarray:
        return direction_grid(self.grid_size)


# (field, rule, check) rows for ScenarioConfig's single-field ranges; the real-number loop runs first
_SCENARIO_RULES = (
    *((name, "an integer >= 1", lambda x: is_integer(x) and x >= 1) for name in ("n_b", "n_u")),
    ("grid_size", "an integer power of two >= 2", lambda x: is_integer(x) and x >= 2 and not x & (x - 1)),
    ("n_ris", "an integer", is_integer),  # before axis_size checks its range
    *((name, "> 0", lambda x: x > 0) for name in ("d_bu", "d_br", "d_ru", "d_rt")),
    ("pathloss_model", "'standard_power'", lambda x: x == "standard_power"),
    ("power_units", "'dBm' or 'dB'", lambda x: x in ("dBm", "dB")),
    ("ris_spacing", "in (0, 0.5] wavelengths", lambda x: 0 < x <= 0.5),
    ("radar_share", "in [0, 1]", lambda x: 0 <= x <= 1),
)


def pathloss(d: float, alpha: float, eta0_db: float) -> float:
    """Large-scale amplitude gain of a path of length ``d`` metres.

    The power gain is the power law eta0_lin * d**-alpha, eta0_lin being
    the linear form of the dB reference loss at 1 m; the amplitude gain is
    its square root (the ``standard_power`` law).
    """
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    return math.sqrt(db_to_linear(eta0_db) * d ** (-alpha))


@dataclass(frozen=True)
class PathGains:
    """Large-scale amplitude gains of the four links."""

    eta_bu: float
    eta_br: float
    eta_ru: float
    eta_rt: float


def path_gains(cfg: ScenarioConfig) -> PathGains:
    return PathGains(
        eta_bu=pathloss(cfg.d_bu, cfg.alpha_bu, cfg.eta0_db),
        eta_br=pathloss(cfg.d_br, cfg.alpha_br, cfg.eta0_db),
        eta_ru=pathloss(cfg.d_ru, cfg.alpha_ru, cfg.eta0_db),
        eta_rt=pathloss(cfg.d_rt, cfg.alpha_rt, cfg.eta0_db),
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
    # in place on each contiguous half: the ufuncs and operands of sqrt(-2 ln u) and 2 pi u, so their bits
    radius, angle = (np.add(words[..., i::2] >> np.uint64(11), 0.5) for i in (0, 1))
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi * 2.0**-53  # one rounding either way: scaling by 2^-53 is exact
    z = np.empty(words.shape)
    np.multiply(radius, np.cos(angle), out=z[..., 0::2])
    np.multiply(radius, np.sin(angle, out=angle), out=z[..., 1::2])
    return z


def fading_from_normals(normals: np.ndarray) -> FadingDraw:
    """The fading of each row of a ``(..., >= 8)`` block of standard normals: 4 real parts, then 4
    imaginary parts, in the order br, bu, ru, rho; later entries are ignored.  Each coefficient is a
    C-contiguous array of the block's leading shape, or a numpy scalar for a single row."""
    return FadingDraw(*(complex_from_parts(normals[..., k], normals[..., k + 4])[()] for k in range(4)))


def draw_fading(rng: np.random.Generator, size: tuple = ()) -> FadingDraw:
    """``size`` fading draws, each from the next 8 standard normals of ``rng``."""
    return fading_from_normals(rng.standard_normal((*size, 8)))


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


@dataclass
class PhaseProfile:
    """Kronecker-factored unit-modulus RIS configuration."""

    omega_x: np.ndarray
    omega_y: np.ndarray

    @property
    def full(self) -> np.ndarray:
        return np.kron(self.omega_x, self.omega_y)
