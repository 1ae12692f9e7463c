"""Array steering vectors, direction cosines and the search grid.

Conventions used throughout the package:

* ULAs (base station and user) are half-wavelength spaced, so the phase
  step per element is ``pi * sin(theta)``.
* The RIS is a square planar array indexed row-major: the full steering
  vector factors as ``kron(r_x(vx), r_y(vy))`` with the horizontal axis
  as the outer Kronecker factor.  RIS phase profiles share this ordering.
* Angles cross API boundaries in degrees; everything internal is radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class FieldError(ValueError):
    """A value that a config type rejects; ``fields`` names the attributes at fault."""

    def __init__(self, fields, message: str):
        super().__init__(message)
        self.fields = tuple(fields)


def check_fields(obj, rules):
    """Raise a FieldError for the first ``(field, rule, check)`` row whose check ``obj`` fails."""
    for name, rule, ok in rules:
        value = getattr(obj, name)
        if not ok(value):
            raise FieldError((name,), f"{name} must be {rule}, got {value!r}")


def is_integer(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a Python or numpy real number that is not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def store_python_numbers(obj):
    """Store the checked ``int`` and ``float`` fields of frozen dataclass ``obj`` as Python numbers, as a config
    file loads them, so that a numpy or integer spelling of one value hashes and prints as one value."""
    for f in fields(obj):
        if f.type in ("int", "float"):
            object.__setattr__(obj, f.name, (int if f.type == "int" else float)(getattr(obj, f.name)))


def check_count(name: str, value):
    """Raise a ValueError naming ``name`` unless ``value`` is an integer >= 1."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be {'>= 1' if is_integer(value) else 'an integer'}, got {value!r}")


@dataclass(frozen=True)
class DirectionCosine:
    """Point (vx, vy) on the unit disk of direction cosines."""

    vx: float
    vy: float

    def __post_init__(self):
        if bad := [c for c in ("vx", "vy") if not is_real(getattr(self, c))]:
            raise FieldError(bad, f"direction cosines must be real numbers, got ({self.vx!r}, {self.vy!r})")
        if bad := [c for c in ("vx", "vy") if not math.isfinite(getattr(self, c))]:
            raise FieldError(bad, "direction cosines must be finite")
        if bad := [c for c in ("vx", "vy") if abs(getattr(self, c)) > 1.0]:
            raise FieldError(bad, f"direction cosines must lie in [-1, 1], got ({self.vx}, {self.vy})")
        store_python_numbers(self)


def ula_steering(theta_deg: float, n_elems: int) -> np.ndarray:
    """Steering vector of a half-wavelength ULA toward angle ``theta_deg``.

    Entry n (1-based) is exp(1j * (n-1) * pi * sin(theta)).
    """
    if not math.isfinite(theta_deg):
        raise ValueError("steering angle must be finite")
    if n_elems < 1:
        raise ValueError("n_elems must be >= 1")
    theta = math.radians(theta_deg)
    n = np.arange(n_elems)
    return np.exp(1j * n * np.pi * math.sin(theta))


def ris_axis_steering(v, n_axis: int, spacing_wavelengths: float = 0.25) -> np.ndarray:
    """Steering vector along one RIS axis for direction cosine ``v``.

    Entry n (1-based) is exp(1j * 2*pi * spacing * (n-1) * v).  Spacing is
    in wavelengths and must be in (0, 0.5] to avoid grating lobes.  A 1-D
    array of cosines gives one steering vector per row.
    """
    if not (0.0 < spacing_wavelengths <= 0.5):
        raise ValueError(f"spacing must be in (0, 0.5] wavelengths, got {spacing_wavelengths}")
    v = np.asarray(v, dtype=float)
    if not np.all(np.abs(v) <= 1.0):  # False for NaN; infinities exceed 1
        raise ValueError(f"direction cosine must be in [-1, 1], got {v}")
    if n_axis < 1:
        raise ValueError("n_axis must be >= 1")
    n = np.arange(n_axis)
    return np.exp(2j * np.pi * spacing_wavelengths * n * v[..., None])


def ris_full_steering(v: DirectionCosine, n_ris: int, spacing_wavelengths: float = 0.25) -> np.ndarray:
    """Full RIS steering vector, Kronecker of the two axis vectors."""
    n_axis = axis_size(n_ris)
    rx = ris_axis_steering(v.vx, n_axis, spacing_wavelengths)
    ry = ris_axis_steering(v.vy, n_axis, spacing_wavelengths)
    return np.kron(rx, ry)


def axis_size(n_ris: int) -> int:
    """Side length of the square RIS; rejects empty and non-square element counts."""
    if n_ris < 1:
        raise FieldError(("n_ris",), f"RIS element count must be >= 1, got {n_ris}")
    n_axis = math.isqrt(n_ris)
    if n_axis * n_axis != n_ris:
        raise FieldError(("n_ris",), f"RIS element count must be a perfect square, got {n_ris}")
    return n_axis


def direction_grid(d: int) -> np.ndarray:
    """Cell-centered grid of ``d`` equally spaced direction cosines in [-1, 1].

    Point j (1-based) sits at -1 + (2j-1)/d, the center of the j-th of the
    d equal cells tiling [-1, 1].
    """
    if d < 1:
        raise ValueError("grid size must be >= 1")
    j = np.arange(1, d + 1)
    return -1.0 + (2.0 * j - 1.0) / d


def nearest_grid_index(v: float, d: int) -> int:
    """1-based index of the grid cell whose center is nearest to ``v``."""
    grid = direction_grid(d)
    return int(np.argmin(np.abs(grid - v))) + 1
