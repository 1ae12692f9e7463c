"""Hierarchical RIS phase-shift codebook design.

Each stage s splits the direction-cosine grid into 2**s contiguous
partitions per axis.  For every partition a unit-modulus sensing beam is
fitted so that the one-axis RIS response is flat (value L_s) on the
partition and dark elsewhere; the remaining elements of the axis profile
steer a closed-form pencil beam at the user.  Two-dimensional stage beams
are Kronecker products of the two axis books.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ScenarioConfig
from .geometry import direction_grid, ris_axis_steering

CODEBOOK_MAGIC = b"RISCB1\n"


@dataclass(frozen=True)
class PartitionSpec:
    """Contiguous block of 1-based grid indices owned by beam (stage, index)."""

    stage: int
    index: int
    indices: np.ndarray

    def mask(self, d: int) -> np.ndarray:
        m = np.zeros(d, dtype=bool)
        m[self.indices - 1] = True
        return m


def partition_indices(s: int, i: int, d: int) -> PartitionSpec:
    """Grid indices of the i-th of the 2**s partitions at stage s."""
    n_part = 2**s
    if n_part > d:
        raise ValueError(f"stage {s} has {n_part} partitions, more than grid size {d}")
    if not (1 <= i <= n_part):
        raise ValueError(f"partition index must be in 1..{n_part}, got {i}")
    block = d // n_part
    lo = block * (i - 1) + 1
    return PartitionSpec(stage=s, index=i, indices=np.arange(lo, lo + block))


@dataclass
class SolverParams:
    """Projected-update solver settings for the masked-response fit."""

    mu: float | None = None  # None -> 0.5 / sigma_max(weighted A)**2
    max_iters: int = 500
    tol: float = 1e-8
    target_phase: str = "free"  # "free": refit target phases; "fixed": real target
    on_weight: float | None = None  # None -> auto_on_weight(s)
    n_starts: int = 4
    init_perturbation: float = 0.3
    residual_ceiling_factor: float = 1.0  # warn when residual > factor * L * sqrt(D)


def response_rows(l_s: int, v_b_axis: float, grid: np.ndarray, spacing: float) -> np.ndarray:
    """Matrix A with A[j] @ g = r^H(v_j) diag(g) r(v_b) on the sensing sub-array.

    Row j is the Khatri-Rao row conj(r(v_j)) * r(v_b), elementwise over the
    first ``l_s`` axis elements.
    """
    r_b = ris_axis_steering(v_b_axis, l_s, spacing)
    r_grid = np.stack([ris_axis_steering(v, l_s, spacing) for v in grid])  # D x L
    return r_grid.conj() * r_b[None, :]


def unit_modulus_projection(g: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.angle(g))


def matched_axis_beam(v_incident: float, v_out: float, n: int, spacing: float) -> np.ndarray:
    """Closed-form profile steering an incident plane wave toward ``v_out``."""
    return ris_axis_steering(v_incident, n, spacing).conj() * ris_axis_steering(v_out, n, spacing)


def auto_on_weight(s: int) -> float:
    """On-partition row weight 2**s - 1, equalizing the total weight carried
    by the on- and off-partition rows ((D - |I|)/|I| for stage-s partitions)."""
    return max(1.0, 2.0**s - 1.0)


def design_sensing_phases(
    s: int,
    i: int,
    l_s: int,
    v_b_axis: float,
    grid: np.ndarray,
    params: SolverParams | None = None,
    init: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    spacing: float = 0.25,
) -> tuple[np.ndarray, float]:
    """Fit the unit-modulus sensing part of axis beam (s, i).

    Minimizes || W (A g - t) ||  subject to |g_m| = 1 with the projected
    update g <- exp(j angle(g + mu A_w^H (t_w - A_w g))).  With
    ``target_phase="free"`` (default) the target is L_s in magnitude on the
    partition with its phases refit to the current response each
    iteration; ``"fixed"`` pins the real-valued target L_s * mask, which
    additionally forces the on-partition response phases to zero and
    yields visibly weaker illumination.  Returns the best iterate by
    residual and that residual.

    Parameters
    ----------
    init : optional warm start; replaces the default multi-start set
        (matched beam toward the partition midpoint plus perturbed
        copies).
    rng : used only for the perturbed starts; omit for a single cold
        deterministic start.
    """
    params = params or SolverParams()
    if l_s < 1:
        raise ValueError("sensing element count must be >= 1")
    d = len(grid)
    part = partition_indices(s, i, d)
    mask = part.mask(d)
    amp = float(l_s) * mask.astype(float)

    a = response_rows(l_s, v_b_axis, grid, spacing)
    w_on = params.on_weight if params.on_weight is not None else auto_on_weight(s)
    wts = np.where(mask, math.sqrt(w_on), 1.0)
    a_w = wts[:, None] * a
    if params.mu is None:
        smax = np.linalg.svd(a_w, compute_uv=False)[0]
        mu = 0.5 / smax**2
    else:
        mu = params.mu

    if init is not None:
        if not np.allclose(np.abs(init), 1.0, atol=1e-9):
            raise ValueError("init must be unit modulus")
        starts = [init.astype(complex)]
    else:
        v_mid = 0.5 * (grid[part.indices[0] - 1] + grid[part.indices[-1] - 1])
        phase0 = np.angle(matched_axis_beam(v_b_axis, v_mid, l_s, spacing))
        starts = [np.exp(1j * phase0)]
        if rng is not None:
            for _ in range(max(0, params.n_starts - 1)):
                starts.append(np.exp(1j * (phase0 + params.init_perturbation * rng.standard_normal(l_s))))

    free_phase = params.target_phase == "free"

    def weighted_target(gv):
        if free_phase:
            return wts * amp * np.exp(1j * np.angle(a @ gv)) * mask
        return wts * amp

    best_g, best_res = None, np.inf
    for g in starts:
        t_w = weighted_target(g)
        res = float(np.linalg.norm(a_w @ g - t_w))
        g_opt, r_opt = g, res
        prev = res
        for _ in range(params.max_iters):
            g = unit_modulus_projection(g + mu * (a_w.conj().T @ (t_w - a_w @ g)))
            t_w = weighted_target(g)
            res = float(np.linalg.norm(a_w @ g - t_w))
            if res < r_opt:  # strict: earliest iterate wins ties
                r_opt, g_opt = res, g
            if abs(prev - res) < params.tol * max(prev, 1e-300):
                break
            prev = res
        if r_opt < best_res:
            best_res, best_g = r_opt, g_opt
    return best_g, best_res


def design_comm_phases(
    c_s: int, v_b_axis: float, v_u_axis: float, spacing: float = 0.25, offset: int = 0
) -> np.ndarray:
    """Closed-form phases steering the comm sub-array from v_b toward v_u.

    ``offset`` is the number of axis elements preceding the comm block, so
    the profile applies to the last c_s entries of the full axis steering
    vector.  The one-axis comm gain achieves its maximum value c_s.
    """
    if c_s < 0:
        raise ValueError("comm element count must be >= 0")
    if c_s == 0:
        return np.zeros(0, dtype=complex)
    n = np.arange(offset, offset + c_s)
    phase = 2.0 * np.pi * spacing * n * (v_u_axis - v_b_axis)
    return np.exp(1j * phase)


@dataclass
class StageBook:
    """Per-stage axis beams for both RIS axes and their partition map."""

    stage: int
    l_s: int
    c_s: int
    w_x: np.ndarray  # n_axis x 2**s
    w_y: np.ndarray  # n_axis x 2**s
    residuals_x: np.ndarray
    residuals_y: np.ndarray
    partitions: list = field(default_factory=list)
    quality_warnings: list = field(default_factory=list)

    @property
    def n_beams_axis(self) -> int:
        return self.w_x.shape[1]


@dataclass
class Codebook:
    """Hierarchical codebook over all stages, immutable once built."""

    d: int
    n_ris: int
    spacing: float
    schedule: tuple
    stages: list

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage(self, s: int) -> StageBook:
        return self.stages[s - 1]


def assemble_stage(w_x: np.ndarray, w_y: np.ndarray | None = None) -> np.ndarray:
    """Two-dimensional stage beams: column (a-1)*2^s + b is w_x[:,a] kron w_y[:,b]."""
    if w_y is None:
        w_y = w_x
    return np.kron(w_x, w_y)


def default_schedule(d: int, n_axis: int) -> tuple:
    """Sensing-element counts per stage: doubling, capped at min(16, n_axis)."""
    n_stages = int(round(math.log2(d)))
    cap = min(16, n_axis)
    return tuple(min(2 ** (s + 1), cap) for s in range(1, n_stages + 1))


def build_codebook(
    cfg: ScenarioConfig,
    schedule: tuple | None = None,
    solver: SolverParams | None = None,
    seed: int = 0,
) -> Codebook:
    """Design the full hierarchical codebook for a scenario.

    Sensing parts are solved per partition on each axis against that
    axis's incident cosine; comm parts are closed-form and shared by all
    beams of a stage.  Deterministic for fixed (cfg, schedule, solver,
    seed).
    """
    n_axis = cfg.n_axis
    d = cfg.grid_size
    n_stages = cfg.n_stages
    schedule = tuple(schedule) if schedule is not None else default_schedule(d, n_axis)
    if len(schedule) != n_stages:
        raise ValueError(f"schedule must have {n_stages} entries, got {len(schedule)}")
    if any(l < 1 or l > n_axis for l in schedule):
        raise ValueError(f"schedule entries must be in 1..{n_axis}")
    solver = solver or SolverParams()
    grid = direction_grid(d)
    ss = np.random.SeedSequence(seed)

    stages = []
    for s in range(1, n_stages + 1):
        l_s = schedule[s - 1]
        c_s = n_axis - l_s
        n_beams = 2**s
        w_x = np.empty((n_axis, n_beams), dtype=complex)
        w_y = np.empty((n_axis, n_beams), dtype=complex)
        res_x = np.empty(n_beams)
        res_y = np.empty(n_beams)
        parts = []
        warnings = []
        h_x = design_comm_phases(c_s, cfg.v_b.vx, cfg.v_u.vx, cfg.ris_spacing, offset=l_s)
        h_y = design_comm_phases(c_s, cfg.v_b.vy, cfg.v_u.vy, cfg.ris_spacing, offset=l_s)
        ceiling = solver.residual_ceiling_factor * l_s * math.sqrt(d)
        for i in range(1, n_beams + 1):
            parts.append(partition_indices(s, i, d))
            for axis, v_b_axis, w, res, h in (
                ("x", cfg.v_b.vx, w_x, res_x, h_x),
                ("y", cfg.v_b.vy, w_y, res_y, h_y),
            ):
                rng = np.random.default_rng(ss.spawn(1)[0])
                g, r = design_sensing_phases(
                    s, i, l_s, v_b_axis, grid, solver, rng=rng, spacing=cfg.ris_spacing
                )
                w[:, i - 1] = np.concatenate([g, h])
                res[i - 1] = r
                if r > ceiling:
                    warnings.append(f"stage {s} beam {i} axis {axis}: residual {r:.3g} above {ceiling:.3g}")
        stages.append(
            StageBook(
                stage=s,
                l_s=l_s,
                c_s=c_s,
                w_x=w_x,
                w_y=w_y,
                residuals_x=res_x,
                residuals_y=res_y,
                partitions=parts,
                quality_warnings=warnings,
            )
        )
    return Codebook(d=d, n_ris=cfg.n_ris, spacing=cfg.ris_spacing, schedule=schedule, stages=stages)


def build_matched_codebook(cfg: ScenarioConfig) -> Codebook:
    """Ideal reference codebook of full-aperture matched beams.

    Every stage uses all axis elements for sensing (no comm split) and
    each beam is the closed-form matched profile toward its partition
    midpoint, exact on the grid point at the final stage.  Useful as a
    noiseless oracle and as an upper-gain reference.
    """
    n_axis = cfg.n_axis
    d = cfg.grid_size
    grid = direction_grid(d)
    stages = []
    for s in range(1, cfg.n_stages + 1):
        n_beams = 2**s
        w_x = np.empty((n_axis, n_beams), dtype=complex)
        w_y = np.empty((n_axis, n_beams), dtype=complex)
        parts = []
        for i in range(1, n_beams + 1):
            part = partition_indices(s, i, d)
            parts.append(part)
            v_mid = 0.5 * (grid[part.indices[0] - 1] + grid[part.indices[-1] - 1])
            w_x[:, i - 1] = matched_axis_beam(cfg.v_b.vx, v_mid, n_axis, cfg.ris_spacing)
            w_y[:, i - 1] = matched_axis_beam(cfg.v_b.vy, v_mid, n_axis, cfg.ris_spacing)
        stages.append(
            StageBook(
                stage=s,
                l_s=n_axis,
                c_s=0,
                w_x=w_x,
                w_y=w_y,
                residuals_x=np.zeros(n_beams),
                residuals_y=np.zeros(n_beams),
                partitions=parts,
            )
        )
    return Codebook(
        d=d, n_ris=cfg.n_ris, spacing=cfg.ris_spacing, schedule=(n_axis,) * cfg.n_stages, stages=stages
    )


def sensing_response(book: StageBook, v_b_axis: float, grid: np.ndarray, spacing: float, axis: str = "x") -> np.ndarray:
    """|one-axis sensing response| of every beam of a stage over the grid, D x 2**s."""
    w = book.w_x if axis == "x" else book.w_y
    a = response_rows(book.l_s, v_b_axis, grid, spacing)
    return np.abs(a @ w[: book.l_s, :])


@dataclass(frozen=True)
class MaskStats:
    stage: int
    beam: int
    axis: str
    on_mean: float
    off_mean: float


def mask_fidelity(cb: Codebook, cfg: ScenarioConfig) -> list:
    """On/off-partition mean response magnitudes for every designed beam."""
    grid = direction_grid(cb.d)
    out = []
    for book in cb.stages:
        for axis, v_b_axis in (("x", cfg.v_b.vx), ("y", cfg.v_b.vy)):
            resp = sensing_response(book, v_b_axis, grid, cb.spacing, axis)
            for i, part in enumerate(book.partitions, start=1):
                m = part.mask(cb.d)
                out.append(
                    MaskStats(
                        stage=book.stage,
                        beam=i,
                        axis=axis,
                        on_mean=float(resp[m, i - 1].mean()),
                        off_mean=float(resp[~m, i - 1].mean()),
                    )
                )
    return out


def half_power_width(w_axis_sensing: np.ndarray, v_b_axis: float, spacing: float, n_eval: int = 2001) -> float:
    """Width in direction cosine of the main lobe above max/sqrt(2)."""
    v = np.linspace(-1.0, 1.0, n_eval)
    a = response_rows(len(w_axis_sensing), v_b_axis, v, spacing)
    p = np.abs(a @ w_axis_sensing)
    k = int(np.argmax(p))
    thr = p[k] / math.sqrt(2.0)
    lo = k
    while lo > 0 and p[lo - 1] >= thr:
        lo -= 1
    hi = k
    while hi < n_eval - 1 and p[hi + 1] >= thr:
        hi += 1
    return float(v[hi] - v[lo])


def save_codebook(cb: Codebook, path: str):
    """Write the codebook: JSON header line, then little-endian float64 pairs.

    Per stage, w_x then w_y, each column-major as interleaved (real, imag).
    """
    header = {
        "d": cb.d,
        "n_ris": cb.n_ris,
        "spacing": cb.spacing,
        "schedule": list(cb.schedule),
        "stages": [
            {
                "stage": b.stage,
                "l_s": b.l_s,
                "c_s": b.c_s,
                "n_beams_axis": b.n_beams_axis,
                "residuals_x": b.residuals_x.tolist(),
                "residuals_y": b.residuals_y.tolist(),
                "quality_warnings": b.quality_warnings,
            }
            for b in cb.stages
        ],
    }
    with open(path, "wb") as f:
        f.write(CODEBOOK_MAGIC)
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for b in cb.stages:
            for w in (b.w_x, b.w_y):
                flat = w.T.reshape(-1)  # column by column
                pairs = np.empty(2 * flat.size)
                pairs[0::2] = flat.real
                pairs[1::2] = flat.imag
                f.write(pairs.astype("<f8").tobytes())


def load_codebook(path: str) -> Codebook:
    with open(path, "rb") as f:
        magic = f.read(len(CODEBOOK_MAGIC))
        if magic != CODEBOOK_MAGIC:
            raise ValueError(f"{path}: not a codebook file")
        try:
            header = json.loads(f.readline().decode("utf-8"))
        except ValueError as e:
            raise ValueError(f"{path}: malformed codebook header: {e}") from None
        n_axis = math.isqrt(header["n_ris"])
        stages = []
        for meta in header["stages"]:
            n_beams = meta["n_beams_axis"]
            mats = []
            for _ in range(2):
                n_bytes = 2 * n_axis * n_beams * 8
                raw = f.read(n_bytes)
                if len(raw) != n_bytes:
                    raise ValueError(f"{path}: stage {meta['stage']} payload has {len(raw)} of {n_bytes} bytes")
                pairs = np.frombuffer(raw, dtype="<f8")
                flat = pairs[0::2] + 1j * pairs[1::2]
                mats.append(flat.reshape(n_beams, n_axis).T)
            parts = [partition_indices(meta["stage"], i, header["d"]) for i in range(1, n_beams + 1)]
            stages.append(
                StageBook(
                    stage=meta["stage"],
                    l_s=meta["l_s"],
                    c_s=meta["c_s"],
                    w_x=mats[0],
                    w_y=mats[1],
                    residuals_x=np.array(meta["residuals_x"]),
                    residuals_y=np.array(meta["residuals_y"]),
                    partitions=parts,
                    quality_warnings=list(meta["quality_warnings"]),
                )
            )
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last stage")
    return Codebook(
        d=header["d"],
        n_ris=header["n_ris"],
        spacing=header["spacing"],
        schedule=tuple(header["schedule"]),
        stages=stages,
    )
