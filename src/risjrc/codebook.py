"""Hierarchical RIS phase-shift codebook design.

Each stage s splits the direction-cosine grid into 2**s contiguous
partitions per axis.  For every partition a unit-modulus sensing beam is
fitted so that the one-axis RIS response is flat (value L_s) on the
partition and dark elsewhere; the remaining elements of the axis profile
steer a closed-form pencil beam at the user.  Two-dimensional stage beams
are Kronecker products of the two axis books.

The sensing fits of a stage run as one batched projected-gradient solve,
``design_sensing_phases``, one row per (partition, start): the matched
start plus n_starts - 1 perturbed starts per beam, on the canonical rows
A(0) = response_rows(l_s, 0, grid).  response_rows(v_b) = A(0) diag(r(v_b)),
and the unit-modulus projection, the free-phase target and the matched
start all commute with that diagonal, so the fit for incidence v_b is
conj(r(v_b)) times the canonical fit started from r(v_b) times the start.
That start, r(v_mid), does not depend on v_b.  So each partition is solved
once, and its canonical fit, with its one residual, is what a stage stores
(``StageBook.phases``) and what a codebook file holds; ``_stage_book``
ramps it to the x and y incidences and appends the shared comm block.

The step mu = 1 / sigma_max^2 makes each update a majorization-minimization
step (Sun, Babu and Palomar, IEEE TSP 2017): it minimizes the squared
residual's quadratic upper bound of curvature sigma_max^2 over unit-modulus
vectors and the refit target only lowers it, so a row's residual cannot rise
beyond rounding.  Each row returns its last iterate; earliest start on ties.

Each iteration runs in Gram form, with no D-wide product.  With the
weights W^2 = 1 + (w_on - 1) diag(on) and y = A(0) h, the gradient
W^2 y - W t, taken back through conj(A(0)), is h G + c conj(A_I): G =
A(0)^T conj(A(0)) is one l_s x l_s matrix per stage, A_I holds the b =
D / 2**s rows of the row's partition, and c = (w_on - 1) y_I - w_on l_s u_I
with u_I the target phases.  The squared residual is
Re sum conj(h) (h G) - sum |y_I|^2 + w_on sum |y_I - l_s u_I|^2.  Inside the
loop the iterate is projected as g (1/|g|), the same values as g / |g|: numpy
divides a complex number by a real one as its parts times the reciprocal.
The ramped axis beams go through ``unit_modulus_projection``, exp(j angle(g)).
Neither is bit-idempotent: a second pass moves about 2% of exp(j angle(g))'s
entries by one ulp, and about a third of g / |g|'s.  The test oracle
``reference_stage_solve`` (tests/test_codebook.py), the loop written out
plainly with g / |g|, pins the solver's values to the bit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .channels import ScenarioConfig
from .geometry import DirectionCosine, check_fields, direction_grid, is_integer, is_real, ris_axis_steering

CODEBOOK_MAGIC = b"RISCB2\n"
START_PERTURBATION = 0.3  # standard deviation, in radians, of the phase offsets of perturbed solver starts
_JSON_KINDS = {"an integer": int, "a number": (int, float), "a list": list}
_HEADER_KEYS = dict(d="an integer", n_ris="an integer", spacing="a number", schedule="a list")
_HEADER_KEYS.update(v_b="a list", v_u="a list", residuals="a list", quality_warnings="a list")


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

    def midpoint(self, grid: np.ndarray) -> float:
        """Direction cosine halfway between the partition's end cells."""
        return 0.5 * (grid[self.indices[0] - 1] + grid[self.indices[-1] - 1])


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


@dataclass(frozen=True)
class SolverParams:
    """Stopping rule, start count and residual warning ceiling of the masked-response fit; its objective,
    step, row weights and start spread are fixed (see ``design_sensing_phases``)."""

    max_iters: int = 500
    tol: float = 1e-8
    n_starts: int = 4
    residual_ceiling_factor: float = 1.0  # warn when residual > factor * L * sqrt(D)

    def __post_init__(self):
        check_fields(self, _SOLVER_RULES)


# (field, rule, check); chained comparisons with math.inf also reject nan
_SOLVER_RULES = (
    ("n_starts", "an integer >= 1", lambda x: is_integer(x) and x >= 1),
    ("max_iters", "an integer >= 0", lambda x: is_integer(x) and x >= 0),
    ("tol", "a finite real number >= 0", lambda x: is_real(x) and 0 <= x < math.inf),
    ("residual_ceiling_factor", "a real number > 0", lambda x: is_real(x) and x > 0),
)


def response_rows(l_s: int, v_b_axis: float, grid: np.ndarray, spacing: float) -> np.ndarray:
    """Matrix A with A[j] @ g = r^H(v_j) diag(g) r(v_b) on the sensing sub-array.

    Row j is the Khatri-Rao row conj(r(v_j)) * r(v_b), elementwise over the
    first ``l_s`` axis elements.
    """
    r_b = ris_axis_steering(v_b_axis, l_s, spacing)
    return ris_axis_steering(grid, l_s, spacing).conj() * r_b[None, :]


def unit_modulus_projection(g: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.angle(g))


def _unit_phase(g: np.ndarray, mag: np.ndarray | None = None) -> np.ndarray:
    """g / |g| with exact zeros mapped to 1, as exp(j angle(0)) gives: the solver's in-loop projection.
    ``mag``, when given, is |g|.

    With no zero magnitude it is formed as g * (1/|g|): numpy divides a complex number by a real one as
    its parts times 1/|g|, so the values are those of g / |g|, and only the sign of an exactly-zero part
    can differ.  The ramped axis beams go through ``unit_modulus_projection``, whose second pass moves
    fewer entries (see the module docstring).
    """
    if mag is None:
        mag = np.abs(g)
    if mag.all():
        return g * np.reciprocal(mag)
    return np.divide(g, mag, out=np.ones_like(g), where=mag > 0)


def matched_axis_beam(v_incident: float, v_out: float, n: int, spacing: float) -> np.ndarray:
    """Closed-form profile steering an incident plane wave toward ``v_out``."""
    return ris_axis_steering(v_incident, n, spacing).conj() * ris_axis_steering(v_out, n, spacing)


def auto_on_weight(s: int) -> float:
    """On-partition row weight 2**s - 1, equalizing the total weight carried
    by the on- and off-partition rows ((D - |I|)/|I| for stage-s partitions)."""
    return max(1.0, 2.0**s - 1.0)


def design_sensing_phases(
    s: int,
    l_s: int,
    parts: Sequence[int],
    grid: np.ndarray,
    params: SolverParams,
    spacing: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (incidence 0) sensing fits of axis beams (s, parts[k]), shaped (len(parts), l_s), and one
    residual per beam, shaped (len(parts),).  The fit for incidence v_b is
    ``unit_modulus_projection(conj(r(v_b)) * fit)``, with the same residual (see the module docstring).

    Minimizes || W (A g - t) || subject to |g_m| = 1 with the projected update
    g <- exp(j angle(g + mu A_w^H (t_w - A_w g))), A_w = W A.  The target is L_s in magnitude on the
    partition, its phases refit to the current response each iteration, and zero off it; W^2 weights the
    on-partition rows by ``auto_on_weight(s)``; the step is mu = 1 / sigma_max(A_w)**2 per beam.

    Beam k starts from the matched beam toward its partition midpoint plus ``n_starts - 1`` copies whose
    phases are offset by ``START_PERTURBATION`` times standard normals from ``rngs[k]``.  All starts of
    all beams are rows of one batched solve on the canonical rows A(0), each stopped by its own rule at
    its last iterate, whose residual cannot exceed an earlier one's; per beam the lowest residual wins,
    the earliest start on ties.  ``s`` stays first: perfbench's tracer reads each span's stage from it.

    Each iteration costs one (rows x l_s) @ (l_s x l_s) product with the stage's Gram matrix plus
    products with each row's b on-partition rows of A(0), gathered once and compacted with the rows; the
    module docstring gives the algebra, the in-loop projection (``_unit_phase``) and the test oracle
    ``reference_stage_solve`` that pins the values this loop returns.
    """
    if l_s < 1:
        raise ValueError("sensing element count must be >= 1")
    if not len(parts):
        raise ValueError("need at least one beam")
    if len(parts) != len(rngs):
        raise ValueError(f"need one generator per beam: {len(parts)} beams, {len(rngs)} generators")
    d = len(grid)
    a0 = response_rows(l_s, 0.0, grid, spacing)
    specs = [partition_indices(s, i, d) for i in parts]
    masks = np.array([p.mask(d) for p in specs])
    w_on = auto_on_weight(s)
    wts = np.where(masks, math.sqrt(w_on), 1.0)
    sigma_max = np.linalg.svd(wts[:, :, None] * a0, compute_uv=False)[:, 0]

    # the matched start toward the midpoint, times r(v_b), is r(v_mid)
    phase0 = np.angle(ris_axis_steering([p.midpoint(grid) for p in specs], l_s, spacing))
    n_starts = params.n_starts
    pert = np.stack([np.vstack([np.zeros(l_s), rng.standard_normal((n_starts - 1, l_s))]) for rng in rngs])
    h = np.exp(1j * (phase0[:, None, :] + START_PERTURBATION * pert)).reshape(-1, l_s)
    mu = np.repeat(1.0 / sigma_max**2, n_starts)[:, None]
    gram = a0.T @ a0.conj()
    a_on = a0[np.repeat([p.indices - 1 for p in specs], n_starts, axis=0)]  # each row's partition rows A_I, n x b x l_s
    a_on_c = a_on.conj()

    def gram_terms(h, a_on):
        """h G, the on-partition gradient weights c and the residual of rows h, with no n x D product."""
        hg = h @ gram
        y = np.einsum("nbl,nl->nb", a_on, h)  # on-partition responses A_I h
        mag = np.abs(y)
        c = (w_on - 1.0) * y - w_on * l_s * _unit_phase(y, mag)
        res2 = np.vecdot(h, hg).real + (w_on * (mag - l_s) ** 2 - mag**2).sum(axis=1)  # vecdot conjugates h
        return hg, c, np.sqrt(np.maximum(res2, 0.0))

    hg, c, res = gram_terms(h, a_on)
    # ids: rows still iterating; a row's last iterate goes to out_h and out_res when it stops
    ids, out_h, out_res, prev = np.arange(len(h)), np.empty_like(h), np.empty_like(res), res
    for _ in range(params.max_iters):
        step = (c[:, None, :] @ a_on_c)[:, 0]
        step += hg
        step *= mu
        h = _unit_phase(np.subtract(h, step, out=step))
        hg, c, res = gram_terms(h, a_on)
        going = ~(np.abs(prev - res) < params.tol * np.maximum(prev, 1e-300))
        if not going.all():
            done = ~going
            out_res[ids[done]], out_h[ids[done]] = res[done], h[done]
            ids, h, hg, c, a_on, a_on_c, mu, res = (x[going] for x in (ids, h, hg, c, a_on, a_on_c, mu, res))
            if not ids.size:
                break
        prev = res
    out_res[ids], out_h[ids] = res, h

    k = np.argmin(out_res.reshape(-1, n_starts), axis=1)  # earliest start wins ties
    best = np.arange(len(specs)) * n_starts + k  # each beam's winning row
    return out_h[best], out_res[best]


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
    """One stage's canonical sensing fits and the axis beams ``_stage_book`` ramps from them; row i - 1 of
    ``phases`` and column i - 1 of ``w_x`` and ``w_y`` serve ``partition_indices(stage, i, d)``."""

    stage: int
    l_s: int
    c_s: int
    phases: np.ndarray  # 2**s x l_s canonical (incidence 0) sensing fits
    residuals: np.ndarray  # one per beam, shared by both axes
    w_x: np.ndarray  # n_axis x 2**s
    w_y: np.ndarray  # n_axis x 2**s
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
    v_b: DirectionCosine
    v_u: DirectionCosine
    schedule: tuple
    stages: list

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def stage(self, s: int) -> StageBook:
        if not 1 <= s <= self.n_stages:
            raise ValueError(f"stage must be in 1..{self.n_stages}, got {s}")
        return self.stages[s - 1]


def assemble_stage(w_x: np.ndarray, w_y: np.ndarray) -> np.ndarray:
    """Two-dimensional stage beams: column (a-1)*2^s + b is w_x[:,a] kron w_y[:,b]."""
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

    Sensing parts are fitted once per partition, a whole stage in one
    batched solve, and each fit is ramped to the x and y incident cosines,
    so both axes share one residual per beam; comm parts are closed-form
    and shared by all beams of a stage.  Deterministic for fixed (cfg,
    schedule, solver, seed).
    """
    n_axis = cfg.n_axis
    d = cfg.grid_size
    n_stages = cfg.n_stages
    schedule = tuple(schedule) if schedule is not None else default_schedule(d, n_axis)
    if len(schedule) != n_stages:
        raise ValueError(f"schedule must have {n_stages} entries, got {len(schedule)}")
    for l in schedule:
        if not is_integer(l) or not 1 <= l <= n_axis:
            raise ValueError(f"schedule entries must be integers in 1..{n_axis}, got {l!r}")
    solver = solver or SolverParams()
    grid = direction_grid(d)
    ss = np.random.SeedSequence(seed)

    def stage(s, l_s):
        n_beams = 2**s
        # two children per beam, the first seeding the beam: x-axis beams match codebooks solved per axis
        rngs = [np.random.default_rng(child) for child in ss.spawn(2 * n_beams)[0::2]]
        return design_sensing_phases(s, l_s, range(1, n_beams + 1), grid, solver, cfg.ris_spacing, rngs)

    return _assemble_codebook(cfg, schedule, stage, solver.residual_ceiling_factor)


def build_matched_codebook(cfg: ScenarioConfig) -> Codebook:
    """Ideal reference codebook of full-aperture matched beams.

    Every stage uses all axis elements for sensing (no comm split) and
    each beam is the closed-form matched profile toward its partition
    midpoint, exact on the grid point at the final stage.  Useful as a
    noiseless oracle and as an upper-gain reference.
    """
    grid = direction_grid(cfg.grid_size)

    def stage(s, l_s):
        mids = [partition_indices(s, i, cfg.grid_size).midpoint(grid) for i in range(1, 2**s + 1)]
        return ris_axis_steering(mids, l_s, cfg.ris_spacing), np.zeros(2**s)

    return _assemble_codebook(cfg, (cfg.n_axis,) * cfg.n_stages, stage, math.inf)


def _assemble_codebook(cfg: ScenarioConfig, schedule: tuple, stage, ceiling_factor: float) -> Codebook:
    """Stage books from ``stage(s, l_s) -> (phases, residuals)``: one canonical fit and one residual per
    beam; a residual above ceiling_factor * l_s * sqrt(D) warns once per beam."""
    stages = []
    for s, l_s in enumerate(schedule, start=1):
        phases, res = stage(s, l_s)
        ceiling = ceiling_factor * l_s * math.sqrt(cfg.grid_size)
        warnings = [f"stage {s} beam {i}: residual {r:.3g} above {ceiling:.3g}" for i, r in enumerate(res, 1) if r > ceiling]
        stages.append(_stage_book(s, cfg.n_axis, phases, res, cfg.v_b, cfg.v_u, cfg.ris_spacing, warnings))
    return Codebook(cfg.grid_size, cfg.n_ris, cfg.ris_spacing, cfg.v_b, cfg.v_u, schedule, stages)


def _stage_book(s, n_axis, phases, residuals, v_b, v_u, spacing, warnings) -> StageBook:
    """Stage s from its canonical fits: each axis ramps them to its incidence, conj(r(v)) * phases, and
    stacks the stage's closed-form comm block under every beam."""
    l_s = phases.shape[1]
    w_x, w_y = (
        np.vstack([unit_modulus_projection(ris_axis_steering(b, l_s, spacing).conj() * phases).T,
                   np.tile(design_comm_phases(n_axis - l_s, b, u, spacing, offset=l_s)[:, None], len(phases))])
        for b, u in ((v_b.vx, v_u.vx), (v_b.vy, v_u.vy))
    )
    return StageBook(s, l_s, n_axis - l_s, phases, residuals, w_x, w_y, warnings)


def sensing_responses(cb: Codebook):
    """Yield ``(book, axis, |response|)`` per stage and axis: the one-axis sensing response of every
    beam over the grid, D x 2**s, at the incidence and spacing the codebook was designed for."""
    grid = direction_grid(cb.d)
    for book in cb.stages:
        for axis, v_b_axis, w in (("x", cb.v_b.vx, book.w_x), ("y", cb.v_b.vy, book.w_y)):
            yield book, axis, np.abs(response_rows(book.l_s, v_b_axis, grid, cb.spacing) @ w[: book.l_s, :])


@dataclass(frozen=True)
class MaskStats:
    stage: int
    beam: int
    axis: str
    on_mean: float
    off_mean: float


def mask_fidelity(cb: Codebook) -> list:
    """On/off-partition mean response magnitudes for every designed beam, at the codebook's incidence."""
    out = []
    for book, axis, resp in sensing_responses(cb):
        for i in range(1, book.n_beams_axis + 1):
            m = partition_indices(book.stage, i, cb.d).mask(cb.d)
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
    """Write the codebook: the magic line, a JSON header line, then per stage its 2**s x l_s canonical fits
    (``StageBook.phases``), row-major, as little-endian complex128, i.e. (real, imag) float64 pairs.

    The axis beams are not stored: ``load_codebook`` ramps them from the fits with the header's v_b, v_u
    and spacing.
    """
    header = dict(d=cb.d, n_ris=cb.n_ris, spacing=cb.spacing, schedule=list(cb.schedule), v_b=[cb.v_b.vx, cb.v_b.vy],
                  v_u=[cb.v_u.vx, cb.v_u.vy], residuals=[b.residuals.tolist() for b in cb.stages],
                  quality_warnings=[b.quality_warnings for b in cb.stages])
    with open(path, "wb") as f:
        f.write(CODEBOOK_MAGIC)
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for b in cb.stages:
            f.write(b.phases.astype("<c16").tobytes())


def _check_keys(path: str, obj, keys: dict, what: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    for key, kind in keys.items():
        if key not in obj:
            raise ValueError(f"{path}: {what} lacks key {key!r}")
        if isinstance(obj[key], bool) or not isinstance(obj[key], _JSON_KINDS[kind]):
            raise ValueError(f"{path}: {what} key {key!r} is not {kind}: {obj[key]!r}")


def load_codebook(path: str) -> Codebook:
    with open(path, "rb") as f:
        magic = f.read(len(CODEBOOK_MAGIC))
        if magic != CODEBOOK_MAGIC:
            raise ValueError(f"{path}: not a {CODEBOOK_MAGIC.decode().strip()} codebook file")
        try:
            header = json.loads(f.readline().decode("utf-8"))
        except ValueError as e:
            raise ValueError(f"{path}: malformed codebook header: {e}") from None
        _check_keys(path, header, _HEADER_KEYS, "codebook header")
        n_ris, spacing, schedule = header["n_ris"], header["spacing"], header["schedule"]
        bad = f"{path}: codebook header key"
        if not 0 < spacing <= 0.5:  # also rejects nan
            raise ValueError(f"{bad} 'spacing' is not in (0, 0.5]: {spacing}")
        n_axis = math.isqrt(max(n_ris, 0))
        if n_ris < 1 or n_axis * n_axis != n_ris:
            raise ValueError(f"{bad} 'n_ris' is not a positive square: {n_ris}")
        if not all(type(l) is int and 1 <= l <= n_axis for l in schedule):
            raise ValueError(f"{bad} 'schedule' is not integers in 1..{n_axis}: {schedule}")
        n_stages = len(schedule)
        if not n_stages or header["d"] != 2**n_stages:
            raise ValueError(f"{bad} 'd' is {header['d']}, not 2**n for n = {n_stages} >= 1 stages")
        for key in ("v_b", "v_u"):  # abs(nan) <= 1 is False
            if len(header[key]) != 2 or not all(type(v) in (int, float) and abs(v) <= 1 for v in header[key]):
                raise ValueError(f"{bad} {key!r} is not 2 direction cosines in [-1, 1]: {header[key]}")
        for key in ("residuals", "quality_warnings"):
            if len(header[key]) != n_stages:
                raise ValueError(f"{bad} {key!r} has {len(header[key])} entries, not one per stage ({n_stages})")
        v_b, v_u = DirectionCosine(*header["v_b"]), DirectionCosine(*header["v_u"])
        stages = []
        for k, (l_s, res, warnings) in enumerate(zip(schedule, header["residuals"], header["quality_warnings"]), 1):
            finite = type(res) is list and all(type(r) in (int, float) and 0 <= r < math.inf for r in res)
            if not finite or len(res) != 2**k:
                raise ValueError(f"{bad} 'residuals' stage {k} is not {2**k} finite numbers >= 0: {res}")
            if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
                raise ValueError(f"{bad} 'quality_warnings' stage {k} is not a list of strings: {warnings!r}")
            n_bytes = 2**k * l_s * 16
            raw = f.read(n_bytes)
            if len(raw) != n_bytes:
                raise ValueError(f"{path}: stage {k} payload has {len(raw)} of {n_bytes} bytes")
            phases = np.frombuffer(raw, dtype="<c16").reshape(2**k, l_s).astype(complex)
            if not np.all(abs(np.abs(phases) - 1) <= 1e-12):  # also rejects nan
                raise ValueError(f"{path}: stage {k} payload holds a phase that is not unit modulus")
            stages.append(_stage_book(k, n_axis, phases, np.array(res, dtype=float), v_b, v_u, spacing, warnings))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last stage")
    return Codebook(header["d"], n_ris, spacing, v_b, v_u, tuple(schedule), stages)
