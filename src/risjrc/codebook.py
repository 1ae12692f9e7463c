"""Hierarchical RIS phase-shift codebook design.

Each stage s splits the direction-cosine grid into 2**s contiguous
partitions per axis.  For every partition a unit-modulus sensing beam is
fitted so that the one-axis RIS response is flat (value L_s) on the
partition and dark elsewhere; the remaining elements of the axis profile
steer a closed-form pencil beam at the user: the tail of the SE benchmark
profile ``comms.comm_phase_profile``, which steers every element so.
Two-dimensional stage beams are Kronecker products of the two axis books.

The sensing fits of a stage run as one batched solve,
``design_sensing_phases``, one row per (partition, start): the matched start
plus n_starts - 1 perturbed starts per beam, on the canonical rows
A(0) = response_rows(l_s, 0, grid).  response_rows(v_b) = A(0) diag(r(v_b)),
and the unit-modulus projection, the free-phase target and the matched
start all commute with that diagonal, so the fit for incidence v_b is
conj(r(v_b)) times the canonical fit started from r(v_b) times the start.
That start, r(v_mid), does not depend on v_b.  So each partition is solved
once, and its canonical fit, with its one residual, is what a stage stores
(``StageBook.phases``) and what a codebook file holds; ``_stage_book``
ramps it to the x and y incidences, appends the shared comm block and
derives the warnings from the residuals, for a design and a file alike.

The step mu = 1 / sigma_max^2 makes the projected update a
majorization-minimization (MM) step (Sun, Babu and Palomar, IEEE TSP 2017):
it minimizes the squared residual's quadratic upper bound of curvature
sigma_max^2 over unit-modulus vectors and the refit target only lowers it.
The loop accelerates it.  Each step is taken from the Nesterov extrapolation
z = h + beta_k (h - h_prev), beta_k = max(k - 1, 0) / (k + 2) (Beck and
Teboulle, SIAM J. Imaging Sci. 2009), which is not projected: z is linear in
h and h_prev, so its Gram terms below are the same combination of theirs, and
an iteration evaluates the terms once, at the new iterate.  Where the new
residual exceeds the last, the step is rejected and the row keeps h with its
terms and residual (function-value adaptive restart, O'Donoghue and Candes,
Found. Comput. Math. 2015).  k returns to 0, so the next two iterations take
plain MM steps (beta = 0), the first from h, before momentum resumes.  A
rejected plain step stops the row at h, as on the rounding floor of an exact
fit.  So a row's accepted residual never rises, and the stop rule compares
consecutive accepted residuals.  Each row returns its last iterate; earliest
start on ties.

Each iteration runs in Gram form, with no D-wide product.  With the
weights W^2 = 1 + (w_on - 1) diag(on) and y = A(0) h, the gradient
W^2 y - W t, taken back through conj(A(0)), is h G + c conj(A_I): G =
A(0)^T conj(A(0)) is one l_s x l_s matrix per stage, A_I holds the b =
D / 2**s rows of the row's partition, and c = (w_on - 1) y_I - w_on l_s u_I
with u_I the target phases.  The squared residual is
Re sum conj(h) (h G) - sum |y_I|^2 + w_on sum |y_I - l_s u_I|^2.  A row's
state [h | h G | y_I] is one row of a stacked array, kept for h and h_prev, so
z's state is one extrapolation of the stacked rows.  The iterates and the
ramped axis beams go through one projection, ``unit_modulus_projection``,
g (1/|g|): the same values as g / |g|, since numpy divides a complex number by
a real one as its parts times the reciprocal.  It is not bit-idempotent: a
second pass can move an entry by one ulp.  The test oracle
``reference_stage_solve`` (tests/test_codebook.py), the loop written out
plainly with g / |g|, pins the solver's values to the bit.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import ScenarioConfig
from .geometry import (
    DirectionCosine, check_fields, direction_grid, is_integer, is_real, ris_axis_steering, store_python_numbers
)

CODEBOOK_MAGIC = b"RISCB3\n"
START_PERTURBATION = 0.3  # standard deviation, in radians, of the phase offsets of perturbed solver starts
_JSON_KINDS = {"an integer": int, "a number": (int, float), "a list": list}
_HEADER_KEYS = dict(d="an integer", n_ris="an integer", spacing="a number", schedule="a list")
_HEADER_KEYS.update(v_b="a list", v_u="a list", residuals="a list")
_TINY = np.finfo(float).tiny


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
    """Stopping rule and start count of the masked-response fit; its objective, step, extrapolation, restart,
    row weights and start spread are fixed (see ``design_sensing_phases``).
    ``max_iters`` caps the steps a row evaluates, rejected ones included.  At the default ``tol`` every row
    of the desk and full-scale designs stops before ``max_iters``."""

    max_iters: int = 500
    tol: float = 1e-8
    n_starts: int = 4

    def __post_init__(self):
        check_fields(self, _SOLVER_RULES)
        store_python_numbers(self)


# (field, rule, check); chained comparisons with math.inf also reject nan
_SOLVER_RULES = (
    ("n_starts", "an integer >= 1", lambda x: is_integer(x) and x >= 1),
    ("max_iters", "an integer >= 0", lambda x: is_integer(x) and x >= 0),
    ("tol", "a finite real number >= 0", lambda x: is_real(x) and 0 <= x < math.inf),
)


def response_rows(l_s: int, v_b_axis: float, grid: np.ndarray, spacing: float) -> np.ndarray:
    """Matrix A with A[j] @ g = r^H(v_j) diag(g) r(v_b) on the sensing sub-array.

    Row j is the Khatri-Rao row conj(r(v_j)) * r(v_b), elementwise over the
    first ``l_s`` axis elements.
    """
    r_b = ris_axis_steering(v_b_axis, l_s, spacing)
    return ris_axis_steering(grid, l_s, spacing).conj() * r_b[None, :]


def unit_modulus_projection(g: np.ndarray) -> np.ndarray:
    """g / |g| with exact zeros of either sign mapped to 1: the one unit-modulus projection, of the solver's
    iterates and of the ramped axis beams.

    Where every |g| is at least the smallest normal float it is formed as g * (1/|g|): numpy divides a complex
    number by a real one as its parts times 1/|g|, so the values are those of g / |g|, and only the sign of an
    exactly-zero part can differ.  Below that magnitude 1/|g| overflows or holds few bits, so those entries map
    to exp(j angle(g)).
    """
    mag = np.abs(g)
    if mag.min(initial=np.inf) >= _TINY:  # one reduction decides the fast path
        return g * np.reciprocal(mag)
    out = np.exp(1j * np.angle(g))
    out[mag == 0] = 1  # a nan stays nan
    big = mag >= _TINY
    out[big] = g[big] * np.reciprocal(mag[big])
    return out


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

    Minimizes || W (A g - t) || subject to |g_m| = 1 with accelerated MM steps
    g <- exp(j angle(z + mu A_w^H (t_w(z) - A_w z))), A_w = W A, from the extrapolation
    z = g + max(k - 1, 0) / (k + 2) (g - g_prev).  A step that raises the residual is rejected: the row keeps g
    and k returns to 0, so the next step is the plain one from g (z = g); a rejected plain step stops the row.
    The target is L_s in magnitude on the partition, its phases refit to the response at the point stepped
    from, and zero off it; W^2 weights the on-partition rows by ``auto_on_weight(s)``; the step is
    mu = 1 / sigma_max(A_w)**2 per beam.

    Beam k starts from the matched beam toward its partition midpoint plus ``n_starts - 1`` copies whose
    phases are offset by ``START_PERTURBATION`` times standard normals from ``rngs[k]``.  All starts of
    all beams are rows of one batched solve on the canonical rows A(0), each stopped by its own rule at
    its last iterate, whose residual does not exceed an earlier one's; per beam the lowest residual wins,
    the earliest start on ties.  ``s`` stays first: perfbench's tracer reads each span's stage from it.

    Each iteration, rejected steps included, evaluates the Gram terms once: one (rows x l_s) @ (l_s x l_s)
    product with the stage's Gram matrix plus products with each row's b on-partition rows of A(0), gathered
    once and compacted with the rows.  The module docstring gives the algebra, the acceleration, the projection
    and the test oracle ``reference_stage_solve`` that pins the values this loop returns.
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
        """The row state [h | h G | y], y = A_I h, and the residual of rows h, with no n x D product."""
        x = np.empty((len(h), 2 * l_s + a_on.shape[1]), complex)
        x[:, :l_s] = h
        hg, y = x[:, l_s : 2 * l_s], x[:, 2 * l_s :]
        np.matmul(h, gram, out=hg)
        y[...] = np.einsum("nbl,nl->nb", a_on, h)
        mag = np.abs(y)
        res2 = np.vecdot(h, hg).real + (w_on * (mag - l_s) ** 2 - mag**2).sum(axis=1)  # vecdot conjugates h
        return x, np.sqrt(np.maximum(res2, 0.0))

    def mm_step(z, a_on_c, mu):
        """The MM step from the row state z = [h | h G | y] of h or an extrapolated point: the gradient is
        h G + c conj(A_I), with c the on-partition weights of the refit target."""
        h, hg, y = z[:, :l_s], z[:, l_s : 2 * l_s], z[:, 2 * l_s :]
        c = (w_on - 1.0) * y - w_on * l_s * unit_modulus_projection(y)
        step = (c[:, None, :] @ a_on_c)[:, 0]
        step += hg
        step *= mu
        return unit_modulus_projection(np.subtract(h, step, out=step))

    x, res = gram_terms(h, a_on)
    # ids: rows still iterating; a row's last iterate goes to out_h and out_res when it stops.  x_p is the state of
    # the previous kept iterate and k indexes beta_k = max(k - 1, 0) / (k + 2)
    ids, out_h, out_res = np.arange(len(h)), np.empty_like(h), np.empty_like(res)
    steps = np.arange(params.max_iters + 2.0)
    betas = np.maximum(steps - 1.0, 0.0) / (steps + 2.0)
    x_p, k = x, np.ones(len(h), dtype=int)
    for _ in range(params.max_iters):
        beta = betas[k][:, None]
        x_new, res_new = gram_terms(mm_step(x + beta * (x - x_p), a_on_c, mu), a_on)
        going = ~(np.abs(res - res_new) < params.tol * np.maximum(res, 1e-300))
        k += 1
        back = np.flatnonzero(res_new > res)
        if back.size:
            # a row whose step raises the residual keeps h; a rejected extrapolation is retried as the plain step
            # from h (k = 0), and a rejected plain step stops the row
            x_new[back], res_new[back], going[back], k[back] = x[back], res[back], beta[back, 0] > 0, 0
        x_p, x, res = x, x_new, res_new
        if not going.all():
            done = ~going
            out_res[ids[done]], out_h[ids[done]] = res[done], x[done, :l_s]
            ids, x, x_p, k, res, a_on, a_on_c, mu = (a[going] for a in (ids, x, x_p, k, res, a_on, a_on_c, mu))
            if not ids.size:
                break
    out_res[ids], out_h[ids] = res, x[:, :l_s]

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
    quality_warnings: list  # one text per beam whose residual exceeds l_s sqrt(D), from _stage_book

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

    def check_fits(self, cfg: ScenarioConfig, schedule: Sequence[int] | None = None):
        """Raise unless designed for ``cfg``'s D (so its stage count), N_r, spacing, v_b and v_u, and ``schedule`` when
        given: each sensing fit is ramped to v_b at one spacing and each comm block steers v_b toward v_u."""
        checks = [("D", self.d, cfg.grid_size), ("N_r", self.n_ris, cfg.n_ris)]
        checks += [("spacing", self.spacing, cfg.ris_spacing), ("v_b", self.v_b, cfg.v_b), ("v_u", self.v_u, cfg.v_u)]
        checks += [("schedule", tuple(self.schedule), tuple(schedule))] if schedule is not None else []
        for name, designed, wanted in checks:
            if designed != wanted:
                raise ValueError(f"codebook designed for {name}={designed!r}; scenario has {name}={wanted!r}")


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
    and shared by all beams of a stage.  ``_stage_book`` warns per beam
    from its residual.  Deterministic for fixed (cfg, schedule, solver, seed).
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
    schedule = tuple(map(int, schedule))  # Python ints, which save_codebook's json writes
    solver = solver or SolverParams()
    grid = direction_grid(d)
    ss = np.random.SeedSequence(seed)
    stages = []
    for s, l_s in enumerate(schedule, start=1):
        n_beams = 2**s
        # two children per beam, the first seeding the beam: x-axis beams match codebooks solved per axis
        rngs = [np.random.default_rng(child) for child in ss.spawn(2 * n_beams)[0::2]]
        phases, res = design_sensing_phases(s, l_s, range(1, n_beams + 1), grid, solver, cfg.ris_spacing, rngs)
        stages.append(_stage_book(s, n_axis, phases, res, cfg.v_b, cfg.v_u, cfg.ris_spacing, d))
    return Codebook(d, cfg.n_ris, cfg.ris_spacing, cfg.v_b, cfg.v_u, schedule, stages)


def _stage_book(s, n_axis, phases, residuals, v_b, v_u, spacing, d) -> StageBook:
    """Stage s of a D = ``d`` book from its canonical fits: each axis ramps them to its incidence, conj(r(v)) *
    phases, and stacks the stage's comm block under every beam; a beam warns where its residual exceeds l_s sqrt(D)."""
    l_s = phases.shape[1]
    bound = l_s * math.sqrt(d)
    warnings = [f"stage {s} beam {i}: residual {r:.3g} above {bound:.3g}" for i, r in enumerate(residuals, 1) if r > bound]
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
    # serialized before the file opens; json takes the Python numbers that the config types and build_codebook store
    header = dict(d=cb.d, n_ris=cb.n_ris, spacing=cb.spacing, schedule=list(cb.schedule),
                  v_b=[cb.v_b.vx, cb.v_b.vy], v_u=[cb.v_u.vx, cb.v_u.vy],
                  residuals=[b.residuals.tolist() for b in cb.stages])
    line = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
    with open(path, "wb") as f:
        f.write(CODEBOOK_MAGIC + line)
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
        n_stages, residuals = len(schedule), header["residuals"]
        if not n_stages or header["d"] != 2**n_stages:
            raise ValueError(f"{bad} 'd' is {header['d']}, not 2**n for n = {n_stages} >= 1 stages")
        for key in ("v_b", "v_u"):  # abs(nan) <= 1 is False
            if len(header[key]) != 2 or not all(type(v) in (int, float) and abs(v) <= 1 for v in header[key]):
                raise ValueError(f"{bad} {key!r} is not 2 direction cosines in [-1, 1]: {header[key]}")
        if len(residuals) != n_stages:
            raise ValueError(f"{bad} 'residuals' has {len(residuals)} entries, not one per stage ({n_stages})")
        v_b, v_u = DirectionCosine(*header["v_b"]), DirectionCosine(*header["v_u"])
        payload, fits, at = f.read(), [], 0  # the rest of the file, read once: a header cannot make a read larger
        for k, (l_s, res) in enumerate(zip(schedule, residuals), 1):
            finite = type(res) is list and all(type(r) in (int, float) and 0 <= r < math.inf for r in res)
            if not finite or len(res) != 2**k:
                raise ValueError(f"{bad} 'residuals' stage {k} is not {2**k} finite numbers >= 0: {res}")
            n_bytes = 2**k * l_s * 16
            raw, at = payload[at : at + n_bytes], at + n_bytes
            if len(raw) != n_bytes:
                raise ValueError(f"{path}: stage {k} payload has {len(raw)} of {n_bytes} bytes")
            phases = np.frombuffer(raw, dtype="<c16").reshape(2**k, l_s).astype(complex)
            if not np.all(abs(np.abs(phases) - 1) <= 1e-12):  # also rejects nan
                raise ValueError(f"{path}: stage {k} payload holds a phase that is not unit modulus")
            fits.append((phases, np.array(res, dtype=float)))
        if len(payload) > at:
            raise ValueError(f"{path}: trailing bytes after the last stage")
    # every stage is checked before any is ramped: the file holds D = 2**stages residuals, so sqrt(D) fits a float
    try:
        stages = [_stage_book(k, n_axis, *fit, v_b, v_u, spacing, header["d"]) for k, fit in enumerate(fits, 1)]
    except MemoryError:  # the comm block of every beam has n_axis - l_s entries
        raise ValueError(f"{bad} 'n_ris' asks for more memory than there is: {n_ris}") from None
    return Codebook(header["d"], n_ris, spacing, v_b, v_u, tuple(schedule), stages)
