"""Sensor gain optimization by cyclic over-parametrization.

The estimation variance is 1 / info(a), info(a) = (Ha)^H R_w^{-1} (Ha).
In the lift R = [[0, (Ha)^H], [Ha, R_w]], the least y^H R y over y with
y_1 = 1 is -info(a), at y = [1; -R_w^{-1} H a].  Alternating that exact
auxiliary solve with a gain update on a shifted quadratic drives info(a)
monotonically up under any of four practical constraint families.  Under
fixed energy the update is one exact step, the global solution of a
diagonal trust-region subproblem; the other families take
power-method-like iterations.  (No step reads R's corner, so the paper's
large constant there is left out and each cycle reports info(a) itself.)
The auxiliary solve is block classical Gram-Schmidt run twice ("CGS2";
Giraud, Langou & Rozloznik, Comput. Math. Appl. 2005), as accurate as the
modified form at two matrix-vector products per row.
The inner quadratic is an arrow matrix (a diagonal plus one border row and
column); it is held as the two length-N vectors (d, g) and never formed,
so the shift, the exact step and each power step cost O(N) plus the
projection; the shift and the exact step share one safeguarded secular
root finder.  A simplified unimodular-quadratic path handles the
phase-only case with a constant matrix.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import GlobalModel, _gain_values, decentralized_model
from .errors import DegenerateGains, InvalidConfig, NoDescent, ZeroVectorWarning
from .estimator import (
    INFO_FLOOR,
    GainVector,
    _information_and_weights,
    combined_covariance,
    global_variance,
)
from .scenario import DecentralizedScenario

LAMBDA_FLOOR = 1e-12
INNER_STOP = 1e-10
DESCENT_RTOL = 1e-9
CHECK_ATOL = 1e-9
# a safety factor, not a modelling choice: the shift lambda must sit
# strictly above the top eigenvalue it multiplies
LAMBDA_MARGIN = 1.05
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ConstraintSpec:
    """One of the four feasible sets for the gain vector.

    kind "energy":  ||a||^2 = N
    kind "phase":   |a_i| = 1 for all i
    kind "quant":   a_i in {e^{j 2 pi q / Q}}, q_levels = Q >= 2
    kind "select":  at most k_active nonzeros; select_mode "energy" keeps
                    ||a||^2 = N, select_mode "phase" uses constant modulus
                    sqrt(N / K) on the support
    """

    kind: str
    q_levels: int | None = None
    k_active: int | None = None
    select_mode: str = "energy"

    def __post_init__(self):
        if self.kind not in ("energy", "phase", "quant", "select"):
            raise InvalidConfig(f"unknown constraint kind {self.kind!r}")
        if self.kind == "quant" and (self.q_levels is None or self.q_levels < 2):
            raise InvalidConfig("quantized constraint needs q_levels >= 2")
        if self.kind == "select":
            if self.k_active is None or self.k_active < 1:
                raise InvalidConfig("selection constraint needs k_active >= 1")
            if self.select_mode not in ("energy", "phase"):
                raise InvalidConfig(f"unknown selection mode {self.select_mode!r}")

    @classmethod
    def fixed_energy(cls):
        return cls("energy")

    @classmethod
    def phase_only(cls):
        return cls("phase")

    @classmethod
    def quantized(cls, q_levels: int):
        return cls("quant", q_levels=q_levels)

    @classmethod
    def sensor_select(cls, k_active: int, mode: str = "energy"):
        return cls("select", k_active=k_active, select_mode=mode)

    @classmethod
    def parse(cls, text: str) -> "ConstraintSpec":
        """Parse CLI syntax: energy | phase | quant:Q | select:K[:phase]."""
        parts = text.split(":")
        if parts[0] == "energy" and len(parts) == 1:
            return cls.fixed_energy()
        if parts[0] == "phase" and len(parts) == 1:
            return cls.phase_only()
        try:
            if parts[0] == "quant" and len(parts) == 2:
                return cls.quantized(int(parts[1]))
            if parts[0] == "select" and len(parts) in (2, 3):
                mode = parts[2] if len(parts) == 3 else "energy"
                return cls.sensor_select(int(parts[1]), mode)
        except ValueError:
            pass
        raise InvalidConfig(f"cannot parse constraint {text!r}")

    def label(self) -> str:
        if self.kind == "quant":
            return f"quant:{self.q_levels}"
        if self.kind == "select":
            return f"select:{self.k_active}:{self.select_mode}"
        return self.kind

    def check(self, values: np.ndarray) -> None:
        """Raise InvalidConfig unless the values are finite and satisfy the
        constraint to within CHECK_ATOL."""
        a = np.asarray(values, dtype=complex)
        if not np.all(np.isfinite(a)):
            raise InvalidConfig("gains must be finite")
        n = len(a)
        if self.kind == "phase":
            if np.max(np.abs(np.abs(a) - 1.0)) > CHECK_ATOL:
                raise InvalidConfig("gains are not unit modulus")
            return
        if self.kind == "quant":
            grid = np.exp(2j * np.pi * np.arange(self.q_levels) / self.q_levels)
            dist = np.min(np.abs(a[:, None] - grid[None, :]), axis=1)
            if np.max(dist) > CHECK_ATOL:
                raise InvalidConfig("gains are off the phase grid")
            return
        if self.kind == "select":
            support = np.flatnonzero(np.abs(a) > CHECK_ATOL)
            if len(support) > self.k_active:
                raise InvalidConfig("more active sensors than allowed")
            if self.select_mode == "phase":
                want = np.sqrt(n / self.k_active)
                if len(support) and np.max(np.abs(np.abs(a[support]) - want)) > CHECK_ATOL:
                    raise InvalidConfig("active gains are not constant modulus")
                return
        # energy, and select:K in energy mode
        if abs(np.sum(np.abs(a) ** 2) - n) > CHECK_ATOL * n:
            raise InvalidConfig("gain energy differs from N")

    def initial_point(self, n: int) -> np.ndarray:
        """Feasible projection of the all-ones vector (deterministic start)."""
        return project(np.ones(n, dtype=complex), self)

    def random_point(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform draw on the feasible set (restart initialization).

        Phases are uniform; energies come from a normalized complex
        Gaussian; selection supports are uniform K-subsets.
        """
        if self.kind == "energy":
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return np.sqrt(n) * g / np.linalg.norm(g)
        if self.kind == "phase":
            return np.exp(2j * np.pi * rng.random(n))
        if self.kind == "quant":
            q = rng.integers(0, self.q_levels, n)
            return np.exp(2j * np.pi * q / self.q_levels)
        support = rng.choice(n, size=min(self.k_active, n), replace=False)
        a = np.zeros(n, dtype=complex)
        if self.select_mode == "energy":
            g = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
            a[support] = np.sqrt(n) * g / np.linalg.norm(g)
        else:
            a[support] = np.sqrt(n / self.k_active) * np.exp(2j * np.pi * rng.random(len(support)))
        return a


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the cyclic optimizer.

    inner_iters caps the power-method-like iterations per outer cycle of
    the phase, quant and select families (the energy family takes one
    exact step and does not read it); outer iterations stop once
    |info_k - info_{k+1}| <= outer_tol; restarts
    counts the starts and seed draws the random ones.  The shift's safety
    factor is the module constant LAMBDA_MARGIN.
    """

    inner_iters: int = 50
    outer_tol: float = 1e-8
    max_outer: int = 200
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.inner_iters < 1 or self.max_outer < 1 or self.restarts < 1:
            raise InvalidConfig("iteration counts must be positive")
        if self.outer_tol <= 0:
            raise InvalidConfig("outer tolerance must be positive")


@dataclass(frozen=True)
class OptimizerTrace:
    """Full record of one optimization run (best restart).

    ``info_per_outer`` holds the information value info(a) = 1 / variance
    at the start of each outer cycle (for the phase-only UQP path, the
    objective a^H B a after each ascent step, which is the same value).
    ``inner_objective`` holds one tuple per outer cycle: the inner
    objective at the cycle's start and after every accepted step, so an
    energy tuple has two entries (one where the gains stay) and the other
    families' hold up to inner_iters + 1 (the phase-only UQP path records
    its whole ascent as one run).
    ``converged`` is True when the run stopped on its tolerance (outer_tol
    on info; INNER_STOP on the step for the phase-only UQP path) and False
    when it used up its iteration budget.
    """

    info_per_outer: tuple[float, ...]
    inner_objective: tuple[tuple[float, ...], ...]
    final_gains: GainVector = field(repr=False)
    final_variance: float
    wall_time_s: float
    restart_index: int = 0
    segment_breaks: tuple[int, ...] = ()
    stationarity_residual: float = 0.0
    converged: bool = False

    @property
    def outer_iters(self) -> int:
        return len(self.info_per_outer)

    @property
    def inner_iters_total(self) -> int:
        return sum(len(run) for run in self.inner_objective)


def build_lifted(model: GlobalModel, gains) -> np.ndarray:
    """Bordered Hermitian matrix R = [[0, (Ha)^H], [Ha, H D V D^H H^H + sigma_n^2 I]].

    At the auxiliary minimizer y = [1; -R_w^{-1} H a], y^H R y = -info(a).
    """
    a = _gain_values(gains)
    m = model.num_rows
    b = model.H @ a
    r = np.zeros((m + 1, m + 1), dtype=complex)
    r[0, 1:] = b.conj()
    r[1:, 0] = b
    r[1:, 1:] = combined_covariance(model, a)
    return r


def solve_auxiliary(r: np.ndarray) -> np.ndarray:
    """Auxiliary vector y with y_1 = 1 and R y vanishing on every border
    row, so y is proportional to R^{-1} e_1 wherever R is invertible.

    Orthonormalizes the conjugated rows 2..M+1 of R and projects e_1 onto
    their orthogonal complement; that residual is proportional to
    R^{-1} e_1 because R y must vanish on every border row.  Each row is
    orthogonalized against the whole basis at once, twice: classical
    Gram-Schmidt with one re-orthogonalization pass (CGS2), which is as
    accurate as the modified, one-vector-at-a-time form ("twice is
    enough": Giraud, Langou & Rozloznik, Comput. Math. Appl. 2005) at two
    matrix-vector products per row.  A row that is already in the span of
    the basis is skipped.  Falls back to a direct solve when the residual
    nearly vanishes (near-singular lift).
    """
    r = np.asarray(r, dtype=complex)
    m1 = r.shape[0]
    q = np.zeros((m1 - 1, m1), dtype=complex)  # the orthonormal basis, one row per vector
    n = 0
    for i in range(1, m1):
        u = r[i].conj()
        for _ in range(2):
            u -= (q[:n].conj() @ u) @ q[:n]
        nrm = math.sqrt(np.vdot(u, u).real)  # np.linalg.norm(u) without its dispatch
        if nrm > 0:
            q[n] = u / nrm
            n += 1
    e1 = np.zeros(m1, dtype=complex)
    e1[0] = 1.0
    res = e1 - q[:n, 0].conj() @ q[:n]
    y = np.linalg.solve(r, e1) if np.linalg.norm(res) < 1e-12 * np.linalg.norm(r) else res
    return y / y[0]


def build_inner_quadratic(y_tail: np.ndarray, model: GlobalModel):
    """Arrow form (d, g) with y^H R y = sigma_n^2 ||y_tail||^2 + (a;1)^H Q (a;1).

    Q is the arrow matrix [[diag(d), g], [g^H, 0]]: for diagonal V the
    Hadamard product (H^H y y^H H) o V collapses to d = |g|^2 v with border
    g = H^H y.  The constant sigma_n^2 ||y_tail||^2 does not depend on a,
    so no step needs it; Q itself is never formed.
    """
    yt = np.asarray(y_tail, dtype=complex)
    g = model.H.conj().T @ yt
    d = np.abs(g) ** 2 * model.sensor_noise_var
    return d, g


def _secular_root(step, lo, hi, x):
    """Root of an increasing function f on [lo, hi], searched from x by
    model steps; step(x) returns (f(x) >= 0, the model's next point).

    The model must approach the root from above, so that a short step from
    a point with f >= 0 certifies that point.  Safeguard: every evaluated
    point updates the bracket (upper end where f >= 0, lower end
    otherwise), a step is at least a few ulps above the lower end, and a
    step that lands at or above the upper end is replaced by bisection, so
    every later point lies strictly inside the bracket.  The search stops
    once the bracket, or a step from a point with f >= 0, is within a few
    ulps of the upper end, and returns that end.
    """
    while lo < hi:
        above, nxt = step(x)
        if above:
            hi = x
        else:
            lo = x
        tol = 2.0 * _EPS * abs(hi)
        if hi - lo <= tol or (above and x - nxt <= tol):
            break
        nxt = max(nxt, lo + tol)
        x = nxt if nxt < hi else 0.5 * (lo + hi)
    return hi


def shift_quadratic(d: np.ndarray, g: np.ndarray) -> float:
    """Shift lambda > lambda_max(Q) making lambda I - Q positive definite.

    Q is the arrow matrix of build_inner_quadratic: diagonal d >= 0,
    border g, zero corner.  lambda_max is the largest root of the secular
    function f(lambda) = lambda - sum |g_i|^2 / (lambda - d_i) (Golub 1973)
    on [max(max d, ||g||), max d + ||g||]: interlacing gives lambda_max >=
    max d, d >= 0 gives lambda_max^2 >= ||g||^2, and Weyl's inequality gives
    the upper end, where f >= 0.

    Rational step (Bunch, Nielsen & Sorensen 1978; R.-C. Li 1994): at the
    current point the sum is replaced by s / (lambda - max d) + c with the
    sum's value and slope there.  The model is exact for the terms at
    max d and lies above every other term on lambda > max d (same value
    and slope, nearer pole), so its root, the positive root of a
    quadratic, is never below lambda_max.  Started from the upper end, the
    steps descend onto lambda_max with quadratic convergence, in about six
    O(N) evaluations.

    The steps run inside the safeguarded bracket of _secular_root, so every
    point evaluated lies strictly above max d and no pole is hit.  lambda
    is LAMBDA_MARGIN times the certified upper end it returns (nudged up an
    ulp where dividing by the margin would round below it), so lambda >
    lambda_max still holds.  Q = 0 (zero gains) gets a small floor instead.
    """
    g2 = np.abs(g) ** 2
    d_max = float(d.max())
    g_norm = float(np.sqrt(g2.sum()))
    lo, hi = max(d_max, g_norm), d_max + g_norm
    if hi == 0.0:
        return LAMBDA_FLOOR

    def step(lam):
        t = lam - d_max
        gap = lam - d
        q = g2 / gap
        total = float(q.sum())
        slope = float((q / gap).sum())
        # the model t' + max d - slope t^2 / t' - (total - slope t) = 0 as a
        # quadratic in t' = lambda' - max d, solved without cancellation
        b = d_max - total + slope * t
        s = slope * t * t
        root = math.hypot(b, 2.0 * math.sqrt(s))
        return lam >= total, d_max + (2.0 * s / (b + root) if b > 0.0 else 0.5 * (root - b))

    # lo == hi for g = 0 (lambda_max = max d) or d = 0 (lambda_max = ||g||)
    hi = _secular_root(step, lo, hi, hi)
    out = LAMBDA_MARGIN * hi
    while out / LAMBDA_MARGIN < hi:  # keep lambda / margin at or above the certified end
        out = math.nextafter(out, math.inf)
    return out


def _grid_pick(angles: np.ndarray, q_levels: int) -> np.ndarray:
    """Index q in 0..Q of the nearest grid phase 2 pi q / Q, where Q stands
    for 0 (as floats; NaN for a NaN angle); exact midpoints round to the
    smaller phase value."""
    frac = np.mod(angles, 2.0 * np.pi) * q_levels / (2.0 * np.pi)
    # ceil(frac - 1/2) rounds midpoints down; the wrap midpoint Q - 1/2 lies
    # between Q - 1 and Q = 0 (mod Q), so it goes to 0
    pick = np.ceil(frac - 0.5)
    pick[frac == q_levels - 0.5] = 0.0
    return pick


def _quantize_phases(angles: np.ndarray, q_levels: int) -> np.ndarray:
    """Nearest grid phase 2 pi q / Q; exact midpoints round to the smaller
    phase value."""
    return 2.0 * np.pi * np.mod(_grid_pick(angles, q_levels), q_levels) / q_levels


@functools.lru_cache(maxsize=None)
def _phase_grid(q_levels: int) -> np.ndarray:
    """Read-only e^{j 2 pi q / Q} for q = 0..Q, entry Q repeating entry 0.

    Each phase is formed by the expression of _quantize_phases, so indexing
    with _grid_pick gives the bytes of np.exp(1j * _quantize_phases(...)).
    """
    picks = np.arange(q_levels + 1, dtype=float)
    grid = np.exp(1j * (2.0 * np.pi * np.mod(picks, q_levels) / q_levels))
    grid.flags.writeable = False
    return grid


def _onto_sphere(a: np.ndarray):
    """sqrt(N) a / ||a|| (None for a zero vector): the squared norm as one
    vdot and the scaling as one product."""
    nrm = math.sqrt(np.vdot(a, a).real)
    if nrm == 0.0:
        return None
    return a * (math.sqrt(len(a)) / nrm)


def project(a_hat: np.ndarray, constraint: ConstraintSpec) -> np.ndarray:
    """Nearest feasible point to a_hat (ties and degeneracies deterministic).

    energy: sqrt(N) a_hat / ||a_hat||
    phase: e^{j arg a_hat} entrywise
    quant: nearest grid phase, midpoint ties to the smaller phase value
    select: keep the K largest magnitudes (rank ties keep the lower
    index), then rescale (energy) or apply constant modulus (phase)

    A zero input under the energy or select-energy family has no unique
    nearest point; a deterministic feasible point is returned and a
    ZeroVectorWarning is issued.
    """
    a = np.ascontiguousarray(a_hat, dtype=complex)
    n = len(a)
    if constraint.kind == "energy":
        out = _onto_sphere(a)
        if out is None:
            warnings.warn("zero vector projected onto the energy sphere", ZeroVectorWarning)
            return np.ones(n, dtype=complex)
        return out
    if constraint.kind == "phase":
        return np.exp(1j * np.angle(a))
    if constraint.kind == "quant":
        angles = np.angle(a)
        pick = _grid_pick(angles, constraint.q_levels)
        if math.isnan(pick.sum()):  # a NaN image has no grid point: keep it non-finite
            return np.exp(1j * _quantize_phases(angles, constraint.q_levels))
        return _phase_grid(constraint.q_levels)[pick.astype(np.intp)]
    k = constraint.k_active
    neg = -np.abs(a)
    ranked = np.sort(neg)  # descending magnitude, NaN last
    kth = ranked[min(k, n) - 1]
    keep = neg <= kth  # the K largest magnitudes; ties at the K-th keep the lower indices
    if k < n and ranked[k] == kth:
        tied = np.flatnonzero(neg == kth)
        keep[tied[len(tied) - (np.count_nonzero(keep) - k):]] = False
    out = np.zeros(n, dtype=complex)
    if constraint.select_mode == "phase":
        out[keep] = np.sqrt(n / k) * np.exp(1j * np.angle(a[keep]))
        return out
    np.copyto(out, a, where=keep)
    scaled = _onto_sphere(out)
    if scaled is None:
        warnings.warn("zero vector projected onto the selection set", ZeroVectorWarning)
        out[:k] = np.sqrt(n / k)
        return out
    return scaled


def _sphere_minimizer(d: np.ndarray, g: np.ndarray, n: int):
    """Global minimizer of sum d |a|^2 + 2 Re(g^H a) over ||a||^2 = n, or
    None when every feasible point is one (g = 0 and d constant).

    A trust-region subproblem with a diagonal matrix (More & Sorensen,
    SIAM J. Sci. Stat. Comput. 1983; Gander, Golub & von Matt, LAA 1989):
    a = -g / (e + s) with e = d - min d and s > 0 the root of
    psi(s) = 1 / ||g / (e + s)|| - 1 / sqrt(n), bracketed by
    [max(0, max_i(|g_i| / sqrt(n) - e_i)), ||g|| / sqrt(n)].  psi is
    concave and rising, so Newton steps on it approach the root from below
    and never pass it: _secular_root runs them on u = -s, where they come
    from above.
    Hard case: g = 0 wherever e = 0 and ||g / e|| <= sqrt(n) over the rest;
    then s = 0 and the remaining norm goes, real and positive, to the
    lowest index with e = 0.  No point evaluated divides by zero.
    """
    e = d - d.min()
    zero = e == 0.0
    root_n = math.sqrt(n)
    if not g[zero].any():
        if zero.all():  # then g = 0 too
            return None
        a = -g / np.where(zero, 1.0, e)
        rest = n - np.vdot(a, a).real
        if rest >= 0.0:
            a[np.argmax(zero)] = math.sqrt(rest)
            return a

    g2 = np.abs(g) ** 2

    def newton(u):
        inv = 1.0 / (e - u)
        q = g2 * inv * inv
        s2 = float(q.sum())  # ||a||^2
        nrm = math.sqrt(s2)
        slope = float(q.dot(inv))  # -d(s2)/ds / 2
        # -(s - psi / psi') with psi' = slope / s2^(3/2)
        return nrm >= root_n, u + s2 * (1.0 - nrm / root_n) / slope

    lo = max(0.0, float((np.sqrt(g2) / root_n - e).max()))
    hi = math.sqrt(g2.sum()) / root_n
    return -g / (e - _secular_root(newton, -hi, -lo, -hi))


def inner_power_iterations(a0: np.ndarray, lam: float, d: np.ndarray, g: np.ndarray,
                           constraint: ConstraintSpec, max_iters: int):
    """The gain step of one outer cycle on the shifted arrow Q~ = lambda I - Q.

    Returns (a, objectives) where objectives holds (a;1)^H Q~ (a;1) =
    lambda + sum (lambda - d)|a|^2 - 2 Re(g^H a) at the start and after
    every accepted step.

    energy: one exact step.  On ||a||^2 = N the objective is lambda (1 + N)
    minus sum d |a|^2 + 2 Re(g^H a), so its global maximizer is the
    trust-region solution of _sphere_minimizer, and max_iters is not read.
    Where every feasible point is optimal, a stays and one value is listed.

    phase, quant, select: up to max_iters power-method-like steps
    a <- project((lambda - d) o a - g).  The image is (I_N 0) Q~ (a;1), so
    each step costs O(N) plus the projection; the sequence is
    non-decreasing whenever Q~ is positive semidefinite.  Stops early once
    a step moves a by at most INNER_STOP.
    """
    w = lam - d
    a = np.asarray(a0, dtype=complex).copy()
    image = w * a - g
    # a^H image - g^H a = sum w |a|^2 - 2 Re(g^H a) in real part
    objs = [lam + float(np.real(np.vdot(a, image) - np.vdot(g, a)))]
    if constraint.kind == "energy":
        best = _sphere_minimizer(d, g, len(a))
        if best is not None:
            a = best
            objs.append(lam + float(np.real(np.vdot(a, w * a - g) - np.vdot(g, a))))
        return a, objs
    for _ in range(max_iters):
        a_new = project(image, constraint)
        if np.linalg.norm(a_new - a) <= INNER_STOP:
            break
        a = a_new
        image = w * a - g
        objs.append(lam + float(np.real(np.vdot(a, image) - np.vdot(g, a))))
    return a, objs


def _nondecreasing(seq) -> bool:
    for prev, cur in zip(seq, seq[1:]):
        if cur < prev - DESCENT_RTOL * max(1.0, abs(prev)):
            return False
    return True


def _cyclic_run(model, model_fn, a0, constraint, config) -> OptimizerTrace:
    """One full cyclic maximization from a0; returns its trace.

    Each outer cycle solves the auxiliary vector exactly first, so the
    info trace is anchored at info(a0) and rises monotonically;
    the gain update then builds the arrow (d, g), shifts it and runs the
    power iterations on it once.  The shift exceeds the exact top
    eigenvalue of the inner quadratic, so a decreasing inner objective
    means lost precision and raises NoDescent.
    """
    m = model_fn(a0) if model_fn is not None else model
    a = np.asarray(a0, dtype=complex).copy()
    infos: list[float] = []
    inner_runs: list[tuple[float, ...]] = []
    breaks: list[int] = []
    prev = None
    stat_resid = 0.0
    converged = False
    for k in range(config.max_outer):
        if model_fn is not None and k > 0:
            m_new = model_fn(a)
            if not np.array_equal(m.H, m_new.H):
                # V and sigma^2 are the scenario's, so a new H is a new
                # objective: start a segment
                m = m_new
                prev = None
                breaks.append(k)
        r = build_lifted(m, a)
        y = solve_auxiliary(r)
        info = -float(np.real(y.conj() @ (r @ y)))
        # the exact solve must land on the minimum value -info(a)
        direct, _ = _information_and_weights(m, a)
        stat_resid = max(stat_resid, abs(info - direct) / max(direct, INFO_FLOOR))
        infos.append(info)
        if prev is not None:
            if info < prev - DESCENT_RTOL * abs(prev):
                raise NoDescent(f"information fell from {prev} to {info}")
            if abs(info - prev) <= config.outer_tol:
                converged = True
                break
        prev = info
        d, g = build_inner_quadratic(y[1:], m)
        lam = shift_quadratic(d, g)
        a_new, objs = inner_power_iterations(a, lam, d, g, constraint, config.inner_iters)
        if not _nondecreasing(objs):
            raise NoDescent("inner objective decreased under the exact shift")
        inner_runs.append(tuple(objs))
        a = a_new
    return OptimizerTrace(tuple(infos), tuple(inner_runs), GainVector(a, constraint),
                          global_variance(m, a), wall_time_s=0.0, segment_breaks=tuple(breaks),
                          stationarity_residual=stat_resid, converged=converged)


def _restart_points(n, constraint, config, model, model_fn):
    """Initialization schedule: deterministic start, then random feasible draws.

    For quantized phases the second start is the solved phase-only
    relaxation projected onto the grid; rounding the continuous optimum
    reaches grid points that random draws and the frozen-phase iterations
    rarely find.
    """
    points = [constraint.initial_point(n)]
    if constraint.kind == "quant" and config.restarts > 1:
        relax_model = model_fn(points[0]) if model_fn is not None else model
        relaxed, _ = optimize_phase_only_uqp(relax_model, config)
        points.append(project(relaxed.values, constraint))
    r = len(points)
    while len(points) < config.restarts:
        rng = np.random.default_rng((config.seed, r))
        points.append(constraint.random_point(n, rng))
        r += 1
    return points[: config.restarts]


def _best_of_starts(run_from, starts, t0):
    """One run_from(a0) -> OptimizerTrace per start; the best (variance, start index) wins.

    Returns (gains, trace) with the restart index set and the wall time counted from t0.
    """
    runs = [run_from(a0) for a0 in starts]
    best = min(range(len(runs)), key=lambda idx: (runs[idx].final_variance, idx))
    trace = replace(runs[best], restart_index=best, wall_time_s=time.perf_counter() - t0)
    return trace.final_gains, trace


def optimize(model: GlobalModel, constraint: ConstraintSpec,
             config: OptimizerConfig = OptimizerConfig(),
             model_fn=None) -> tuple[GainVector, OptimizerTrace]:
    """Minimize estimation variance over the constrained gain vector.

    Parameters
    ----------
    model : GlobalModel
        Observation model (sizes the problem and serves as the first
        segment when no factory is given).
    constraint : ConstraintSpec
        Feasible set for the gains.
    config : OptimizerConfig
        Iteration budgets, stop tolerance, restarts, seed.
    model_fn : callable, optional
        gains -> GlobalModel, re-evaluated per outer iteration for models
        that depend on the gains (decentralized plan refresh).

    Returns
    -------
    (GainVector, OptimizerTrace)
        Best gains over all restarts (lexicographic on (variance,
        restart index) for determinism) and the winning run's trace.

    Notes
    -----
    The variance at the returned gains never exceeds the variance at the
    deterministic starting point: the first outer cycle computes the
    auxiliary vector for a0 before any gain update, and every cycle
    raises the information value.
    """
    t0 = time.perf_counter()
    starts = _restart_points(model.num_sensors, constraint, config, model, model_fn)
    return _best_of_starts(lambda a0: _cyclic_run(model, model_fn, a0, constraint, config),
                           starts, t0)


def refine(model: GlobalModel, a0, constraint: ConstraintSpec,
           config: OptimizerConfig = OptimizerConfig()) -> tuple[GainVector, OptimizerTrace]:
    """Single cyclic run on a fixed model from a caller-provided feasible
    start (warm start).

    Useful when one constraint family's solution is feasible for a looser
    one; monotone descent then guarantees the refined variance does not
    exceed the warm start's.
    """
    a0 = np.asarray(a0, dtype=complex)
    constraint.check(a0)
    return _best_of_starts(lambda start: _cyclic_run(model, None, start, constraint, config),
                           [a0], time.perf_counter())


def optimize_decentralized(scenario: DecentralizedScenario, constraint: ConstraintSpec,
                           config: OptimizerConfig = OptimizerConfig(),
                           refresh_plan: bool = True):
    """Gain design over a decentralized scenario.

    The compressed model depends on the gains through the carrier
    assignment; by default it is recomputed every outer iteration
    (refresh_plan=False freezes the plan of the starting point).
    Returns (gains, trace, plan): the plan of the final gains, or the
    frozen plan the gains were designed under.
    """
    start_model, plan = decentralized_model(scenario, constraint.initial_point(scenario.num_sensors))
    model_fn = (lambda a: decentralized_model(scenario, a)[0]) if refresh_plan else None
    gains, trace = optimize(start_model, constraint, config, model_fn=model_fn)
    if refresh_plan:
        _, plan = decentralized_model(scenario, gains)
    return gains, trace, plan


def uqp_matrix(model: GlobalModel) -> np.ndarray:
    """Constant matrix of the phase-only program: B = H^H (H V H^H + M)^{-1} H.

    Valid because V is diagonal and |a_i| = 1 makes D V D^H = V, so the
    combined covariance no longer depends on the gains.
    """
    core = combined_covariance(model, np.ones(model.num_sensors))
    return model.H.conj().T @ np.linalg.solve(core, model.H)


def uqp_step(b_mat: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One unimodular ascent step a <- e^{j arg(B a)}, from the image B a.

    Returns the new point and its image B a_new, which the objective and
    the next step both read.  Non-decreasing in a^H B a for positive
    semidefinite B: the step maximizes Re(z^H B a) over unit-modulus z.
    """
    a_new = np.exp(1j * np.arctan2(image.imag, image.real))  # np.angle without its wrapper
    return a_new, b_mat @ a_new


def optimize_phase_only_uqp(model: GlobalModel,
                            config: OptimizerConfig = OptimizerConfig()
                            ) -> tuple[GainVector, OptimizerTrace]:
    """Phase-only design via the unimodular quadratic program.

    Builds B once and iterates a <- e^{j arg(B a)}; the objective a^H B a
    is non-decreasing because B is positive semidefinite.  For unit-modulus
    gains a^H B a is the information value, so the objective is the info
    trace, as on the general path.  A start whose objective ends below
    INFO_FLOOR raises DegenerateGains.
    """
    t0 = time.perf_counter()
    b_mat = uqp_matrix(model)
    constraint = ConstraintSpec.phase_only()
    max_iters = config.max_outer * config.inner_iters

    def ascend(a):
        image = b_mat @ a
        objs = [float((a.conj() @ image).real)]
        for _ in range(max_iters):  # at least one step: the config rejects empty budgets
            a_new, image = uqp_step(b_mat, image)
            diff = a_new - a  # its norm as the sum np.linalg.norm forms
            step = math.sqrt(diff.real.dot(diff.real) + diff.imag.dot(diff.imag))
            a = a_new
            objs.append(float((a.conj() @ image).real))
            if step <= INNER_STOP:
                break
        if objs[-1] < INFO_FLOOR:
            raise DegenerateGains("effective gains carry no information")
        return OptimizerTrace(tuple(objs), (tuple(objs),),
                              GainVector(a, constraint), 1.0 / objs[-1], wall_time_s=0.0,
                              converged=bool(step <= INNER_STOP))

    starts = _restart_points(model.num_sensors, constraint, config, model, None)
    return _best_of_starts(ascend, starts, t0)
