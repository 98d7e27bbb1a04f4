"""Sensor gain optimization by cyclic over-parametrization.

The estimation variance is 1 / info(a), info(a) = (Ha)^H R_w^{-1} (Ha).
In the lift R = [[0, (Ha)^H], [Ha, R_w]], the least y^H R y over y with
y_1 = 1 is -info(a), at y = [1; -w] with the weights w = R_w^{-1} H a.
Alternating that exact auxiliary step with a gain update that lowers the
rest of y^H R y, a quadratic f(a), drives info(a) monotonically up under
any of four practical constraint families.  Under fixed energy the update
is one exact step, the global solution of a diagonal trust-region
subproblem; under K-of-N selection in energy mode it is that solution on
the better of two supports (the current one and the K largest entries of
the full one).
quant and select:K:phase take power-method-like iterations on f's matrix
shifted positive definite, and only they read the shift.  Under phase R_w
is constant, info(a) = a^H B a, and the exact step a <- B a / |B a| is the
unimodular power method (Soltanalian & Stoica, IEEE TSP 2014), which
the phase designs run instead of a cycle, with SQUAREM extrapolations
between its plain steps.  On the compressed decentralized model the
information reads |a| only, so under phase and quant a design returns its
start.  One start-and-run path (_drive) serves every design, optimize,
refine, optimize_phase_only_uqp and optimize_decentralized alike: it
applies that rule, or else runs the ascent or the cycle from each start,
and returns the best run's gains, trace and model.  (No step reads R's corner, so the
paper's large constant there is left out.)
A cycle never forms the lift: it takes w from the estimator, a quotient
per row on the compressed decentralized model (R_w diagonal) and an M x M
solve otherwise.  The lift (build_lifted) and its Gram-Schmidt solve
(solve_auxiliary) remain as the paper's lifted formulation, the reference
the tests hold the cycle's y to.
The inner quadratic is an arrow matrix (a diagonal plus one border row and
column); it is held as the two length-N vectors (d, g) and never formed,
so the exact step, the shift and each power step cost O(N) plus the
projection; the exact step and the shift share one safeguarded secular
root finder, and each of a cycle's exact solves starts from the
multiplier its call site found one cycle earlier.  The phase ascent, and the cycles of the power-step
families, stop once a (plain) step gains at most outer_tol of information
and the shrinking gains promise at most outer_tol more; the exact-step
families stop on |delta info| <= outer_tol.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .diffusion import GlobalModel, _dense_h, _gain_values, _product, decentralized_model
from .errors import DegenerateGains, InvalidConfig, NoDescent, ZeroVectorWarning
from .estimator import (
    INFO_FLOOR,
    GainVector,
    _covariance_terms,
    _information_and_weights,
    combined_covariance,
    global_variance,
)
from .netgraph import is_int
from .scenario import DecentralizedScenario, _is_number

LAMBDA_FLOOR = 1e-12
INNER_STOP = 1e-10
DESCENT_RTOL = 1e-9
CHECK_ATOL = 1e-9
LAMBDA_MARGIN = 1.05  # a safety factor: the shift sits strictly above the top eigenvalue
INNER_ITERS = 50  # power steps per cycle; the phase ascent takes max_outer times as many
_SQUAREM_FLOOR = -4.0  # the phase ascent's extrapolation length alpha is clipped here
_SQUAREM_WARMUP = 10  # plain phase ascent steps before its first extrapolation
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class ConstraintSpec:
    """One of the four feasible sets for the gain vector.

    kind "energy":  ||a||^2 = N
    kind "phase":   |a_i| = 1 for all i
    kind "quant":   a_i in {e^{j 2 pi q / Q}}, q_levels = Q >= 2
    kind "select":  at most k_active nonzeros; select_mode "energy" keeps
                    ||a||^2 = N, select_mode "phase" uses constant modulus
                    sqrt(N / K) on the support

    A field its kind ignores must keep its default (q_levels and k_active
    None, select_mode "energy"), so that one feasible set has one spec.
    """

    kind: str
    q_levels: int | None = None
    k_active: int | None = None
    select_mode: str = "energy"

    def __post_init__(self):
        if self.kind not in ("energy", "phase", "quant", "select"):
            raise InvalidConfig(f"unknown constraint kind {self.kind!r}")
        if self.kind == "quant" and not (is_int(self.q_levels) and self.q_levels >= 2):
            raise InvalidConfig(f"q_levels must be an integer >= 2, got {self.q_levels!r}")
        if self.kind == "select":
            if not (is_int(self.k_active) and self.k_active >= 1):
                raise InvalidConfig(f"k_active must be an integer >= 1, got {self.k_active!r}")
            if self.select_mode not in ("energy", "phase"):
                raise InvalidConfig(f"unknown selection mode {self.select_mode!r}")
        ignored = {"q_levels": self.kind != "quant" and self.q_levels is not None,
                   "k_active": self.kind != "select" and self.k_active is not None,
                   "select_mode": self.kind != "select" and self.select_mode != "energy"}
        for name, stray in ignored.items():
            if stray:
                raise InvalidConfig(f"{name} does not apply to {self.kind!r} constraints")

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
            dist = np.min(np.abs(a[:, None] - _phase_grid(self.q_levels)), axis=1)
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
            return _phase_grid(self.q_levels)[rng.integers(0, self.q_levels, n)]
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
    """Knobs of the optimizer.

    Outer cycles, at most max_outer, stop once |info_k - info_{k+1}| <=
    outer_tol under energy and select:K energy, and under quant and
    select:K:phase once _ascent_settled reads that gain as settled; each
    quant or select:K:phase cycle takes up to INNER_ITERS power steps.  The
    phase ascent stops on _ascent_settled as well, on its plain steps,
    within max_outer * INNER_ITERS steps (extrapolations included).
    restarts counts the starts and seed draws the random ones.  The counts
    and the seed are integers (not bool) and outer_tol a finite positive
    number; anything else raises InvalidConfig.
    """

    outer_tol: float = 1e-8
    max_outer: int = 200
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("max_outer", "restarts", "seed"):
            if not is_int(getattr(self, name)):
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_outer < 1 or self.restarts < 1:
            raise InvalidConfig("iteration counts must be positive")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        if not (_is_number(self.outer_tol) and 0 < self.outer_tol < math.inf):
            raise InvalidConfig(f"outer_tol must be finite and positive, got {self.outer_tol!r}")


@dataclass(frozen=True)
class OptimizerTrace:
    """Full record of one optimization run (best restart).

    ``info_per_outer`` holds the information value info(a) = 1 / variance
    at the start of each outer cycle (for the phase ascent, the objective
    a^H B a, which is the same value, at its start, after each plain step
    and after each kept extrapolation).  ``extrapolations_accepted`` and
    ``extrapolations_rejected`` count the phase ascent's kept and dropped
    extrapolations (_uqp_ascent); each takes one uqp_step call, and only a
    dropped one's falls outside the info trace, so the run made
    len(info_per_outer) - 1 + extrapolations_rejected calls.  Both are 0 for
    the cycles and for the compressed rule's start (_drive).
    ``inner_objective`` holds one tuple per outer cycle: -f(a) with
    f(a) = sum d |a|^2 + 2 Re(g^H a) on that cycle's arrow (d, g), at the
    cycle's start and after every accepted step, so an
    energy or select:K energy tuple has two entries (one where the gains
    stay) and the other families' hold up to INNER_ITERS + 1 (the phase
    ascent records its whole run a^H B a as one tuple).
    ``converged`` is True when the run stopped on its tolerance (outer_tol
    on info per outer cycle, through _ascent_settled for the power-step
    families and per plain phase ascent step) and
    False when it used up its iteration budget.  ``segment_breaks`` lists
    the cycles after the first that ran on new carriers (plan refresh).
    ``stationarity_residual`` is the largest relative residual
    ||R_w w - H a|| / ||H a|| of the weights w behind a cycle's auxiliary
    vector y = [1; -w], over the run's cycles, with R_w and H a those the
    weights solve read (no lift); 0.0 on the phase ascent and on the phase
    and quant designs on a compressed model, which take no auxiliary step.
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
    extrapolations_accepted: int = 0
    extrapolations_rejected: int = 0

    @property
    def outer_iters(self) -> int:
        return len(self.info_per_outer)

    @property
    def inner_iters_total(self) -> int:
        return sum(len(run) for run in self.inner_objective)


def build_lifted(model: GlobalModel, gains) -> np.ndarray:
    """Bordered Hermitian matrix R = [[0, (Ha)^H], [Ha, H D V D^H H^H + sigma_n^2 I]].

    At the auxiliary minimizer y = [1; -R_w^{-1} H a], y^H R y = -info(a).
    A compressed model's R_w is diagonal and is filled from its rows.  The
    paper's dense lift, kept as a reference: no design builds it.
    """
    b, r_w = _covariance_terms(model, _gain_values(gains, model.num_sensors))
    r = np.zeros((len(b) + 1, len(b) + 1), dtype=complex)
    if r_w.ndim == 1:
        np.fill_diagonal(r[1:, 1:], r_w)
    else:
        r[1:, 1:] = r_w
    r[0, 1:] = b.conj()
    r[1:, 0] = b
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
    nearly vanishes (near-singular lift).  A reference only: no design
    calls it, as _cyclic_run forms y = [1; -R_w^{-1} H a] from the weights.
    """
    r = np.asarray(r, dtype=complex)
    m1 = r.shape[0]
    q = np.zeros((m1 - 1, m1), dtype=complex)  # the orthonormal basis, one row per vector
    qc = np.zeros_like(q)  # its conjugate, filled once per row instead of copied per pass
    n = 0
    for i in range(1, m1):
        u = r[i].conj()
        for _ in range(2):
            u -= (qc[:n] @ u) @ q[:n]
        nrm = math.sqrt(np.vdot(u, u).real)  # np.linalg.norm(u) without its dispatch
        if nrm > 0:
            q[n] = u / nrm
            qc[n] = q[n].conj()
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
    so no step needs it; Q itself is never formed.  On a compressed model
    each sensor has one row r, so g_k = conj(h_r) y_r, formed by
    diffusion._product, whose bits do not depend on the CPU.
    """
    yt = np.asarray(y_tail, dtype=complex)
    if model.row_gain is not None:
        g = np.zeros(model.num_sensors, dtype=complex)
        g[model.row_sensor] = _product(model.row_gain.conj(), yt)
    else:
        g = model.H.conj().T @ yt
    d = np.abs(g) ** 2 * model.sensor_noise_var
    return d, g


def _secular_root(step, lo, hi, x):
    """Root of an increasing function f on [lo, hi], searched from any x in
    the bracket by model steps; step(x) returns (f(x) >= 0, the model's next
    point).

    The model must approach the root from above, so that a short step from
    a point with f >= 0 certifies that point.  Safeguard: every evaluated
    point updates the bracket (upper end where f >= 0, lower end
    otherwise), a step is at least a few ulps above the lower end, and a
    step that lands at or above the upper end is replaced by bisection
    (geometric while the bracket lies below zero and spans more than a
    factor of 4, which halves its decades; else arithmetic), so every later
    point lies strictly inside the bracket.  The search stops once the
    bracket, or a step from a point with f >= 0, is within a few ulps of
    the upper end, and returns that end.
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
        if nxt >= hi:  # bisection
            geometric = hi < 0.0 and lo < 4.0 * hi
            nxt = -math.sqrt(-lo) * math.sqrt(-hi) if geometric else 0.5 * (lo + hi)
        x = nxt
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


def _norm(x: np.ndarray) -> float:
    """||x|| of a complex vector as np.linalg.norm forms it, without its dispatch."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _onto_sphere(a: np.ndarray):
    """sqrt(N) a / ||a|| (None for a zero vector): the squared norm as one
    vdot and the scaling as one product."""
    nrm = math.sqrt(np.vdot(a, a).real)
    if nrm == 0.0:
        return None
    return a * (math.sqrt(len(a)) / nrm)


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """e^{j arg x} entrywise as x / |x|, with no angle and no exponential; an
    exact zero, whatever its signs of zero, gets phase 0 (1), with no warning.

    numpy divides by |x| as a product with 1 / |x|, which overflows once |x|
    is subnormal, so such an entry is lifted by 2^600 (exact) first.  Only
    an x with a zero, subnormal or NaN entry takes that masked path (about
    2 us more a call); both give the same bits wherever |x| is normal.
    """
    mag = np.abs(x)
    if not mag.size or mag[mag.argmin()] >= _TINY:  # argmin costs less than mag < _TINY
        return x / mag
    x = np.multiply(x, 2.0**600, out=x.copy(), where=mag < _TINY)
    mag = np.abs(x)
    return np.divide(x, mag, out=np.ones_like(x), where=mag != 0.0)


def project(a_hat: np.ndarray, constraint: ConstraintSpec) -> np.ndarray:
    """Nearest feasible point to a_hat (ties and degeneracies deterministic).

    energy: sqrt(N) a_hat / ||a_hat||
    phase: e^{j arg a_hat} entrywise (_unit_phase: an exact zero gets 1)
    quant: nearest grid phase, midpoint ties to the smaller phase value
    select: keep the K largest magnitudes (rank ties keep the lower
    index), then rescale (energy) or apply constant modulus (phase, with
    the phases of _unit_phase)

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
        return _unit_phase(a)
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
        out[keep] = np.sqrt(n / k) * _unit_phase(a[keep])
        return out
    np.copyto(out, a, where=keep)
    scaled = _onto_sphere(out)
    if scaled is None:
        warnings.warn("zero vector projected onto the selection set", ZeroVectorWarning)
        out[:k] = np.sqrt(n / min(k, n))
        return out
    return scaled


def _hard_case(e: np.ndarray, g: np.ndarray, n: int):
    """_sphere_minimizer's hard case for e = d - min d: (True, its
    minimizer, None when every feasible point is one), or (False, None)
    when s > 0."""
    zero = e == 0.0
    if g[zero].any():
        return False, None
    if zero.all():  # then g = 0 too
        return True, None
    a = -g / np.where(zero, 1.0, e)
    rest = n - np.vdot(a, a).real
    if not rest >= 0.0:
        return False, None
    a[np.argmax(zero)] = math.sqrt(rest)
    return True, a


def _sphere_minimizer(d: np.ndarray, g: np.ndarray, n: int, memo: dict | None = None,
                      site: str = "energy"):
    """Global minimizer of sum d |a|^2 + 2 Re(g^H a) over ||a||^2 = n, or
    None when every feasible point is one (g = 0 and d constant).

    A trust-region subproblem with a diagonal matrix (More & Sorensen,
    SIAM J. Sci. Stat. Comput. 1983; Gander, Golub & von Matt, LAA 1989):
    a = -g / (e + s) with e = d - min d and s > 0 the root of
    psi(s) = 1 / ||g / (e + s)|| - 1 / sqrt(n), bracketed by
    [max(0, max_i(|g_i| / sqrt(n) - e_i)), ||g|| / sqrt(n)].  psi is
    concave and rising, so Newton steps on it approach the root from below
    and never pass it: _secular_root runs them on u = -s, where they come
    from above.  An evaluation forms t = |g| / (e + s) once: ||a||^2 = t.t
    and the slope t.(t / (e + s)).
    The search starts from the bracket's upper end, or warm: memo maps a
    call site's name to the multiplier mu = s - min d (a = -g / (d + mu))
    of its last solve, and a memo[site] whose s = mu + min d lies strictly
    inside this bracket is the start.  Either way the search ends on the
    same root to a few ulps; a solve with a memo records its mu there.  The
    first step from the upper end can land below the bracket; near the hard
    case (a tiny border entry at min d) the root may then lie decades under
    the upper end, where u's bisection is geometric.
    Hard case: g = 0 wherever e = 0 and ||g / e|| <= sqrt(n) over the rest;
    then s = 0 and the remaining norm goes, real and positive, to the
    lowest index with e = 0; the memo is left as it is.  No point evaluated
    divides by zero.
    """
    d_min = float(d.min())
    e = d - d_min
    hard, a = _hard_case(e, g, n)
    if hard:
        return a

    g_abs = np.abs(g)
    root_n = math.sqrt(n)

    def newton(u):
        gap = e - u
        t = g_abs / gap
        s2 = float(t.dot(t))  # ||a||^2
        nrm = math.sqrt(s2)
        slope = float(t.dot(t / gap))  # -d(s2)/ds / 2
        # -(s - psi / psi') with psi' = slope / s2^(3/2)
        return nrm >= root_n, u + s2 * (1.0 - nrm / root_n) / slope

    lo = max(0.0, float((g_abs / root_n - e).max()))
    hi = math.sqrt(g_abs.dot(g_abs)) / root_n
    start = math.nan if memo is None else memo.get(site, math.nan) + d_min
    u = _secular_root(newton, -hi, -lo, -start if lo < start < hi else -hi)
    if memo is not None:
        memo[site] = -u - d_min
    return -g / (e - u)


def _inner_value(a: np.ndarray, d: np.ndarray, g: np.ndarray) -> float:
    """f(a) = sum d |a|^2 + 2 Re(g^H a) = (a;1)^H Q (a;1), Q the arrow of (d, g)."""
    return float(np.real(np.vdot(a, d * a) + 2.0 * np.vdot(g, a)))


def _support_known(a: np.ndarray, d: np.ndarray, g: np.ndarray, k: int) -> bool:
    """Whether the full-sphere minimizer's K largest entries are a's own
    support, known without solving: g vanishes exactly where a does, a has
    at most K nonzeros, and the minimizer is not the hard case's.  Then it
    is -g / (e + s) with s > 0, nonzero exactly where g is.  On the
    compressed decentralized model g_k is proportional to a_k, so every
    select:K energy step there takes this path.
    """
    support = a != 0
    return (np.count_nonzero(support) <= k and np.array_equal(g != 0, support)
            and not _hard_case(d - d.min(), g, len(a))[0])


def _support_step(a: np.ndarray, d: np.ndarray, g: np.ndarray, constraint: ConstraintSpec,
                  memo: dict | None = None):
    """Exact select:K energy step from a: _sphere_minimizer on each of two
    supports, zero elsewhere; returns the one with the lower _inner_value,
    or None when that is a itself.  Each of the three solves (sites "full",
    "own" and "top") warm-starts from its own entry of memo, if given.

    The supports are a's own and the K largest entries of the full-sphere
    minimizer (the nonzeros of its projection, so project's tie rule
    holds); the second is skipped when it repeats the first (found without
    the full solve where _support_known holds) or when every point of the
    sphere is optimal.  A support on which every point is optimal keeps the
    point it came from, and a's support wins ties.
    """
    n = len(a)
    starts = [(a, "own")]
    full = (None if _support_known(a, d, g, constraint.k_active)
            else _sphere_minimizer(d, g, n, memo, "full"))
    if full is not None:
        top = project(full, constraint)
        if not np.array_equal(top != 0, a != 0):
            starts.append((top, "top"))
    best, best_f = None, math.inf
    for start, site in starts:
        support = start != 0
        part = _sphere_minimizer(d[support], g[support], n, memo, site)
        if part is None:
            x = start
        else:
            x = np.zeros(n, dtype=complex)
            x[support] = part
        f = _inner_value(x, d, g)
        if f < best_f:
            best, best_f = x, f
    return None if best is a else best


def _exact_family(constraint: ConstraintSpec) -> bool:
    """Whether the family takes one exact inner step (energy, select:K
    energy) rather than power-method-like steps."""
    return constraint.kind == "energy" or (constraint.kind == "select"
                                           and constraint.select_mode == "energy")


def inner_power_iterations(a0: np.ndarray, d: np.ndarray, g: np.ndarray,
                           constraint: ConstraintSpec, max_iters: int, memo: dict | None = None):
    """The gain step of one outer cycle on the arrow Q of (d, g).

    Returns (a, objectives) where objectives holds -f(a) (_inner_value) at
    the start and after every accepted step.

    energy and select:K energy: one exact step (max_iters is not read), the
    global minimizer of f on ||a||^2 = N from _sphere_minimizer, or under
    select:K energy _support_step's better of two supports, the current
    one's never worse than a0.  Where a stays, one value is listed (a0
    itself, not a copy).  memo, if given, holds the multipliers the exact
    solves warm-start from and record (_sphere_minimizer); the power steps
    do not read it.

    phase, quant, select:K:phase: up to max_iters power-method-like steps
    a <- project((lambda - d) o a - g), lambda = shift_quadratic(d, g):
    the image is (I_N 0) Q~ (a;1) with Q~ = lambda I - Q positive definite,
    so a step costs O(N) plus the projection and raises
    (a;1)^H Q~ (a;1) = lambda (1 + ||a||^2) - f(a), which lowers f where
    ||a|| stays.  Stops early once a step moves a by at most INNER_STOP.
    """
    if _exact_family(constraint):
        a = np.asarray(a0, dtype=complex)
        objs = [-_inner_value(a, d, g)]
        best = (_support_step(a, d, g, constraint, memo) if constraint.kind == "select"
                else _sphere_minimizer(d, g, len(a), memo))
        if best is not None:
            a = best
            objs.append(-_inner_value(a, d, g))
        return a, objs
    a = np.asarray(a0, dtype=complex).copy()
    objs = [-_inner_value(a, d, g)]
    w = shift_quadratic(d, g) - d
    for _ in range(max_iters):
        a_new = project(w * a - g, constraint)
        if _norm(a_new - a) <= INNER_STOP:
            break
        a = a_new
        objs.append(-_inner_value(a, d, g))
    return a, objs


def _nondecreasing(seq) -> bool:
    for prev, cur in zip(seq, seq[1:]):
        if cur < prev - DESCENT_RTOL * max(1.0, abs(prev)):
            return False
    return True


def _ascent_settled(gain: float, last: float, tol: float) -> bool:
    """Whether an ascent stops after a step that gained ``gain`` following
    one that gained ``last`` (0.0 before the first step).

    The step must gain at most tol, and the gains' geometric decay must
    promise at most tol more: Aitken's remaining gain gain r / (1 - r),
    r = gain / last, is at most tol, i.e. gain^2 <= tol (last - gain).
    Gains that do not shrink (a slow crawl past a saddle) keep it going;
    a gain <= 0 (nothing left to gain in floating point) stops it.
    """
    return gain <= tol and (gain <= 0.0 or gain * gain <= tol * (last - gain))


def _cyclic_run(model_at, a0, constraint, config) -> tuple[OptimizerTrace, GlobalModel]:
    """One full cyclic maximization from a0; returns its trace and the model
    its variance is reported on, the run's last model_at result.

    Each outer cycle runs on model_at(a, m), m the previous cycle's model
    (None at the first); a model other than m itself starts a segment and
    restarts the convergence test.  The cycle takes the exact auxiliary vector
    first, so the info trace is anchored at info(a0) and rises monotonically
    within a segment (a new model may lower it): info(a), the weights w =
    R_w^{-1} H a and the (H a, R_w) they solve come from one
    _information_and_weights call (read through this module at call time), and
    y = [1; -w] minimizes the lift's y^H R y without a lift or Gram-Schmidt,
    in O(N) on a compressed model and one M x M solve on a dense one.  Each
    cycle checks w by ||R_w w - H a|| / ||H a|| on those terms
    (stationarity_residual is the largest).  The gain update then builds the
    arrow (d, g) of y's tail -w and runs the inner step on it once; the
    exact step's solves warm-start from the multipliers the run's memo kept
    from the cycle before, one per call site (inner_power_iterations).
    Every step lowers f(a) in exact arithmetic, so a falling -f(a) means
    lost precision and raises NoDescent.  energy and select:K energy stop once
    |info_k - info_{k+1}| <= outer_tol; the power-step families (quant,
    select:K:phase) can crawl past a saddle with gains below outer_tol that do
    not shrink, so they stop on _ascent_settled, as the phase ascent does.  A
    run stopped by its budget calls model_at once more and reports the
    variance on its last gains' model.
    """
    a = np.asarray(a0, dtype=complex).copy()
    m = None
    infos: list[float] = []
    inner_runs: list[tuple[float, ...]] = []
    breaks: list[int] = []
    prev, gain = None, 0.0
    exact = _exact_family(constraint)
    memo = {}  # the exact solves' multipliers, by call site
    stat_resid = 0.0
    converged = False
    for k in range(config.max_outer):
        m_new = model_at(a, m)
        if m is not None and m_new is not m:
            prev, gain = None, 0.0
            breaks.append(k)
        m = m_new
        info, w, ha, r_w = _information_and_weights(m, a)
        res = r_w * w - ha if r_w.ndim == 1 else r_w @ w - ha
        stat_resid = max(stat_resid, _norm(res) / max(_norm(ha), INFO_FLOOR))
        infos.append(info)
        if prev is not None:
            if info < prev - DESCENT_RTOL * abs(prev):
                raise NoDescent(f"information fell from {prev} to {info}")
            gain, last = info - prev, gain
            if (abs(gain) <= config.outer_tol if exact
                    else _ascent_settled(gain, last, config.outer_tol)):
                converged = True
                break
        prev = info
        d, g = build_inner_quadratic(-w, m)  # the tail of y = [1; -w]
        a_new, objs = inner_power_iterations(a, d, g, constraint, INNER_ITERS, memo)
        # filling a select:K:phase start's support may raise f; the info check guards it
        filled = not exact and np.count_nonzero(a_new) > np.count_nonzero(a)
        if not _nondecreasing(objs[int(filled):]):
            raise NoDescent("inner objective -f(a) decreased")
        inner_runs.append(tuple(objs))
        a = a_new
    else:
        m = model_at(a, m)
    trace = OptimizerTrace(tuple(infos), tuple(inner_runs), GainVector(a, constraint),
                           global_variance(m, a), wall_time_s=0.0, segment_breaks=tuple(breaks),
                           stationarity_residual=stat_resid, converged=converged)
    return trace, m


def _rotation_rounding(model: GlobalModel, relaxed: np.ndarray,
                       constraint: ConstraintSpec) -> np.ndarray:
    """The best grid rounding of e^{j psi} relaxed over every global phase psi.

    a^H B a ignores a global phase, so a phase-only optimum stands for a
    circle of them.  As psi sweeps [0, 2 pi / Q), sensor i's nearest grid
    phase steps up once, at its breakpoint (pi / Q - arg relaxed_i) mod
    2 pi / Q, so the N distinct roundings are project(relaxed) and that
    point with its first k sensors in breakpoint order one grid step up,
    k = 1..N-1.  H c moves by one column per step, so one cumulative sum
    gives every rounding's H c (M x N, no N x N matrix); each is scored by
    its information (H c)^H C^{-1} (H c), C the unit-modulus R_w
    (_unit_modulus_solve, as in uqp_matrix), and the first best wins, so
    project(relaxed) stays unless another one beats it.
    """
    q = constraint.q_levels
    width = 2.0 * np.pi / q
    angles = np.angle(relaxed)
    pick = _grid_pick(angles, q).astype(np.intp)
    base = _phase_grid(q)[pick]
    order = np.argsort(np.mod(np.pi / q - angles, width), kind="stable")[:-1]
    h = _dense_h(model)
    moves = h[:, order] * ((np.exp(1j * width) - 1.0) * base[order])
    hc = np.cumsum(np.column_stack((h @ base, moves)), axis=1)
    info = np.real(np.sum(hc.conj() * _unit_modulus_solve(model, hc), axis=0))
    pick[order[:int(np.argmax(info))]] += 1
    return _phase_grid(q)[np.mod(pick, q)]


def _restart_points(n, constraint, config, model):
    """Initialization schedule, drawn lazily: the deterministic start, then
    random feasible draws, config.restarts points in all.

    For quantized phases the second start is the solved phase-only
    relaxation rounded onto the grid at its best global phase
    (_rotation_rounding); rounding the continuous optimum reaches grid
    points that random draws and the frozen-phase iterations rarely find.
    Only that start reads the model, and _drive draws nothing past the first
    start where the compressed rule holds.
    """
    yield constraint.initial_point(n)
    r = 1
    if constraint.kind == "quant" and config.restarts > 1:
        relaxed, _ = optimize_phase_only_uqp(model, config)
        yield _rotation_rounding(model, relaxed.values, constraint)
        r = 2
    for r in range(r, config.restarts):
        yield constraint.random_point(n, np.random.default_rng((config.seed, r)))


def _drive(model, constraint, config, starts, t0):
    """Every design's start-and-run path: one run from each start, the best one kept.

    model is the design's fixed GlobalModel, or optimize_decentralized's
    hook model_at(a, m), which refreshes the plan per cycle (_cyclic_run).
    The compressed rule: under phase and quant:Q on a compressed model the
    information is sum_k c_k p_k / (c_k v_k p_k + sigma_n^2) with c_k = |h_k|^2
    and p_k = |a_k|^2, as is the plan's: equal magnitudes give one plan and
    one variance to the bit, so every unit-modulus gain vector has the same
    variance and the design is the first start, on the model the hook gives
    it, with no further start drawn.  Its trace has one info entry, no inner
    runs and ``converged`` True.  Otherwise phase runs the unimodular ascent
    (_uqp_ascent) on one uqp_matrix from each start, and every other family
    _cyclic_run.
    Returns (gains, trace, model) of the best run, lexicographic on
    (variance, start index): the trace carries that index and the wall time
    counted from t0, and the model is the one its variance is reported on.
    """
    model_at = model if callable(model) else lambda a, m: model
    starts = iter(starts)
    a0 = next(starts)
    m = model_at(a0, None) if constraint.kind in ("phase", "quant") else None
    if m is not None and m.row_gain is not None:
        variance = global_variance(m, a0)
        runs = [(OptimizerTrace((1.0 / variance,), (), GainVector(np.array(a0), constraint),
                                variance, wall_time_s=0.0, converged=True), m)]
    elif constraint.kind == "phase":
        b_mat = uqp_matrix(model)
        runs = [(_uqp_ascent(b_mat, a, config), model) for a in (a0, *starts)]
    else:
        runs = [_cyclic_run(model_at, a, constraint, config) for a in (a0, *starts)]
    best = min(range(len(runs)), key=lambda idx: (runs[idx][0].final_variance, idx))
    trace, m = runs[best]
    trace = replace(trace, restart_index=best, wall_time_s=time.perf_counter() - t0)
    return trace.final_gains, trace, m


def optimize(model: GlobalModel, constraint: ConstraintSpec,
             config: OptimizerConfig = OptimizerConfig()) -> tuple[GainVector, OptimizerTrace]:
    """Minimize estimation variance over the constrained gain vector.

    _drive over the restart points (_restart_points): the cycle for every
    family but phase, and on a compressed model under phase and quant:Q the
    feasible start (the compressed rule).  phase on a dense model is
    optimize_phase_only_uqp, reached through this module at call time.

    Parameters
    ----------
    model : GlobalModel
        Observation model, fixed for the whole design.
    constraint : ConstraintSpec
        Feasible set for the gains.
    config : OptimizerConfig
        Iteration budgets, stop tolerance, restarts, seed.

    Returns
    -------
    (GainVector, OptimizerTrace)
        Best gains over all restarts (lexicographic on (variance,
        restart index) for determinism) and the winning run's trace.

    Notes
    -----
    The variance at the returned gains never exceeds the variance at the
    deterministic starting point: the first outer cycle computes the
    auxiliary vector for a0 before any gain update, and every cycle (or
    phase ascent step) raises the information value.
    """
    t0 = time.perf_counter()
    if constraint.kind == "phase" and model.row_gain is None:
        return optimize_phase_only_uqp(model, config)
    starts = _restart_points(model.num_sensors, constraint, config, model)
    return _drive(model, constraint, config, starts, t0)[:2]


def refine(model: GlobalModel, a0, constraint: ConstraintSpec,
           config: OptimizerConfig = OptimizerConfig()) -> tuple[GainVector, OptimizerTrace]:
    """Single run on a fixed model from a caller-provided feasible start
    (warm start): _drive from that one start, so the cyclic design, or under
    phase the unimodular ascent on uqp_matrix(model), and on a compressed
    model under phase and quant:Q the start itself.

    Useful when one constraint family's solution is feasible for a looser one;
    monotone descent then guarantees the refined variance does not exceed the
    warm start's.  An infeasible start, or one not of length N, raises InvalidConfig.
    """
    t0 = time.perf_counter()
    a0 = _gain_values(a0, model.num_sensors)
    constraint.check(a0)
    return _drive(model, constraint, config, [a0], t0)[:2]


def optimize_decentralized(scenario: DecentralizedScenario, constraint: ConstraintSpec,
                           config: OptimizerConfig = OptimizerConfig(),
                           refresh_plan: bool = True):
    """Gain design over a decentralized scenario.

    The compressed model depends on the gains through the carrier
    assignment.  By default _drive runs the cycle on the hook
    decentralized_model(scenario, a, m), which refreshes it once per cycle
    and returns the previous cycle's model m itself, and so starts no
    segment, while the carriers hold; under phase and quant:Q the hook's
    model for the start is the design's (the compressed rule).
    refresh_plan=False fixes the start's model for every run.  Returns
    (gains, trace, plan): the plan of the model the winning run reports its
    variance on, its last refresh or the frozen one.
    """
    t0 = time.perf_counter()
    n = scenario.num_sensors
    if refresh_plan:
        model = lambda a, m: decentralized_model(scenario, a, m)[0]
    else:
        model = decentralized_model(scenario, constraint.initial_point(n))[0]
    starts = _restart_points(n, constraint, config, None)
    gains, trace, model = _drive(model, constraint, config, starts, t0)
    return gains, trace, model.plan


def _unit_modulus_solve(model: GlobalModel, rhs: np.ndarray) -> np.ndarray:
    """C^{-1} rhs for C = H V H^H + M, the combined covariance of every
    unit-modulus gain vector (V is diagonal and |a_i| = 1 makes D V D^H = V)."""
    return np.linalg.solve(combined_covariance(model, np.ones(model.num_sensors)), rhs)


def uqp_matrix(model: GlobalModel) -> np.ndarray:
    """Constant matrix of the phase-only program: B = H^H (H V H^H + M)^{-1} H.

    Valid because the combined covariance no longer depends on unit-modulus
    gains (_unit_modulus_solve).  A compressed model, which holds no dense
    H, raises InvalidConfig.
    """
    h = _dense_h(model)
    return h.conj().T @ _unit_modulus_solve(model, h)


def uqp_step(b_mat: np.ndarray, image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One unimodular ascent step a <- e^{j arg(B a)}, from the image B a.

    The phase factor is _unit_phase(B a), the rule project(., phase) follows:
    an exact zero entry of B a gets phase 0 (a_i = 1).  Returns the new point
    and its image B a_new, which the objective and the next step both read.
    Non-decreasing in a^H B a for positive semidefinite B: the step
    maximizes Re(z^H B a) over unit-modulus z.
    """
    a_new = _unit_phase(image)
    return a_new, b_mat @ a_new


def _uqp_ascent(b_mat: np.ndarray, a: np.ndarray, config: OptimizerConfig) -> OptimizerTrace:
    """The unimodular ascent a <- e^{j arg(B a)} (uqp_step) from the unit-modulus
    a, with SQUAREM extrapolation (Varadhan & Roland, Scand. J. Statist. 2008).

    Each step's image B a gives the objective a^H B a as one vdot.  After
    _SQUAREM_WARMUP plain steps, the ascent takes two plain steps x0 -> x1
    -> x2 and then one extrapolation, over and over: with r = x1 - x0,
    v = x2 - 2 x1 + x0 and alpha = max(-||r|| / ||v||, _SQUAREM_FLOOR), an
    alpha < -1 proposes one step from e^{j arg(x0 - 2 alpha r + alpha^2 v)},
    kept when its a^H B a is at least x2's and dropped otherwise (the ascent
    goes on from x2).  The info trace holds the start, each plain step and
    each kept extrapolation, so it never falls; a dropped one is left out,
    so the run calls uqp_step len(trace) - 1 + extrapolations_rejected
    times, at most max_outer * INNER_ITERS.  Stops once a plain step gains
    at most config.outer_tol and the shrinking gains promise at most that
    much more (_ascent_settled on the gains of consecutive plain steps,
    skipping the extrapolations between them; ``converged`` True).  An end
    below INFO_FLOOR raises DegenerateGains.
    """
    image = b_mat @ a
    objs = [float(np.vdot(a, image).real)]
    left = config.max_outer * INNER_ITERS  # uqp_step calls left; max_outer >= 1
    gain, plain, accepted, rejected = 0.0, 0, 0, 0
    x0 = x1 = a
    while left:
        x0, x1 = x1, a
        a, image = uqp_step(b_mat, image)
        left, plain = left - 1, plain + 1
        objs.append(float(np.vdot(a, image).real))
        gain, last = objs[-1] - objs[-2], gain
        converged = _ascent_settled(gain, last, config.outer_tol)
        if converged or not left:
            break
        if plain <= _SQUAREM_WARMUP or (plain - _SQUAREM_WARMUP) % 2:
            continue
        r, v = x1 - x0, a - 2.0 * x1 + x0
        nv = _norm(v)
        alpha = max(-_norm(r) / nv, _SQUAREM_FLOOR) if nv else _SQUAREM_FLOOR
        if alpha >= -1.0:
            continue
        x = _unit_phase(x0 - 2.0 * alpha * r + alpha * alpha * v)
        x, x_image = uqp_step(b_mat, b_mat @ x)
        left -= 1
        obj = float(np.vdot(x, x_image).real)
        if obj >= objs[-1]:
            a, image = x, x_image
            objs.append(obj)
            accepted += 1
        else:
            rejected += 1
    if objs[-1] < INFO_FLOOR:
        raise DegenerateGains("effective gains carry no information")
    return OptimizerTrace(tuple(objs), (tuple(objs),), GainVector(a, ConstraintSpec.phase_only()),
                          1.0 / objs[-1], wall_time_s=0.0, converged=converged,
                          extrapolations_accepted=accepted, extrapolations_rejected=rejected)


def optimize_phase_only_uqp(model: GlobalModel,
                            config: OptimizerConfig = OptimizerConfig()
                            ) -> tuple[GainVector, OptimizerTrace]:
    """Phase-only design via the unimodular quadratic program, the design
    optimize runs under phase on a dense model: _drive's ascent (_uqp_ascent,
    plain steps with SQUAREM extrapolations, on one uqp_matrix) from each
    restart point.  The winning run's trace counts its kept and dropped
    extrapolations.  A compressed model, which holds no B, raises
    InvalidConfig.
    """
    t0 = time.perf_counter()
    _dense_h(model)  # a compressed model raises InvalidConfig here
    starts = _restart_points(model.num_sensors, ConstraintSpec.phase_only(), config, model)
    return _drive(model, ConstraintSpec.phase_only(), config, starts, t0)[:2]
