"""Independent reference implementations used to freeze expected values.

Nothing here imports the optimizer's internals; every routine is a direct,
slow transcription of the underlying math so the package under test and
the oracle can only agree by both being right.
"""

import itertools

import numpy as np

from wsngain import DisconnectedGraph, GenerationFailed, InvalidConfig, build_topology
from wsngain.diffusion import _product, link_terms
from wsngain.netgraph import DEFAULT_RETRIES


def sphere_quadratic_max(q_tilde, n, restarts=24, iters=5000, seed=0):
    """Best value of (a;1)^H Q (a;1) over ||a||^2 = n by projected gradient.

    Many random restarts, small safeguarded step; returns the best
    objective found.  Used as the reference for the inner subproblem under
    the fixed-energy constraint.
    """
    a_mat = np.asarray(q_tilde)[:n, :n]
    b = np.asarray(q_tilde)[:n, n]
    c = float(np.real(q_tilde[n, n]))
    step = 1.0 / (np.linalg.norm(a_mat, 2) + np.linalg.norm(b) + 1.0)
    rng = np.random.default_rng(seed)

    def value(a):
        return float(np.real(a.conj() @ (a_mat @ a) + 2.0 * np.real(b.conj() @ a))) + c

    best = -np.inf
    for r in range(restarts):
        if r == 0:
            a = np.ones(n, dtype=complex)
        else:
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = g
        a = np.sqrt(n) * a / np.linalg.norm(a)
        for _ in range(iters):
            grad = a_mat @ a + b
            a_new = a + step * grad
            a_new = np.sqrt(n) * a_new / np.linalg.norm(a_new)
            if np.linalg.norm(a_new - a) < 1e-14:
                a = a_new
                break
            a = a_new
        best = max(best, value(a))
    return best


def arrow_matrix(d, g):
    """The dense (N+1)^2 arrow matrix [[diag(d), g], [g^H, 0]]."""
    n = len(d)
    q = np.zeros((n + 1, n + 1), dtype=complex)
    q[:n, :n] = np.diag(d)
    q[:n, n] = g
    q[n, :n] = np.conj(g)
    return q


def shift_bisection(d, g, margin=1.05):
    """margin times the top eigenvalue of the arrow matrix of (d, g) by
    plain bisection of its secular equation lambda = sum |g_i|^2 /
    (lambda - d_i) on [max(max d, ||g||), max d + ||g||], halving to
    adjacent floats (about 55 O(N) steps); the upper end is kept, so the
    result is the smallest float reached whose secular function is >= 0.
    Q = 0 gives the optimizer's floor of 1e-12."""
    g2 = np.abs(g) ** 2
    d_max = float(d.max())
    g_norm = float(np.sqrt(g2.sum()))
    lo, hi = max(d_max, g_norm), d_max + g_norm
    if hi == 0.0:
        return 1e-12
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid - np.sum(g2 / (mid - d)) >= 0.0:
            hi = mid
        else:
            lo = mid
    return margin * hi


def sphere_minimizer_bisection(d, g, n):
    """Global minimizer of sum d_i |a_i|^2 + 2 Re(g^H a) over ||a||^2 = n.

    a = -g / (e + s) with e = d - min d and s > 0 (mu = min d - s) the root
    of sum |g_i|^2 / (e_i + s)^2 = n, by plain bisection of s on
    [0, ||g|| / sqrt(n)], halving to adjacent floats; the upper end, where
    the norm is at most sqrt(n), is kept.  Bisecting s rather than mu
    resolves a root far below the spacing of floats near min d, as near the
    hard case.  Hard case: g = 0 wherever d = min d and the other entries
    reach at most norm sqrt(n) at s = 0; then s = 0 and the remaining norm
    goes, real and positive, to the first index with d = min d."""
    d = np.asarray(d, dtype=float)
    g = np.asarray(g, dtype=complex)
    e = d - float(d.min())
    at_min = e == 0.0
    if not np.any(g[at_min]):
        a = np.zeros(len(d), dtype=complex)
        a[~at_min] = -g[~at_min] / e[~at_min]
        rest = n - float(np.sum(np.abs(a) ** 2))
        if rest >= 0.0:
            a[np.flatnonzero(at_min)[0]] = np.sqrt(rest)
            return a
    lo, hi = 0.0, np.linalg.norm(g) / np.sqrt(n)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.sum(np.abs(g) ** 2 / (e + mid) ** 2) <= n:
            hi = mid
        else:
            lo = mid
    return -g / (e + hi)


def inner_power_iterations_dense(a0, q_tilde, project, max_iters, stop_tol=1e-10):
    """Power-method-like ascent a <- project((I_N 0) Q~ (a;1)) with the
    lifted point and the dense matvec written out; ``project`` maps an image
    to the feasible set.  Returns (a, lifted): the lifted points (a;1) at
    the start and after every accepted step, one per optimizer objective."""
    n = len(a0)
    a = np.asarray(a0, dtype=complex).copy()
    z = np.concatenate([a, [1.0 + 0.0j]])
    lifted = [z]
    for _ in range(max_iters):
        image = (q_tilde @ z)[:n]
        a_new = project(image)
        if np.linalg.norm(a_new - a) <= stop_tol:
            break
        a = a_new
        z = np.concatenate([a, [1.0 + 0.0j]])
        lifted.append(z)
    return a, lifted


def quantize_phases_floor(angles, q_levels):
    """Nearest grid phase 2 pi q / Q by floor and remainder, with each
    exact midpoint sent to the smaller of its two grid indices mod Q."""
    ang = np.mod(angles, 2.0 * np.pi)
    frac = ang * q_levels / (2.0 * np.pi)
    lo = np.floor(frac)
    rem = frac - lo
    pick = np.where(rem < 0.5, lo, lo + 1)
    tie = rem == 0.5
    if np.any(tie):
        low = np.mod(lo, q_levels)
        high = np.mod(lo + 1, q_levels)
        pick = np.where(tie, np.minimum(low, high), pick)
    return 2.0 * np.pi * np.mod(pick, q_levels) / q_levels


def exhaustive_quantized_product(b_mat, q_levels):
    """Best a over all Q^N grid phase assignments, scored as a^H B a in one
    pass in ``itertools.product`` order; the first maximum wins.  Returns
    (a, 1 / a^H B a)."""
    n = b_mat.shape[0]
    grid = np.exp(2j * np.pi * np.arange(q_levels) / q_levels)
    cand = grid[np.array(list(itertools.product(range(q_levels), repeat=n)))]
    objs = np.real(np.einsum("bi,ij,bj->b", cand.conj(), b_mat, cand))
    k = int(np.argmax(objs))
    return cand[k], 1.0 / float(objs[k])


def unit_phase_plain(z):
    """e^{j arg z} from the angle, with the optimizer's zero rule: an exact
    zero, whatever its signs of zero, gets phase 0 (np.angle of -0.0 + 0j
    is pi)."""
    return np.where(z == 0, 1.0 + 0j, np.exp(1j * np.angle(z)))


def project_sorted(a_hat, constraint):
    """Nearest feasible point written the plain way: a full stable ranking
    of the magnitudes, ``np.linalg.norm`` and a complex scale, each unit
    phase from its angle (unit_phase_plain) and each grid phase rounded and
    exponentiated entry by entry.  A zero input gives the optimizer's
    deterministic point, without its warning."""
    a = np.asarray(a_hat, dtype=complex)
    n = len(a)
    if constraint.kind == "energy":
        nrm = np.linalg.norm(a)
        return np.ones(n, dtype=complex) if nrm == 0.0 else np.sqrt(n) * a / nrm
    if constraint.kind == "phase":
        return unit_phase_plain(a)
    if constraint.kind == "quant":
        q = constraint.q_levels
        out = np.empty(n, dtype=complex)
        for i, phase in enumerate(np.mod(np.angle(a), 2.0 * np.pi)):
            frac = phase * q / (2.0 * np.pi)
            lo = np.floor(frac)
            rem = frac - lo
            if rem == 0.5:  # a midpoint goes to the smaller grid phase
                pick = min(lo % q, (lo + 1) % q)
            else:
                pick = lo if rem < 0.5 else lo + 1
            out[i] = np.exp(1j * (2.0 * np.pi * (pick % q) / q))
        return out
    k = constraint.k_active
    order = np.argsort(-np.abs(a), kind="stable")  # descending magnitude, low index first
    out = np.zeros(n, dtype=complex)
    if constraint.select_mode == "energy":
        out[order[:k]] = a[order[:k]]
        nrm = np.linalg.norm(out)
        if nrm == 0.0:
            out[:k] = np.sqrt(n / k)
            return out
        return np.sqrt(n) * out / nrm
    out[order[:k]] = np.sqrt(n / k) * unit_phase_plain(a[order[:k]])
    return out


def gen_channel_coefficient(rng, distance, path_loss_exp):
    """One channel draw e^{j gamma} / d^alpha with gamma ~ Uniform[0, 2pi)."""
    gamma = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.exp(1j * gamma) / distance**path_loss_exp)


def link_gains(scenario):
    """The scenario's link gains as a dict keyed by (rx, tx), values Python
    complex, in the order of :meth:`Topology.directed_links`."""
    sinks, parents = scenario.topology.directed_links()
    return dict(zip(zip(sinks.tolist(), parents.tolist()), scenario.gain_by_link.tolist()))


def decentralized_link_gains(topology, noise, seed):
    """Link gains and sensor noise variances drawn one link at a time:
    sorted edge order, (i, j) before (j, i), a scalar distance draw and
    then one :func:`gen_channel_coefficient` per link."""
    rng = np.random.default_rng(seed)
    link_gain = {}
    for i, j in topology.edges:
        for rx, tx in ((i, j), (j, i)):
            d = rng.uniform(noise.d_range[0], noise.d_range[1])
            link_gain[(rx, tx)] = gen_channel_coefficient(rng, d, noise.path_loss_exp)
    v = rng.uniform(noise.v_range[0], noise.v_range[1], topology.num_nodes)
    return link_gain, v


def best_quant_distance(a_hat, q_levels):
    """Min over the full Q^N grid of ||cand - a_hat|| (dense enumeration)."""
    n = len(a_hat)
    grid = np.exp(2j * np.pi * np.arange(q_levels) / q_levels)
    best = np.inf
    for combo in itertools.product(range(q_levels), repeat=n):
        cand = grid[list(combo)]
        best = min(best, float(np.linalg.norm(cand - a_hat)))
    return best


def best_select_distance(a_hat, k, mode):
    """Min distance to the K-sparse feasible set by subset enumeration.

    Per support the minimizer has a closed form: rescale the kept entries
    to energy N (mode "energy") or place constant-modulus sqrt(N/K) phases
    on them (mode "phase").
    """
    a_hat = np.asarray(a_hat, dtype=complex)
    n = len(a_hat)
    best = np.inf
    for support in itertools.combinations(range(n), k):
        s = list(support)
        cand = np.zeros(n, dtype=complex)
        if mode == "energy":
            nrm = np.linalg.norm(a_hat[s])
            if nrm > 0:
                cand[s] = np.sqrt(n) * a_hat[s] / nrm
            else:
                cand[s] = np.sqrt(n / k)
        else:
            cand[s] = np.sqrt(n / k) * np.exp(1j * np.angle(a_hat[s]))
        best = min(best, float(np.linalg.norm(cand - a_hat)))
    return best


def admm_round(values, duals, x, neighbors, rho):
    """Literal per-node transcription of the consensus update equations."""
    n = len(values)
    new_values = np.array(values, dtype=values.dtype)
    for i in range(n):
        d = len(neighbors[i])
        acc = sum(values[j] for j in neighbors[i])
        new_values[i] = (rho * d * values[i] + rho * acc - duals[i] + x[i]) / (1.0 + 2.0 * rho * d)
    new_duals = np.array(duals, dtype=duals.dtype)
    for i in range(n):
        d = len(neighbors[i])
        acc = sum(new_values[j] for j in neighbors[i])
        new_duals[i] = duals[i] + rho * (d * new_values[i] - acc)
    return new_values, new_duals


def admm_round_two_sums(values, duals, x, parents, starts, deg, rho):
    """One synchronous ADMM consensus round in its two-sum form.

    y_i <- (rho d_i y_i + rho sum_{j in S^i} y_j - lambda_i + x_i) / (1 + 2 rho d_i)
    lambda_i <- lambda_i + rho (d_i y_i_new - sum_{j in S^i} y_j_new)

    The primal update sums the old values over each sink's links and the
    dual update sums the new ones afresh.  ``parents`` holds the 0-based
    parent of every link, sink-major, and ``starts`` each sink's first link.
    """
    neighbor_sum = np.add.reduceat(values[parents], starts)
    new_values = (rho * deg * values + rho * neighbor_sum - duals + x) / (1.0 + 2.0 * rho * deg)
    new_duals = duals + rho * (deg * new_values - np.add.reduceat(new_values[parents], starts))
    return new_values, new_duals


def consensus_two_sums(i0, p0, parents, starts, deg, rho, max_iter, tol, stop_mode, guard):
    """Consensus over :func:`admm_round_two_sums` with a guarded ratio.

    Round k's estimate at node i is P_i(k) / I_i(k) where |I_i(k)| > guard
    sum I(0) / N (the guard is relative to the mean information), else the
    previous estimate (zero at first).  The run stops when the
    largest deviation of the estimates, from theta_ML = sum P / sum I
    ("analytic") or from the previous round ("trailing", from round 1 on),
    is within tol |theta_ML|.  Returns (rounds, trace, residual, converged),
    with residual inf when no round was compared.
    """
    total_info = float(np.sum(i0))
    theta_ml = complex(np.sum(p0) / total_info)
    guard = guard * total_info / len(i0)
    limit = tol * max(abs(theta_ml), 1e-300)
    i_vals, i_duals = i0.astype(float).copy(), np.zeros(len(i0))
    p_vals, p_duals = p0.astype(complex).copy(), np.zeros(len(p0), dtype=complex)
    estimates = np.zeros(len(i0), dtype=complex)
    trace = []
    residual = np.inf
    for k in range(max_iter + 1):
        previous = estimates
        ok = np.abs(i_vals) > guard
        estimates = np.where(ok, np.divide(p_vals, np.where(ok, i_vals, 1.0)), estimates)
        trace.append(estimates.copy())
        if stop_mode == "analytic":
            residual = np.max(np.abs(estimates - theta_ml))
        elif k > 0:
            residual = np.max(np.abs(estimates - previous))
        if residual <= limit:
            return k, trace, float(residual), True
        if k == max_iter:
            break
        i_vals, i_duals = admm_round_two_sums(i_vals, i_duals, i0, parents, starts, deg, rho)
        p_vals, p_duals = admm_round_two_sums(p_vals, p_duals, p0, parents, starts, deg, rho)
    return max_iter, trace, float(residual), False


def consensus_per_round(topology, i0, p0, max_iter, tol, rho, record_trace, stop_mode, guard):
    """The one-state scaled-dual ADMM consensus that reads its stop rule
    after every round: the reference ``run_consensus``'s block-wise stop
    test must match bit for bit.

    Takes the initial streams and the guard relative to the mean information
    (as ``run_consensus`` reads ``CONSENSUS_GUARD``), and returns (rounds,
    residual, converged, trace), with trace None unless record_trace.
    """
    total_info = float(np.sum(i0))
    theta_ml = complex(np.sum(p0) / total_info)
    guard = guard * total_info / len(i0)

    parents = (topology.directed_links()[1] + np.array([[-1], [len(i0) - 1]])).ravel()
    degrees = np.tile(topology.degrees(), 2)
    starts = np.cumsum(degrees) - degrees
    deg = degrees.astype(complex)
    step = rho / (1.0 + 2.0 * rho * deg)
    values = np.concatenate((i0, p0))
    scaled_duals, deg_values = values / rho, deg * values
    neighbor_sum = np.add.reduceat(values[parents], starts)
    info, state_info = np.split(values, 2)  # views of the state

    estimates = np.zeros_like(p0)
    trace = []
    limit = tol * max(abs(theta_ml), 1e-300)
    residual = np.inf
    for k in range(max_iter + 1):
        previous = estimates
        estimates = (state_info / info if info.real.min() > guard else np.divide(
            state_info, info, out=previous.copy(), where=np.abs(info) > guard))
        if record_trace:
            trace.append(estimates)
        if stop_mode == "analytic":
            residual = float(np.abs(estimates - theta_ml).max())
        elif k > 0:
            residual = float(np.abs(estimates - previous).max())
        if residual <= limit or k == max_iter:
            break
        np.multiply(deg_values + neighbor_sum + scaled_duals, step, out=values)
        np.add.reduceat(values[parents], starts, out=neighbor_sum)
        np.multiply(deg, values, out=deg_values)
        scaled_duals -= deg_values - neighbor_sum
    return k, residual, residual <= limit, tuple(trace) if record_trace else None


def received_by_sink_split(plan, stacked):
    """Per-sink rows of a stacked observation vector by ``np.split``, one
    entry per sink (empty where a sink retains no row)."""
    counts = np.bincount(plan.carrier, minlength=len(plan.carrier) + 1)[1:]
    return dict(enumerate(np.split(np.asarray(stacked, dtype=complex), np.cumsum(counts))[:-1],
                          start=1))


def initial_streams_per_sink(scenario, gains, plan, received_per_node):
    """(I(0), P(0)) with each sink's sample count checked and its samples
    converted one sink at a time, then concatenated in sink order."""
    n = scenario.topology.num_nodes
    sinks, _, links = plan.links(scenario.topology)
    samples = []
    counts = np.bincount(plan.carrier, minlength=len(plan.carrier) + 1)[1:]
    for sink, count in enumerate(counts, start=1):
        y = np.asarray(received_per_node.get(sink, ()), dtype=complex)
        if len(y) != count:
            raise InvalidConfig(f"sink {sink} expects {count} retained samples")
        samples.append(y)
    ha, denom, terms = link_terms(scenario, gains, links)
    i0 = np.bincount(sinks - 1, weights=terms, minlength=n)
    p0 = np.zeros(n, dtype=complex)
    np.add.at(p0, sinks - 1, _product(ha.conj(), np.concatenate(samples)) / denom)
    return i0, p0


def uqp_ascent_two_matvecs(b_mat, a, max_iters, stop_tol):
    """Unimodular ascent a <- e^{j arg(B a)} forming B a twice per step.

    One product drives the step, taken as B a / |B a| (phase 0 where B a
    is exactly zero), and a second, of the same point, gives the objective
    a^H B a as one vdot.  Stops after max_iters steps, or once a step gains
    g <= stop_tol following a gain g' (0 before the first step) with g <= 0
    or with Aitken's remaining gain g^2 / (g' - g) at most stop_tol, written
    g^2 <= stop_tol (g' - g).  Returns (a, objectives, converged).
    """
    objs = [float(np.vdot(a, b_mat @ a).real)]
    gains = [0.0]
    settled = False
    for _ in range(max_iters):
        image = b_mat @ np.asarray(a, dtype=complex)
        mag = np.abs(image)
        a = np.where(mag == 0.0, 1.0, image / np.where(mag == 0.0, 1.0, mag))
        objs.append(float(np.vdot(a, b_mat @ a).real))
        gains.append(objs[-1] - objs[-2])
        g, g_prev = gains[-1], gains[-2]
        settled = g <= stop_tol and (g <= 0.0 or g * g <= stop_tol * (g_prev - g))
        if settled:
            break
    return a, objs, settled


def uqp_squarem_two_matvecs(b_mat, a, max_iters, stop_tol, warmup=10, floor=-4.0):
    """The unimodular ascent of uqp_ascent_two_matvecs with SQUAREM
    extrapolation (Varadhan & Roland 2008), forming B a twice per step.

    After ``warmup`` plain steps T(x) = B x / |B x|, the steps come in
    rounds: two plain steps x0 -> x1 -> x2, then a proposal.  With
    r = x1 - x0, v = x2 - 2 x1 + x0 and alpha = max(-||r|| / ||v||, floor)
    (floor when v = 0), an alpha < -1 proposes T(x0 - 2 alpha r + alpha^2 v
    taken to the unit circle), kept when its a^H B a is at least x2's; the
    next round starts where the ascent stands.  Stops after max_iters steps
    of either kind, or on the stop rule of uqp_ascent_two_matvecs applied to
    each plain step's gain (from the point it started at) and the previous
    plain step's gain, skipping the proposals between them.  Returns
    (a, objectives, settled, kinds): kinds holds one letter per step, "p"
    plain, "a" a kept and "r" a dropped proposal; the objectives list the
    start and every step but the dropped ones.
    """
    def unit(x):
        mag = np.abs(x)
        return np.where(mag == 0.0, 1.0, x / np.where(mag == 0.0, 1.0, mag))

    def objective(x):
        return float(np.vdot(x, b_mat @ x).real)

    a = np.asarray(a, dtype=complex)
    objs, kinds, rounds = [objective(a)], [], [a]
    g, settled = 0.0, False
    while len(kinds) < max_iters:
        a = unit(b_mat @ a)
        kinds.append("p")
        objs.append(objective(a))
        g, g_prev = objs[-1] - objs[-2], g
        settled = g <= stop_tol and (g <= 0.0 or g * g <= stop_tol * (g_prev - g))
        if settled:
            break
        rounds = [a] if kinds.count("p") <= warmup else rounds + [a]
        if len(rounds) < 3 or len(kinds) == max_iters:
            continue
        x0, x1, x2 = rounds
        rounds = [x2]
        r, v = x1 - x0, x2 - 2.0 * x1 + x0
        nv = float(np.linalg.norm(v))
        alpha = max(-float(np.linalg.norm(r)) / nv, floor) if nv > 0.0 else floor
        if not alpha < -1.0:
            continue
        proposal = unit(b_mat @ unit(x0 - 2.0 * alpha * r + alpha * alpha * v))
        value = objective(proposal)
        if value >= objs[-1]:
            kinds.append("a")
            objs.append(value)
            a, rounds = proposal, [proposal]
        else:
            kinds.append("r")
    return a, objs, settled, tuple(kinds)


def dense_covariance(h_global, a, sensor_noise_var, noise_var):
    """R_w = H D V D^H H^H + sigma_n^2 I, materialized with D = Diag(a) and
    V = Diag(sensor_noise_var)."""
    h = np.asarray(h_global, dtype=complex)
    d = np.diag(np.asarray(a, dtype=complex))
    v = np.diag(np.asarray(sensor_noise_var, dtype=float))
    return h @ d @ v @ d.conj().T @ h.conj().T + noise_var * np.eye(h.shape[0])


def dense_weights(h_global, a, sensor_noise_var, noise_var):
    """(a^H H^H R_w^{-1} H a, w = R_w^{-1} H a) with R_w materialized and a
    dense solve."""
    ha = np.asarray(h_global, dtype=complex) @ np.asarray(a, dtype=complex)
    w = np.linalg.solve(dense_covariance(h_global, a, sensor_noise_var, noise_var), ha)
    return float(np.real(ha.conj() @ w)), w


def dense_information(h_global, a, sensor_noise_var, noise_var):
    """a^H H^H R_w^{-1} H a with R_w materialized and inverted densely."""
    return dense_weights(h_global, a, sensor_noise_var, noise_var)[0]


def dense_h(model):
    """A compressed model's H as the dense scaled permutation it stands for:
    row r holds row_gain[r] in the column of sensor row_sensor[r] (0-based)
    and zeros elsewhere."""
    h = np.zeros((len(model.row_gain), len(model.sensor_noise_var)), dtype=complex)
    for r, (k, gain) in enumerate(zip(model.row_sensor, model.row_gain)):
        h[r, k] = gain
    return h


def link_observations(scenario, a, rng):
    """Literal per-link transcription of one decentralized network round.

    Each sensor k observes theta once (shared across all links it feeds);
    receiver noise is drawn per directed link in sorted edge order, (i, j)
    before (j, i), real part before imaginary.  Returns a dict keyed by
    (rx, tx).
    """
    a = np.asarray(a, dtype=complex)
    n = scenario.topology.num_nodes
    std_v = np.sqrt(np.asarray(scenario.sensor_noise_var, dtype=float) / 2.0)
    z = scenario.theta + std_v * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    std_n = np.sqrt(np.asarray(scenario.comm_noise_var, dtype=float) / 2.0)
    gains = link_gains(scenario)
    obs = {}
    for i, j in scenario.topology.edges:
        for rx, tx in ((i, j), (j, i)):
            noise = std_n * (rng.standard_normal(()) + 1j * rng.standard_normal(()))
            obs[(rx, tx)] = gains[(rx, tx)] * a[tx - 1] * z[tx - 1] + complex(noise)
    return obs


def carriers(neighbor_seq, info):
    """Each node's carrier by the literal rule: the first neighbour, in
    ascending order, with the highest information value."""
    return tuple(max(nbrs, key=lambda j: info[j - 1]) for nbrs in neighbor_seq)


def retained_rows(plan):
    """The literal inversion of the carrier map: for each sink, ascending,
    the parents whose carrier it is."""
    n = len(plan.carrier)
    return tuple(tuple(k for k, c in enumerate(plan.carrier, start=1) if c == sink)
                 for sink in range(1, n + 1))


def water_filling(scenario, carrier):
    """Smallest variance of an energy design (sum |a_k|^2 = N) with every
    sensor k heard only by its carrier, carrier[k - 1].

    On a frozen plan sensor k reaches one sink through h_k =
    h_{carrier(k),k}, so the information is sum_k c_k p_k / (c_k v_k p_k +
    s2) with p_k = |a_k|^2 and c_k = |h_k|^2: concave in p, and the phases
    drop out.  Its maximum under sum p = N is the water-filling
    p_k = max(0, (sqrt(c_k s2 / mu) - s2) / (c_k v_k)), mu by bisection
    (Cui, Xiao, Goldsmith, Luo & Poor, "Estimation diversity and energy
    efficiency in distributed sensing", IEEE TSP 2007).
    """
    n = scenario.topology.num_nodes
    gains = link_gains(scenario)
    c = np.array([abs(gains[(carrier[k], k + 1)]) ** 2 for k in range(n)])
    v = np.asarray(scenario.sensor_noise_var, dtype=float)
    s2 = float(scenario.comm_noise_var)

    def powers(mu):
        return np.maximum(0.0, (np.sqrt(c * s2 / mu) - s2) / (c * v))

    hi = float(c.max()) / s2  # every p_k is 0 from here up
    lo = hi / 2.0
    while powers(lo).sum() < n:
        lo /= 2.0
    while True:  # geometric bisection down to adjacent floats; sum p >= N at lo
        mid = float(np.sqrt(lo * hi))
        if not lo < mid < hi:
            break
        if powers(mid).sum() >= n:
            lo = mid
        else:
            hi = mid
    p = powers(lo)
    return 1.0 / float(np.sum(c * p / (c * v * p + s2)))


def solve_auxiliary_mgs(r):
    """The paper's auxiliary vector y = R^{-1} e_1 / (R^{-1} e_1)_1, read
    literally: orthonormalize the conjugated border rows 2..M+1 of R one
    vector at a time (modified Gram-Schmidt, each row swept twice over the
    basis), skip a row already in their span, and project e_1 onto the
    orthogonal complement.  A residual below 1e-12 ||R|| (near-singular
    lift) is replaced by a direct solve."""
    m1 = r.shape[0]
    basis = []
    for i in range(1, m1):
        u = r[i, :].conj().copy()
        for _ in range(2):
            for q in basis:
                u -= (q.conj() @ u) * q
        nrm = np.linalg.norm(u)
        if nrm > 0:
            basis.append(u / nrm)
    e1 = np.zeros(m1, dtype=complex)
    e1[0] = 1.0
    res = e1.copy()
    for q in basis:
        res -= (q.conj() @ e1) * q
    y = np.linalg.solve(r, e1) if np.linalg.norm(res) < 1e-12 * np.linalg.norm(r) else res
    return y / y[0]


def eta0_bound(model):
    """The paper's corner constant for the lift R: 1.1 N ||H||_F^2 / sigma_n^2,
    above every information value (1.1 is the paper's safety margin).  With
    it in R's corner R is positive definite and y^H R y = eta0 - info(a) at
    the auxiliary minimizer; the library leaves the corner at 0."""
    h = np.asarray(model.H)
    return 1.1 * h.shape[1] * float(np.sum(np.abs(h) ** 2)) / model.noise_var


def lift_constant(y_tail, model):
    """C1 = sigma_n^2 ||y_tail||^2: the part of y^H R y (corner 0) that does not
    depend on the gains, so that y^H R y = C1 + (a;1)^H Q (a;1)."""
    y_tail = np.asarray(y_tail, dtype=complex)
    return model.noise_var * float(np.sum(np.abs(y_tail) ** 2))


def single_antenna_optimum(h, sensor_noise_var, noise_var, kind, k_active=None, q_levels=None):
    """Exact optimal gains and variance for one receive antenna (M = 1).

    The information is |h^T a|^2 / (sum |h_i|^2 v_i |a_i|^2 + sigma^2).
    "energy" (||a||^2 = N): sigma^2 = sigma^2 ||a||^2 / N on the sphere, so
    the information is the Rayleigh quotient |h^T a|^2 / (a^H diag(delta) a)
    with delta_i = |h_i|^2 v_i + sigma^2 / N, largest at a ~ conj(h) / delta
    with value sum |h_i|^2 / delta_i.  "select" (at most k_active nonzeros,
    ||a||^2 = N): the same quotient on each support, whose best value
    sum_S |h_i|^2 / delta_i is separable, so the k_active largest scores
    |h_i|^2 / delta_i form the optimal support (ties to the lower index) and
    a ~ conj(h) / delta on it.  "phase" (|a_i| = 1): the denominator is
    fixed, and co-phasing a_i = conj(h_i) / |h_i| gives |h^T a| = sum |h_i|.
    "quant" (a_i on the q_levels-point phase grid): the denominator is fixed
    too.  At the optimum, with psi = arg(h^T a), each a_i must be the grid
    phase nearest psi - arg h_i (that maximizes each Re(e^{-j psi} h_i a_i),
    whose sum is |h^T a|), so sweeping the common phase psi finds it.  The
    nearest grid phases change only at the N Q breakpoints
    arg h_i + (2q + 1) pi / Q, so one psi inside each arc between
    consecutive breakpoints (its midpoint, which ties cannot reach) covers
    every candidate; the largest |h^T a| wins.
    Returns (gains, variance)."""
    h = np.asarray(h, dtype=complex).ravel()
    v = np.asarray(sensor_noise_var, dtype=float)
    n = len(h)
    if kind in ("energy", "select"):
        delta = np.abs(h) ** 2 * v + noise_var / n
        score = np.abs(h) ** 2 / delta
        keep = np.ones(n, dtype=bool)
        if kind == "select":
            keep[:] = False
            keep[np.argsort(-score, kind="stable")[:k_active]] = True
        a = np.where(keep, h.conj() / delta, 0.0)
        a *= np.sqrt(n) / np.linalg.norm(a)
        return a, 1.0 / float(np.sum(score[keep]))
    if kind == "phase":
        a = h.conj() / np.abs(h)
        info = float(np.sum(np.abs(h))) ** 2 / (float(np.sum(np.abs(h) ** 2 * v)) + noise_var)
        return a, 1.0 / info
    if kind == "quant":
        step = 2.0 * np.pi / q_levels
        arg_h = np.angle(h)
        cuts = np.sort(np.mod(arg_h[:, None] + (np.arange(q_levels) + 0.5) * step,
                              2.0 * np.pi).ravel())
        psi = 0.5 * (cuts + np.append(cuts[1:], cuts[0] + 2.0 * np.pi))
        cand = np.exp(1j * step * np.round((psi[:, None] - arg_h[None, :]) / step))
        a = cand[int(np.argmax(np.abs(cand @ h)))]
        info = float(np.abs(h @ a)) ** 2 / (float(np.sum(np.abs(h) ** 2 * v)) + noise_var)
        return a, 1.0 / info
    raise ValueError(kind)


def random_connected_topology_list(num_nodes: int, edge_probability: float, seed: int):
    """The Erdos-Renyi draw over a Python list of all N(N-1)/2 pairs,
    resampled until connected: the same rng.random stream in the same pair
    order as the library's chunked draw."""
    if not 0.0 < edge_probability <= 1.0:
        raise InvalidConfig(f"edge_probability must be in (0, 1], got {edge_probability}")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, num_nodes + 1) for j in range(i + 1, num_nodes + 1)]
    for _ in range(DEFAULT_RETRIES):
        mask = rng.random(len(pairs)) < edge_probability
        edges = [p for p, keep in zip(pairs, mask) if keep]
        try:
            return build_topology(num_nodes, edges)
        except DisconnectedGraph:
            continue
    raise GenerationFailed(
        f"no connected graph after {DEFAULT_RETRIES} draws "
        f"(N={num_nodes}, p={edge_probability})"
    )
