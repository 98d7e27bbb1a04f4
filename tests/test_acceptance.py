"""Acceptance gate: one test per shipped guarantee.

Each test pins the scenario grid, seed policy and tolerance it promises;
the suites are deterministic, so a failure here is a regression, not
noise.  Measured figures (reduction factors, hit rates, timing ratios)
land in the terminal summary via the ``measure`` fixture.
"""

import time

import numpy as np
import pytest

import oracles
from wsngain import (
    ConstraintSpec,
    ExperimentConfig,
    GainVector,
    NoiseConfig,
    OptimizerConfig,
    build_inner_quadratic,
    build_lifted,
    centralized_model,
    decentralized_model,
    derived_seed,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    global_mle,
    global_variance,
    optimize,
    optimize_phase_only_uqp,
    project,
    random_connected_topology,
    received_by_sink,
    run_consensus,
    simulate_measurement,
    solve_auxiliary,
)
from wsngain import gainopt
from wsngain.harness import run_oracle_gap, run_sweep

SUITE_SEED = 777


@pytest.fixture(scope="module")
def descent_suite():
    """100 optimizer runs: N in {5,10,20,40}, M=4, default noise and config.

    Constraint families rotate across the suite; the same traces back both
    monotonicity checks.  The 25 phase runs take the constant-matrix
    ascent, so no run here passes a power-step cycle through the
    unit-modulus projection (test_gainopt's select:N:phase tests do).  Each
    entry is (run index, trace, cycles), where cycles holds, for every
    outer cycle (a phase run's ascent has none), the model and gains the
    cycle handed to the weights solve, the weights w it got back (its
    auxiliary vector is [1; -w]) and the paper's corner constant for the
    run's model.
    """
    runs = []
    weights = gainopt._information_and_weights

    def seen(cycles, eta0):
        def record(model, a):
            out = weights(model, a)
            cycles.append((model, np.array(a), out[1], eta0))
            return out
        return record

    for i in range(100):
        n = (5, 10, 20, 40)[i % 4]
        spec = (
            ConstraintSpec.fixed_energy(),
            ConstraintSpec.phase_only(),
            ConstraintSpec.quantized(4),
            ConstraintSpec.sensor_select(max(1, n // 2)),
        )[(i // 4) % 4]
        scen = gen_centralized_scenario(n, 4, NoiseConfig(), seed=derived_seed(SUITE_SEED, i))
        model = centralized_model(scen)
        eta0 = oracles.eta0_bound(model)
        cycles = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gainopt, "_information_and_weights", seen(cycles, eta0))
            _, trace = optimize(model, spec, OptimizerConfig(seed=derived_seed(SUITE_SEED, i, 1)))
        runs.append((i, trace, cycles))
    return runs


def test_c01_outer_and_inner_monotone_descent(descent_suite):
    for i, trace, _ in descent_suite:
        infos = np.array(trace.info_per_outer)
        rises = np.diff(infos)
        assert np.all(rises >= -1e-9 * np.abs(infos[:-1])), (
            f"run {i}: information value fell by {-rises.min():.3e}")
        for objs in trace.inner_objective:
            seq = np.array(objs)
            rises = np.diff(seq)
            assert np.all(rises >= -1e-9 * np.maximum(1.0, np.abs(seq[:-1]))), (
                f"run {i}: inner objective fell by {rises.min():.3e}")


def test_c02_auxiliary_solve_is_stationary(descent_suite, measure):
    worst = max(trace.stationarity_residual for _, trace, _ in descent_suite)
    measure(f"stationarity: max ||R_w w - Ha|| / ||Ha|| = {worst:.3e} over 100 runs")
    for i, trace, _ in descent_suite:
        assert trace.stationarity_residual <= 1e-10, (
            f"run {i}: auxiliary residual {trace.stationarity_residual:.3e}")


def test_c02_auxiliary_vector_ignores_the_lift_corner(descent_suite):
    # the paper's corner eta0 never reaches a step: every cycle's lift of the
    # suite gives the same bytes of y with the corner 0 and with eta0; and
    # the cycle's y = [1; -w], formed without a lift, is the lifted solve's
    # y and the modified Gram-Schmidt oracle's
    count = 0
    for i, _, cycles in descent_suite:
        for model, a, w, eta0 in cycles:
            r = build_lifted(model, a)
            paper = r.copy()
            paper[0, 0] = eta0
            lifted = solve_auxiliary(r)
            assert lifted.tobytes() == solve_auxiliary(paper).tobytes(), i
            y = np.concatenate([[1.0 + 0j], -w])
            for ref in (lifted, oracles.solve_auxiliary_mgs(r)):
                assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref), i
            count += 1
    assert count >= 100


def test_c03_lift_identity_on_random_triples():
    rng = np.random.default_rng(SUITE_SEED)
    for trial in range(1000):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 5))
        scen = gen_centralized_scenario(n, m, NoiseConfig(),
                                        seed=derived_seed(SUITE_SEED, 3, trial))
        model = centralized_model(scen)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y_tail = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y = np.concatenate([[1.0 + 0j], y_tail])
        lhs = float(np.real(y.conj() @ (build_lifted(model, a) @ y)))
        d, g = build_inner_quadratic(y_tail, model)
        q = oracles.arrow_matrix(d, g)
        z = np.concatenate([a, [1.0 + 0j]])
        rhs = oracles.lift_constant(y_tail, model) + float(np.real(z.conj() @ (q @ z)))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs), (
            f"trial {trial}: lift identity off by {abs(lhs - rhs):.3e} vs {abs(lhs):.3e}")


def test_c04_quantized_gap_vs_exhaustive_enumeration(measure):
    config = ExperimentConfig(kind="oracle-gap", n_values=(2, 3, 4), realizations=100,
                              constraint=ConstraintSpec.quantized(4),
                              optimizer=OptimizerConfig(restarts=10), seed=0)
    t0 = time.perf_counter()
    rows, meta = run_oracle_gap(config)
    elapsed = time.perf_counter() - t0
    hits = sum(r["hit"] for r in rows)
    worst = max(r["ratio"] for r in rows)
    measure(f"oracle gap: {hits}/100 within 10% of exhaustive optimum "
            f"(worst ratio {worst:.3f}, {elapsed:.1f}s)")
    assert hits >= 90, f"only {hits}/100 runs within 10% of the enumerated optimum"
    assert all(r["ratio"] >= 1.0 - 1e-12 for r in rows)
    assert elapsed < 60.0


def test_c05_phase_only_variance_reduction_vs_no_feedback(measure):
    config = ExperimentConfig(kind="sweep-N", n_values=(10, 30, 60), realizations=300,
                              constraint=ConstraintSpec.phase_only(),
                              optimizer=OptimizerConfig(), seed=0)
    t0 = time.perf_counter()
    rows, _ = run_sweep(config)
    elapsed = time.perf_counter() - t0
    factors = {}
    for n in (10, 30, 60):
        by = {r["method"]: r for r in rows if r["N"] == n}
        assert by["optimized"]["failures"] == 0
        factors[n] = by["all-ones"]["mean_variance"] / by["optimized"]["mean_variance"]
    measure("variance reduction vs no feedback: "
            + ", ".join(f"N={n}: {f:.2f}x" for n, f in factors.items())
            + f" ({elapsed:.1f}s)")
    for n, factor in factors.items():
        assert factor >= 3.0, f"N={n}: mean reduction factor {factor:.2f} below 3"
    assert elapsed < 300.0


def test_c06_consensus_reaches_global_mle_on_16_nodes():
    theta = 10 + 0j
    for run in range(20):
        topo = random_connected_topology(16, 0.3, seed=derived_seed(SUITE_SEED, 6, run))
        scen = gen_decentralized_scenario(topo, NoiseConfig(), theta,
                                          seed=derived_seed(SUITE_SEED, 6, run, 1))
        gains = GainVector(np.ones(16, dtype=complex))
        model, plan = decentralized_model(scen, gains)
        rng = np.random.default_rng(derived_seed(SUITE_SEED, 6, run, 2))
        w = simulate_measurement(scen, gains, plan, rng)
        report = run_consensus(scen, gains, plan, received_by_sink(plan, w),
                               max_iter=500, tol=1e-6, rho=1.0)
        assert report.iterations_to_tol <= 500
        target = global_mle(model, gains, w)
        assert report.theta_hat == pytest.approx(target, rel=1e-12)
        final_err = np.abs(report.per_node_trace[-1] - target).max()
        assert final_err <= 1e-6 * abs(target), (
            f"run {run}: node error {final_err:.3e} after {report.iterations_to_tol} iterations")
        # pre-consensus estimates must be each sink's own local MLE
        received = received_by_sink(plan, w)
        h = oracles.link_gains(scen)
        for sink in range(1, 17):
            parents = oracles.retained_rows(plan)[sink - 1]
            est = report.per_node_trace[0][sink - 1]
            if not parents:
                assert est == 0
                continue
            num, den = 0.0 + 0j, 0.0
            for y_k, k in zip(received[sink], parents):
                g = h[(sink, k)]
                denom = abs(g) ** 2 * scen.sensor_noise_var[k - 1] + scen.comm_noise_var
                num += np.conj(g) * y_k / denom
                den += abs(g) ** 2 / denom
            assert est == pytest.approx(num / den, rel=1e-9)


def test_c07_global_form_decouples_across_sinks():
    rng = np.random.default_rng(SUITE_SEED + 7)
    for run in range(50):
        n = int(rng.integers(4, 13))
        topo = random_connected_topology(n, float(rng.uniform(0.3, 0.7)),
                                         seed=derived_seed(SUITE_SEED, 7, run))
        scen = gen_decentralized_scenario(topo, NoiseConfig(), 1 + 0j,
                                          seed=derived_seed(SUITE_SEED, 7, run, 1))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        model, plan = decentralized_model(scen, a)
        assert plan.m_dim == n
        h_global = oracles.dense_h(model)
        assert h_global.shape == (n, n)
        nonzero = h_global != 0
        assert np.all(nonzero.sum(axis=0) == 1), "a sensor column appears in two rows"
        assert np.all(nonzero.sum(axis=1) == 1)
        total = oracles.dense_information(h_global, a, model.sensor_noise_var, model.noise_var)
        h = oracles.link_gains(scen)
        by_sink = 0.0
        for sink, parents in enumerate(oracles.retained_rows(plan), start=1):
            for k in parents:
                g = h[(sink, k)] * a[k - 1]
                by_sink += abs(g) ** 2 / (abs(g) ** 2 * scen.sensor_noise_var[k - 1]
                                          + scen.comm_noise_var)
        assert abs(total - by_sink) <= 1e-10 * abs(total), (
            f"run {run}: global form {total:.12e} vs per-sink sum {by_sink:.12e}")


def test_c08_analytic_variance_matches_monte_carlo(measure):
    cases = [
        (5, 4, 2 - 1j, "ones"),
        (8, 4, 1 + 0j, "energy"),
        (10, 4, 1 + 0j, "phase"),
        (12, 2, -3 + 2j, "quant"),
        (6, 6, 1 + 0j, "select"),
    ]
    draws = 100_000
    worst = 0.0
    t0 = time.perf_counter()
    for idx, (n, m, theta, family) in enumerate(cases):
        scen = gen_centralized_scenario(n, m, NoiseConfig(), theta,
                                        seed=derived_seed(SUITE_SEED, 8, idx))
        model = centralized_model(scen)
        rng = np.random.default_rng(derived_seed(SUITE_SEED, 8, idx, 1))
        if family == "ones":
            a = np.ones(n, dtype=complex)
        elif family == "energy":
            a = ConstraintSpec.fixed_energy().random_point(n, rng)
        elif family == "phase":
            a = ConstraintSpec.phase_only().random_point(n, rng)
        elif family == "quant":
            a = ConstraintSpec.quantized(4).random_point(n, rng)
        else:
            a = ConstraintSpec.sensor_select(n // 2).random_point(n, rng)
        analytic = global_variance(model, a)
        # independent dense transcription of the estimator and the draws
        r_w = (model.H * (np.abs(a) ** 2 * model.sensor_noise_var)) @ model.H.conj().T \
            + model.noise_var * np.eye(m)
        ha = model.H @ a
        w_vec = np.linalg.solve(r_w, ha)
        info = float(np.real(ha.conj() @ w_vec))
        v = np.sqrt(model.sensor_noise_var / 2.0) * (
            rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n)))
        noise = np.sqrt(model.noise_var / 2.0) * (
            rng.standard_normal((draws, m)) + 1j * rng.standard_normal((draws, m)))
        y = (a * (theta + v)) @ model.H.T + noise
        theta_hat = (y @ w_vec.conj()) / info
        assert global_mle(model, a, y[0]) == pytest.approx(complex(theta_hat[0]), rel=1e-9)
        empirical = float(np.mean(np.abs(theta_hat - theta) ** 2))
        rel = abs(empirical - analytic) / analytic
        worst = max(worst, rel)
        assert rel <= 0.03, (
            f"case {idx} ({family}): empirical {empirical:.5g} vs analytic {analytic:.5g}")
    elapsed = time.perf_counter() - t0
    measure(f"monte carlo variance: worst deviation {worst:.2%} over 5 scenarios ({elapsed:.1f}s)")
    assert elapsed < 60.0


def test_c09_projections_attain_feasible_set_minimum():
    rng = np.random.default_rng(SUITE_SEED + 9)

    def draw(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    for _ in range(1000):  # (a) stationarity: a_hat = (||a_hat||/sqrt(N)) a*
        n = int(rng.integers(2, 13))
        a_hat = draw(n)
        out = project(a_hat, ConstraintSpec.fixed_energy())
        scale = np.linalg.norm(a_hat) / np.sqrt(n)
        assert np.linalg.norm(a_hat - scale * out) <= 1e-9 * np.linalg.norm(a_hat)
    for _ in range(1000):  # (b) per entry conj(a*_k) a_hat_k = |a_hat_k| >= 0
        n = int(rng.integers(2, 13))
        a_hat = draw(n)
        out = project(a_hat, ConstraintSpec.phase_only())
        inner = out.conj() * a_hat
        assert np.all(np.abs(np.abs(out) - 1.0) <= 1e-12)
        assert np.all(np.abs(inner - np.abs(a_hat)) <= 1e-12 * (1.0 + np.abs(a_hat)))
    for _ in range(1000):  # (c) dense grid enumeration
        n = int(rng.integers(2, 7))
        q = int(rng.choice([2, 3, 4]))
        a_hat = draw(n)
        out = project(a_hat, ConstraintSpec.quantized(q))
        got = float(np.linalg.norm(out - a_hat))
        assert got <= oracles.best_quant_distance(a_hat, q) + 1e-9
    for trial in range(1000):  # (d) all K-subsets, both submodes
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        mode = "energy" if trial % 2 == 0 else "phase"
        a_hat = draw(n)
        out = project(a_hat, ConstraintSpec.sensor_select(k, mode))
        got = float(np.linalg.norm(out - a_hat))
        assert got <= oracles.best_select_distance(a_hat, k, mode) + 1e-9


def test_c10_uqp_cost_per_outer_scales_benignly(measure):
    # the sizes alternate rep by rep and each design is timed on this thread's
    # CPU clock, so load from other processes cannot inflate one size's median
    times = {100: [], 200: []}
    for rep in range(7):
        for n, tag in ((200, 2), (100, 1)):
            scen = gen_centralized_scenario(n, 4, NoiseConfig(),
                                            seed=derived_seed(SUITE_SEED, 10, tag, rep))
            model = centralized_model(scen)
            start = time.thread_time()
            _, trace = optimize_phase_only_uqp(model, OptimizerConfig(seed=rep))
            times[n].append((time.thread_time() - start) / max(trace.outer_iters, 1))

    ratio = float(np.median(times[200])) / float(np.median(times[100]))
    measure(f"uqp per-outer CPU time ratio N=200 / N=100: {ratio:.2f}")
    assert ratio <= 5.0, f"per-outer cost ratio {ratio:.2f} exceeds 5"
