"""ML estimation, measurement simulation, and ADMM consensus.

The consensus rounds are checked against a literal per-node transcription
of the update equations (``oracles.admm_round``), and every report and
trace entry against the two-sum rounds (``oracles.consensus_two_sums``):
the rounds, ``converged`` and the estimate exactly, the residual and the
trace to 1e-12 of their scale.  The stop test, read once per block of
rounds, is held bit for bit to the loop that reads it after every round
(``oracles.consensus_per_round``).
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from wsngain import (
    CompressionPlan,
    DegenerateGains,
    GainVector,
    InconsistentPlan,
    InvalidConfig,
    NoConvergence,
    NoiseConfig,
    assemble_global_model,
    build_topology,
    centralized_model,
    decentralized_model,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    global_mle,
    global_variance,
    local_mle,
    random_connected_topology,
    received_by_sink,
    run_consensus,
    simulate_measurement,
)
from wsngain import estimator
from wsngain.estimator import CONSENSUS_BLOCK, CONSENSUS_GUARD, initial_streams
from wsngain.scenario import CentralizedScenario, DecentralizedScenario


def scalar_scenario(sensor_var=1.0, fc_var=1.0, theta=1 + 0j):
    return CentralizedScenario(
        num_sensors=1,
        num_antennas=1,
        channel=np.array([[1.0 + 0j]]),
        sensor_noise_var=np.array([sensor_var]),
        fc_noise_var=fc_var,
        theta=theta,
    )


def two_node_scenario(theta=1 + 0j):
    return DecentralizedScenario(
        topology=build_topology(2, [(1, 2)]),
        gain_by_link=np.ones(2, dtype=complex),
        sensor_noise_var=np.ones(2),
        comm_noise_var=1.0,
        theta=theta,
    )


# ---------------------------------------------------------------- estimates


def test_global_mle_scalar_identity():
    model = centralized_model(scalar_scenario())
    ones = GainVector(np.ones(1, dtype=complex))
    assert global_mle(model, ones, np.array([3.0 + 0j])) == pytest.approx(3.0 + 0j)


def test_global_variance_scalar_values():
    model = centralized_model(scalar_scenario())
    assert global_variance(model, np.ones(1, dtype=complex)) == pytest.approx(2.0)
    assert global_variance(model, np.array([2.0 + 0j])) == pytest.approx(1.25)


def test_global_mle_noiseless_limit():
    scen = gen_centralized_scenario(6, 4, NoiseConfig(), seed=0)
    tiny = CentralizedScenario(
        num_sensors=6,
        num_antennas=4,
        channel=scen.channel,
        sensor_noise_var=np.full(6, 1e-18),
        fc_noise_var=1e-18,
        theta=2 - 1j,
    )
    model = centralized_model(tiny)
    a = np.ones(6, dtype=complex)
    y = model.H @ a * tiny.theta
    assert abs(global_mle(model, a, y) - tiny.theta) < 1e-6


def test_global_mle_linearity():
    scen = gen_centralized_scenario(5, 4, NoiseConfig(), seed=1)
    model = centralized_model(scen)
    a = np.ones(5, dtype=complex)
    y = (np.arange(4) + 1).astype(complex)
    t1 = global_mle(model, a, y)
    t2 = global_mle(model, a, (2 - 1j) * y)
    assert t2 == pytest.approx((2 - 1j) * t1)


def test_degenerate_gains_raise():
    model = centralized_model(scalar_scenario())
    with pytest.raises(DegenerateGains):
        global_variance(model, np.zeros(1, dtype=complex))


def test_local_mle_worked_values():
    scen = two_node_scenario()
    ones = GainVector(np.ones(2, dtype=complex))
    est, var = local_mle(1, ones, scen, np.array([5.0 + 0j]))
    assert est == pytest.approx(5.0 + 0j)
    assert var == pytest.approx(2.0)


def test_local_mle_symmetric_average():
    topo = build_topology(3, [(1, 2), (1, 3)])
    scen = DecentralizedScenario(
        topology=topo,
        gain_by_link=np.ones(4, dtype=complex),
        sensor_noise_var=np.ones(3),
        comm_noise_var=1.0,
        theta=1 + 0j,
    )
    est, var = local_mle(1, np.ones(3, dtype=complex), scen, np.array([4.0 + 0j, 6.0 + 0j]))
    assert est == pytest.approx(5.0 + 0j)
    assert var == pytest.approx(1.0)


# ------------------------------------------------------------- measurements


def test_simulate_measurement_noiseless_limit():
    scen = gen_centralized_scenario(4, 3, NoiseConfig(), seed=2)
    tiny = CentralizedScenario(
        num_sensors=4,
        num_antennas=3,
        channel=scen.channel,
        sensor_noise_var=np.full(4, 1e-18),
        fc_noise_var=1e-18,
        theta=scen.theta,
    )
    a = np.ones(4, dtype=complex)
    y = simulate_measurement(tiny, a, rng=np.random.default_rng(0))
    assert np.max(np.abs(y - tiny.channel @ a * tiny.theta)) < 1e-6


def test_simulate_measurement_variance_budget():
    scen = scalar_scenario(sensor_var=1.0, fc_var=1.0, theta=0j)
    rng = np.random.default_rng(3)
    a = np.ones(1, dtype=complex)
    draws = np.array([simulate_measurement(scen, a, rng=rng)[0] for _ in range(100_000)])
    # y = v + n, so E|y|^2 = sigma_v^2 + sigma_n^2 = 2
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(2.0, rel=0.03)


def test_simulate_measurement_decentralized_length():
    scen = two_node_scenario()
    gains = GainVector(np.ones(2, dtype=complex))
    model, plan = decentralized_model(scen, gains)
    y = simulate_measurement(scen, gains, plan, np.random.default_rng(0))
    assert y.shape == (2,)
    assert model.num_rows == 2


def test_simulate_measurement_matches_literal_draw():
    # one vectorized draw consumes the RNG stream in the per-link loop's
    # order and forms the same products, so the plan's rows agree bit for bit
    for seed in range(6):
        n = 5 + 3 * seed
        topo = random_connected_topology(n, 0.4, seed=seed)
        noise = NoiseConfig(channel_noise_var=0.3 + seed)
        scen = gen_decentralized_scenario(topo, noise, 10 - 2j, seed=seed)
        gains = np.random.default_rng(seed).standard_normal((n, 2)) @ np.array([1, 1j])
        _, plan = decentralized_model(scen, gains)
        for draw_seed in (seed, 100 + seed):
            y = simulate_measurement(scen, gains, plan, np.random.default_rng(draw_seed))
            obs = oracles.link_observations(scen, gains, np.random.default_rng(draw_seed))
            want = np.array([obs[(sink, k)] for sink, parents
                             in enumerate(oracles.retained_rows(plan), start=1) for k in parents])
            assert y.tobytes() == want.tobytes()


def test_unbiasedness():
    scen = gen_centralized_scenario(5, 4, NoiseConfig(), theta=3 + 1j, seed=4)
    model = centralized_model(scen)
    a = np.ones(5, dtype=complex)
    rng = np.random.default_rng(5)
    trials = 20_000
    ests = np.array([
        global_mle(model, a, simulate_measurement(scen, a, rng=rng)) for _ in range(trials)
    ])
    sigma = np.sqrt(global_variance(model, a) / trials)
    assert abs(np.mean(ests) - scen.theta) < 4 * sigma


# ------------------------------------------------------------------- consensus


def test_admm_matches_literal_transcription():
    # run_consensus's own rounds against the per-node transcription of the
    # update equations, on both streams and through the same ratio guard
    topo = random_connected_topology(9, 0.4, seed=6)
    scen = gen_decentralized_scenario(topo, NoiseConfig(), 10 + 0j, seed=6)
    gains = GainVector(np.ones(9, dtype=complex))
    _, plan = decentralized_model(scen, gains)
    y = simulate_measurement(scen, gains, plan, np.random.default_rng(7))
    received = received_by_sink(plan, y)
    rho = 0.7
    report = run_consensus(scen, gains, plan, received, max_iter=500, tol=1e-6, rho=rho)
    rounds = 6
    assert len(report.per_node_trace) > rounds
    neighbors = [tuple(j - 1 for j in topo.neighbors(i)) for i in range(1, 10)]
    i0, p0 = initial_streams(scen, gains, plan, received)
    i_vals, i_duals = i0.copy(), np.zeros(9)
    p_vals, p_duals = p0.copy(), np.zeros(9, dtype=complex)
    estimates = np.zeros(9, dtype=complex)
    guard = CONSENSUS_GUARD * np.sum(i0) / 9  # relative to the mean information
    for k in range(rounds):
        for i in range(9):
            if abs(i_vals[i]) > guard:
                estimates[i] = p_vals[i] / i_vals[i]
        assert report.per_node_trace[k] == pytest.approx(estimates, rel=1e-12, abs=1e-12)
        i_vals, i_duals = oracles.admm_round(i_vals, i_duals, i0, neighbors, rho)
        p_vals, p_duals = oracles.admm_round(p_vals, p_duals, p0, neighbors, rho)


def _take_guard(monkeypatch, i0, absolute):
    """Set CONSENSUS_GUARD and return it, as the oracles take it: its own
    value or, with ``absolute``, the one that puts the guard, relative to
    the mean information, at 1e-12 for these streams."""
    setting = 1e-12 * len(i0) / float(np.sum(i0)) if absolute else CONSENSUS_GUARD
    monkeypatch.setattr(estimator, "CONSENSUS_GUARD", setting)
    return setting


def test_consensus_matches_two_sum_oracle(monkeypatch):
    # run_consensus runs both streams as one complex state in scaled-dual
    # form and carries the dual update's neighbor sum into the next round.
    # Its discrete outcome and theta_hat keep the oracle's bits; the complex
    # reduceat sums I in another order than the real one, so the residual
    # and the trace hold to 1e-12 of their scale
    rng = np.random.default_rng(21)
    guarded = partial = 0
    for g in range(20):
        n = int(rng.integers(6, 26))
        topo = random_connected_topology(n, float(rng.uniform(0.15, 0.5)), seed=100 + g)
        scen = gen_decentralized_scenario(topo, NoiseConfig(), complex(*rng.normal(size=2)) * 10,
                                          seed=200 + g)
        # gains near 1e-5, with the guard at 1e-12 absolute, put I_i(k) near
        # the guard, which then holds nonzero estimates in later rounds too
        scale = 1e-5 if g % 5 == 4 else 1.0
        gains = GainVector(scale * rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n)))
        _, plan = decentralized_model(scen, gains)
        received = received_by_sink(plan, simulate_measurement(scen, gains, plan, rng))
        i0, p0 = initial_streams(scen, gains, plan, received)
        guard = _take_guard(monkeypatch, i0, scale < 1.0)
        guarded += int(np.sum(np.abs(i0) <= guard * np.sum(i0) / n))
        theta_ml = complex(np.sum(p0) / float(np.sum(i0)))
        degrees = topo.degrees()
        links = (topo.directed_links()[1] - 1, np.cumsum(degrees) - degrees, degrees.astype(float))
        max_iter = (0, 8, 500, 500)[g % 4]
        for rho in (0.3, 1.0, 2.5):
            for stop_mode in ("analytic", "trailing"):
                rounds, trace, residual, converged = oracles.consensus_two_sums(
                    i0, p0, *links, rho, max_iter, 1e-6, stop_mode, guard)
                settings = dict(max_iter=max_iter, tol=1e-6, rho=rho, stop_mode=stop_mode)
                if converged:
                    report = run_consensus(scen, gains, plan, received, **settings)
                else:
                    partial += 1
                    with pytest.raises(NoConvergence) as err:
                        run_consensus(scen, gains, plan, received, **settings)
                    report = err.value.report
                assert report.converged is converged
                assert report.iterations_to_tol == rounds
                assert report.residual == pytest.approx(residual, rel=0, abs=1e-12 * abs(theta_ml))
                assert report.theta_hat == theta_ml
                assert len(report.per_node_trace) == len(trace)
                scale = max(float(np.abs(e).max()) for e in trace)
                assert all(np.abs(e - o).max() <= 1e-12 * scale
                           for e, o in zip(report.per_node_trace, trace))
    assert guarded > 0 and partial > 0


def _consensus_outcome(*args, **settings):
    # (report, raised): the report run_consensus returns, or the partial
    # report NoConvergence carries
    try:
        return run_consensus(*args, **settings), False
    except NoConvergence as err:
        return err.report, True


def _six_consensus_graphs(scale):
    """Six seeded graphs (N = 6-40), their gains scaled by ``scale``, one
    measurement each: (scenario, gains, plan, received, stacked, rho)."""
    rng = np.random.default_rng(32)
    for g in range(6):
        n = int(rng.integers(6, 40))
        topo = random_connected_topology(n, float(rng.uniform(0.15, 0.5)), seed=300 + g)
        scen = gen_decentralized_scenario(topo, NoiseConfig(), complex(*rng.normal(size=2)) * 10,
                                          seed=400 + g)
        gains = GainVector(scale * rng.uniform(0.5, 1.5, n)
                           * np.exp(2j * np.pi * rng.uniform(size=n)))
        _, plan = decentralized_model(scen, gains)
        stacked = simulate_measurement(scen, gains, plan, rng)
        yield scen, gains, plan, received_by_sink(plan, stacked), stacked, (0.3, 1.0, 2.5)[g % 3]


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1.5e-6],
                         ids=["unit-gains", "guarded-early", "guarded-throughout"])
def test_block_stop_test_matches_per_round_loop_bit_for_bit(scale, monkeypatch):
    # run_consensus tests its stop rule once per block of CONSENSUS_BLOCK
    # rounds; its report must keep every bit of the loop that tests after
    # each round.  Budgets sit at and around a block's edge, and tolerances
    # are taken from each stop mode's per-round residuals so that runs stop
    # there too.  The scaled gains take the guard at 1e-12 absolute: by
    # 1e-5 some |I_i(k)| sits at it in rounds 0 and 1; by 1.5e-6, some node
    # stays at it in every round, so every block takes the guarded divide
    # and holds estimates across its edges.
    b = CONSENSUS_BLOCK
    partial = 0
    stops = set()
    for scen, gains, plan, received, _, rho in _six_consensus_graphs(scale):
        topo = scen.topology
        i0, p0 = initial_streams(scen, gains, plan, received)
        guard = _take_guard(monkeypatch, i0, scale < 1.0)
        theta_ml = complex(np.sum(p0) / float(np.sum(i0)))
        _, _, _, trace = oracles.consensus_per_round(topo, i0, p0, 2 * b, 1e-300, rho, True,
                                                     "analytic", guard)
        per_round = {"analytic": [np.abs(e - theta_ml).max() for e in trace],
                     "trailing": [math.inf] + [np.abs(e - d).max()
                                               for d, e in zip(trace, trace[1:])]}
        for stop_mode, residuals in per_round.items():
            # 1e3 stops "analytic" at round 0 and "trailing" at round 1; held
            # estimates can leave a trailing residual of 0
            edge = [max(residuals[k] / abs(theta_ml) * (1 + 1e-9), 1e-300)
                    for k in (b - 1, b, b + 1)]
            for max_iter, tol, record_trace in itertools.product(
                    (0, 1, b - 1, b, b + 1, 500), [1e-6, 1e3] + edge, (True, False)):
                rounds, residual, converged, want = oracles.consensus_per_round(
                    topo, i0, p0, max_iter, tol, rho, record_trace, stop_mode, guard)
                report, raised = _consensus_outcome(
                    scen, gains, plan, received, max_iter=max_iter, tol=tol, rho=rho,
                    record_trace=record_trace, stop_mode=stop_mode)
                assert raised is not converged
                assert report.converged is converged
                assert report.iterations_to_tol == rounds
                assert report.residual == residual
                if record_trace:
                    assert [e.tobytes() for e in report.per_node_trace] == [
                        e.tobytes() for e in want]
                else:
                    assert report.per_node_trace is None and want is None
                partial += raised
                if converged:
                    stops.add(rounds)
    assert partial > 0 and {0, 1} <= stops
    if scale >= 1e-5:  # estimates held at the guard throughout stop the runs early
        assert {b - 1, b, b + 1} <= stops


def test_consensus_guard_is_relative_to_the_network_information():
    # at gains scaled by 1.5e-6 every I_i sits near 1e-12; a guard relative
    # to the mean information lets every node's ratio through, so each run
    # converges on the global MLE of the compressed model
    for scen, gains, plan, received, stacked, rho in _six_consensus_graphs(1.5e-6):
        i0, _ = initial_streams(scen, gains, plan, received)
        assert np.sum(i0) / len(i0) < 1e-10
        report = run_consensus(scen, gains, plan, received, max_iter=5000, tol=1e-6, rho=rho)
        theta_ml = global_mle(assemble_global_model(plan, scen), gains, stacked)
        assert report.converged and report.residual <= 1e-6 * abs(theta_ml)
        assert report.theta_hat == pytest.approx(theta_ml, rel=1e-12)
        assert np.abs(report.per_node_trace[-1] - theta_ml).max() <= 1e-6 * abs(theta_ml)


def test_consensus_memory_does_not_grow_with_max_iter():
    # the rounds are advanced a block at a time, never all max_iter at once
    n = 200
    topo = random_connected_topology(n, 2 * math.log(n) / n, seed=1)
    scen = gen_decentralized_scenario(topo, seed=1)
    gains = np.ones(n, dtype=complex)
    _, plan = decentralized_model(scen, gains)
    received = received_by_sink(plan, simulate_measurement(scen, gains, plan,
                                                           np.random.default_rng(1)))
    peaks, rounds = [], set()
    for max_iter in (500, 10 ** 6):
        tracemalloc.start()
        try:
            report = run_consensus(scen, gains, plan, received, max_iter=max_iter,
                                   record_trace=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rounds.add(report.iterations_to_tol)
    assert len(rounds) == 1 and rounds.pop() < 500
    assert peaks[1] <= peaks[0] + 4096, f"peak traced memory {peaks}"


def test_received_by_sink_views_the_stacked_vector():
    # each sink's rows are a slice of the measurement, and the streams built
    # from them keep every bit of the per-sink split and concatenation
    for seed in range(4):
        topo = random_connected_topology(30, 0.2, seed=seed)
        scen = gen_decentralized_scenario(topo, NoiseConfig(), 10 + 0j, seed=seed)
        rng = np.random.default_rng(seed)
        gains = GainVector(rng.uniform(0.5, 1.5, 30) * np.exp(2j * np.pi * rng.uniform(size=30)))
        _, plan = decentralized_model(scen, gains)
        y = simulate_measurement(scen, gains, plan, rng)
        received = received_by_sink(plan, y)
        split = oracles.received_by_sink_split(plan, y)
        assert all(np.shares_memory(rows, y) for rows in received.values())
        assert {s for s, rows in split.items() if len(rows)} == received.keys()
        assert all(received[s].tobytes() == split[s].tobytes() for s in received)
        i0, p0 = oracles.initial_streams_per_sink(scen, gains, plan, split)
        as_lists = {s: rows.tolist() for s, rows in received.items()}
        for fed in (received, split, as_lists):
            got_i0, got_p0 = initial_streams(scen, gains, plan, fed)
            assert got_i0.tobytes() == i0.tobytes() and got_p0.tobytes() == p0.tobytes()
        # two wrong counts: the error names the first sink in sink order
        low, high = sorted(received)[1], sorted(received)[-1]
        bad = {**received, low: received[low][:-1], high: np.append(received[high], 1)}
        for streams in (initial_streams, oracles.initial_streams_per_sink):
            with pytest.raises(InvalidConfig, match=f"^sink {low} expects "):
                streams(scen, gains, plan, bad)


@pytest.mark.parametrize("settings", [dict(rho=0.0), dict(rho=-0.5), dict(max_iter=-1),
                                      dict(tol=0.0), dict(stop_mode="never"),
                                      dict(tol=float("nan")), dict(tol=float("inf")),
                                      dict(rho=float("nan")), dict(rho=float("inf")),
                                      dict(max_iter=2.5), dict(max_iter=True)],
                         ids=["rho-zero", "rho-negative", "max-iter-negative", "tol-zero",
                              "stop-mode-unknown", "tol-nan", "tol-inf", "rho-nan", "rho-inf",
                              "max-iter-float", "max-iter-bool"])
def test_consensus_rejects_bad_settings(settings):
    scen = two_node_scenario()
    gains = GainVector(np.ones(2, dtype=complex))
    _, plan = decentralized_model(scen, gains)
    received = {1: np.array([1.0 + 0j]), 2: np.array([3.0 + 0j])}
    with pytest.raises(InvalidConfig):
        run_consensus(scen, gains, plan, received, **settings)


def test_consensus_two_node_matches_global():
    scen = two_node_scenario(theta=4 + 0j)
    gains = GainVector(np.ones(2, dtype=complex))
    model, plan = decentralized_model(scen, gains)
    y = simulate_measurement(scen, gains, plan, np.random.default_rng(8))
    report = run_consensus(scen, gains, plan, received_by_sink(plan, y),
                           max_iter=2000, tol=1e-10)
    assert report.theta_hat == pytest.approx(global_mle(model, gains, y), rel=1e-9)
    assert report.analytic_variance == pytest.approx(global_variance(model, gains), rel=1e-12)
    final = report.per_node_trace[-1]
    assert np.max(np.abs(final - report.theta_hat)) <= 1e-10 * abs(report.theta_hat)


def test_consensus_identical_nodes_zero_iterations():
    # symmetric two-node network with identical received values: the local
    # estimates already agree with the global one
    scen = two_node_scenario()
    gains = GainVector(np.ones(2, dtype=complex))
    _, plan = decentralized_model(scen, gains)
    received = {1: np.array([3.0 + 0j]), 2: np.array([3.0 + 0j])}
    report = run_consensus(scen, gains, plan, received, max_iter=10, tol=1e-6)
    assert report.iterations_to_tol == 0


def test_consensus_initial_estimates_are_local_mles():
    topo = random_connected_topology(10, 0.4, seed=9)
    scen = gen_decentralized_scenario(topo, NoiseConfig(), 10 + 0j, seed=9)
    gains = GainVector(np.ones(10, dtype=complex))
    _, plan = decentralized_model(scen, gains)
    y = simulate_measurement(scen, gains, plan, np.random.default_rng(10))
    received = received_by_sink(plan, y)
    report = run_consensus(scen, gains, plan, received, max_iter=500, tol=1e-6)
    first = report.per_node_trace[0]
    h = oracles.link_gains(scen)
    for sink in range(1, 11):
        parents = oracles.retained_rows(plan)[sink - 1]
        est = first[sink - 1]
        if not parents:
            # a node that carries nothing has no local data; the guard
            # holds its estimate at zero until consensus feeds it
            assert est == 0
            continue
        # local MLE over the retained rows only
        num = 0.0 + 0j
        den = 0.0
        for y_k, k in zip(received[sink], parents):
            ha = h[(sink, k)]
            denom = abs(ha) ** 2 * scen.sensor_noise_var[k - 1] + scen.comm_noise_var
            num += np.conj(ha) * y_k / denom
            den += abs(ha) ** 2 / denom
        assert est == pytest.approx(num / den, rel=1e-12)


def test_consensus_rejects_wrong_sample_counts():
    # each sink must hand in exactly one sample per retained row
    topo = random_connected_topology(10, 0.4, seed=15)
    scen = gen_decentralized_scenario(topo, NoiseConfig(), 10 + 0j, seed=15)
    gains = GainVector(np.ones(10, dtype=complex))
    _, plan = decentralized_model(scen, gains)
    received = received_by_sink(plan, simulate_measurement(scen, gains, plan,
                                                           np.random.default_rng(16)))
    sink = plan.carrier[0]
    missing = {i: y for i, y in received.items() if i != sink}
    extra = {**received, sink: np.append(received[sink], 1 + 0j)}
    for bad in (missing, extra):
        with pytest.raises(InvalidConfig):
            run_consensus(scen, gains, plan, bad, max_iter=10)


@pytest.mark.parametrize("carrier", [(2, 1, 2), (2, 1, 4, 4)])
def test_every_plan_user_rejects_a_malformed_plan(carrier):
    # on the path 1-2-3-4: a plan without a carrier for node 4, and one whose
    # row (4, 4) is off the graph; both fail alike wherever a plan is read
    scen = gen_decentralized_scenario(build_topology(4, [(1, 2), (2, 3), (3, 4)]), seed=1)
    gains = GainVector(np.ones(4, dtype=complex))
    plan = CompressionPlan(carrier, r=2 * 3 - 4)
    received = received_by_sink(plan, np.ones(len(carrier), dtype=complex))
    with pytest.raises(InconsistentPlan):
        assemble_global_model(plan, scen)
    with pytest.raises(InconsistentPlan):
        simulate_measurement(scen, gains, plan, np.random.default_rng(0))
    with pytest.raises(InconsistentPlan):
        run_consensus(scen, gains, plan, received)


def test_consensus_no_convergence_carries_report():
    topo = random_connected_topology(12, 0.3, seed=11)
    scen = gen_decentralized_scenario(topo, NoiseConfig(), 10 + 0j, seed=11)
    gains = GainVector(np.ones(12, dtype=complex))
    _, plan = decentralized_model(scen, gains)
    y = simulate_measurement(scen, gains, plan, np.random.default_rng(12))
    with pytest.raises(NoConvergence) as err:
        run_consensus(scen, gains, plan, received_by_sink(plan, y), max_iter=3, tol=1e-12)
    assert err.value.report is not None
    assert err.value.report.iterations_to_tol == 3


def test_consensus_trailing_stop_mode():
    topo = random_connected_topology(8, 0.4, seed=13)
    scen = gen_decentralized_scenario(topo, NoiseConfig(), 10 + 0j, seed=13)
    gains = GainVector(np.ones(8, dtype=complex))
    _, plan = decentralized_model(scen, gains)
    y = simulate_measurement(scen, gains, plan, np.random.default_rng(14))
    report = run_consensus(scen, gains, plan, received_by_sink(plan, y),
                           max_iter=2000, tol=1e-9, stop_mode="trailing")
    final = report.per_node_trace[-1]
    # trailing stop still lands near the global MLE
    assert np.max(np.abs(final - report.theta_hat)) < 1e-5 * abs(report.theta_hat)


def test_variance_equals_inverse_information_sum():
    # the global variance decomposes into retained-row information values
    for seed in range(5):
        topo = random_connected_topology(9, 0.4, seed=seed)
        scen = gen_decentralized_scenario(topo, NoiseConfig(), 1 + 0j, seed=seed)
        gains = GainVector(np.ones(9, dtype=complex))
        model, plan = decentralized_model(scen, gains)
        h = oracles.link_gains(scen)
        total = 0.0
        for sink, parents in enumerate(oracles.retained_rows(plan), start=1):
            for k in parents:
                ha = h[(sink, k)]
                total += abs(ha) ** 2 / (abs(ha) ** 2 * scen.sensor_noise_var[k - 1]
                                         + scen.comm_noise_var)
        assert global_variance(model, gains) == pytest.approx(1.0 / total, rel=1e-10)


def test_consensus_pipeline_memory_grows_with_the_links():
    # graph, scenario, compressed model, one measurement, consensus and the
    # global MLE at N = 3000, p = 2 ln N / N (about 24,000 edges) in
    # O(N + E) memory: an N x N complex array alone is 144 MB, the
    # N(N-1)/2 pairs as two int arrays 72 MB
    n = 3000
    tracemalloc.start()
    try:
        topo = random_connected_topology(n, 2 * math.log(n) / n, seed=1)
        scen = gen_decentralized_scenario(topo, seed=1)
        gains = np.ones(n, dtype=complex)
        model, plan = decentralized_model(scen, gains)
        y = simulate_measurement(scen, gains, plan, np.random.default_rng(1))
        report = run_consensus(scen, gains, plan, received_by_sink(plan, y), record_trace=False)
        mle = global_mle(model, gains, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged and model.num_rows == n
    assert mle == pytest.approx(report.theta_hat, rel=1e-12)
    assert peak < 50e6, f"peak traced memory {peak / 1e6:.1f} MB"
