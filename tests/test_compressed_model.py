"""The compressed decentralized model as a scaled permutation.

Every sensor keeps one retained row, so R_w is diagonal and the estimator
and the optimizer's per-cycle steps work on it row by row.  These tests
hold that path to the dense formulas of ``tests/oracles.py``, pin the
plan-keyed segments of the plan-refresh loop, and check that phase-only
and quantized designs on a compressed model return their start and that
the readers of a dense H reject it.  ``oracles.dense_h`` stands for the
dense H the model no longer holds.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import oracles
from wsngain import (
    ConstraintSpec,
    GlobalModel,
    InvalidConfig,
    OptimizerConfig,
    assemble_global_model,
    assign_carriers,
    baseline_exhaustive_quantized,
    build_inner_quadratic,
    build_lifted,
    decentralized_model,
    estimator,
    gainopt,
    gen_decentralized_scenario,
    global_mle,
    global_variance,
    information_table,
    optimize,
    optimize_decentralized,
    optimize_phase_only_uqp,
    random_connected_topology,
    refine,
    uqp_matrix,
)
from wsngain.diffusion import _product, link_terms
from wsngain.estimator import _information_and_weights

RTOL = 1e-12


def _close(x, want):
    x, want = np.asarray(x), np.asarray(want)
    return float(np.linalg.norm(x - want)) <= RTOL * float(np.linalg.norm(want))


def _random_compressed(rng, trial):
    n = int(rng.integers(2, 40))
    scen = gen_decentralized_scenario(
        random_connected_topology(n, float(rng.uniform(0.1, 0.6)), 500 + trial), seed=700 + trial)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if trial % 2:  # zero gains, as under select:K
        a[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 0.0
    return scen, a, decentralized_model(scen, a)[0]


def test_compressed_path_matches_the_dense_formulas():
    # information, weights, lift, (d, g), variance and MLE of 50 random
    # compressed models against the dense R_w and a dense solve
    rng = np.random.default_rng(5)
    for trial in range(50):
        scen, a, model = _random_compressed(rng, trial)
        assert model.row_gain is not None
        h, v, s2 = oracles.dense_h(model), model.sensor_noise_var, model.noise_var
        info_ref, w_ref = oracles.dense_weights(h, a, v, s2)
        info, w, _, _ = _information_and_weights(model, a)
        assert abs(info - info_ref) <= RTOL * info_ref and _close(w, w_ref), trial

        lift_ref = np.zeros((len(a) + 1, len(a) + 1), dtype=complex)
        lift_ref[1:, 0] = h @ a
        lift_ref[0, 1:] = (h @ a).conj()
        lift_ref[1:, 1:] = oracles.dense_covariance(h, a, v, s2)
        assert _close(build_lifted(model, a), lift_ref), trial

        y_tail = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        d, g = build_inner_quadratic(y_tail, model)
        g_ref = h.conj().T @ y_tail
        assert _close(g, g_ref) and _close(d, np.abs(g_ref) ** 2 * v), trial

        assert abs(global_variance(model, a) * info_ref - 1.0) <= RTOL, trial
        y = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        mle_ref = complex(w_ref.conj() @ y) / info_ref
        assert abs(global_mle(model, a, y) - mle_ref) <= RTOL * abs(mle_ref), trial


def test_model_rows_take_the_link_terms_bit_for_bit():
    # the model's R_w diagonal and weights come from the per-link rule of the
    # carrier plan and the consensus streams, with no arithmetic of their own
    for seed in range(20):
        scen = gen_decentralized_scenario(random_connected_topology(50, 0.15, seed), seed=seed)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        model, plan = decentralized_model(scen, a)
        ha, denom, _ = link_terms(scen, a, plan.links(scen.topology)[2])
        assert np.diag(build_lifted(model, a))[1:].real.tobytes() == denom.tobytes(), seed
        assert _information_and_weights(model, a)[1].tobytes() == (ha / denom).tobytes(), seed


def test_plan_and_r_w_read_the_gain_magnitudes_only_bit_for_bit():
    # the per-link rule takes |a|^2 by hypot, so conjugated gains and their
    # hypot magnitudes keep every bit of the table, the plan and R_w's
    # diagonal: every unit-modulus gain vector has the same design
    for seed in range(20):
        scen = gen_decentralized_scenario(random_connected_topology(50, 0.15, seed), seed=seed)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        table = information_table(a, scen)
        model, plan = decentralized_model(scen, a)
        r_w = _information_and_weights(model, a)[3]
        for b in (a.conj(), np.hypot(a.real, a.imag)):
            assert information_table(b, scen).tobytes() == table.tobytes(), seed
            assert decentralized_model(scen, b)[1] == plan, seed
            assert _information_and_weights(model, b)[3].tobytes() == r_w.tobytes(), seed


def test_compressed_model_keeps_its_row_powers(monkeypatch):
    # the model stores each row's |h|^2 (the scenario's power_by_link at the
    # plan's links), the bytes of the per-link rule's hypot power of its
    # gain, and R_w reads them: no cycle takes a power of the rows again
    rng = np.random.default_rng(37)
    for trial in range(10):
        scen, a, model = _random_compressed(rng, trial)
        assert model.row_power.tobytes() == (
            np.hypot(model.row_gain.real, model.row_gain.imag) ** 2).tobytes(), trial
        r_w = _information_and_weights(model, a)[3]
        powers = []
        power = estimator._power
        monkeypatch.setattr(estimator, "_power", lambda x: powers.append(len(x)) or power(x))
        assert _information_and_weights(model, a)[3].tobytes() == r_w.tobytes(), trial
        assert len(powers) == 1  # |a|^2 of the gains; the row powers are stored
        monkeypatch.undo()
        doubled = dataclasses.replace(model, row_power=2.0 * model.row_power)
        signal = r_w - model.noise_var
        assert _close(_information_and_weights(doubled, a)[3] - model.noise_var, 2.0 * signal)


def test_compressed_border_takes_the_link_product_bit_for_bit():
    # g_k = conj(h_r) y_r in real arithmetic, each product rounded before its
    # sum, as diffusion._product forms it: numpy's complex * may fuse
    # multiply-adds, and then the border's last bit depends on the CPU
    rng = np.random.default_rng(34)
    for trial in range(20):
        scen, a, model = _random_compressed(rng, trial)
        y_tail = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        _, g = build_inner_quadratic(y_tail, model)
        want = np.zeros(len(a), dtype=complex)
        want[model.row_sensor] = _product(model.row_gain.conj(), y_tail)
        assert g.tobytes() == want.tobytes(), trial


def test_assembled_model_records_its_rows_and_plan():
    scen = gen_decentralized_scenario(random_connected_topology(12, 0.3, 2), seed=2)
    model, plan = decentralized_model(scen, np.ones(12))
    assert model.plan == plan and model.H is None  # the rows stand for H
    h = oracles.dense_h(model)
    gains = oracles.link_gains(scen)
    for r, (sink, parent) in enumerate(zip(*plan.rows())):
        assert h[r, parent - 1] == gains[(sink, parent)] and np.count_nonzero(h[r]) == 1
    assert sorted(model.row_sensor) == list(range(12))  # one row per sensor


def test_copying_a_compressed_model_allocates_no_dense_h():
    # dataclasses.replace passes every field on, H = None among them, so the
    # copy costs O(1); an N x N complex H would be 61 MiB at N = 2000
    n = 2000
    scen = gen_decentralized_scenario(
        random_connected_topology(n, 2 * np.log(n) / n, 3), seed=3)
    model, _ = decentralized_model(scen, np.ones(n))
    tracemalloc.start()
    try:
        copied = dataclasses.replace(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert copied.H is None and copied.plan == model.plan
    assert np.array_equal(copied.row_sensor, model.row_sensor)
    assert np.array_equal(copied.row_gain, model.row_gain)
    assert global_variance(copied, np.ones(n)) == global_variance(model, np.ones(n))


def test_refresh_reuses_the_model_while_the_plan_holds():
    scen = gen_decentralized_scenario(random_connected_topology(20, 0.25, 4), seed=4)
    model, plan = decentralized_model(scen, np.ones(20))
    phases = np.exp(2j * np.pi * np.random.default_rng(4).random(20))  # the same |a|
    same, same_plan = decentralized_model(scen, phases, model)
    assert same is model and same_plan == plan
    a = np.ones(20)
    a[plan.carrier[0] - 1] = 1e-6  # the first node's carrier goes quiet
    moved, moved_plan = decentralized_model(scen, a, model)
    assert moved_plan.carrier != plan.carrier and moved is not model
    assert np.array_equal(oracles.dense_h(moved),
                          oracles.dense_h(assemble_global_model(moved_plan, scen)))


@pytest.mark.parametrize("text", ["energy", "select:12"])
def test_segment_breaks_are_the_cycles_whose_carriers_changed(text, monkeypatch):
    # every cycle's model is the one assembled from the carriers of the gains
    # it starts from, and a segment starts exactly where those carriers change
    constraint = ConstraintSpec.parse(text)
    seen = []
    monkeypatch.setattr(gainopt, "_information_and_weights",
                        lambda model, a: seen.append((model, np.array(a)))
                        or _information_and_weights(model, a))
    for seed in range(4):
        scen = gen_decentralized_scenario(random_connected_topology(30, 0.2, seed), seed=seed)
        seen.clear()
        _, trace, _ = optimize_decentralized(scen, constraint, OptimizerConfig(outer_tol=1e-6))
        assert len(seen) == trace.outer_iters
        carriers = []
        for model, a in seen:
            info = information_table(a, scen)
            carrier = oracles.carriers([scen.topology.neighbors(k) for k in range(1, 31)], info)
            assert carrier == assign_carriers(scen.topology, info).carrier
            assert np.array_equal(oracles.dense_h(model),
                                  oracles.dense_h(assemble_global_model(model.plan, scen)))
            assert model.plan.carrier == carrier
            carriers.append(carrier)
        changed = tuple(k for k in range(1, len(carriers)) if carriers[k] != carriers[k - 1])
        assert trace.segment_breaks == changed, seed
        assert trace.stationarity_residual <= 1e-10


def test_decentralized_cycles_take_no_dense_covariance_or_solve(monkeypatch):
    calls = []

    def counted(fn, name):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    scens = [gen_decentralized_scenario(random_connected_topology(40, 0.15, s), seed=s)
             for s in range(3)]
    monkeypatch.setattr(np.linalg, "solve", counted(np.linalg.solve, "solve"))
    for module in (estimator, gainopt):
        monkeypatch.setattr(module, "combined_covariance",
                            counted(estimator.combined_covariance, "combined_covariance"))
    cycles = 0
    for scen in scens:
        for text in ("energy", "select:10", "phase", "quant:4"):
            _, trace, _ = optimize_decentralized(scen, ConstraintSpec.parse(text),
                                                 OptimizerConfig(restarts=2))
            cycles += trace.outer_iters
    assert cycles > 24 and calls == []


def test_phase_vectors_share_one_decentralized_variance():
    rng = np.random.default_rng(8)
    for seed in range(3):
        scen = gen_decentralized_scenario(random_connected_topology(100, 0.1, seed), seed=seed)
        variances = []
        for _ in range(4):
            a = np.exp(2j * np.pi * rng.random(100))
            variances.append(global_variance(decentralized_model(scen, a)[0], a))
        assert max(variances) - min(variances) <= 1e-14 * min(variances), seed


def _dense_twin(model):
    """The compressed model with its rows as a dense H, which the optimizer
    designs on like any hand-built model."""
    return GlobalModel(H=oracles.dense_h(model), sensor_noise_var=model.sensor_noise_var,
                       noise_var=model.noise_var)


def _is_start_trace(trace):
    return (trace.info_per_outer == (1.0 / trace.final_variance,) and trace.inner_objective == ()
            and trace.converged and trace.restart_index == 0 and trace.segment_breaks == ()
            and trace.stationarity_residual == 0.0)


@pytest.mark.parametrize("text", ["phase", "quant:4"])
def test_phase_and_quant_decentralized_designs_return_their_start(text, monkeypatch):
    constraint = ConstraintSpec.parse(text)
    for seed in range(3):
        scen = gen_decentralized_scenario(random_connected_topology(100, 0.1, seed), seed=seed)
        a0 = constraint.initial_point(100)
        start_model, start_plan = decentralized_model(scen, a0)
        # a real design on the start model's dense twin (the ascent for phase,
        # the cycle for quant): the plan holds for unit-modulus gains, and none
        # beats the start, as every one has the same variance
        _, design = optimize(_dense_twin(start_model), constraint, OptimizerConfig())
        with monkeypatch.context() as mp:
            mp.setattr(gainopt, "uqp_matrix", lambda model: pytest.fail("relaxation built"))
            gains, trace, plan = optimize_decentralized(scen, constraint,
                                                        OptimizerConfig(restarts=3))
        assert np.array_equal(gains.values, a0) and plan == start_plan
        assert _is_start_trace(trace)
        assert abs(trace.final_variance - design.final_variance) <= 1e-12 * design.final_variance


@pytest.mark.parametrize("text", ["phase", "quant:4"])
def test_unit_modulus_designs_on_a_compressed_model_return_their_start(text, monkeypatch):
    # optimize and refine decide the rule on the model, before any ascent,
    # rounding or restart
    constraint = ConstraintSpec.parse(text)
    monkeypatch.setattr(gainopt, "uqp_matrix", lambda model: pytest.fail("relaxation built"))
    monkeypatch.setattr(gainopt, "_rotation_rounding",
                        lambda *args: pytest.fail("relaxation rounded"))
    rng = np.random.default_rng(6)
    for seed in range(3):
        scen = gen_decentralized_scenario(random_connected_topology(60, 0.12, seed), seed=seed)
        model = decentralized_model(scen, np.ones(60))[0]
        gains, trace = optimize(model, constraint, OptimizerConfig(restarts=3))
        assert np.array_equal(gains.values, constraint.initial_point(60)), seed
        assert _is_start_trace(trace)
        assert trace.final_variance == global_variance(model, gains)
        a0 = constraint.random_point(60, rng)
        gains, trace = refine(model, a0, constraint)
        assert np.array_equal(gains.values, a0) and _is_start_trace(trace), seed
        assert trace.final_variance == global_variance(model, a0)


def test_dense_readers_reject_a_compressed_model():
    scen = gen_decentralized_scenario(random_connected_topology(8, 0.4, 1), seed=1)
    model = decentralized_model(scen, np.ones(8))[0]
    for read in (uqp_matrix, optimize_phase_only_uqp,
                 lambda m: estimator.combined_covariance(m, np.ones(8)),
                 lambda m: baseline_exhaustive_quantized(m, 2)):
        with pytest.raises(InvalidConfig, match="compressed model"):
            read(model)
    # the dense twin of the same rows is read as any dense model
    assert uqp_matrix(_dense_twin(model)).shape == (8, 8)
