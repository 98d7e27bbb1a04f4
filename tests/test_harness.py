"""Experiment harness: baselines, sweeps, and CSV rendering."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from wsngain import (
    ConstraintSpec,
    DegenerateGains,
    ExperimentConfig,
    InvalidConfig,
    NoDescent,
    NoiseConfig,
    OptimizerConfig,
    TooLarge,
    baseline_all_ones,
    baseline_exhaustive_quantized,
    baseline_selection,
    centralized_model,
    derived_seed,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    global_variance,
    harness,
    random_connected_topology,
    render_csv,
    run_experiment,
    uqp_matrix,
)
from wsngain.cli import main
from wsngain.diffusion import GlobalModel
from wsngain.harness import (
    CONSENSUS_COLUMNS,
    ORACLE_GAP_COLUMNS,
    SELECTION_COLUMNS,
    SWEEP_COLUMNS,
    columns_for,
    consensus_trace,
    run_oracle_gap,
    run_selection_experiment,
    run_sweep,
)

SCALAR_MODEL = GlobalModel(
    H=np.array([[1.0 + 0j]]),
    sensor_noise_var=np.array([1.0]),
    noise_var=1.0,
)


def model_for(n, m=4, seed=0, noise=NoiseConfig()):
    return centralized_model(gen_centralized_scenario(n, m, noise, seed=seed))


# ------------------------------------------------------------------ seeding


def test_derived_seed_is_stable_and_spread():
    assert derived_seed(3, 1, 2) == derived_seed(3, 1, 2)
    seen = {derived_seed(0, n, i) for n in range(4) for i in range(50)}
    assert len(seen) == 200
    assert derived_seed(0, 1, 2) != derived_seed(0, 2, 1)


# ---------------------------------------------------------------- baselines


def test_all_ones_scalar_variance():
    gains, v = baseline_all_ones(SCALAR_MODEL)
    assert np.array_equal(gains.values, [1.0 + 0j])
    assert v == pytest.approx(2.0)


def test_exhaustive_scalar_is_phase_invariant():
    # with one sensor every unit phase gives the same information
    _, v = baseline_exhaustive_quantized(SCALAR_MODEL, 4)
    assert v == pytest.approx(2.0)


def test_exhaustive_two_sensor_binary_matches_hand_enumeration():
    model = model_for(2, m=2, seed=1)
    best = min(
        global_variance(model, np.array(signs, dtype=complex))
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1])
    )
    gains, v = baseline_exhaustive_quantized(model, 2)
    assert v == pytest.approx(best, rel=1e-12)
    assert np.all(np.isin(gains.values, [1, -1]))


def test_exhaustive_lower_bounds_any_candidate():
    model = model_for(3, seed=2)
    _, v_best = baseline_exhaustive_quantized(model, 4)
    rng = np.random.default_rng(0)
    spec = ConstraintSpec.quantized(4)
    for _ in range(20):
        a = spec.random_point(3, rng)
        assert global_variance(model, a) >= v_best * (1 - 1e-12)


def test_exhaustive_matches_product_order_oracle_bitwise():
    # same candidates in the same order, so the same first maximum; (9, 4)
    # spans three enumeration chunks
    for n, q in ((1, 4), (3, 4), (6, 4), (8, 4), (9, 4), (5, 3), (4, 8)):
        model = model_for(n, seed=n + q)
        gains, v = baseline_exhaustive_quantized(model, q)
        want_a, want_v = oracles.exhaustive_quantized_product(uqp_matrix(model), q)
        assert np.array_equal(gains.values.view(np.uint64), want_a.view(np.uint64)), (n, q)
        assert v == want_v, (n, q)


def test_exhaustive_rejects_a_non_integer_grid():
    # the grid size is checked as ConstraintSpec checks it, before any enumeration
    for bad in (2.5, 1, 0, -3, True, "4", None):
        with pytest.raises(InvalidConfig):
            baseline_exhaustive_quantized(SCALAR_MODEL, bad)
    _, v = baseline_exhaustive_quantized(SCALAR_MODEL, np.int64(4))
    assert v == pytest.approx(2.0)


def test_exhaustive_budget_guard():
    model = model_for(13, seed=3)
    with pytest.raises(TooLarge):
        baseline_exhaustive_quantized(model, 4)


def test_selection_min_noise_keeps_quietest_sensors():
    model = GlobalModel(H=np.eye(3, dtype=complex),
                        sensor_noise_var=np.array([1.0, 9.0, 4.0]), noise_var=1.0)
    gains, _ = baseline_selection(model, 2, "min-sensor-noise")
    assert np.flatnonzero(np.abs(gains.values)).tolist() == [0, 2]
    assert np.linalg.norm(gains.values) ** 2 == pytest.approx(3.0)


def test_selection_greedy_singleton_is_exhaustive():
    for seed in range(5):
        model = model_for(5, seed=seed)
        gains, v = baseline_selection(model, 1, "greedy")
        singles = []
        for j in range(5):
            a = np.zeros(5, dtype=complex)
            a[j] = np.sqrt(5.0)
            singles.append(global_variance(model, a))
        assert v == pytest.approx(min(singles), rel=1e-12)
        assert np.flatnonzero(np.abs(gains.values))[0] == int(np.argmin(singles))


def test_selection_rejects_bad_sizes_and_policies():
    model = model_for(4, seed=4)
    for bad_k in (0, 4, 5):
        with pytest.raises(InvalidConfig):
            baseline_selection(model, bad_k, "greedy")
    with pytest.raises(InvalidConfig):
        baseline_selection(model, 2, "uniform")


# -------------------------------------------------------------- experiments


def test_sweep_rows_and_ordering():
    config = ExperimentConfig(kind="sweep-N", n_values=(4, 6), realizations=4,
                              constraint=ConstraintSpec.phase_only(),
                              optimizer=OptimizerConfig(seed=0), seed=5)
    rows, meta = run_sweep(config)
    assert [(r["N"], r["method"]) for r in rows] == [
        (4, "optimized"), (4, "all-ones"), (6, "optimized"), (6, "all-ones")]
    for n in (4, 6):
        by = {r["method"]: r for r in rows if r["N"] == n}
        assert by["optimized"]["mean_variance"] <= by["all-ones"]["mean_variance"]
        assert by["optimized"]["realizations"] == 4
        assert by["optimized"]["failures"] == 0
    assert meta["methods"] == ("optimized", "all-ones")


def test_sweep_rows_reproducible():
    config = ExperimentConfig(kind="sweep-N", n_values=(5,), realizations=3, seed=6)
    rows1, _ = run_sweep(config)
    rows2, _ = run_sweep(config)
    for r1, r2 in zip(rows1, rows2):
        assert r1["mean_variance"] == r2["mean_variance"]
        assert r1["failures"] == r2["failures"]


def test_selection_experiment_orderings():
    config = ExperimentConfig(
        kind="selection", n_values=(8,), sigma_grid=(0.01, 4.0), realizations=5,
        constraint=ConstraintSpec.sensor_select(3),
        optimizer=OptimizerConfig(seed=0, restarts=2), seed=7)
    rows, meta = run_selection_experiment(config)
    assert meta["failures"] == {}
    table = {(r["sigma_n2"], r["method"]): r["mean_variance"] for r in rows}
    for sigma in (0.01, 4.0):
        # matched-energy all-N refinement lower-bounds every K-sparse method
        floor = table[(sigma, "all-N")]
        for method in ("proposed", "greedy", "min-sensor-noise"):
            assert floor <= table[(sigma, method)] * (1 + 1e-9)
        # the optimizer should stay competitive with greedy everywhere
        assert table[(sigma, "proposed")] <= table[(sigma, "greedy")] * 1.3
    # at strong receiver noise naive noise-ranked selection falls behind
    assert table[(4.0, "proposed")] < table[(4.0, "min-sensor-noise")]


def _selection_point(master, sigma, optimizer):
    config = ExperimentConfig(
        kind="selection", n_values=(10,), sigma_grid=(sigma,), realizations=1,
        constraint=ConstraintSpec.sensor_select(4), optimizer=optimizer, seed=master)
    rows, _ = run_selection_experiment(config)
    return {r["method"]: r["mean_variance"] for r in rows}


def test_selection_beats_noise_ranking_at_high_noise():
    # 4-of-10, ten independent single-realization runs at sigma_n2 = 4
    wins = 0
    for master in range(10):
        point = _selection_point(master, 4.0, OptimizerConfig(seed=0, restarts=2))
        wins += point["proposed"] <= point["min-sensor-noise"] * (1 + 1e-9)
    assert wins >= 8, f"optimizer beat min-sensor-noise on only {wins}/10 seeds"


def test_selection_tracks_greedy_at_low_noise():
    # near-zero receiver noise the greedy baseline is hard to beat; the
    # optimizer's mean must stay within 10% of it
    opt = OptimizerConfig(seed=0, restarts=5, max_outer=40)
    proposed, greedy = [], []
    for master in range(10):
        point = _selection_point(master, 0.01, opt)
        proposed.append(point["proposed"])
        greedy.append(point["greedy"])
    ratio = np.mean(proposed) / np.mean(greedy)
    assert ratio <= 1.10, f"proposed/greedy mean-variance ratio {ratio:.3f}"


def test_oracle_gap_rows():
    config = ExperimentConfig(
        kind="oracle-gap", n_values=(2, 3), realizations=6,
        constraint=ConstraintSpec.quantized(4),
        optimizer=OptimizerConfig(seed=0, restarts=6), seed=8)
    rows, meta = run_oracle_gap(config)
    assert len(rows) == 6
    assert "oracle" in meta and "enumeration" in meta["oracle"]
    for row in rows:
        assert row["N"] in (2, 3)
        # the enumerated optimum is a true lower bound
        assert row["ratio"] >= 1.0 - 1e-12
        assert row["hit"] == int(row["ratio"] <= 1.10 + 1e-12)
    assert meta["success_rate"] == pytest.approx(
        sum(r["hit"] for r in rows) / len(rows))


def test_consensus_experiment_trace_rows():
    topo = random_connected_topology(6, 0.3, derived_seed(9, 11))
    scen = gen_decentralized_scenario(topo, theta=10 + 0j, seed=derived_seed(9, 12))
    rows, report, _ = consensus_trace(scen, np.random.default_rng(derived_seed(9, 13)),
                                      max_iter=500, tol=1e-6, rho=1.0)
    assert set(rows[0]) == set(CONSENSUS_COLUMNS)
    iters = sorted({r["iter"] for r in rows})
    assert iters == list(range(report.iterations_to_tol + 1))
    assert sorted({r["node"] for r in rows}) == list(range(1, 7))
    final = [r for r in rows if r["iter"] == report.iterations_to_tol]
    scale = max(abs(report.theta_hat), 1e-12)
    assert all(r["abs_err"] <= 1e-6 * scale for r in final)


def test_run_experiment_dispatch_and_columns(monkeypatch):
    assert columns_for("sweep-N") == SWEEP_COLUMNS
    assert columns_for("selection") == SELECTION_COLUMNS
    assert columns_for("oracle-gap") == ORACLE_GAP_COLUMNS
    assert set(harness.EXPERIMENTS) == {"sweep-N", "selection", "oracle-gap"}
    config = ExperimentConfig(kind="sweep-N", n_values=(4,), realizations=2, seed=10)
    rows, _ = run_experiment(config)
    assert set(SWEEP_COLUMNS) <= set(rows[0])
    # dispatch goes through the module attribute, so a wrapper put there
    # (a tracer, a test double) sees the call
    configs = {
        "run_sweep": config,
        "run_selection_experiment": ExperimentConfig(
            kind="selection", n_values=(4,), sigma_grid=(1.0,),
            constraint=ConstraintSpec.sensor_select(2)),
        "run_oracle_gap": ExperimentConfig(kind="oracle-gap", n_values=(2,),
                                           constraint=ConstraintSpec.quantized(4)),
    }
    for name in configs:
        monkeypatch.setattr(harness, name, lambda c, name=name: (name, c))
    for name, cfg in configs.items():
        assert run_experiment(cfg) == (name, cfg)


def test_experiment_config_validation():
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="grid-search")
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="sweep-N", n_values=())
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="selection", sigma_grid=(1.0,),
                         constraint=ConstraintSpec.phase_only())
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="oracle-gap", n_values=(2,),
                         constraint=ConstraintSpec.fixed_energy())
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="sweep-N", n_values=(4,), realizations=0)
    # counts, seeds and sensor counts are integers, never bool; a seed is non-negative
    for bad in (dict(realizations=2.5), dict(realizations=True), dict(num_antennas=4.0),
                dict(seed=1.5), dict(seed=-1), dict(n_values=(4.0,)), dict(n_values=(True,)),
                dict(n_values=4), dict(sigma_grid=("1",))):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(**{"kind": "sweep-N", "n_values": (4,), **bad})
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="sweep-noise", sigma_grid=(1.0,))
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="consensus", n_values=(6,))
    # the whole noise grid and every oracle-gap size are checked before any work
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="selection", n_values=(6,), sigma_grid=(1.0, float("nan")),
                         constraint=ConstraintSpec.sensor_select(2))
    with pytest.raises(TooLarge):
        ExperimentConfig(kind="oracle-gap", n_values=(2, 12),
                         constraint=ConstraintSpec.quantized(4))
    # selection runs on exactly one sensor count N with 1 <= K < N
    for n_values, k in (((), 2), ((6, 8), 2), ((6,), 6), ((6,), 7)):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(kind="selection", n_values=n_values, sigma_grid=(1.0,),
                             constraint=ConstraintSpec.sensor_select(k))
    ExperimentConfig(kind="selection", n_values=(6,), sigma_grid=(1.0,),
                     constraint=ConstraintSpec.sensor_select(5))


def test_experiment_config_rejects_no_sensors():
    with pytest.raises(InvalidConfig, match=r"got \(0,\)"):
        ExperimentConfig(kind="sweep-N", n_values=(0,))


def test_experiment_config_rejects_a_negative_sensor_count():
    # it once reached derived_seed and raised numpy's ValueError
    with pytest.raises(InvalidConfig, match=r"got \(4, -3\)"):
        ExperimentConfig(kind="sweep-N", n_values=(4, -3))


def test_experiment_config_rejects_no_antennas():
    with pytest.raises(InvalidConfig, match="num_antennas must be at least 1, got 0"):
        ExperimentConfig(kind="sweep-N", n_values=(4,), num_antennas=0)


# ----------------------------------------------------------- failure tally


def fail_on_calls(monkeypatch, errors):
    """Replace harness.optimize with a double that raises errors[call] on the
    chosen calls (counted from 0) and runs the real design on the others."""
    calls = itertools.count()
    design = harness.optimize

    def optimize(*args, **kwargs):
        error = errors.get(next(calls))
        if error is not None:
            raise error("injected")
        return design(*args, **kwargs)

    monkeypatch.setattr(harness, "optimize", optimize)


def test_sweep_counts_failures_per_n_and_by_class(monkeypatch):
    # one optimize call per realization, N-major: calls 0-2 run N = 4, 3-5 N = 6
    fail_on_calls(monkeypatch, {0: NoDescent, 2: DegenerateGains, 4: NoDescent})
    config = ExperimentConfig(kind="sweep-N", n_values=(4, 6), realizations=3, seed=5)
    rows, meta = run_experiment(config)
    by = {(r["N"], r["method"]): r for r in rows}
    for n, failed in ((4, 2), (6, 1)):
        for method in ("optimized", "all-ones"):
            assert by[(n, method)]["failures"] == failed
            assert by[(n, method)]["realizations"] == 3 - failed
            assert math.isfinite(by[(n, method)]["mean_variance"])
    assert meta["failures"] == {"NoDescent": 2, "DegenerateGains": 1}


def test_sweep_with_every_realization_failed_reports_nan_means(monkeypatch):
    fail_on_calls(monkeypatch, {0: NoDescent, 1: NoDescent})
    config = ExperimentConfig(kind="sweep-N", n_values=(4,), realizations=2, seed=5)
    rows, meta = run_sweep(config)
    for row in rows:
        assert row["realizations"] == 0 and row["failures"] == 2
        assert math.isnan(row["mean_variance"]) and math.isnan(row["mean_runtime_s"])
    assert meta["failures"] == {"NoDescent": 2}


def test_selection_counts_failures_by_class(monkeypatch):
    # two optimize calls per realization (proposed, then all-N), sigma-major;
    # a realization whose first call fails makes no second one, so call 6 is
    # the all-N design of the last realization
    fail_on_calls(monkeypatch, {0: NoDescent, 6: DegenerateGains})
    config = ExperimentConfig(kind="selection", n_values=(6,), sigma_grid=(0.1, 1.0),
                              realizations=2, constraint=ConstraintSpec.sensor_select(2), seed=3)
    rows, meta = run_experiment(config)
    assert meta["failures"] == {"NoDescent": 1, "DegenerateGains": 1}
    assert len(rows) == 8 and all(math.isfinite(r["mean_variance"]) for r in rows)
    # each grid point keeps the values of its surviving realization, as a
    # run of that point alone with the same realization failed gives them
    for sigma, errors in ((0.1, {0: NoDescent}), (1.0, {3: DegenerateGains})):
        monkeypatch.undo()
        fail_on_calls(monkeypatch, errors)
        want, _ = run_selection_experiment(replace(config, sigma_grid=(sigma,)))
        assert [r for r in rows if r["sigma_n2"] == sigma] == want


def test_oracle_gap_counts_failed_realizations_as_misses(monkeypatch):
    fail_on_calls(monkeypatch, {1: NoDescent, 2: DegenerateGains})
    config = ExperimentConfig(kind="oracle-gap", n_values=(2, 3), realizations=4,
                              constraint=ConstraintSpec.quantized(4),
                              optimizer=OptimizerConfig(restarts=4), seed=8)
    rows, meta = run_experiment(config)
    assert [r["seed"] for r in rows] == [0, 3]
    assert meta["failures"] == {"NoDescent": 1, "DegenerateGains": 1}
    assert meta["success_rate"] == sum(r["hit"] for r in rows) / 4


def test_failures_are_empty_without_errors_and_other_exceptions_propagate(monkeypatch):
    configs = (ExperimentConfig(kind="sweep-N", n_values=(4,), realizations=2),
               ExperimentConfig(kind="selection", n_values=(4,), sigma_grid=(1.0,),
                                realizations=1, constraint=ConstraintSpec.sensor_select(2)),
               ExperimentConfig(kind="oracle-gap", n_values=(2,), realizations=2,
                                constraint=ConstraintSpec.quantized(4)))
    for config in configs:
        assert run_experiment(config)[1]["failures"] == {}
    for config in configs:
        monkeypatch.undo()
        fail_on_calls(monkeypatch, {0: ZeroDivisionError})
        with pytest.raises(ZeroDivisionError):
            run_experiment(config)


def test_cli_json_shows_the_failure_tally(tmp_path, capsys, monkeypatch):
    def run(argv, errors):
        monkeypatch.undo()
        fail_on_calls(monkeypatch, errors)
        assert main(argv + ["--seed", "2", "--out", str(tmp_path / "rows.csv")]) == 0
        return json.loads(capsys.readouterr().out)

    doc = run(["sweep", "--n", "4", "--realizations", "2"], {1: NoDescent})
    assert doc["failures"] == {"NoDescent": 1}
    doc = run(["oracle-gap", "--n", "2", "--realizations", "3"], {0: DegenerateGains})
    assert doc["failures"] == {"DegenerateGains": 1}
    assert doc["success_rate"] <= 2 / 3


# --------------------------------------------------------------------- CSV


def test_render_csv_layout():
    rows = [{"N": 4, "method": "optimized", "mean_variance": 0.5,
             "mean_runtime_s": 0.001, "realizations": 3, "failures": 0}]
    text = render_csv(rows, SWEEP_COLUMNS, comment="note")
    lines = text.splitlines()
    assert lines[0] == "# note"
    assert lines[1] == ",".join(SWEEP_COLUMNS)
    assert lines[2] == "4,optimized,0.5,0.001,3,0"
    assert text.endswith("\n")


def test_render_csv_blanks_runtime_for_byte_determinism():
    config = ExperimentConfig(kind="sweep-N", n_values=(4,), realizations=3, seed=11)
    texts = []
    for _ in range(2):
        rows, _ = run_sweep(config)
        texts.append(render_csv(rows, SWEEP_COLUMNS, include_runtime=False))
    assert texts[0] == texts[1]
    assert ",,," not in texts[0]
    assert all(line.split(",")[3] == "" for line in texts[0].splitlines()[1:])


def test_render_csv_floats_roundtrip_exactly():
    value = 1.0 / 3.0
    text = render_csv([{"sigma_n2": value, "method": "proposed", "mean_variance": value}],
                      SELECTION_COLUMNS)
    cell = text.splitlines()[1].split(",")[2]
    assert float(cell) == value
