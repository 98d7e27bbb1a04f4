"""The cyclic gain optimizer: lift, auxiliary solve, shift, projections.

Worked scalar values (N=M=1, h=1, sigma_v^2=sigma_n^2=1, a=1, corner 0):
R=[[0,1],[1,2]], y=(1,-0.5), y^H R y=-info=-0.5, Q=[[0.25,-0.5],[-0.5,0]],
C1=sigma_n^2 ||y_tail||^2=0.25, all derivable with a 2x2 inversion by hand.
The paper's corner eta0 (oracles.eta0_bound) would add eta0 to y^H R y and
to C1 and change nothing else.
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wsngain import (
    ConstraintSpec,
    DegenerateGains,
    GainVector,
    InvalidConfig,
    NoDescent,
    NoiseConfig,
    OptimizerConfig,
    ZeroVectorWarning,
    assemble_global_model,
    build_inner_quadratic,
    build_lifted,
    centralized_model,
    decentralized_model,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    global_variance,
    inner_power_iterations,
    optimize,
    optimize_decentralized,
    optimize_phase_only_uqp,
    project,
    random_connected_topology,
    refine,
    shift_quadratic,
    solve_auxiliary,
    uqp_matrix,
    uqp_step,
)
from wsngain import gainopt
from wsngain.diffusion import GlobalModel
from wsngain.gainopt import (LAMBDA_MARGIN, _nondecreasing, _quantize_phases, _restart_points,
                             _rotation_rounding)
from wsngain.scenario import CentralizedScenario

SCALAR_MODEL = GlobalModel(
    H=np.array([[1.0 + 0j]]),
    sensor_noise_var=np.array([1.0]),
    noise_var=1.0,
)


def random_model(n, m=4, seed=0):
    scen = gen_centralized_scenario(n, m, NoiseConfig(), seed=seed)
    return centralized_model(scen)


# ------------------------------------------------------------ constraint spec


def test_parse_and_label_roundtrip():
    for text in ("energy", "phase", "quant:4", "select:3:energy", "select:3:phase"):
        spec = ConstraintSpec.parse(text)
        assert ConstraintSpec.parse(spec.label()) == spec
    assert ConstraintSpec.parse("select:2") == ConstraintSpec.sensor_select(2)


def test_parse_rejects_garbage():
    for text in ("power", "quant", "quant:1", "select:0", "select:2:odd", "phase:8"):
        with pytest.raises(InvalidConfig):
            ConstraintSpec.parse(text)
    # the counts are integers (Python or numpy), never a bool
    for bad in (dict(q_levels=2.5), dict(q_levels="4"), dict(q_levels=True)):
        with pytest.raises(InvalidConfig):
            ConstraintSpec("quant", **bad)
    for bad in (dict(k_active=2.5), dict(k_active=True), dict(k_active="2")):
        with pytest.raises(InvalidConfig):
            ConstraintSpec("select", **bad)
    assert ConstraintSpec("quant", q_levels=np.int64(4)).label() == "quant:4"


def test_spec_refuses_fields_its_kind_ignores():
    # one feasible set, one spec: a field the kind ignores keeps its default
    for kind in ("energy", "phase", "select"):
        with pytest.raises(InvalidConfig, match="q_levels"):
            ConstraintSpec(kind, q_levels=3, k_active=2 if kind == "select" else None)
    for kind in ("energy", "phase", "quant"):
        with pytest.raises(InvalidConfig, match="k_active"):
            ConstraintSpec(kind, k_active=2, q_levels=4 if kind == "quant" else None)
        with pytest.raises(InvalidConfig, match="select_mode"):
            ConstraintSpec(kind, select_mode="phase", q_levels=4 if kind == "quant" else None)
    assert ConstraintSpec("energy", select_mode="energy") == ConstraintSpec("energy")
    assert ConstraintSpec("select", k_active=2, select_mode="phase").label() == "select:2:phase"


def test_random_points_are_feasible():
    rng = np.random.default_rng(0)
    for spec in (
        ConstraintSpec.fixed_energy(),
        ConstraintSpec.phase_only(),
        ConstraintSpec.quantized(4),
        ConstraintSpec.sensor_select(3),
        ConstraintSpec.sensor_select(3, "phase"),
    ):
        for _ in range(25):
            spec.check(spec.random_point(8, rng))
        spec.check(spec.initial_point(8))


def test_check_rejects_non_finite_gains():
    # every comparison with NaN is false, so a tolerance test alone would pass it
    for text in ("energy", "phase", "quant:4", "select:3", "select:3:phase"):
        spec = ConstraintSpec.parse(text)
        for bad in (np.nan, complex(0.0, np.nan), np.inf):
            a = spec.initial_point(8)
            a[2] = bad
            with pytest.raises(InvalidConfig):
                spec.check(a)
            with pytest.raises(InvalidConfig):
                GainVector(a, spec)


# --------------------------------------------------------------------- lift


def test_eta0_bound_worked_value():
    # the paper's corner constant, kept as an oracle
    model = GlobalModel(H=np.eye(2, dtype=complex), sensor_noise_var=np.ones(2), noise_var=1.0)
    assert oracles.eta0_bound(model) == pytest.approx(4.4)


def test_eta0_bound_scales_quadratically():
    model = random_model(5, seed=1)
    scaled = GlobalModel(H=3.0 * model.H, sensor_noise_var=model.sensor_noise_var,
                         noise_var=model.noise_var)
    assert oracles.eta0_bound(scaled) == pytest.approx(9.0 * oracles.eta0_bound(model))


def test_build_lifted_scalar():
    r = build_lifted(SCALAR_MODEL, np.array([1.0 + 0j]))
    assert np.allclose(r, [[0, 1], [1, 2]])


def test_build_lifted_zero_gains():
    # zero gains carry no information: y = e_1 and y^H R y = 0
    r = build_lifted(SCALAR_MODEL, np.array([0.0 + 0j]))
    y = solve_auxiliary(r)
    assert np.array_equal(y, [1.0, 0.0])
    assert float(np.real(y.conj() @ (r @ y))) == 0.0


def test_build_lifted_hermitian():
    model = random_model(6, seed=2)
    a = ConstraintSpec.fixed_energy().random_point(6, np.random.default_rng(1))
    r = build_lifted(model, a)
    assert np.allclose(r, r.conj().T)
    assert r[0, 0] == 0.0


def test_solve_auxiliary_worked_value():
    # the same y under the corner 0 and under the paper's corner eta0 = 2
    for corner in (0.0, 2.0):
        y = solve_auxiliary(np.array([[corner, 1.0], [1.0, 2.0]], dtype=complex))
        assert np.allclose(y, [1.0, -0.5])


def test_solve_auxiliary_diagonal():
    y = solve_auxiliary(np.diag([3.0, 2.0, 5.0]).astype(complex))
    assert np.allclose(y, [1.0, 0.0, 0.0])


def test_solve_auxiliary_residual_property():
    # R y must vanish on all but the first coordinate: R y = -info e_1
    model = random_model(7, seed=3)
    a = ConstraintSpec.phase_only().random_point(7, np.random.default_rng(2))
    r = build_lifted(model, a)
    y = solve_auxiliary(r)
    value = float(np.real(y.conj() @ (r @ y)))
    e1 = np.zeros(r.shape[0], dtype=complex)
    e1[0] = 1.0
    assert np.linalg.norm(r @ y - value * e1) <= 1e-9 * np.linalg.norm(r)
    assert -value == pytest.approx(1.0 / global_variance(model, a), rel=1e-12)


def _direct_auxiliary(r):
    e1 = np.zeros(r.shape[0], dtype=complex)
    e1[0] = 1.0
    y = np.linalg.solve(r, e1)
    return y / y[0]


def _rel_dist(y, ref):
    return np.linalg.norm(y - ref) / np.linalg.norm(ref)


def _spy_on_direct_solves(monkeypatch):
    """A list that gains one entry per np.linalg.solve call until undo."""
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
    return calls


def test_solve_auxiliary_matches_gram_schmidt_oracle_and_direct_solve():
    # block Gram-Schmidt (two passes) against the paper's row-by-row
    # modified Gram-Schmidt and a dense solve, on centralized lifts of size
    # M + 1 = 2..61 and decentralized lifts of size N + 1 = 3..61
    rng = np.random.default_rng(11)
    for size in range(2, 62):
        n = int(rng.integers(1, 30))
        model = random_model(n, m=size - 1, seed=size)
        a = ConstraintSpec.fixed_energy().random_point(n, rng)
        lifts = [build_lifted(model, a)]
        if size >= 3:
            topo = random_connected_topology(size - 1, 0.3, seed=size)
            scen = gen_decentralized_scenario(topo, NoiseConfig(), seed=size)
            a = ConstraintSpec.phase_only().random_point(size - 1, rng)
            model, _ = decentralized_model(scen, a)
            lifts.append(build_lifted(model, a))
        for r in lifts:
            y = solve_auxiliary(r)
            assert _rel_dist(y, oracles.solve_auxiliary_mgs(r)) <= 1e-12, size
            assert _rel_dist(y, _direct_auxiliary(r)) <= 1e-12, size


def test_solve_auxiliary_reorthogonalizes_on_a_low_noise_lift(monkeypatch):
    # receiver noise 1e-4 with M = N = 40 makes the border rows nearly
    # dependent: one classical Gram-Schmidt pass is off by about 1e-10 here,
    # the second pass brings it back (the direct-solve fallback stays off)
    rng = np.random.default_rng(12)
    lifts = []
    for _ in range(3):
        h = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        model = GlobalModel(H=h, sensor_noise_var=rng.uniform(0.5, 1.5, 40), noise_var=1e-4)
        a = ConstraintSpec.phase_only().random_point(40, rng)
        lifts.append(build_lifted(model, a))
    solves = _spy_on_direct_solves(monkeypatch)
    ys = [solve_auxiliary(r) for r in lifts]
    monkeypatch.undo()
    assert not solves
    for r, y in zip(lifts, ys):
        assert _rel_dist(y, oracles.solve_auxiliary_mgs(r)) <= 1e-12
        assert _rel_dist(y, _direct_auxiliary(r)) <= 1e-12


def test_solve_auxiliary_skips_a_repeated_border_row():
    # rows 2 and 3 are equal, so the second leaves an exactly zero residual
    # and adds nothing to the basis (normalizing it would give NaN); the
    # lift is singular, so R y = (y^H R y) e_1 and the oracle pin the result
    r = np.array([[2, 1, 1, 0], [1, 1, 1, 1], [1, 1, 1, 1], [0, 1, 1, 3]], dtype=complex)
    y = solve_auxiliary(r)
    assert np.all(np.isfinite(y))
    assert _rel_dist(y, oracles.solve_auxiliary_mgs(r)) <= 1e-12
    ry = r @ y
    assert np.max(np.abs(ry[1:])) <= 1e-12 * abs(ry[0])


def test_solve_auxiliary_falls_back_to_a_direct_solve(monkeypatch):
    # the border block [[1, 1], [1, 1 + 1e-14]] is nearly singular and the
    # border (1, -1) lies along its small eigenvector, so e_1 is within
    # 1e-12 ||R|| of the span of the border rows
    r = np.array([[2, 1, -1], [1, 1, 1], [-1, 1, 1 + 1e-14]], dtype=complex)
    solves = _spy_on_direct_solves(monkeypatch)
    y = solve_auxiliary(r)
    monkeypatch.undo()
    assert len(solves) == 1
    assert _rel_dist(y, oracles.solve_auxiliary_mgs(r)) <= 1e-12
    assert _rel_dist(y, _direct_auxiliary(r)) <= 1e-12


def test_build_inner_quadratic_scalar():
    y_tail = np.array([-0.5 + 0j])
    d, g = build_inner_quadratic(y_tail, SCALAR_MODEL)
    q = oracles.arrow_matrix(d, g)
    assert np.allclose(q, [[0.25, -0.5], [-0.5, 0.0]])
    c1 = oracles.lift_constant(y_tail, SCALAR_MODEL)
    assert c1 == pytest.approx(0.25)
    # the lift identity at a=1 recovers -info
    z = np.array([1.0 + 0j, 1.0])
    assert c1 + float(np.real(z.conj() @ (q @ z))) == pytest.approx(-0.5)


def test_build_inner_quadratic_zero_tail():
    d, g = build_inner_quadratic(np.zeros(1, dtype=complex), SCALAR_MODEL)
    assert np.allclose(oracles.arrow_matrix(d, g), 0.0)


def test_lift_identity_random_triples():
    rng = np.random.default_rng(4)
    for seed in range(20):
        model = random_model(5, seed=seed)
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y_tail = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        r = build_lifted(model, a)
        y = np.concatenate([[1.0 + 0j], y_tail])
        d, g = build_inner_quadratic(y_tail, model)
        q = oracles.arrow_matrix(d, g)
        z = np.concatenate([a, [1.0 + 0j]])
        lhs = float(np.real(y.conj() @ (r @ y)))
        rhs = oracles.lift_constant(y_tail, model) + float(np.real(z.conj() @ (q @ z)))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


# --------------------------------------------------------------------- shift


def shifted(lam, d, g):
    """The dense lambda I - Q for the arrow Q of (d, g)."""
    return lam * np.eye(len(d) + 1) - oracles.arrow_matrix(d, g)


def test_shift_exceeds_top_eigenvalue():
    d, g = np.array([0.25]), np.array([-0.5 + 0j])
    top = (0.25 + np.sqrt(1.0625)) / 2.0
    lam = shift_quadratic(d, g)
    assert lam > top
    assert np.all(np.linalg.eigvalsh(shifted(lam, d, g)) > 0)


def test_shift_zero_matrix():
    d, g = np.zeros(2), np.zeros(2, dtype=complex)
    lam = shift_quadratic(d, g)
    assert lam > 0
    assert np.allclose(shifted(lam, d, g), lam * np.eye(3))


def random_arrow(rng, n):
    """Arrow form as build_inner_quadratic makes it: diagonal d >= 0 and
    complex border g (the corner is zero)."""
    d = rng.exponential(size=n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return d, g


def test_shift_positive_definite_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        d, g = random_arrow(rng, 6)
        q = oracles.arrow_matrix(d, g)
        lam = shift_quadratic(d, g)
        evs = np.linalg.eigvalsh(shifted(lam, d, g))
        assert evs.min() > 0
        assert lam > np.linalg.eigvalsh(q).max()


def test_shift_is_margin_times_top_eigenvalue():
    # tight to rounding, also where |g|^2 is near the underflow threshold:
    # the lambda floor is for Q = 0 only
    rng = np.random.default_rng(6)
    for n, scale, _ in itertools.product((1, 2, 6, 40), (1.0, 1e-150), range(5)):
        d, g = random_arrow(rng, n)
        d, g = scale * d, scale * g
        lam = shift_quadratic(d, g)
        top = np.linalg.eigvalsh(oracles.arrow_matrix(d, g)).max()
        assert np.isfinite(lam) and lam > 0
        assert abs(lam / LAMBDA_MARGIN - top) <= 1e-12 * top


def test_shift_border_zero_at_largest_diagonal():
    # the top eigenvector is e_1 alone, so lambda_max = max d, above the
    # largest root of the secular equation over the other entries
    d, g = np.array([5.0, 1.0, 0.5]), np.array([0.0, 1.0 + 1.0j, -0.5])
    q = oracles.arrow_matrix(d, g)
    assert np.linalg.eigvalsh(q).max() == pytest.approx(5.0, rel=1e-14)
    lam = shift_quadratic(d, g)
    assert lam / LAMBDA_MARGIN == pytest.approx(5.0, rel=1e-12)
    assert lam > 5.0


def test_shift_matches_bisection_oracle():
    # the secular iteration against plain bisection, on plain draws, diagonals
    # clustered within 1e-12 of max d, a zero border at max d, and ties at
    # max d; no point evaluated may sit on a pole, and lambda / margin must be
    # a certified upper end of the spectrum
    rng = np.random.default_rng(11)
    cases = ("plain", "cluster", "zero-border", "tie")
    for n, scale, case, _ in itertools.product((1, 2, 6, 40, 200), (1.0, 1e-150), cases, range(5)):
        d, g = random_arrow(rng, n)
        top = d.max()
        if case == "cluster":
            near = rng.choice(n, min(n, 4), replace=False)
            d[near] = top * (1.0 - 1e-12 * rng.random(len(near)))
        elif case == "tie":
            d[rng.choice(n, min(n, 3), replace=False)] = top
        elif case == "zero-border" and n > 1:
            g[d == top] = 0.0
        d, g = scale * d, scale * g
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            lam = shift_quadratic(d, g)
        want = oracles.shift_bisection(d, g, LAMBDA_MARGIN)
        assert abs(lam - want) <= 1e-15 * want, (n, scale, case)
        end = lam / LAMBDA_MARGIN
        assert end - np.sum(np.abs(g) ** 2 / (end - d)) >= 0.0, (n, scale, case)


# --------------------------------------------------------------- projections


def test_project_energy_worked_value():
    out = project(np.array([3.0 + 0j, 4.0]), ConstraintSpec.fixed_energy())
    assert np.allclose(out, np.sqrt(2) / 5.0 * np.array([3.0, 4.0]))


def test_project_phase_worked_value():
    out = project(np.array([1.0 + 1j, -2.0 + 0j]), ConstraintSpec.phase_only())
    assert np.allclose(out, [np.exp(1j * np.pi / 4), -1.0])


def test_project_quant_worked_value():
    out = project(np.array([np.exp(0.3j * np.pi)]), ConstraintSpec.quantized(4))
    assert np.allclose(out, [1j])


def test_project_quant_midpoint_tie():
    # arg pi/4 sits exactly between grid phases 0 and pi/2: smaller wins
    out = project(np.array([np.exp(0.25j * np.pi)]), ConstraintSpec.quantized(4))
    assert np.allclose(out, [1.0])
    # wraparound tie between 3pi/2 and 2pi resolves to phase 0
    out = project(np.array([np.exp(1.75j * np.pi)]), ConstraintSpec.quantized(4))
    assert np.allclose(out, [1.0])


def test_quantize_phases_matches_floor_oracle_bitwise():
    # every grid point and midpoint over four turns each way, their float
    # neighbours, random angles and the special values, for several Q
    rng = np.random.default_rng(0)
    for q in (2, 3, 4, 5, 7, 8, 16):
        steps = 2.0 * np.pi * (np.arange(-8 * q, 8 * q) / 2.0) / q
        angles = np.concatenate([
            steps, np.nextafter(steps, np.inf), np.nextafter(steps, -np.inf),
            rng.uniform(-4.0 * np.pi, 4.0 * np.pi, 2000),
            [0.0, -0.0, 1e-300, -1e-300, np.pi, -np.pi, np.nan]])
        got = _quantize_phases(angles, q)
        want = oracles.quantize_phases_floor(angles, q)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), q


def test_project_quant_grid_lookup_gives_the_entrywise_bytes():
    # the cached grid lookup against e^{j phase} of each quantized phase:
    # random images over many magnitudes, the grid points and midpoints, Q
    # from 2 to 64; a NaN entry stays non-finite, so the check rejects it
    rng = np.random.default_rng(1)
    for q in range(2, 65):
        spec = ConstraintSpec.quantized(q)
        steps = np.exp(1j * np.pi * np.arange(-2 * q, 2 * q) / q)
        scale = 10.0 ** rng.uniform(-300, 300, 200)
        for a in (steps, (rng.standard_normal(200) + 1j * rng.standard_normal(200)) * scale):
            want = np.exp(1j * _quantize_phases(np.angle(a), q))
            assert np.array_equal(project(a, spec).view(np.uint64), want.view(np.uint64)), q
        a = np.array([1.0, np.nan, 1j, complex(np.nan, 1.0)])
        out = project(a, spec)
        assert np.array_equal(np.isfinite(out), [True, False, True, False])
        assert np.array_equal(out[[0, 2]], project(a[[0, 2]], spec))
        with pytest.raises(InvalidConfig):
            spec.check(out)


def test_project_select_energy_worked_value():
    out = project(np.array([0.1, -5.0, 2.0, 0.5], dtype=complex), ConstraintSpec.sensor_select(2))
    assert np.allclose(out, 2.0 * np.array([0.0, -5.0, 2.0, 0.0]) / np.sqrt(29.0))


def test_project_select_phase_worked_value():
    out = project(np.array([0.1, -5.0, 2.0, 0.5], dtype=complex),
                  ConstraintSpec.sensor_select(2, "phase"))
    assert np.allclose(out, np.sqrt(2) * np.array([0.0, -1.0, 1.0, 0.0]))


def test_project_select_rank_tie_keeps_lower_index():
    out = project(np.array([2.0, 1.0, 1.0, 0.0], dtype=complex), ConstraintSpec.sensor_select(2))
    assert np.flatnonzero(np.abs(out)).tolist() == [0, 1]


def test_project_zero_vector_warns():
    with pytest.warns(ZeroVectorWarning):
        out = project(np.zeros(3, dtype=complex), ConstraintSpec.fixed_energy())
    ConstraintSpec.fixed_energy().check(out)
    with pytest.warns(ZeroVectorWarning):
        out = project(np.zeros(3, dtype=complex), ConstraintSpec.sensor_select(2))
    ConstraintSpec.sensor_select(2).check(out)


def test_project_matches_sorted_oracle():
    # random vectors, magnitude ties, grid midpoints, signed zeros and K >= N:
    # the same support and the same values to rounding as the plain form
    rng = np.random.default_rng(8)
    for trial in range(400):
        n = int(rng.integers(1, 40))
        if trial % 4 == 0:
            q = int(rng.integers(2, 9))
            a_hat = np.exp(1j * np.pi * rng.integers(0, 4 * q, n) / (2 * q)) * rng.integers(0, 3, n)
        else:
            a_hat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if trial % 9 == 0:
            a_hat = rng.choice([0.0, -0.0, 1.0], n) + 1j * rng.choice([0.0, -0.0], n)
        k = int(rng.integers(1, n + 3))
        for spec in (ConstraintSpec.fixed_energy(), ConstraintSpec.phase_only(),
                     ConstraintSpec.quantized(int(rng.integers(2, 17))),
                     ConstraintSpec.sensor_select(k), ConstraintSpec.sensor_select(k, "phase")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ZeroVectorWarning)
                out = project(a_hat, spec)
            ref = oracles.project_sorted(a_hat, spec)
            assert np.array_equal(out != 0, ref != 0), (trial, spec)
            np.testing.assert_allclose(out, ref, rtol=1e-15, atol=0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 9))
def test_project_feasible_and_idempotent(data, n):
    re = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    im = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    a_hat = np.array(re) + 1j * np.array(im)
    for spec in (
        ConstraintSpec.fixed_energy(),
        ConstraintSpec.phase_only(),
        ConstraintSpec.quantized(6),
        ConstraintSpec.sensor_select(max(1, n // 2)),
        ConstraintSpec.sensor_select(max(1, n // 2), "phase"),
    ):
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore", ZeroVectorWarning)
            out = project(a_hat, spec)
            spec.check(out)
            again = project(out, spec)
        assert np.allclose(out, again, atol=1e-9)


# ------------------------------------------------------------ inner iterations


def test_inner_identity_matrix_fixed_point():
    a0 = ConstraintSpec.phase_only().random_point(4, np.random.default_rng(6))
    # d = 0 and g = 0 give Q~ = lambda I with lambda = LAMBDA_FLOOR
    a, objs = inner_power_iterations(a0, np.zeros(4), np.zeros(4, dtype=complex),
                                     ConstraintSpec.phase_only(), 10)
    assert np.allclose(a, a0)
    assert len(objs) == 1


def test_inner_objective_nondecreasing():
    rng = np.random.default_rng(7)
    for seed in range(10):
        model = random_model(5, seed=seed)
        a = ConstraintSpec.fixed_energy().random_point(5, rng)
        r = build_lifted(model, a)
        y = solve_auxiliary(r)
        d, g = build_inner_quadratic(y[1:], model)
        for spec in (ConstraintSpec.fixed_energy(), ConstraintSpec.phase_only(),
                     ConstraintSpec.quantized(4), ConstraintSpec.sensor_select(3)):
            a0 = spec.random_point(5, rng)
            _, objs = inner_power_iterations(a0, d, g, spec, 60)
            diffs = np.diff(objs)
            assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(objs[:-1])))


def test_inner_fixed_energy_matches_sphere_oracle():
    # the exact step must land on the global sphere maximum found by a long
    # projected-gradient reference on Q~; on ||a||^2 = N the shifted value
    # is lambda (1 + N) - f, and the tolerance stays that of the shifted value
    rng = np.random.default_rng(8)
    for seed in range(6):
        model = random_model(2, m=2, seed=seed)
        anchor = ConstraintSpec.fixed_energy().random_point(2, rng)
        r = build_lifted(model, anchor)
        y = solve_auxiliary(r)
        d, g = build_inner_quadratic(y[1:], model)
        lam = shift_quadratic(d, g)
        best = -np.inf
        for start in range(4):
            a0 = (ConstraintSpec.fixed_energy().initial_point(2) if start == 0
                  else ConstraintSpec.fixed_energy().random_point(2, rng))
            a, objs = inner_power_iterations(a0, d, g, ConstraintSpec.fixed_energy(), 3000)
            best = max(best, objs[-1])
        want = oracles.sphere_quadratic_max(shifted(lam, d, g), 2)
        assert abs(best - (want - 3.0 * lam)) <= 1e-6 * want


def test_inner_quant_two_levels_matches_exhaustive():
    rng = np.random.default_rng(9)
    spec = ConstraintSpec.quantized(2)
    for seed in range(8):
        model = random_model(2, m=2, seed=100 + seed)
        anchor = spec.random_point(2, rng)
        r = build_lifted(model, anchor)
        y = solve_auxiliary(r)
        d, g = build_inner_quadratic(y[1:], model)
        lam = shift_quadratic(d, g)
        q, q_tilde = oracles.arrow_matrix(d, g), shifted(lam, d, g)
        best, scale = -np.inf, -np.inf  # the best -f, and the best shifted value for the tolerance
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            z = np.array(signs + [1], dtype=complex)
            best = max(best, -float(np.real(z.conj() @ (q @ z))))
            scale = max(scale, float(np.real(z.conj() @ (q_tilde @ z))))
        reached = -np.inf
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            _, objs = inner_power_iterations(np.array(signs, dtype=complex), d, g, spec, 50)
            reached = max(reached, objs[-1])
        assert abs(reached - best) <= 1e-12 * scale


POWER_STEP_FAMILIES = (ConstraintSpec.phase_only(), ConstraintSpec.quantized(4),
                       ConstraintSpec.sensor_select(3, "phase"))


def test_inner_arrow_step_matches_dense_oracle():
    # the O(N) arrow step against the lifted dense matvec, from the auxiliary
    # vector of a random anchor: same steps, same gains, and each -f equal to
    # the dense -z^H Q z within 1e-12 of the shifted z^H Q~ z (the energy and
    # select:K energy families take one exact step instead, checked against
    # the sphere oracle below)
    rng = np.random.default_rng(10)
    for seed in range(30):
        n = int(rng.integers(1, 13))
        model = random_model(n, m=int(rng.integers(1, 5)), seed=200 + seed)
        anchor = ConstraintSpec.fixed_energy().random_point(n, rng)
        y = solve_auxiliary(build_lifted(model, anchor))
        d, g = build_inner_quadratic(y[1:], model)
        q, q_tilde = oracles.arrow_matrix(d, g), shifted(shift_quadratic(d, g), d, g)
        for spec in POWER_STEP_FAMILIES:
            a0 = spec.random_point(n, rng)
            for max_iters in (3, 60):
                a, objs = inner_power_iterations(a0, d, g, spec, max_iters)
                a_ref, lifted = oracles.inner_power_iterations_dense(
                    a0, q_tilde, lambda v: project(v, spec), max_iters)
                assert len(objs) == len(lifted)
                assert np.max(np.abs(a - a_ref)) <= 1e-12
                for obj, z in zip(objs, lifted):
                    want = -float(np.real(z.conj() @ (q @ z)))
                    assert abs(obj - want) <= 1e-12 * abs(float(np.real(z.conj() @ (q_tilde @ z))))


def _neg_f(d, g, a):
    return -float(np.real(np.vdot(a, d * a) + 2.0 * np.vdot(g, a)))


def _shifted_objective(lam, d, g, a):
    return lam + float(np.real(np.vdot(a, (lam - d) * a - g) - np.vdot(g, a)))


def test_inner_energy_step_matches_sphere_bisection_oracle():
    # one exact step lands on the global maximum of -f on the sphere, within
    # 1e-12 of the shifted objective there: arrows from the auxiliary vector
    # of random anchors, plain draws, exact zeros at the smallest diagonal
    # (the hard case when the rest falls short of the sphere) and near-zeros
    # there, over many scales; no warning may fire
    rng = np.random.default_rng(12)
    energy = ConstraintSpec.fixed_energy()
    for trial in range(400):
        n = int(rng.integers(1, 40))
        if trial % 4 == 0:
            model = random_model(n, m=int(rng.integers(1, 5)), seed=300 + trial)
            y = solve_auxiliary(build_lifted(model, energy.random_point(n, rng)))
            d, g = build_inner_quadratic(y[1:], model)
        else:
            d, g = random_arrow(rng, n)
            d = np.abs(g) ** 2 * rng.uniform(0.5, 1.5, n) if trial % 2 else d
            weak = rng.choice(n, n // 2, replace=False)
            if trial % 4 == 2:  # lifting the rest of d by about ||g|| / sqrt(n) makes it hard
                g[weak], d[weak] = 0.0, 0.0
                d[d > 0] += rng.uniform(0.0, 2.0) * np.linalg.norm(g) / np.sqrt(n)
            elif trial % 4 == 3:
                g[weak] *= 10.0 ** rng.uniform(-15, -3)
                d[weak] = np.abs(g[weak]) ** 2
        scale = 10.0 ** rng.uniform(-100, 100)
        d, g = scale * d, scale * g
        lam = shift_quadratic(d, g)
        a0 = energy.random_point(n, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, objs = inner_power_iterations(a0, d, g, energy, 1)
        energy.check(a)
        best = oracles.sphere_minimizer_bisection(d, g, n)
        assert len(objs) == 2 and objs[0] == _neg_f(d, g, a0)
        tol = 1e-12 * _shifted_objective(lam, d, g, best)
        assert abs(objs[1] - _neg_f(d, g, best)) <= tol, trial


def test_inner_energy_step_hard_case_and_zero_border_by_hand():
    energy = ConstraintSpec.fixed_energy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # g = 0 at the smallest d, and -g / (d - min d) = (0, -1, -1/2) falls
        # short of the sphere: the remaining norm 3 - 5/4 goes to entry 0
        d, g = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0], dtype=complex)
        a, objs = inner_power_iterations(np.ones(3, dtype=complex), d, g, energy, 50)
        np.testing.assert_allclose(a, [np.sqrt(1.75), -1.0, -0.5], rtol=1e-15)
        assert a[0].imag == 0.0 and len(objs) == 2 and objs[1] > objs[0]
        # g = 0 (so d = 0 on the optimizer's path): every point is optimal and a stays
        a0 = energy.random_point(4, np.random.default_rng(13))
        a, objs = inner_power_iterations(a0, np.zeros(4), np.zeros(4, dtype=complex), energy, 50)
        assert np.array_equal(a, a0) and len(objs) == 1


@pytest.mark.parametrize("weak_scale", [1e-15, 1e-100])
def test_sphere_minimizer_near_the_hard_case_takes_few_evaluations(weak_scale, monkeypatch):
    # a quarter of the border scaled far down puts the root many decades
    # under the bracket's upper end; each solve stays within 40 secular
    # evaluations and lands on the bisection oracle's optimum
    evaluations = []
    secular_root = gainopt._secular_root

    def counted(step, *args):
        def counting(x):
            evaluations.append(x)
            return step(x)
        return secular_root(counting, *args)

    monkeypatch.setattr(gainopt, "_secular_root", counted)
    rng = np.random.default_rng(21)
    for trial in range(2000):
        n = int(rng.integers(2, 200))
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = np.abs(g) ** 2 * rng.uniform(0.5, 1.5, n)
        g[rng.choice(n, max(1, n // 4), replace=False)] *= weak_scale
        evaluations.clear()
        a = gainopt._sphere_minimizer(d, g, n)
        assert len(evaluations) <= 40, (trial, len(evaluations))
        if trial % 10 == 0:
            want = oracles.sphere_minimizer_bisection(d, g, n)
            f, f_want = (float(np.real(np.vdot(x, d * x) + 2.0 * np.vdot(g, x))) for x in (a, want))
            assert abs(np.vdot(a, a).real - n) <= 1e-12 * n
            assert abs(f - f_want) <= 1e-12 * abs(f_want), trial


def _oracle_arrow(rng, trial, n):
    """The arrows of the energy oracle test above: from the auxiliary vector
    of a random anchor, plain draws, exact zeros at the smallest diagonal
    (the hard case when the rest falls short of the sphere) and near-zeros
    there, over many scales."""
    if trial % 4 == 0:
        model = random_model(n, m=int(rng.integers(1, 5)), seed=300 + trial)
        anchor = ConstraintSpec.fixed_energy().random_point(n, rng)
        y = solve_auxiliary(build_lifted(model, anchor))
        d, g = build_inner_quadratic(y[1:], model)
    else:
        d, g = random_arrow(rng, n)
        d = np.abs(g) ** 2 * rng.uniform(0.5, 1.5, n) if trial % 2 else d
        weak = rng.choice(n, n // 2, replace=False)
        if trial % 4 == 2:  # lifting the rest of d by about ||g|| / sqrt(n) makes it hard
            g[weak], d[weak] = 0.0, 0.0
            d[d > 0] += rng.uniform(0.0, 2.0) * np.linalg.norm(g) / np.sqrt(n)
        elif trial % 4 == 3:
            g[weak] *= 10.0 ** rng.uniform(-15, -3)
            d[weak] = np.abs(g[weak]) ** 2
    scale = 10.0 ** rng.uniform(-100, 100)
    return scale * d, scale * g


def _support_optimum(d, g, support, n):
    """The bisection oracle's sphere minimizer on one support, zero elsewhere."""
    a = np.zeros(len(d), dtype=complex)
    a[support] = oracles.sphere_minimizer_bisection(d[support], g[support], n)
    return a


def test_inner_select_energy_step_matches_sphere_bisection_oracle():
    # one exact step lands on the better of the sphere maxima of -f on two
    # supports, the start's and the K largest entries of the full-sphere
    # maximizer, within 1e-12 of the shifted objective there, on every kind
    # of arrow and from starts with K or fewer nonzeros; no warning may fire
    rng = np.random.default_rng(14)
    for trial in range(400):
        n = int(rng.integers(1, 40))
        spec = ConstraintSpec.sensor_select(int(rng.integers(1, n + 1)))
        d, g = _oracle_arrow(rng, trial, n)
        lam = shift_quadratic(d, g)
        a0 = spec.random_point(n, rng)
        if trial % 3:  # keep a random nonempty part of the start's support
            support = rng.permutation(np.flatnonzero(a0))
            a0[support[int(rng.integers(1, len(support) + 1)):]] = 0.0
            a0 *= np.sqrt(n) / np.linalg.norm(a0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, objs = inner_power_iterations(a0, d, g, spec, 1)
        spec.check(a)
        top = project(oracles.sphere_minimizer_bisection(d, g, n), spec) != 0
        best = max((_support_optimum(d, g, support, n) for support in (a0 != 0, top)),
                   key=lambda x: _neg_f(d, g, x))
        assert len(objs) in (1, 2) and objs[0] == _neg_f(d, g, a0)
        tol = 1e-12 * _shifted_objective(lam, d, g, best)
        assert abs(objs[-1] - _neg_f(d, g, best)) <= tol, trial


def _recorded_support_steps(monkeypatch, designs):
    """The (a, d, g, constraint) of every _support_step the designs take."""
    arrows = []
    step = gainopt._support_step

    def recording(a, d, g, constraint):
        arrows.append((a.copy(), d.copy(), g.copy(), constraint))
        return step(a, d, g, constraint)

    with monkeypatch.context() as patch:
        patch.setattr(gainopt, "_support_step", recording)
        designs()
    return arrows


def _support_step_bytes(arrow):
    out = gainopt._support_step(*arrow)
    return None if out is None else out.tobytes()


def test_known_support_skips_no_step_it_changes(monkeypatch):
    # on the compressed model g_k is proportional to a_k, so the full-sphere
    # minimizer's support is a's own and _support_step skips that solve; it
    # must return the bytes of the step that runs it
    select = ConstraintSpec.sensor_select(25)
    config = OptimizerConfig(outer_tol=1e-3)

    def decentralized():
        for seed in range(5):
            scen = gen_decentralized_scenario(random_connected_topology(50, 0.15, seed=seed),
                                              seed=seed)
            optimize_decentralized(scen, select, config)

    arrows = _recorded_support_steps(monkeypatch, decentralized)
    assert len(arrows) > 20
    assert all(gainopt._support_known(a, d, g, c.k_active) for a, d, g, c in arrows)
    skipped = [_support_step_bytes(arrow) for arrow in arrows]
    monkeypatch.setattr(gainopt, "_support_known", lambda *args: False)
    assert skipped == [_support_step_bytes(arrow) for arrow in arrows]
    monkeypatch.undo()

    # a centralized border is nonzero off the support: the full solve runs
    def centralized():
        for seed in range(3):
            optimize(centralized_model(gen_centralized_scenario(30, 4, seed=seed)),
                     ConstraintSpec.sensor_select(6), OptimizerConfig(max_outer=5))

    arrows = _recorded_support_steps(monkeypatch, centralized)
    assert arrows and not any(gainopt._support_known(a, d, g, c.k_active)
                              for a, d, g, c in arrows)
    # the hard case: g vanishes where a does, but min d sits off the support
    # and the full minimizer puts its remaining norm there
    a = np.array([np.sqrt(2), np.sqrt(2), 0, 0], dtype=complex)
    d, g = np.array([4.0, 4.0, 0.0, 0.0]), np.array([0.1, 0.1, 0, 0], dtype=complex)
    assert gainopt._sphere_minimizer(d, g, 4)[2] != 0
    assert not gainopt._support_known(a, d, g, 2)


def test_inner_select_energy_step_by_hand():
    two = ConstraintSpec.sensor_select(2)
    d, g = np.zeros(3), np.array([-3.0, -4.0, -1e-3], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # d = 0: the sphere minimizer is -sqrt(3) g / ||g|| on any support;
        # the full one's two largest entries repeat the start's support
        a0 = np.array([np.sqrt(1.5), np.sqrt(1.5), 0.0], dtype=complex)
        a, objs = inner_power_iterations(a0, d, g, two, 50)
        np.testing.assert_allclose(a, [0.6 * np.sqrt(3), 0.8 * np.sqrt(3), 0.0], rtol=1e-15)
        assert len(objs) == 2 and objs[1] > objs[0]
        # one nonzero of K = 2: the top support {0, 1} beats the start's {0}
        a, objs = inner_power_iterations(np.array([np.sqrt(3), 0, 0], dtype=complex),
                                         d, g, two, 50)
        np.testing.assert_allclose(a, [0.6 * np.sqrt(3), 0.8 * np.sqrt(3), 0.0], rtol=1e-15)
        assert len(objs) == 2 and objs[1] > objs[0]
        # g = 0 on the start's support, where every point is optimal (the
        # solver returns None): the start stays a candidate and loses to the
        # full maximizer's one nonzero, so the result has fewer than K
        g = np.array([0.0, 0.0, -1.0], dtype=complex)
        a, objs = inner_power_iterations(a0, d, g, two, 50)
        np.testing.assert_allclose(a, [0.0, 0.0, np.sqrt(3)], rtol=1e-15)
        assert len(objs) == 2 and objs[1] > objs[0]
        # g = 0 everywhere: both solvers return None and a stays
        g = np.zeros(3, dtype=complex)
        a, objs = inner_power_iterations(a0, d, g, two, 50)
        assert np.array_equal(a, a0) and len(objs) == 1
    # from project's zero-vector fallback point, the step itself warns nothing
    with pytest.warns(ZeroVectorWarning):
        a0 = project(np.zeros(4, dtype=complex), two)
    d, g = np.zeros(4), np.array([0.0, 0.0, -1.0, -2.0], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, objs = inner_power_iterations(a0, d, g, two, 50)
    np.testing.assert_allclose(a, [0.0, 0.0, 2.0 / np.sqrt(5), 4.0 / np.sqrt(5)], rtol=1e-15)
    assert len(objs) == 2 and objs[1] > objs[0]


# ------------------------------------------------------------------ optimizer


def test_trace_reports_convergence_or_budget(monkeypatch):
    model = random_model(5, seed=0)
    _, trace = optimize(model, ConstraintSpec.fixed_energy())
    assert trace.converged and trace.outer_iters < OptimizerConfig().max_outer
    _, trace = optimize(model, ConstraintSpec.fixed_energy(), OptimizerConfig(max_outer=2))
    assert not trace.converged and trace.outer_iters == 2
    _, trace = optimize_phase_only_uqp(model)
    assert trace.converged
    monkeypatch.setattr(gainopt, "INNER_ITERS", 1)
    _, trace = optimize_phase_only_uqp(model, OptimizerConfig(max_outer=1))
    assert not trace.converged and trace.inner_iters_total == 2
    scen = gen_decentralized_scenario(random_connected_topology(8, 0.4, 2), seed=3)
    _, trace, _ = optimize_decentralized(scen, ConstraintSpec.fixed_energy())
    assert trace.converged
    _, trace, _ = optimize_decentralized(scen, ConstraintSpec.fixed_energy(),
                                         OptimizerConfig(max_outer=2))
    assert not trace.converged and trace.outer_iters == 2


def test_optimize_scalar_phase_invariant():
    model = centralized_model(CentralizedScenario(
        num_sensors=1, num_antennas=1, channel=np.array([[1.0 + 0j]]),
        sensor_noise_var=np.array([1.0]), fc_noise_var=1.0, theta=1 + 0j,
    ))
    for seed in (0, 1, 2):
        _, trace = optimize_phase_only_uqp(model, OptimizerConfig(seed=seed, restarts=3))
        assert trace.final_variance == pytest.approx(2.0)


@pytest.mark.parametrize("n", [30, 100])
def test_single_antenna_designs_reach_the_exact_optimum(n):
    # with one receive antenna the energy optimum is a ~ conj(h) / delta and
    # the phase optimum is co-phasing (oracles.single_antenna_optimum); the
    # energy design and the power-step cycles on the unit-modulus set
    # (select:N:phase) stop within their tolerance of it, the phase ascent on it
    for seed in range(20):
        model = centralized_model(gen_centralized_scenario(n, 1, NoiseConfig(), seed=seed))
        for kind, design, bound in (
                ("energy", lambda m: optimize(m, ConstraintSpec.fixed_energy()), 1e-9),
                ("phase", lambda m: optimize(m, ConstraintSpec.parse(f"select:{n}:phase")),
                 1e-9),
                ("phase", lambda m: optimize(m, ConstraintSpec.phase_only()), 1e-12)):
            _, best = oracles.single_antenna_optimum(model.H, model.sensor_noise_var,
                                                     model.noise_var, kind)
            _, trace = design(model)
            gap = trace.final_variance / best - 1.0
            assert trace.converged and -1e-12 <= gap <= bound, (seed, kind, gap)


@pytest.mark.parametrize("n", [30, 100])
def test_single_antenna_selection_design_nears_the_exact_optimum(n):
    # with one receive antenna the N/5 largest scores |h_i|^2 / delta_i form
    # the optimal support (oracles.single_antenna_optimum); the default
    # select design stays within 1.25 of it (50 power steps a cycle reached 1.91)
    k = n // 5
    for seed in range(20):
        model = centralized_model(gen_centralized_scenario(n, 1, NoiseConfig(), seed=seed))
        a_opt, best = oracles.single_antenna_optimum(model.H, model.sensor_noise_var,
                                                     model.noise_var, "select", k)
        ConstraintSpec.sensor_select(k).check(a_opt)
        assert global_variance(model, a_opt) == pytest.approx(best, rel=1e-12)
        _, trace = optimize(model, ConstraintSpec.sensor_select(k))
        ratio = trace.final_variance / best
        assert 1.0 - 1e-12 <= ratio <= 1.25, (seed, ratio)


@pytest.mark.parametrize("q_levels", [2, 4, 8])
def test_single_antenna_quant_oracle_matches_enumeration(q_levels):
    # the common-phase sweep over the N Q breakpoints finds the best of all
    # Q^N grid assignments
    for n in range(1, 6):
        for seed in range(8):
            model = centralized_model(gen_centralized_scenario(n, 1, NoiseConfig(), seed=seed))
            a, best = oracles.single_antenna_optimum(model.H, model.sensor_noise_var,
                                                     model.noise_var, "quant", q_levels=q_levels)
            ConstraintSpec.quantized(q_levels).check(a)
            assert global_variance(model, a) == pytest.approx(best, rel=1e-12)
            _, enumerated = oracles.exhaustive_quantized_product(uqp_matrix(model), q_levels)
            assert best == pytest.approx(enumerated, rel=1e-12), (n, seed)


@pytest.mark.xfail(strict=True, reason="quant:Q returns its start at restarts=1 (Known defect)")
def test_single_antenna_quant_design_nears_the_exact_optimum():
    # the default quant design stays within 1.05 of the exact M = 1 optimum
    # (oracles.single_antenna_optimum); it reads 5-163x today
    for q_levels in (4, 8):
        for seed in range(20):
            model = centralized_model(gen_centralized_scenario(30, 1, NoiseConfig(), seed=seed))
            _, best = oracles.single_antenna_optimum(model.H, model.sensor_noise_var,
                                                     model.noise_var, "quant", q_levels=q_levels)
            _, trace = optimize(model, ConstraintSpec.quantized(q_levels))
            ratio = trace.final_variance / best
            assert 1.0 - 1e-12 <= ratio <= 1.05, (q_levels, seed, ratio)


def zero_information_model():
    """H = [[1, -1]]: the all-ones start (and every start of equal entries)
    carries no information."""
    return centralized_model(CentralizedScenario(
        num_sensors=2, num_antennas=1, channel=np.array([[1.0 + 0j, -1.0]]),
        sensor_noise_var=np.ones(2), fc_noise_var=1.0, theta=1 + 0j))


@pytest.mark.parametrize("design", [
    lambda m: optimize(m, ConstraintSpec.fixed_energy()),
    lambda m: optimize(m, ConstraintSpec.phase_only()),
    lambda m: refine(m, np.ones(2), ConstraintSpec.phase_only()),
    lambda m: optimize(m, ConstraintSpec.quantized(4), OptimizerConfig(restarts=3)),
], ids=["energy", "phase", "phase-refine", "quant-restarts"])
def test_zero_information_start_raises_degenerate_gains(design):
    with pytest.raises(DegenerateGains):
        design(zero_information_model())


def test_optimize_beats_all_ones_start():
    for seed in range(5):
        model = random_model(5, seed=seed)
        v_ones = global_variance(model, np.ones(5, dtype=complex))
        _, trace = optimize(model, ConstraintSpec.fixed_energy(), OptimizerConfig(seed=seed))
        assert trace.final_variance <= v_ones * (1 + 1e-9)


def test_optimize_info_trace_monotone():
    model = random_model(8, seed=3)
    for spec in (ConstraintSpec.fixed_energy(), ConstraintSpec.quantized(8),
                 ConstraintSpec.sensor_select(4)):
        _, trace = optimize(model, spec, OptimizerConfig(seed=1))
        infos = np.array(trace.info_per_outer)
        assert np.all(np.diff(infos) >= -1e-9 * np.abs(infos[:-1]))
        assert np.all(infos > 0)
        assert trace.stationarity_residual <= 1e-10
        for objs in trace.inner_objective:
            diffs = np.diff(objs)
            assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(np.array(objs[:-1]))))


def _decentralized_scenario():
    return gen_decentralized_scenario(random_connected_topology(30, 0.2, 2), seed=2)


def test_designs_build_no_lift_and_run_no_gram_schmidt(monkeypatch):
    # the cycle takes y = [1; -w] from the weights: the lifted reference
    # never runs inside a design, centralized or decentralized
    def refuse(*args):
        raise AssertionError("the lifted reference ran inside a design")

    monkeypatch.setattr(gainopt, "build_lifted", refuse)
    monkeypatch.setattr(gainopt, "solve_auxiliary", refuse)
    for text in ("energy", "phase", "quant:4", "select:3", "select:3:phase"):
        _, trace = optimize(random_model(8, seed=5), ConstraintSpec.parse(text),
                            OptimizerConfig(restarts=2))
        assert trace.outer_iters > 1, text
    for text in ("energy", "select:10"):
        _, trace, _ = optimize_decentralized(_decentralized_scenario(), ConstraintSpec.parse(text))
        assert trace.outer_iters > 1, text


@pytest.mark.parametrize("setting", ["centralized", "decentralized"])
def test_stationarity_residual_catches_weights_that_do_not_solve(setting, monkeypatch):
    # the residual ||R_w w - H a|| / ||H a|| is formed from the terms the
    # weights solve read, not from its result, so weights off by 1e-8 show
    # through it
    weights = gainopt._information_and_weights

    def design():
        if setting == "centralized":
            return optimize(random_model(8, seed=6), ConstraintSpec.fixed_energy())[1]
        return optimize_decentralized(_decentralized_scenario(), ConstraintSpec.fixed_energy())[1]

    assert design().stationarity_residual <= 1e-10

    def off(model, a):
        info, w, ha, r_w = weights(model, a)
        return info, w * (1.0 + 1e-8), ha, r_w

    monkeypatch.setattr(gainopt, "_information_and_weights", off)
    assert design().stationarity_residual > 1e-10


def test_optimize_deterministic():
    model = random_model(6, seed=4)
    cfg = OptimizerConfig(seed=7, restarts=4)
    g1, t1 = optimize(model, ConstraintSpec.fixed_energy(), cfg)
    g2, t2 = optimize(model, ConstraintSpec.fixed_energy(), cfg)
    assert np.array_equal(g1.values, g2.values)
    assert t1.info_per_outer == t2.info_per_outer
    assert t1.restart_index == t2.restart_index


def test_optimize_final_gains_feasible():
    model = random_model(7, seed=5)
    for spec in (ConstraintSpec.fixed_energy(), ConstraintSpec.phase_only(),
                 ConstraintSpec.quantized(4), ConstraintSpec.sensor_select(3),
                 ConstraintSpec.sensor_select(3, "phase")):
        gains, _ = optimize(model, spec, OptimizerConfig(seed=2, restarts=2))
        spec.check(gains.values)


@pytest.mark.parametrize("bad", [
    dict(max_outer=2.5), dict(restarts="3"), dict(restarts=True), dict(max_outer=0),
    dict(seed=np.float64(1.0)), dict(seed=-1), dict(outer_tol=float("nan")),
    dict(outer_tol=float("inf")), dict(outer_tol="1e-8"), dict(outer_tol=0.0)])
def test_optimizer_config_rejects_bad_values(bad):
    # counts and the seed are integers, never bool; the tolerance is finite and positive
    with pytest.raises(InvalidConfig):
        OptimizerConfig(**bad)


def test_refine_requires_feasible_start():
    model = random_model(4, seed=6)
    for start in (np.full(4, 0.5 + 0j), np.full(4, np.nan + 0j)):
        with pytest.raises(InvalidConfig):
            refine(model, start, ConstraintSpec.fixed_energy())
    # a start of another length is rejected before any product with the model
    for n in (3, 5):
        for spec in (ConstraintSpec.phase_only(), ConstraintSpec.fixed_energy()):
            with pytest.raises(InvalidConfig, match="sensors"):
                refine(model, spec.initial_point(n), spec)


def test_refine_never_hurts_warm_start():
    model = random_model(6, seed=7)
    a0 = ConstraintSpec.fixed_energy().random_point(6, np.random.default_rng(3))
    v0 = global_variance(model, a0)
    _, trace = refine(model, a0, ConstraintSpec.fixed_energy())
    assert trace.final_variance <= v0 * (1 + 1e-9)


def test_energy_design_converges_where_power_steps_ran_out():
    # with 50 power steps per cycle this design used all 200 cycles and
    # stopped at variance 0.0061268; the exact step converges below it
    model = centralized_model(gen_centralized_scenario(200, 4, seed=1))
    _, trace = optimize(model, ConstraintSpec.fixed_energy())
    assert trace.converged and trace.outer_iters < OptimizerConfig().max_outer
    assert trace.final_variance < 0.0061268


def test_cyclic_phase_design_crawls_past_a_saddle():
    # the saddle of test_uqp_ascent_crawls_past_a_saddle: a plain
    # |delta info| <= outer_tol stop ended this cyclic run after 536 cycles
    # at variance 0.0599339; the settled-gain stop crawls on and converges.
    # select:N:phase is the unit-modulus set, designed by power-step cycles
    model = random_model(30, seed=3611603448)
    _, trace = optimize(model, ConstraintSpec.parse("select:30:phase"),
                        OptimizerConfig(max_outer=4000))
    assert trace.converged and trace.final_variance < 0.05970


def test_power_step_cycles_do_not_settle_on_their_first_gain():
    # the first gain counts against a previous gain of 0, so an outer_tol
    # above it does not stop a power-step family there; energy keeps the
    # |delta info| <= outer_tol stop and does
    model = random_model(30, seed=7)
    for text in ("select:30:phase", "select:10:phase"):
        _, trace = optimize(model, ConstraintSpec.parse(text), OptimizerConfig(outer_tol=1e3))
        infos = trace.info_per_outer
        assert 0.0 < infos[1] - infos[0] <= 1e3, text
        assert trace.converged and trace.outer_iters > 2, text
    _, trace = optimize(model, ConstraintSpec.fixed_energy(), OptimizerConfig(outer_tol=1e3))
    assert trace.converged and trace.outer_iters == 2


def test_a_new_segment_restarts_the_settled_gain_test():
    # a segment's first gain counts against 0, not against the gain of the
    # segment before, so an outer_tol above it does not stop the run there
    model = random_model(30, seed=7)
    calls = []

    def model_fn(a, previous):
        calls.append(1)
        return dataclasses.replace(previous) if len(calls) == 3 else previous

    _, trace = optimize(model, ConstraintSpec.parse("select:10:phase"),
                        OptimizerConfig(outer_tol=1e3), model_fn=model_fn)
    infos = trace.info_per_outer
    assert 0.0 < infos[1] - infos[0] <= 1e3  # the first segment's first gain
    assert trace.segment_breaks == (2,) and 0.0 < infos[3] - infos[2] <= 1e3
    assert trace.converged and trace.outer_iters > 4


def test_energy_refine_of_a_selection_design_never_hurts():
    # on a frozen decentralized model, the zero gains of a select:K design
    # leave g_k = 0 where d_k = min d = 0 (the hard case whenever the rest
    # falls short of the sphere); refining under energy keeps or lowers the
    # variance, and no warning fires
    energy = ConstraintSpec.fixed_energy()
    for seed, k in itertools.product(range(3), (1, 3, 6)):
        scen = gen_decentralized_scenario(random_connected_topology(30, 0.2, seed=seed), seed=seed)
        model, _ = decentralized_model(scen, energy.initial_point(30))
        start, _ = optimize(model, ConstraintSpec.sensor_select(k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = refine(model, start.values, energy)
        assert trace.final_variance <= global_variance(model, start) * (1 + 1e-12), (seed, k)


def test_only_the_power_step_families_shift(monkeypatch):
    # energy and select:K energy take one exact step and never compute the
    # shift; the power-step families compute it once per inner run
    calls = []
    shift = gainopt.shift_quadratic
    monkeypatch.setattr(gainopt, "shift_quadratic", lambda d, g: calls.append(1) or shift(d, g))
    model = random_model(12, seed=8)
    scen = gen_decentralized_scenario(random_connected_topology(12, 0.4, seed=8), seed=8)
    for text in ("energy", "select:4", "quant:4", "select:4:phase"):
        spec = ConstraintSpec.parse(text)
        power = spec.kind == "quant" or spec.select_mode == "phase"
        for run in (lambda: optimize(model, spec), lambda: optimize_decentralized(scen, spec)):
            calls.clear()
            trace = run()[1]
            assert len(calls) == (len(trace.inner_objective) if power else 0), text
            assert trace.inner_objective or trace.outer_iters == 1  # decentralized quant: the start


def test_select_phase_refine_from_fewer_than_k_gains():
    # from a start with fewer than K nonzeros the first power step fills the
    # support, which can lower -f (the norm grows); the run goes on, records
    # that -f, keeps -f monotone from there and never hurts the warm start
    spec = ConstraintSpec.sensor_select(4, "phase")
    noisy = NoiseConfig(v_range=(10.0, 100.0))  # large d, so filling the support raises f
    fell = 0
    for seed in range(6):
        model = centralized_model(gen_centralized_scenario(10, 2, noisy, seed=seed))
        a0 = np.zeros(10, dtype=complex)
        a0[:2] = np.sqrt(10 / 4)
        _, trace = refine(model, a0, spec)
        first = trace.inner_objective[0]
        fell += first[1] < first[0]
        for objs in (first[1:], *trace.inner_objective[1:]):
            assert _nondecreasing(objs)
        assert trace.final_variance <= global_variance(model, a0) * (1 + 1e-9)
    assert fell



@pytest.mark.xfail(strict=True, raises=NoDescent,
                   reason="refine under select:K:phase from fewer than K nonzeros can "
                   "lose information as the power steps fill the support (Known defect)")
def test_select_phase_refine_from_fewer_than_k_gains_keeps_its_information():
    # seed 16 of the draws above: the information falls from 0.02621 to
    # 0.02463 in a later cycle and the run raises NoDescent
    spec = ConstraintSpec.sensor_select(4, "phase")
    noisy = NoiseConfig(v_range=(10.0, 100.0))
    model = centralized_model(gen_centralized_scenario(10, 2, noisy, seed=16))
    a0 = np.zeros(10, dtype=complex)
    a0[:2] = np.sqrt(10 / 4)
    _, trace = refine(model, a0, spec)
    assert trace.final_variance <= global_variance(model, a0) * (1 + 1e-9)


# ------------------------------------------------------------------ UQP path


def test_uqp_matrix_matches_information():
    model = random_model(6, seed=8)
    b = uqp_matrix(model)
    assert np.allclose(b, b.conj().T)
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = ConstraintSpec.phase_only().random_point(6, rng)
        assert float(np.real(a.conj() @ (b @ a))) == pytest.approx(
            1.0 / global_variance(model, a), rel=1e-12)


def test_uqp_step_worked_example():
    b = np.array([[1.0, 1j], [-1j, 1.0]])
    a0 = np.ones(2, dtype=complex)
    assert float(np.real(a0.conj() @ (b @ a0))) == pytest.approx(2.0)
    a1, image = uqp_step(b, b @ a0)
    assert np.allclose(a1, [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    assert np.array_equal(image, b @ a1)
    assert float(np.real(a1.conj() @ image)) == pytest.approx(4.0)


def test_uqp_step_gives_an_exact_zero_phase_zero():
    # B a / |B a| would divide 0 by 0; the zero entry takes phase 0 and no
    # RuntimeWarning fires
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a1, image = uqp_step(np.eye(3), np.array([1j, 0, -2]))
    assert a1.tolist() == [1j, 1, -1]
    assert np.array_equal(image, a1)


def test_one_zero_rule_for_every_unit_phase():
    # uqp_step, project(., phase) and the support phases of select:K:phase
    # share one rule: an exact zero, whatever its signs of zero, gets phase 0
    # (np.angle(-0.0 + 0j) is pi, so e^{j angle} would give -1 there), and a
    # subnormal entry keeps its phase on the unit circle, with no warning
    x = np.array([complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                  complex(-0.0, -0.0), 5e-324 - 5e-324j, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = {"uqp_step": uqp_step(np.eye(6), x)[0],
                "phase": project(x, ConstraintSpec.phase_only()),
                "select:6:phase": project(x, ConstraintSpec.sensor_select(6, "phase"))}
    for caller, out in outs.items():
        assert out[[0, 1, 2, 3, 5]].tolist() == [1, 1, 1, 1, -1], caller
        np.testing.assert_allclose(out[4], (1 - 1j) / np.sqrt(2), rtol=1e-15, err_msg=caller)


def test_uqp_step_identity_fixed_points():
    rng = np.random.default_rng(5)
    a = ConstraintSpec.phase_only().random_point(5, rng)
    a1, image = uqp_step(np.eye(5, dtype=complex), a)
    assert np.allclose(a1, a)
    assert np.allclose(image, a)


@pytest.mark.parametrize("budget", [None, (1, 2)], ids=["default-budget", "tiny-budget"])
@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("n", [1, 5, 30, 60])
def test_uqp_ascent_matches_two_matvec_oracle_bit_for_bit(n, restarts, budget, monkeypatch):
    # the ascent forms B a once per step and reuses it for the objective and
    # the next step; every reported value keeps the bits of the two-product form
    calls = []
    step = gainopt.uqp_step
    monkeypatch.setattr(gainopt, "uqp_step", lambda b, image: calls.append(1) or step(b, image))
    config = OptimizerConfig(restarts=restarts, seed=3)
    if budget:  # (max_outer, steps per outer cycle)
        config = dataclasses.replace(config, max_outer=budget[0])
        monkeypatch.setattr(gainopt, "INNER_ITERS", budget[1])
    model = random_model(n, seed=40 + n)
    gains, trace = optimize_phase_only_uqp(model, config)
    b_mat = uqp_matrix(model)
    starts = _restart_points(n, ConstraintSpec.phase_only(), config, model)
    runs = [oracles.uqp_ascent_two_matvecs(b_mat, a0, config.max_outer * gainopt.INNER_ITERS,
                                           config.outer_tol)
            for a0 in starts]
    best = min(range(restarts), key=lambda idx: (1.0 / runs[idx][1][-1], idx))
    a, objs, converged = runs[best]
    assert trace.restart_index == best
    assert gains.values.tobytes() == a.tobytes()
    # the phase-only path has no outer cycles: its whole ascent is one inner run
    assert trace.inner_objective == (tuple(objs),)
    assert trace.inner_iters_total == len(objs)
    assert trace.info_per_outer == tuple(objs)
    assert trace.final_variance == 1.0 / objs[-1]
    assert trace.converged is converged
    # the benchmark's tracer counts uqp_step by wrapping gainopt.uqp_step:
    # every ascent step of every restart must call it there, once
    assert len(calls) == sum(len(objs) - 1 for _, objs, _ in runs)


@pytest.mark.parametrize("restarts", [1, 3])
def test_phase_design_is_the_unimodular_ascent(restarts, monkeypatch):
    # optimize under phase runs optimize_phase_only_uqp, found through the
    # module attribute (the benchmark's tracer wraps it there), and returns
    # its gains and trace; it runs no cycle
    calls = []
    ascent = gainopt.optimize_phase_only_uqp
    monkeypatch.setattr(gainopt, "optimize_phase_only_uqp",
                        lambda *args: calls.append(1) or ascent(*args))
    monkeypatch.setattr(gainopt, "inner_power_iterations",
                        lambda *args: pytest.fail("a power-step cycle ran"))
    for n, seed in ((5, 0), (30, 1), (60, 2)):
        model = random_model(n, seed=50 + n)
        config = OptimizerConfig(restarts=restarts, seed=seed)
        gains, trace = optimize(model, ConstraintSpec.phase_only(), config)
        want_gains, want = ascent(model, config)
        assert gains.values.tobytes() == want_gains.values.tobytes()
        assert gains.constraint == ConstraintSpec.phase_only()
        assert dataclasses.replace(trace, wall_time_s=0.0) == dataclasses.replace(
            want, wall_time_s=0.0, final_gains=trace.final_gains)
        assert trace.final_gains is gains
    assert len(calls) == 3


@pytest.mark.parametrize("n", [1, 5, 30])
def test_phase_refine_is_the_ascent_from_its_start(n):
    # refine under phase runs the ascent from the given start on B, bit for
    # bit, and never ends above the start's variance
    rng = np.random.default_rng(n)
    config = OptimizerConfig()
    for seed in range(5):
        model = random_model(n, seed=60 + seed)
        a0 = ConstraintSpec.phase_only().random_point(n, rng)
        gains, trace = refine(model, a0, ConstraintSpec.phase_only(), config)
        a, objs, converged = oracles.uqp_ascent_two_matvecs(
            uqp_matrix(model), a0, config.max_outer * gainopt.INNER_ITERS, config.outer_tol)
        assert gains.values.tobytes() == a.tobytes()
        assert trace.info_per_outer == tuple(objs) and trace.inner_objective == (tuple(objs),)
        assert trace.converged is converged and trace.restart_index == 0
        assert trace.final_variance <= global_variance(model, a0) * (1 + 1e-12), seed


def test_phase_design_takes_no_model_factory():
    # no phase design reads a factory's models: the ascent runs on one
    # matrix B, and a decentralized phase design returns its start
    model = random_model(6, seed=1)
    with pytest.raises(InvalidConfig, match="factory"):
        optimize(model, ConstraintSpec.phase_only(), model_fn=lambda a, m: m)


def _settled_steps(objs, tol):
    """1-based steps k at which an ascent with objectives objs may stop: the
    gain g = objs[k] - objs[k-1] is at most tol, and g <= 0 or the gains'
    geometric decay from the previous gain g' promises at most tol more,
    g^2 / (g' - g) <= tol."""
    gains = np.diff(objs)
    return [k + 1 for k, g in enumerate(gains)
            if g <= tol and (g <= 0 or g * g <= tol * ((gains[k - 1] if k else 0.0) - g))]


def test_uqp_ascent_stops_on_outer_tol(monkeypatch):
    # the phase-only path stops at its first settled step: a looser
    # outer_tol stops sooner; a budget stop is not converged
    model = random_model(30, seed=7)
    steps = {}
    for tol in (1e-8, 1e-3):
        _, trace = optimize_phase_only_uqp(model, OptimizerConfig(outer_tol=tol))
        objs = trace.info_per_outer
        assert trace.converged and objs[-1] - objs[-2] <= tol
        assert _settled_steps(objs, tol) == [len(objs) - 1]
        steps[tol] = len(objs)
    assert steps[1e-3] < steps[1e-8]
    # the first gain counts against a previous gain of 0: an outer_tol above
    # it does not stop the ascent at step 1
    _, trace = optimize_phase_only_uqp(model, OptimizerConfig(outer_tol=1e3))
    objs = trace.info_per_outer
    assert 0.0 < objs[1] - objs[0] <= 1e3
    assert trace.converged and len(objs) > 2 and _settled_steps(objs, 1e3) == [len(objs) - 1]
    monkeypatch.setattr(gainopt, "INNER_ITERS", 3)
    _, trace = optimize_phase_only_uqp(model, OptimizerConfig(max_outer=1))
    objs = trace.info_per_outer
    assert not trace.converged and len(objs) == 4 and _settled_steps(objs, 1e-8) == []


def test_uqp_ascent_crawls_past_a_saddle():
    # on this N = 30 draw the ascent gains under 1e-8 per step from step
    # 527 on, slowing near a saddle for some 1,400 steps before it leaves
    # for a better point; a test of the last gain alone stops at 16.68505
    model = random_model(30, seed=3611603448)
    _, trace = optimize_phase_only_uqp(model)
    objs = np.array(trace.info_per_outer)
    first_small = int(np.argmax(np.diff(objs) <= 1e-8)) + 1
    assert 500 < first_small < 600 and objs[first_small] < 16.6851
    assert trace.converged and len(objs) > 1900 and objs[-1] > 16.751


def test_uqp_objective_nondecreasing():
    model = random_model(12, seed=9)
    _, trace = optimize_phase_only_uqp(model, OptimizerConfig(seed=0))
    objs = np.array(trace.inner_objective[0])
    assert np.all(np.diff(objs) >= -1e-9 * np.abs(objs[:-1]))


def test_uqp_matches_general_path():
    # the power-step cycles on the unit-modulus set (select:N:phase) reach
    # the ascent's variance within 1%
    for seed in range(5):
        model = random_model(7, seed=20 + seed)
        _, fast = optimize(model, ConstraintSpec.phase_only(), OptimizerConfig(seed=seed))
        _, general = optimize(model, ConstraintSpec.parse("select:7:phase"),
                              OptimizerConfig(seed=seed, max_outer=400))
        assert fast.final_variance == pytest.approx(general.final_variance, rel=0.01)


def test_unit_modulus_cycles_descend_with_stationary_weights():
    # the power-step cycle under the unit-modulus projection, which phase no
    # longer runs: information and every inner objective never fall, and
    # each cycle's weights solve is stationary
    for i in range(12):
        n = (5, 10, 20, 40)[i % 4]
        model = centralized_model(gen_centralized_scenario(n, 4, NoiseConfig(), seed=700 + i))
        _, trace = optimize(model, ConstraintSpec.parse(f"select:{n}:phase"),
                            OptimizerConfig(seed=i))
        infos = np.array(trace.info_per_outer)
        assert len(infos) > 2, i
        assert np.all(np.diff(infos) >= -1e-9 * np.abs(infos[:-1])), i
        for objs in trace.inner_objective:
            seq = np.array(objs)
            assert np.all(np.diff(seq) >= -1e-9 * np.maximum(1.0, np.abs(seq[:-1]))), i
        assert trace.stationarity_residual <= 1e-10, i


def _uqp_values(b_mat, points):
    """a^H B a for each row a of points."""
    return np.einsum("kn,nm,km->k", points.conj(), b_mat, points).real


@pytest.mark.parametrize("q_levels", [2, 4, 8])
def test_rotation_rounding_beats_a_rotation_scan_and_plain_projection(q_levels):
    # the N breakpoint roundings cover every global phase: none of 10^4
    # rotations, rounded, beats the pick, and neither does project(relaxed)
    spec = ConstraintSpec.quantized(q_levels)
    psi = np.arange(10_000) * (2.0 * np.pi / q_levels / 10_000)
    rng = np.random.default_rng(q_levels)
    for n in range(1, 7):
        for seed in range(4):
            model = random_model(n, m=1 + seed % 4, seed=100 * n + seed)
            b_mat = uqp_matrix(model)
            relaxed = ConstraintSpec.phase_only().random_point(n, rng)
            if seed % 2:
                relaxed = optimize_phase_only_uqp(model, OptimizerConfig(seed=seed))[0].values
            picked = _rotation_rounding(model, relaxed, spec)
            spec.check(picked)
            best = _uqp_values(b_mat, picked[None, :])[0]
            rotated = (relaxed[None, :] * np.exp(1j * psi)[:, None]).ravel()
            scan = _uqp_values(b_mat, project(rotated, spec).reshape(len(psi), n))
            assert best >= scan.max() * (1.0 - 1e-12), (n, seed)
            assert best >= scan[0] * (1.0 - 1e-12)  # psi = 0: project(relaxed) itself
    for seed in range(10):
        model = random_model(60, seed=seed)
        relaxed = optimize_phase_only_uqp(model, OptimizerConfig(seed=seed))[0].values
        plain = global_variance(model, project(relaxed, spec))
        assert global_variance(model, _rotation_rounding(model, relaxed, spec)) <= plain


# -------------------------------------------------------------- decentralized


def test_optimize_decentralized_plan_consistency():
    topo = random_connected_topology(9, 0.4, seed=10)
    scen = gen_decentralized_scenario(topo, NoiseConfig(), 1 + 0j, seed=10)
    gains, trace, plan = optimize_decentralized(scen, ConstraintSpec.fixed_energy(),
                                                OptimizerConfig(seed=1))
    model, plan_check = decentralized_model(scen, gains)
    assert plan.carrier == plan_check.carrier
    assert trace.final_variance == pytest.approx(global_variance(model, gains), rel=1e-12)
    a0 = ConstraintSpec.fixed_energy().initial_point(9)
    model0, _ = decentralized_model(scen, a0)
    assert trace.final_variance <= global_variance(model0, a0) * (1 + 1e-9)


def test_optimize_decentralized_frozen_plan_single_segment():
    topo = random_connected_topology(8, 0.4, seed=11)
    scen = gen_decentralized_scenario(topo, NoiseConfig(), 1 + 0j, seed=11)
    _, trace, _ = optimize_decentralized(scen, ConstraintSpec.fixed_energy(),
                                         OptimizerConfig(seed=2), refresh_plan=False)
    assert trace.segment_breaks == ()
    infos = np.array(trace.info_per_outer)
    assert np.all(np.diff(infos) >= -1e-9 * np.abs(infos[:-1]))


@pytest.mark.parametrize("text", ["energy", "select:10"])
def test_frozen_design_returns_the_plan_it_was_designed_under(text):
    # the returned plan is the start plan, and the reported variance is the
    # variance of the returned gains under it
    constraint = ConstraintSpec.parse(text)
    for seed in range(3):
        scen = gen_decentralized_scenario(random_connected_topology(30, 0.2, seed=seed), seed=seed)
        _, start = decentralized_model(scen, constraint.initial_point(30))
        gains, trace, plan = optimize_decentralized(scen, constraint, OptimizerConfig(),
                                                    refresh_plan=False)
        assert plan == start
        v = global_variance(assemble_global_model(plan, scen), gains)
        assert abs(trace.final_variance - v) <= 1e-12 * v


def test_frozen_energy_design_reaches_water_filling():
    # on a frozen plan the energy optimum is water-filling over the carriers'
    # links; the cyclic design may stop short of it by its tolerance, never below
    energy = ConstraintSpec.fixed_energy()
    for seed in range(5):
        scen = gen_decentralized_scenario(random_connected_topology(30, 0.2, seed=seed), seed=seed)
        _, start = decentralized_model(scen, energy.initial_point(30))
        _, trace, _ = optimize_decentralized(scen, energy, OptimizerConfig(), refresh_plan=False)
        gap = trace.final_variance / oracles.water_filling(scen, start.carrier) - 1.0
        assert 0.0 <= gap <= 1e-6, (seed, gap)


def test_optimize_decentralized_segments_descend_piecewise():
    topo = random_connected_topology(10, 0.35, seed=12)
    scen = gen_decentralized_scenario(topo, NoiseConfig(), 1 + 0j, seed=12)
    _, trace, _ = optimize_decentralized(scen, ConstraintSpec.fixed_energy(),
                                         OptimizerConfig(seed=3))
    bounds = [0, *trace.segment_breaks, len(trace.info_per_outer)]
    for lo, hi in zip(bounds, bounds[1:]):
        seg = np.array(trace.info_per_outer[lo:hi])
        if len(seg) > 1:
            assert np.all(np.diff(seg) >= -1e-9 * np.abs(seg[:-1]))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the compressed H is a scaled permutation, so g_k = 0 "
                   "wherever a_k = 0: no inner step moves a zero gain")
def test_decentralized_selection_leaves_its_starting_support():
    # some design selects a sensor outside its starting support
    select = ConstraintSpec.sensor_select(25)
    start = select.initial_point(50) != 0
    outside = []
    for seed in range(4):
        scen = gen_decentralized_scenario(random_connected_topology(50, 0.15, seed=seed), seed=seed)
        gains, _, _ = optimize_decentralized(scen, select, OptimizerConfig(outer_tol=1e-3))
        outside.append(bool(np.any((gains.values != 0) & ~start)))
    assert any(outside)
