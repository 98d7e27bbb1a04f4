"""The cyclic gain optimizer: lift, auxiliary solve, shift, projections.

Worked scalar values (N=M=1, h=1, sigma_v^2=sigma_n^2=1, a=1, corner 0):
R=[[0,1],[1,2]], y=(1,-0.5), y^H R y=-info=-0.5, Q=[[0.25,-0.5],[-0.5,0]],
C1=sigma_n^2 ||y_tail||^2=0.25, all derivable with a 2x2 inversion by hand.
The paper's corner eta0 (oracles.eta0_bound) would add eta0 to y^H R y and
to C1 and change nothing else.
"""

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
from wsngain.diffusion import GlobalModel
from wsngain.gainopt import LAMBDA_FLOOR, LAMBDA_MARGIN, _quantize_phases, _restart_points
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
    # Q~ = I is lambda = 1 with d = 0 and g = 0
    a, objs = inner_power_iterations(a0, 1.0, np.zeros(4), np.zeros(4, dtype=complex),
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
        lam = shift_quadratic(d, g)
        for spec in (ConstraintSpec.fixed_energy(), ConstraintSpec.phase_only(),
                     ConstraintSpec.quantized(4), ConstraintSpec.sensor_select(3)):
            a0 = spec.random_point(5, rng)
            _, objs = inner_power_iterations(a0, lam, d, g, spec, 60)
            diffs = np.diff(objs)
            assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(objs[:-1])))


def test_inner_fixed_energy_matches_sphere_oracle():
    # the power iterations must land on the global sphere maximum found by
    # a long projected-gradient reference
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
            a, objs = inner_power_iterations(a0, lam, d, g, ConstraintSpec.fixed_energy(), 3000)
            best = max(best, objs[-1])
        want = oracles.sphere_quadratic_max(shifted(lam, d, g), 2)
        assert best == pytest.approx(want, rel=1e-6)


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
        q_tilde = shifted(lam, d, g)
        best = -np.inf
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            z = np.array(signs + [1], dtype=complex)
            best = max(best, float(np.real(z.conj() @ (q_tilde @ z))))
        reached = -np.inf
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            _, objs = inner_power_iterations(np.array(signs, dtype=complex), lam, d, g, spec, 50)
            reached = max(reached, objs[-1])
        assert reached == pytest.approx(best, rel=1e-12)


POWER_STEP_FAMILIES = (ConstraintSpec.phase_only(), ConstraintSpec.quantized(4),
                       ConstraintSpec.sensor_select(3), ConstraintSpec.sensor_select(3, "phase"))


def test_inner_arrow_step_matches_dense_oracle():
    # the O(N) arrow step against the lifted dense matvec, from the auxiliary
    # vector of a random anchor: same steps, same gains, same objectives (the
    # energy family takes one exact step instead, checked against the sphere
    # oracle below)
    rng = np.random.default_rng(10)
    for seed in range(30):
        n = int(rng.integers(1, 13))
        model = random_model(n, m=int(rng.integers(1, 5)), seed=200 + seed)
        anchor = ConstraintSpec.fixed_energy().random_point(n, rng)
        y = solve_auxiliary(build_lifted(model, anchor))
        d, g = build_inner_quadratic(y[1:], model)
        lam = shift_quadratic(d, g)
        q_tilde = shifted(lam, d, g)
        for spec in POWER_STEP_FAMILIES:
            a0 = spec.random_point(n, rng)
            for max_iters in (3, 60):
                a, objs = inner_power_iterations(a0, lam, d, g, spec, max_iters)
                a_ref, objs_ref = oracles.inner_power_iterations_dense(
                    a0, q_tilde, lambda v: project(v, spec), max_iters)
                assert len(objs) == len(objs_ref)
                assert np.max(np.abs(a - a_ref)) <= 1e-12
                assert np.allclose(objs, objs_ref, rtol=1e-12, atol=0.0)


def _shifted_objective(lam, d, g, a):
    return lam + float(np.real(np.vdot(a, (lam - d) * a - g) - np.vdot(g, a)))


def test_inner_energy_step_matches_sphere_bisection_oracle():
    # one exact step lands on the global maximum of the shifted objective on
    # the sphere: arrows from the auxiliary vector of random anchors, plain
    # draws, exact zeros at the smallest diagonal (the hard case when the
    # rest falls short of the sphere) and near-zeros there, over many scales;
    # no warning may fire
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
            a, objs = inner_power_iterations(a0, lam, d, g, energy, 1)
        energy.check(a)
        want = _shifted_objective(lam, d, g, oracles.sphere_minimizer_bisection(d, g, n))
        assert len(objs) == 2 and objs[0] == _shifted_objective(lam, d, g, a0)
        assert abs(objs[1] - want) <= 1e-12 * want, trial


def test_inner_energy_step_hard_case_and_zero_border_by_hand():
    energy = ConstraintSpec.fixed_energy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # g = 0 at the smallest d, and -g / (d - min d) = (0, -1, -1/2) falls
        # short of the sphere: the remaining norm 3 - 5/4 goes to entry 0
        d, g = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0], dtype=complex)
        a, objs = inner_power_iterations(np.ones(3, dtype=complex), shift_quadratic(d, g),
                                         d, g, energy, 50)
        np.testing.assert_allclose(a, [np.sqrt(1.75), -1.0, -0.5], rtol=1e-15)
        assert a[0].imag == 0.0 and len(objs) == 2 and objs[1] > objs[0]
        # g = 0 (so d = 0 on the optimizer's path): every point is optimal and a stays
        a0 = energy.random_point(4, np.random.default_rng(13))
        a, objs = inner_power_iterations(a0, LAMBDA_FLOOR, np.zeros(4), np.zeros(4, dtype=complex),
                                         energy, 50)
        assert np.array_equal(a, a0) and len(objs) == 1


# ------------------------------------------------------------------ optimizer


def test_trace_reports_convergence_or_budget():
    model = random_model(5, seed=0)
    _, trace = optimize(model, ConstraintSpec.fixed_energy())
    assert trace.converged and trace.outer_iters < OptimizerConfig().max_outer
    _, trace = optimize(model, ConstraintSpec.fixed_energy(), OptimizerConfig(max_outer=2))
    assert not trace.converged and trace.outer_iters == 2
    _, trace = optimize_phase_only_uqp(model)
    assert trace.converged
    _, trace = optimize_phase_only_uqp(model, OptimizerConfig(max_outer=1, inner_iters=1))
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
    # cyclic design stops within its tolerance of it, the UQP path on it
    for seed in range(20):
        model = centralized_model(gen_centralized_scenario(n, 1, NoiseConfig(), seed=seed))
        for kind, design, bound in (
                ("energy", lambda m: optimize(m, ConstraintSpec.fixed_energy()), 1e-9),
                ("phase", lambda m: optimize(m, ConstraintSpec.phase_only()), 1e-9),
                ("phase", optimize_phase_only_uqp, 1e-12)):
            _, best = oracles.single_antenna_optimum(model.H, model.sensor_noise_var,
                                                     model.noise_var, kind)
            _, trace = design(model)
            gap = trace.final_variance / best - 1.0
            assert trace.converged and -1e-12 <= gap <= bound, (seed, kind, gap)


def zero_information_model():
    """H = [[1, -1]]: the all-ones start (and every start of equal entries)
    carries no information."""
    return centralized_model(CentralizedScenario(
        num_sensors=2, num_antennas=1, channel=np.array([[1.0 + 0j, -1.0]]),
        sensor_noise_var=np.ones(2), fc_noise_var=1.0, theta=1 + 0j))


@pytest.mark.parametrize("design", [
    lambda m: optimize(m, ConstraintSpec.fixed_energy()),
    lambda m: optimize(m, ConstraintSpec.phase_only()),
    lambda m: optimize_phase_only_uqp(m),
    lambda m: optimize(m, ConstraintSpec.quantized(4), OptimizerConfig(restarts=3)),
], ids=["energy", "phase", "uqp", "quant-restarts"])
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


def test_refine_requires_feasible_start():
    model = random_model(4, seed=6)
    for start in (np.full(4, 0.5 + 0j), np.full(4, np.nan + 0j)):
        with pytest.raises(InvalidConfig):
            refine(model, start, ConstraintSpec.fixed_energy())


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


def test_uqp_step_identity_fixed_points():
    rng = np.random.default_rng(5)
    a = ConstraintSpec.phase_only().random_point(5, rng)
    a1, image = uqp_step(np.eye(5, dtype=complex), a)
    assert np.allclose(a1, a)
    assert np.allclose(image, a)


@pytest.mark.parametrize("budget", [dict(), dict(max_outer=1, inner_iters=2)],
                         ids=["default-budget", "tiny-budget"])
@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("n", [1, 5, 30, 60])
def test_uqp_ascent_matches_two_matvec_oracle_bit_for_bit(n, restarts, budget):
    # the ascent forms B a once per step and reuses it for the objective and
    # the next step; every reported value keeps the bits of the two-product form
    model = random_model(n, seed=40 + n)
    config = OptimizerConfig(restarts=restarts, seed=3, **budget)
    gains, trace = optimize_phase_only_uqp(model, config)
    b_mat = uqp_matrix(model)
    starts = _restart_points(n, ConstraintSpec.phase_only(), config, model, None)
    runs = [oracles.uqp_ascent_two_matvecs(b_mat, a0, config.max_outer * config.inner_iters)
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


def test_uqp_objective_nondecreasing():
    model = random_model(12, seed=9)
    _, trace = optimize_phase_only_uqp(model, OptimizerConfig(seed=0))
    objs = np.array(trace.inner_objective[0])
    assert np.all(np.diff(objs) >= -1e-9 * np.abs(objs[:-1]))


def test_uqp_matches_general_path():
    for seed in range(5):
        model = random_model(7, seed=20 + seed)
        _, fast = optimize_phase_only_uqp(model, OptimizerConfig(seed=seed))
        _, general = optimize(model, ConstraintSpec.phase_only(),
                              OptimizerConfig(seed=seed, max_outer=400))
        assert fast.final_variance == pytest.approx(general.final_variance, rel=0.01)


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
