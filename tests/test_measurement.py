import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqwitness import measurement as ms
from seqwitness.qcore import DensityMatrix, expectation, is_hermitian

import oracles

unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < math.hypot(*v)).map(
    lambda v: np.array(v) / math.hypot(*v))

sharpness_values = st.floats(0.01, 1.0)


def test_observable_validation():
    with pytest.raises(ValueError):
        ms.UnsharpObservable(np.array([1.0, 1.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        ms.UnsharpObservable(ms.Z_AXIS, 0.0)
    with pytest.raises(ValueError):
        ms.UnsharpObservable(ms.Z_AXIS, 1.2)


def test_nan_direction_and_pointer_are_rejected():
    # NaN fails every comparison, so a check written as "deviation > tol"
    # would let it through and every effect would come out NaN
    with pytest.raises(ValueError, match="unit 3-vector"):
        ms.UnsharpObservable(np.array([math.nan, 0.0, 0.0]), 0.5)
    for quality, precision in ((math.nan, math.nan), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="F\\^2"):
            ms.PointerTradeoff(quality, precision)


def test_sharp_effect_is_projector():
    obs = ms.UnsharpObservable(ms.Z_AXIS, 1.0)
    assert np.allclose(ms.effect(obs, +1), np.diag([1.0, 0.0]))
    assert np.allclose(ms.effect(obs, -1), np.diag([0.0, 1.0]))


def test_effect_eigenvalues_any_direction():
    n = np.array([1.0, 2.0, -1.0])
    n /= np.linalg.norm(n)
    obs = ms.UnsharpObservable(n, 0.73)
    evals = oracles.eigvals(ms.effect(obs, +1))
    assert np.allclose(np.sort(evals), [0.135, 0.865], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(unit_vectors, sharpness_values)
def test_effects_complete_and_positive(direction, lam):
    obs = ms.UnsharpObservable(direction, lam)
    plus = ms.effect(obs, +1)
    minus = ms.effect(obs, -1)
    assert np.max(np.abs(plus + minus - np.eye(2))) < 1e-12
    assert oracles.eigvals(plus)[0] > -1e-12
    assert oracles.eigvals(minus)[0] > -1e-12
    assert is_hermitian(plus)


def test_sqrt_effect_squares_back():
    n = np.array([3.0, -1.0, 2.0])
    n /= np.linalg.norm(n)
    obs = ms.UnsharpObservable(n, 0.6)
    root = ms.sqrt_effect(obs, +1)
    assert np.max(np.abs(root @ root - ms.effect(obs, +1))) < 1e-12


def test_unsharp_expectation_examples():
    up = DensityMatrix(np.diag([1.0, 0.0]))
    assert ms.unsharp_expectation(ms.UnsharpObservable(ms.Z_AXIS, 0.5), up) == pytest.approx(0.5, abs=1e-12)
    mixed = DensityMatrix(np.eye(2) / 2)
    assert ms.unsharp_expectation(ms.UnsharpObservable(ms.X_AXIS, 0.9), mixed) == pytest.approx(0.0, abs=1e-12)
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    assert ms.unsharp_expectation(ms.UnsharpObservable(ms.X_AXIS, 0.79), plus) == pytest.approx(0.79, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(unit_vectors, sharpness_values, st.integers(0, 2**32 - 1))
def test_unsharp_expectation_scales_projective_value(direction, lam, seed):
    rng = np.random.default_rng(seed)
    rho = oracles.random_density_matrix(rng, 2)
    obs = ms.UnsharpObservable(direction, lam)
    sharp = expectation(ms.spin_operator(direction), rho)
    assert ms.unsharp_expectation(obs, rho) == pytest.approx(lam * sharp, abs=1e-12)


def test_luders_eigenstate_fixed_point():
    up = DensityMatrix(np.diag([1.0, 0.0]))
    out = ms.luders_update(ms.UnsharpObservable(ms.Z_AXIS, 1.0), +1, up)
    assert np.max(np.abs(out.matrix - up.matrix)) < 1e-15


def test_luders_weak_limit_is_identity():
    rng = np.random.default_rng(23)
    rho = oracles.random_density_matrix(rng, 2)
    obs = ms.UnsharpObservable(ms.X_AXIS, 1e-6)
    out = ms.luders_update(obs, +1, rho)
    assert oracles.trace_distance(out.matrix, rho) < 1e-6


def test_luders_mixed_state_example():
    mixed = DensityMatrix(np.eye(2) / 2)
    out = ms.luders_update(ms.UnsharpObservable(ms.Z_AXIS, 0.6), +1, mixed)
    assert np.allclose(out.matrix, np.diag([0.8, 0.2]), atol=1e-12)


def test_luders_impossible_branch_raises():
    up = DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        ms.luders_update(ms.UnsharpObservable(ms.Z_AXIS, 1.0), -1, up)


def test_luders_projective_collapse_exact():
    rng = np.random.default_rng(29)
    rho = oracles.random_density_matrix(rng, 2)
    n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    obs = ms.UnsharpObservable(n, 1.0)
    proj = (np.eye(2) + ms.spin_operator(n)) / 2
    expected = proj @ rho @ proj / oracles.trace_product(proj, rho).real
    out = ms.luders_update(obs, +1, rho)
    assert oracles.trace_distance(out.matrix, expected) < 1e-12


@settings(max_examples=100, deadline=None)
@given(unit_vectors, sharpness_values, st.integers(0, 2**32 - 1))
def test_unconditioned_map_preserves_trace(direction, lam, seed):
    rng = np.random.default_rng(seed)
    rho = oracles.random_density_matrix(rng, 2)
    obs = ms.UnsharpObservable(direction, lam)
    total = np.zeros((2, 2), dtype=complex)
    for outcome in (+1, -1):
        root = ms.sqrt_effect(obs, outcome)
        total += root @ rho @ root
    assert abs(np.trace(total) - 1.0) < 1e-12


def test_rom_values():
    assert ms.rom(ms.UnsharpObservable(ms.Z_AXIS, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert ms.rom(ms.UnsharpObservable(ms.Y_AXIS, 0.80)) == pytest.approx(0.80, abs=1e-12)


def test_rom_operator_norm_route_equals_sharpness():
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        lam = rng.uniform(0.01, 1.0)
        assert ms.rom(ms.UnsharpObservable(v, lam)) == pytest.approx(lam, abs=1e-12)


def test_rom_monotone_in_sharpness():
    values = [ms.rom(ms.UnsharpObservable(ms.Z_AXIS, lam))
              for lam in np.linspace(0.05, 1.0, 20)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_pointer_tradeoff():
    assert ms.pointer_tradeoff(ms.UnsharpObservable(ms.Z_AXIS, 1.0)) == ms.PointerTradeoff(0.0, 1.0)
    pt = ms.pointer_tradeoff(ms.UnsharpObservable(ms.Z_AXIS, 0.6))
    assert pt.quality == pytest.approx(0.8, abs=1e-12)
    assert pt.precision == pytest.approx(0.6, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(sharpness_values)
def test_pointer_identity(lam):
    pt = ms.pointer_tradeoff(ms.UnsharpObservable(ms.Z_AXIS, lam))
    assert abs(pt.quality**2 + pt.precision**2 - 1.0) < 1e-12
