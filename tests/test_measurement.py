import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqwitness import measurement as ms
from seqwitness.qcore import expectation, is_hermitian

import oracles

unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < math.hypot(*v)).map(
    lambda v: np.array(v) / math.hypot(*v))

sharpness_values = st.floats(0.01, 1.0)


def test_observable_validation():
    for direction, lam in ((np.array([1.0, 1.0, 0.0]), 0.5), (ms.Z_AXIS, 0.0), (ms.Z_AXIS, 1.2)):
        with pytest.raises(ValueError):
            ms.UnsharpObservable(direction, lam)
    with pytest.raises(ValueError, match="outcome must be"):
        ms.sqrt_effect(ms.UnsharpObservable(ms.Z_AXIS, 0.5), 0)


def test_nan_direction_and_pointer_are_rejected():
    # NaN fails every comparison, so a check written as "deviation > tol"
    # would let it through and every effect would come out NaN
    with pytest.raises(ValueError, match="unit 3-vector"):
        ms.UnsharpObservable(np.array([math.nan, 0.0, 0.0]), 0.5)
    for quality, precision in ((math.nan, math.nan), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="F\\^2"):
            ms.PointerTradeoff(quality, precision)


def test_sharp_effect_is_projector():
    assert np.allclose(oracles.effect(ms.Z_AXIS, 1.0, +1), np.diag([1.0, 0.0]))
    assert np.allclose(oracles.effect(ms.Z_AXIS, 1.0, -1), np.diag([0.0, 1.0]))


def test_effect_eigenvalues_any_direction():
    n = np.array([1.0, 2.0, -1.0])
    n /= np.linalg.norm(n)
    evals = oracles.eigvals(oracles.effect(n, 0.73, +1))
    assert np.allclose(np.sort(evals), [0.135, 0.865], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(unit_vectors, sharpness_values)
def test_effects_complete_and_positive(direction, lam):
    plus = oracles.effect(direction, lam, +1)
    minus = oracles.effect(direction, lam, -1)
    assert np.max(np.abs(plus + minus - np.eye(2))) < 1e-12
    assert oracles.eigvals(plus)[0] > -1e-12
    assert oracles.eigvals(minus)[0] > -1e-12
    assert is_hermitian(plus)


def test_sqrt_effect_squares_back():
    n = np.array([3.0, -1.0, 2.0])
    n /= np.linalg.norm(n)
    obs = ms.UnsharpObservable(n, 0.6)
    for outcome in (+1, -1):
        root = ms.sqrt_effect(obs, outcome)
        assert np.max(np.abs(root @ root - oracles.effect(n, 0.6, outcome))) < 1e-12


def _unsharp_expectation(obs, rho):
    """Tr(rho (E+ - E-)), each effect the square of ``sqrt_effect``."""
    plus, minus = ms.sqrt_effect(obs, +1), ms.sqrt_effect(obs, -1)
    return expectation(plus @ plus - minus @ minus, rho)


def test_unsharp_expectation_examples():
    for axis, lam, rho, want in ((ms.Z_AXIS, 0.5, np.diag([1.0, 0.0]), 0.5),
                                 (ms.X_AXIS, 0.9, np.eye(2) / 2, 0.0),
                                 (ms.X_AXIS, 0.79, np.full((2, 2), 0.5, dtype=complex), 0.79)):
        assert _unsharp_expectation(ms.UnsharpObservable(axis, lam), rho) == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(unit_vectors, sharpness_values, st.integers(0, 2**32 - 1))
def test_unsharp_expectation_scales_projective_value(direction, lam, seed):
    rho = oracles.random_density_matrix(np.random.default_rng(seed), 2)
    assert _unsharp_expectation(ms.UnsharpObservable(direction, lam), rho) == pytest.approx(
        lam * expectation(ms.spin_operator(direction), rho), abs=1e-12)


# Outcome +1 Lueders updates K rho K / Tr(K rho K), K the effect's square root:
# (direction, sharpness, input state, expected output, trace-distance bound)
_RHO_23, _RHO_29 = (oracles.random_density_matrix(np.random.default_rng(s), 2) for s in (23, 29))
_P_111 = oracles.effect(np.ones(3) / math.sqrt(3.0), 1.0, +1)
_LUDERS_CASES = {
    "eigenstate_fixed_point": (ms.Z_AXIS, 1.0, np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), 1e-15),
    "weak_limit_is_identity": (ms.X_AXIS, 1e-6, _RHO_23, _RHO_23, 1e-6),
    "mixed_state_example": (ms.Z_AXIS, 0.6, np.eye(2) / 2, np.diag([0.8, 0.2]), 1e-12),
    "projective_collapse_exact": (np.ones(3) / math.sqrt(3.0), 1.0, _RHO_29, _P_111 @ _RHO_29 @ _P_111
                                  / oracles.trace_product(_P_111, _RHO_29).real, 1e-12),
}


@pytest.mark.parametrize("case", list(_LUDERS_CASES))
def test_luders_update(case):
    direction, lam, rho, want, bound = _LUDERS_CASES[case]
    root = ms.sqrt_effect(ms.UnsharpObservable(direction, lam), +1)
    out = root @ rho @ root
    assert oracles.trace_distance(out / np.trace(out).real, want) < bound


def test_luders_impossible_branch_is_zero():
    root = ms.sqrt_effect(ms.UnsharpObservable(ms.Z_AXIS, 1.0), -1)
    assert not np.any(root @ np.diag([1.0, 0.0]) @ root)


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
    assert oracles.rom(ms.Z_AXIS, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert oracles.rom(ms.Y_AXIS, 0.80) == pytest.approx(0.80, abs=1e-12)


def test_rom_operator_norm_route_equals_sharpness():
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        lam = rng.uniform(0.01, 1.0)
        assert oracles.rom(v, lam) == pytest.approx(lam, abs=1e-12)


def test_rom_monotone_in_sharpness():
    values = [oracles.rom(ms.Z_AXIS, lam) for lam in np.linspace(0.05, 1.0, 20)]
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
