import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqwitness import qcore, states, witness
from seqwitness.qcore import is_hermitian

import oracles

modulations = st.floats(0.05, 1.0)


def test_psi_plus_witness_expectations():
    w = witness.witness_psi_plus()
    bell = states.build(states.StateFamily.bell())
    assert witness.expectation(w, bell) == pytest.approx(-0.5, abs=1e-12)
    assert witness.expectation(w, np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)
    k00 = oracles.ket(0)
    assert witness.expectation(w, np.outer(k00, k00.conj())) == pytest.approx(0.5, abs=1e-12)


def test_colored_witness_expectations():
    w = witness.witness_phi_colored()
    assert witness.expectation(w, np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)
    phi = states.build(states.StateFamily.colored(1.0))
    assert witness.expectation(w, phi) == pytest.approx(-0.5, abs=1e-12)
    for p in np.linspace(0.05, 1.0, 12):
        rho = states.build(states.StateFamily.colored(float(p)))
        assert witness.expectation(w, rho) == pytest.approx(
            0.25 * (1 - (4 * p - 1)), abs=1e-12)


def test_witness_matrices_are_hermitian():
    rng = np.random.default_rng(5)
    cases = [witness.witness_psi_plus(), witness.witness_phi_colored(),
             witness.modulate(witness.witness_phi_colored(), 0.3, 0.9)]
    cases += [witness.WitnessOperator(rng.normal(size=(4, 4))) for _ in range(50)]
    for w in cases:
        m = qcore.from_pauli_coefficients(w.coefficients)
        assert is_hermitian(m)
        assert np.max(np.abs(m - oracles.witness_matrix(w.coefficients))) <= 1e-15


# Each family's entangled range on a 12-point grid; Bell has no parameter.
_ENTANGLED = {states.BELL: [None], states.WERNER: np.linspace(0.34, 1.0, 12),
              states.COLORED: np.linspace(0.51, 1.0, 12),
              states.PURE: np.linspace(0.01, math.pi / 4 - 0.01, 12)}


def _pt_derived_error(kind):
    """Largest coefficient gap between a family's witness and the one that
    partial transposition derives from each state of its entangled range."""
    want = witness.family_witness(kind).coefficients
    rhos = (states.build(states.StateFamily(kind, None if p is None else float(p))) for p in _ENTANGLED[kind])
    return max(np.max(np.abs(oracles.witness_from_state(rho.matrix) - want)) for rho in rhos)


def test_witness_from_state_reproduces_bell_witness():
    psi_plus = witness.witness_psi_plus()
    kinds = [k for k, w in witness._FAMILY_WITNESSES.items() if w == psi_plus]
    assert sorted(kinds) == sorted([states.BELL, states.WERNER, states.PURE])
    for kind in kinds:
        assert _pt_derived_error(kind) < 1e-12, kind


def test_witness_from_state_reproduces_colored_witness():
    colored = witness.witness_phi_colored()
    assert [k for k, w in witness._FAMILY_WITNESSES.items() if w == colored] == [states.COLORED]
    assert _pt_derived_error(states.COLORED) < 1e-12


def test_witness_from_state_rejects_ppt():
    for rho in (np.eye(4) / 4, states.build(states.StateFamily.werner(0.3)).matrix):
        with pytest.raises(ValueError):
            oracles.witness_from_state(rho)


def test_modulate_sharp_limit_unchanged():
    w = witness.witness_psi_plus()
    m = witness.modulate(w, 1.0, 1.0)
    assert np.max(np.abs(m.coefficients - w.coefficients)) < 1e-15
    assert m.modulation == (1.0, 1.0)


def test_modulate_boundary_value():
    w = witness.witness_psi_plus()
    bell = states.build(states.StateFamily.bell())
    m = witness.modulate(w, 1.0, 1.0 / 3.0)
    assert witness.expectation(m, bell) == pytest.approx(0.0, abs=1e-12)


def test_modulate_closed_forms_on_grids():
    w = witness.witness_psi_plus()
    wc = witness.witness_phi_colored()
    for xi in (0.4, 0.73, 1.0):
        for lam in (0.51, 0.9):
            mw = witness.modulate(w, xi, lam)
            mc = witness.modulate(wc, xi, lam)
            for p in (0.2, 0.58, 1.0):
                rho = states.build(states.StateFamily.werner(p))
                assert witness.expectation(mw, rho) == pytest.approx(
                    (1 - 3 * xi * lam * p) / 4, abs=1e-12)
                rho = states.build(states.StateFamily.colored(p))
                assert witness.expectation(mc, rho) == pytest.approx(
                    (1 - xi * lam * (4 * p - 1)) / 4, abs=1e-12)
            for theta in (0.2, 0.6):
                rho = states.build(states.StateFamily.pure(theta))
                assert witness.expectation(mw, rho) == pytest.approx(
                    (1 - xi * lam * (1 + 2 * math.sin(2 * theta))) / 4, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(modulations, modulations, modulations, modulations)
def test_modulate_is_multiplicative_in_coefficients(x1, l1, x2, l2):
    w = witness.witness_psi_plus()
    once = witness.modulate(w, x1 * x2, l1 * l2)
    stepped = witness.WitnessOperator(witness.modulate(w, x1, l1).coefficients)
    stepped = witness.modulate(stepped, x2, l2)
    assert np.max(np.abs(once.coefficients - stepped.coefficients)) < 1e-14


def test_modulate_uses_the_shared_wing_scaling():
    for w in (witness.witness_psi_plus(), witness.witness_phi_colored()):
        for xi, lam in ((0.3, 0.9), (1.0, 0.58), (0.77, 1.0)):
            assert np.array_equal(witness.modulate(w, xi, lam).coefficients,
                                  qcore.scale_wings(w.coefficients, xi, lam))


def test_modulate_validation():
    w = witness.witness_psi_plus()
    with pytest.raises(ValueError):
        witness.modulate(w, 0.0, 0.5)
    with pytest.raises(ValueError):
        witness.modulate(w, 0.5, 1.0001)
    with pytest.raises(ValueError):
        witness.modulate(witness.modulate(w, 0.5, 0.5), 0.9, 0.9)


def test_family_witness_selection():
    assert np.array_equal(witness.family_witness("bell").coefficients,
                          witness.witness_psi_plus().coefficients)
    assert np.array_equal(witness.family_witness("colored").coefficients,
                          witness.witness_phi_colored().coefficients)
    with pytest.raises(ValueError):
        witness.family_witness("ghz")


def test_witness_rejects_complex_and_non_finite_coefficients():
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0], c[1, 1], c[1, 2] = 0.25, -0.25, 0.1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning before the error
        with pytest.raises(ValueError, match="real 4x4"):
            witness.WitnessOperator(c)
    # a NaN or infinite coefficient would give a NaN threshold, which a chain
    # reads as "stop"
    for bad in (math.nan, math.inf, -math.inf):
        c = np.array(witness.witness_psi_plus().coefficients)
        c[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            witness.WitnessOperator(c)


def test_separability_floor_statistics():
    w = witness.witness_psi_plus()
    assert witness.separability_floor(w, 10_000, seed=0) >= -1e-10
    m = witness.modulate(w, 0.5, 0.5)
    assert witness.separability_floor(m, 10_000, seed=0) >= -1e-10
    zero = witness.WitnessOperator(np.zeros((4, 4)))
    assert witness.separability_floor(zero, 100, seed=0) == 0.0


def test_separability_floor_needs_a_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        witness.separability_floor(witness.witness_psi_plus(), 0)


def test_separability_floor_is_reproducible():
    w = witness.witness_psi_plus()
    a = witness.separability_floor(w, 5_000, seed=42)
    b = witness.separability_floor(w, 5_000, seed=42)
    assert a == b


def test_separability_floor_matches_direct_sampling():
    # same RNG stream, evaluated through full 4x4 matrices instead
    w = witness.modulate(witness.witness_psi_plus(), 0.8, 0.6)
    wm = qcore.from_pauli_coefficients(w.coefficients)
    rng = np.random.default_rng(7)
    n = 500
    raw_a = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    kets_a = raw_a / np.linalg.norm(raw_a, axis=1, keepdims=True)
    raw_b = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    kets_b = raw_b / np.linalg.norm(raw_b, axis=1, keepdims=True)
    direct = min(
        oracles.trace_product(wm, np.outer(np.kron(a, b), np.kron(a, b).conj())).real
        for a, b in zip(kets_a, kets_b))
    assert witness.separability_floor(w, n, seed=7) == pytest.approx(direct, abs=1e-12)


def test_family_witness_returns_shared_instances():
    for kind in states.KINDS:
        assert witness.family_witness(kind) is witness.family_witness(kind)
    assert witness.family_witness("bell") is witness.family_witness("werner")
    assert witness.family_witness("colored") is not witness.family_witness("bell")
    with pytest.raises(ValueError):
        witness.family_witness("ghz")
