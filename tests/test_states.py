import copy
import math
import pickle

import numpy as np
import pytest

from seqwitness import qcore, states, witness

import oracles


def test_bell_equals_werner_limit():
    bell = states.build(states.StateFamily.bell())
    werner1 = states.build(states.StateFamily.werner(1.0))
    assert np.max(np.abs(bell.matrix - werner1.matrix)) < 1e-15


def test_pure_state_correlation():
    rho = states.build(states.StateFamily.pure(math.pi / 8))
    xx = oracles.kron4(oracles.SX, oracles.SX)
    assert oracles.trace_product(xx, rho.matrix).real == pytest.approx(
        math.sqrt(2) / 2, abs=1e-12)


def test_colored_zz_correlation():
    for p in (0.3, 0.69, 1.0):
        rho = states.build(states.StateFamily.colored(p))
        zz = oracles.kron4(oracles.SZ, oracles.SZ)
        assert oracles.trace_product(zz, rho.matrix).real == pytest.approx(
            2 * p - 1, abs=1e-12)


def test_parameter_validation():
    pure_range = "pure-state angle must lie in (0, pi/4)"
    cases = [
        (lambda: states.StateFamily.werner(0.0), "werner parameter must lie in (0, 1]"),
        (lambda: states.StateFamily("werner"), "werner parameter must lie in (0, 1]"),
        (lambda: states.StateFamily.colored(1.2), "colored parameter must lie in (0, 1]"),
        (lambda: states.StateFamily.pure(0.0), pure_range),
        (lambda: states.StateFamily.pure(math.pi / 4), pure_range),
        (lambda: states.StateFamily("pure", None), pure_range),
        (lambda: states.StateFamily("bell", 0.5), "bell family takes no parameter"),
        (lambda: states.StateFamily("ghz", None), "unknown state family 'ghz'"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


def test_state_family_is_an_immutable_value():
    w = states.StateFamily("werner", 0.7)
    assert w == states.StateFamily.werner(0.7)
    assert hash(w) == hash(states.StateFamily.werner(0.7))
    assert w != states.StateFamily.werner(0.6)
    assert w != states.StateFamily.colored(0.7)
    assert {w: "w"}[states.StateFamily.werner(0.7)] == "w"
    assert len({states.StateFamily.bell(), states.StateFamily("bell")}) == 1
    # a value, not a tuple
    assert states.StateFamily.bell() != ("bell", None)
    assert not isinstance(w, tuple)
    assert repr(w) == "StateFamily(kind='werner', param=0.7)"
    assert repr(states.StateFamily.bell()) == "StateFamily(kind='bell', param=None)"
    with pytest.raises(AttributeError):
        w.param = 0.8
    with pytest.raises(AttributeError):
        w.extra = 1
    with pytest.raises(AttributeError):
        del w.kind
    assert (w.kind, w.param) == ("werner", 0.7)
    assert pickle.loads(pickle.dumps(w)) == w
    assert copy.deepcopy(w) == w


def test_concurrence_closed_form_values():
    assert states.concurrence_closed_form(states.StateFamily.werner(0.58)) == pytest.approx(0.37)
    assert states.concurrence_closed_form(states.StateFamily.colored(0.69)) == pytest.approx(0.38)
    assert states.concurrence_closed_form(states.StateFamily.werner(1 / 3)) == 0.0
    assert states.concurrence_closed_form(states.StateFamily.bell()) == 1.0


def test_closed_forms_match_wootters_oracle():
    for p in np.linspace(0.02, 1.0, 40):
        fam = states.StateFamily.werner(float(p))
        assert qcore.concurrence_wootters(states.build(fam)) == pytest.approx(
            states.concurrence_closed_form(fam), abs=1e-10)
        fam = states.StateFamily.colored(float(p))
        assert qcore.concurrence_wootters(states.build(fam)) == pytest.approx(
            states.concurrence_closed_form(fam), abs=1e-10)
    for theta in np.linspace(0.02, math.pi / 4 - 0.02, 40):
        fam = states.StateFamily.pure(float(theta))
        assert qcore.concurrence_wootters(states.build(fam)) == pytest.approx(
            states.concurrence_closed_form(fam), abs=1e-10)


def test_werner_twirl_invariance():
    # psi+ = (I x sigma_x) phi+, and phi+ is invariant under U x conj(U),
    # so the werner family is invariant under U x (sigma_x conj(U) sigma_x).
    rng = np.random.default_rng(37)
    rho = states.build(states.StateFamily.werner(0.7)).matrix
    sx = oracles.SX
    for _ in range(10):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(x)
        u = oracles.kron4(q, sx @ q.conj() @ sx)
        assert np.max(np.abs(u @ rho @ u.conj().T - rho)) < 1e-12


def matrix_correlation_strength(family):
    """Correlation strength of a family through the matrix route:
    1 - 4 <W> of the family witness on the built state."""
    w = witness.family_witness(family.kind)
    return 1.0 - 4.0 * witness.expectation(w, states.build(family))


def test_correlation_strength_matches_matrix_route():
    rng = np.random.default_rng(11)
    bell = states.StateFamily.bell()
    assert abs(states.correlation_strength(bell) - matrix_correlation_strength(bell)) <= 1e-12
    for kind, hi in (("werner", 1.0), ("colored", 1.0), ("pure", math.pi / 4.0)):
        for param in rng.uniform(1e-6, hi, size=200):
            family = states.StateFamily(kind, float(param))
            got = states.correlation_strength(family)
            assert abs(got - matrix_correlation_strength(family)) <= 1e-12, (kind, param)


def test_param_for_strength_inverts_correlation_strength():
    rng = np.random.default_rng(41)
    for kind, hi in (("werner", 1.0), ("colored", 1.0), ("pure", math.pi / 4.0)):
        for param in rng.uniform(1e-6, hi, size=200):
            g = states.correlation_strength(states.StateFamily(kind, float(param)))
            assert states.param_for_strength(kind, g) == pytest.approx(param, rel=1e-12, abs=0.0)


def test_param_for_strength_pure_range_and_kinds():
    assert states.param_for_strength("pure", 3.0) == pytest.approx(math.pi / 4.0)
    assert states.param_for_strength("pure", -1.0) == pytest.approx(-math.pi / 4.0)
    for g in (-1.0 - 1e-12, 3.0 + 1e-12, -5.0, 7.0):
        assert states.param_for_strength("pure", g) is None
    for kind in ("bell", "mystery"):
        with pytest.raises(ValueError, match="werner, colored and pure"):
            states.param_for_strength(kind, 2.0)


def test_build_matches_ket_oracle_entrywise():
    rng = np.random.default_rng(29)
    families = [states.StateFamily.bell()]
    for _ in range(10):
        families.append(states.StateFamily.werner(rng.uniform(0.01, 1.0)))
        families.append(states.StateFamily.colored(rng.uniform(0.01, 1.0)))
        families.append(states.StateFamily.pure(rng.uniform(0.01, math.pi / 4 - 0.01)))
    for theta in (1e-12, 1e-6, math.pi / 4 - 1e-6, math.nextafter(math.pi / 4, 0.0)):
        families.append(states.StateFamily.pure(theta))
    families += [states.StateFamily.werner(1.0), states.StateFamily.colored(1.0)]
    for family in families:
        rho = states.build(family)
        assert np.max(np.abs(rho.matrix - oracles.family_matrix(family))) < 1e-15, family


def test_build_carries_the_closed_form_coefficients_over_4():
    # bitwise: dividing the closed forms by 4 is exact
    pure = np.diag([1.0, math.sin(0.6), math.sin(0.6), -1.0])
    pure[3, 0], pure[0, 3] = math.cos(0.6), -math.cos(0.6)
    for family, closed_form in (
            (states.StateFamily.bell(), np.diag([1.0, 1.0, 1.0, -1.0])),
            (states.StateFamily.werner(0.37), np.diag([1.0, 0.37, 0.37, -0.37])),
            (states.StateFamily.colored(0.81), np.diag([1.0, 0.81, -0.81, 2 * 0.81 - 1])),
            (states.StateFamily.pure(0.3), pure)):
        carried = qcore.pauli_coefficients(states.build(family))
        assert np.array_equal(carried, closed_form / 4), family
