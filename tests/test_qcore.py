import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqwitness import qcore
from seqwitness.states import StateFamily, build

import oracles


def test_pauli_z_is_diag():
    assert np.allclose(qcore.pauli("z"), np.diag([1, -1]))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_pauli_involution_and_traceless(axis):
    s = qcore.pauli(axis)
    assert np.allclose(s @ s, np.eye(2))
    assert abs(np.trace(s)) == 0.0


def test_pauli_identity_and_bad_axis():
    assert np.allclose(qcore.pauli("identity"), np.eye(2))
    with pytest.raises(ValueError):
        qcore.pauli("w")
    with pytest.raises(ValueError, match="unknown Pauli axis 3"):
        qcore.pauli(3)


def test_tensor_identity_case():
    assert np.allclose(qcore.tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_trace_multiplicative():
    zz = qcore.tensor(qcore.pauli("z"), qcore.pauli("z"))
    assert abs(np.trace(zz)) < 1e-15


def test_tensor_flips_basis_state():
    # sigma_x . sigma_x maps |01> to |10>
    xx = qcore.tensor(qcore.pauli("x"), qcore.pauli("x"))
    v01 = np.array([0, 1, 0, 0], dtype=complex)
    v10 = np.array([0, 0, 1, 0], dtype=complex)
    assert np.allclose(xx @ v01, v10)


def test_tensor_rejects_large_result():
    with pytest.raises(ValueError):
        qcore.tensor(np.eye(4), np.eye(2))


def test_tensor_matches_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(qcore.tensor(a, b), oracles.kron4(a, b), atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tensor_algebra_laws(seed):
    # three-factor associativity would need an 8x8 result, which tensor()
    # rejects by design; the testable pieces are scalar associativity,
    # bilinearity and the mixed-product rule
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    lhs = qcore.tensor(mats[0], mats[1])
    scale = rng.normal() + 1j * rng.normal()
    assert np.max(np.abs(qcore.tensor(scale * mats[0], mats[1])
                         - qcore.tensor(mats[0], scale * mats[1]))) < 1e-14
    assert np.max(np.abs(qcore.tensor(scale * mats[0], mats[1]) - scale * lhs)) < 1e-14
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.max(np.abs(qcore.tensor(mats[0] + mats[1], c)
                         - qcore.tensor(mats[0], c) - qcore.tensor(mats[1], c))) < 1e-14
    d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.max(np.abs(lhs @ qcore.tensor(c, d)
                         - qcore.tensor(mats[0] @ c, mats[1] @ d))) < 1e-12


def test_pauli_coefficients_round_trip_on_random_hermitian_matrices():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = (x + x.conj().T) / 2
        c = qcore.pauli_coefficients(m)
        assert c.dtype == float
        assert np.max(np.abs(qcore.from_pauli_coefficients(c) - m)) < 1e-14
        assert np.max(np.abs(oracles.witness_matrix(c) - m)) < 1e-14
    # a state built from a matrix carries no array; it is computed, not kept
    rho = qcore.DensityMatrix(oracles.random_density_matrix(rng, 4))
    c = qcore.pauli_coefficients(rho)
    assert np.max(np.abs(c - oracles.pauli_coefficients(rho.matrix))) < 1e-15
    assert getattr(rho, "_coefficients", None) is None
    # a raw array gets its own writable array on every call
    raw = qcore.pauli_coefficients(rho.matrix)
    assert raw.flags.writeable and raw is not qcore.pauli_coefficients(rho.matrix)


def test_pauli_coefficients_reject_non_hermitian_and_wrong_shape():
    skewed = (np.eye(4) / 4).astype(complex)
    skewed[0, 1] = 0.1
    for bad in (skewed, np.eye(2) / 2):
        with pytest.raises(ValueError, match="Hermitian 4x4"):
            qcore.pauli_coefficients(bad)


def test_state_carries_a_read_only_copy_of_its_coefficients():
    c = np.zeros((4, 4))
    c[0, 0], c[1, 1], c[2, 2], c[3, 3] = 0.25, 0.2, 0.2, -0.2
    rho = qcore.state_from_pauli_coefficients(c)
    carried = qcore.pauli_coefficients(rho)
    assert np.array_equal(carried, c)
    c[1, 1] = 0.0  # the state keeps the array it was built from
    assert carried[1, 1] == 0.2
    with pytest.raises(ValueError):
        carried[0, 0] = 1.0
    assert np.max(np.abs(rho.matrix - oracles.witness_matrix(carried))) < 1e-15
    with pytest.raises(ValueError, match="real 4x4"):
        qcore.state_from_pauli_coefficients(np.eye(2) / 2)


def test_from_pauli_coefficients_reads_any_array_like_alike():
    c = np.random.default_rng(31).normal(size=(4, 4))
    want = qcore.from_pauli_coefficients(np.array(c))
    read_only = np.array(c)
    read_only.setflags(write=False)
    transposed = np.ascontiguousarray(c.T).T  # a non-contiguous view with c's entries
    assert not transposed.flags.c_contiguous
    for same in (c.tolist(), read_only, transposed):
        assert np.array_equal(qcore.from_pauli_coefficients(same), want)


def test_complex_coefficients_are_rejected_not_truncated():
    # the float copy would drop the imaginary part and build another state
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0], c[1, 1], c[1, 2] = 0.25, 0.2, 0.1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real 4x4"):
            qcore.state_from_pauli_coefficients(c)
        with pytest.raises(ValueError, match="real 4x4"):
            qcore.state_from_pauli_coefficients(c.tolist())
        with pytest.raises(ValueError, match="must be real"):
            qcore.from_pauli_coefficients(c)
    # a complex array with zero imaginary parts is still refused: the dtype decides
    with pytest.raises(ValueError, match="real 4x4"):
        qcore.state_from_pauli_coefficients(c.real.astype(complex))


def test_coefficient_expectation_matches_trace_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = oracles.random_density_matrix(rng, 4)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        obs = (x + x.conj().T) / 2
        value = qcore.coefficient_expectation(qcore.pauli_coefficients(obs), rho)
        assert value == pytest.approx(oracles.trace_product(obs, rho).real, abs=1e-13)


def test_scale_wings_scales_rows_and_columns_of_a_copy():
    c = np.arange(16.0).reshape(4, 4)
    scaled = qcore.scale_wings(c, 0.5, 0.25)
    assert np.array_equal(c, np.arange(16.0).reshape(4, 4))
    assert scaled[0, 0] == c[0, 0]
    assert np.array_equal(scaled[1:, 0], 0.5 * c[1:, 0])
    assert np.array_equal(scaled[0, 1:], 0.25 * c[0, 1:])
    assert np.array_equal(scaled[1:, 1:], 0.125 * c[1:, 1:])
    assert np.array_equal(qcore.scale_wings(c, 1.0, 0.25)[1:, 0], c[1:, 0])


def test_expectation_bell_correlations():
    psi = oracles.psi_plus_ket()
    rho = np.outer(psi, psi.conj())
    zz = qcore.tensor(qcore.pauli("z"), qcore.pauli("z"))
    xx = qcore.tensor(qcore.pauli("x"), qcore.pauli("x"))
    assert qcore.expectation(zz, rho) == pytest.approx(-1.0, abs=1e-12)
    assert qcore.expectation(xx, rho) == pytest.approx(1.0, abs=1e-12)
    assert qcore.expectation(np.eye(4), rho) == pytest.approx(1.0, abs=1e-12)


def test_expectation_matches_loop_oracle():
    rng = np.random.default_rng(11)
    rho = oracles.random_density_matrix(rng, 4)
    obs = oracles.kron4(oracles.SZ, oracles.SX)
    assert qcore.expectation(obs, rho) == pytest.approx(
        oracles.trace_product(obs, rho).real, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        qcore.expectation(m, np.eye(2) / 2)


def test_partial_transpose_involution():
    rho = oracles.random_density_matrix(np.random.default_rng(5), 4)
    assert np.array_equal(oracles.partial_transpose(oracles.partial_transpose(rho)), rho)


def test_partial_transpose_of_product_states_stays_positive():
    rng = np.random.default_rng(7)
    worst = min(oracles.eigvals(oracles.partial_transpose(oracles.random_product_state(rng)))[0]
                for _ in range(10_000))
    assert worst >= -1e-10


def test_partial_transpose_bell_spectrum():
    psi = oracles.psi_plus_ket()
    evals, _ = qcore.eigen_hermitian(oracles.partial_transpose(np.outer(psi, psi.conj())))
    assert np.allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_eigen_simple_cases():
    evals, _ = qcore.eigen_hermitian(qcore.pauli("z"))
    assert np.allclose(evals, [-1.0, 1.0])
    psi = oracles.psi_plus_ket()
    evals, _ = qcore.eigen_hermitian(np.outer(psi, psi.conj()))
    assert np.allclose(evals, [0, 0, 0, 1], atol=1e-12)


def test_eigen_matches_lapack_and_reconstructs():
    rng = np.random.default_rng(13)
    cases = []
    for dim in (2, 4):
        for _ in range(50):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            cases.append((x + x.conj().T) / 2)
    # degenerate spectra: fourfold 1/4, and the triple 0.5 of the Bell
    # projector's partial transpose
    psi = oracles.psi_plus_ket()
    cases.append(np.eye(4, dtype=complex) / 4)
    cases.append(oracles.partial_transpose(np.outer(psi, psi.conj())))
    for h in cases:
        evals, vecs = qcore.eigen_hermitian(h)
        assert np.all(np.diff(evals) >= 0.0)
        assert np.allclose(evals, oracles.eigvals(h), atol=1e-10)
        recon = vecs @ np.diag(evals.astype(complex)) @ vecs.conj().T
        assert np.max(np.abs(recon - h)) < 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(h.shape[0]))) < 1e-12


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qcore.eigen_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="square matrix"):
        qcore.eigen_hermitian(np.zeros((2, 3)))


def test_concurrence_extremes():
    psi = oracles.psi_plus_ket()
    assert qcore.concurrence_wootters(np.outer(psi, psi.conj())) == pytest.approx(1.0, abs=1e-10)
    assert qcore.concurrence_wootters(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_werner_known_value():
    rho = build(StateFamily.werner(0.58))
    assert qcore.concurrence_wootters(rho) == pytest.approx(0.37, abs=1e-10)


def test_concurrence_matches_numpy_oracle_on_random_states():
    rng = np.random.default_rng(19)
    for _ in range(25):
        rho = oracles.random_density_matrix(rng, 4)
        assert qcore.concurrence_wootters(rho) == pytest.approx(
            oracles.concurrence(rho), abs=1e-9)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        qcore.DensityMatrix(np.eye(4))  # trace 4
    bad = np.eye(4) / 4
    bad = bad.astype(complex)
    bad[0, 1] = 0.1
    with pytest.raises(ValueError):
        qcore.DensityMatrix(bad)  # not Hermitian
    neg = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        qcore.DensityMatrix(neg)  # negative eigenvalue
    with pytest.raises(ValueError):
        qcore.DensityMatrix(np.eye(3) / 3)  # bad dimension


@pytest.mark.parametrize("m", [np.full((4, 4), np.nan), np.diag([np.nan, 0.0, 0.0, 1.0]),
                               np.diag([np.inf, 0.0, 0.0, 1.0]),
                               np.eye(4) / 4 + np.diag([np.nan], k=-3)])  # NaN at [3, 0] only
def test_density_matrix_names_non_finite_entries(m):
    with pytest.raises(ValueError, match="non-finite entries"):
        qcore.DensityMatrix(m)


def test_density_matrix_negative_eigenvalue_threshold():
    # a rotated spectrum keeps the smallest eigenvalue off the diagonal;
    # -5e-11 is round-off the validation tolerates, -2e-10 is not
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(x)
    for lowest, accepted in ((-5e-11, True), (-2e-10, False)):
        spectrum = np.array([lowest, 0.2, 0.3, 0.5 - lowest])
        m = u @ np.diag(spectrum.astype(complex)) @ u.conj().T
        m = (m + m.conj().T) / 2
        if accepted:
            qcore.DensityMatrix(m)
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                qcore.DensityMatrix(m)


def _rotated_state(rng, lowest, trace):
    """A bitwise-Hermitian 4x4 matrix with smallest eigenvalue ``lowest`` and
    trace ``trace``, in a random unitary basis."""
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rest = rng.uniform(0.5, 1.5, size=3)
    spectrum = np.concatenate(([lowest], rest * (trace - lowest) / rest.sum()))
    m = u @ np.diag(spectrum.astype(complex)) @ u.conj().T
    return (m + m.conj().T) / 2


# A drawn defect or lowest eigenvalue lies 1e-12 to 1e-9 beyond or within its
# tolerance (log-uniform), never closer to it, since the scalar checks and the
# numpy oracle may round differently there.
_DISTANCE = st.floats(-12.0, -9.0).map(lambda e: 10.0 ** e)
_FAILURE_MESSAGE = {"trace": "differs from 1", "Hermitian": "must be Hermitian",
                    "negative eigenvalue": "negative eigenvalue"}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), _DISTANCE, st.booleans(),
       st.sampled_from([None, "trace", "Hermitian", "imaginary diagonal"]),
       _DISTANCE, st.sampled_from([-1.0, 1.0]))
def test_density_matrix_accepts_exactly_what_the_numpy_oracle_accepts(
        seed, distance, psd, flaw, excess, sign):
    rng = np.random.default_rng(seed)
    lowest = -qcore.ORACLE_TOL + (distance if psd else -distance)
    defect = qcore.VALIDATE_TOL + excess
    m = _rotated_state(rng, lowest, 1.0 + sign * defect if flaw == "trace" else 1.0)
    if flaw == "Hermitian":
        m[0, 1] += 1j * sign * defect  # |m01 - conj(m10)| is the defect
    elif flaw == "imaginary diagonal":  # |m00 - conj(m00)| is the defect, the trace stays real
        m[0, 0] += 0.5j * sign * defect
        m[1, 1] -= 0.5j * sign * defect
    failure = oracles.density_matrix_failure(m)
    if failure is None:
        assert np.array_equal(qcore.DensityMatrix(m).matrix, m)
    else:
        with pytest.raises(ValueError, match=_FAILURE_MESSAGE[failure]):
            qcore.DensityMatrix(m)


def _verdict(m):
    """The message DensityMatrix rejects ``m`` with, or None."""
    try:
        qcore.DensityMatrix(m)
    except ValueError as err:
        return str(err)
    return None


def _differential_matrices(rng, copies):
    """Seeded 4x4 candidates, ``copies`` rounds of: a full-rank and a
    rank-deficient state; four lowest eigenvalues of +-1e-11 to 1e-9; a unit
    trace Hermitian matrix, mostly indefinite, as it is and off Hermitian at
    one position; a state off Hermitian by 0.5 to 2 VALIDATE_TOL at each of
    the 16 positions, and NaN, inf, -inf or an infinite imaginary part
    there; a trace off 1 by 1e-13 to 1e-1, real or imaginary."""
    for _ in range(copies):
        yield oracles.random_density_matrix(rng, 4)
        x = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        low_rank = x[:, :rng.integers(1, 4)]
        low_rank = low_rank @ low_rank.conj().T
        yield low_rank / np.trace(low_rank).real
        for _ in range(4):
            yield _rotated_state(rng, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.0, -9.0), 1.0)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (x + x.conj().T) / 2
        h += np.eye(4) * (1.0 - np.trace(h).real) / 4
        yield h
        h[rng.integers(4), rng.integers(4)] += 1e-3
        yield h
        rho = oracles.random_density_matrix(rng, 4)
        for i in range(4):
            for j in range(4):
                # |m[i][j] - conj(m[j][i])| becomes the defect: on the
                # diagonal twice the added imaginary part
                defect = qcore.VALIDATE_TOL * rng.uniform(0.5, 2.0)
                m = rho.copy()
                m[i, j] += 0.5j * defect if i == j else defect * np.exp(2j * np.pi * rng.uniform())
                yield m
                for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
                    m = rho.copy()
                    m[i, j] = bad
                    yield m
        off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -1.0)
        yield rho * (1.0 + off)
        m = rho.copy()
        m[3, 3] += 1j * off
        yield m


def test_density_matrix_matches_the_row_loop_oracle_verdict_for_verdict():
    rng = np.random.default_rng(31)
    kinds = ("differs from 1", "must be Hermitian", "negative eigenvalue", "non-finite")
    counts = dict.fromkeys((None,) + kinds, 0)
    for m in _differential_matrices(rng, 60):
        expected = oracles.density_matrix_verdict(m)
        assert _verdict(m) == expected, m
        counts[next((k for k in kinds if expected and k in expected), None)] += 1
    assert sum(counts.values()) >= 5000
    # every verdict, acceptance included, is reached many times
    assert min(counts.values()) >= 100, counts


def test_density_matrix_trace_and_hermiticity_tolerances():
    # half the tolerance passes, twice it fails, on either check
    for defect, accepted in ((0.5 * qcore.VALIDATE_TOL, True), (2 * qcore.VALIDATE_TOL, False)):
        off_trace = np.diag([0.25 + defect, 0.25, 0.25, 0.25]).astype(complex)
        skewed = (np.eye(4) / 4).astype(complex)
        skewed[0, 1], skewed[1, 0] = 0.1 + 1j * defect, 0.1
        for m, message in ((off_trace, "differs from 1"), (skewed, "must be Hermitian")):
            assert (oracles.density_matrix_failure(m) is None) == accepted
            if accepted:
                qcore.DensityMatrix(m)
            else:
                with pytest.raises(ValueError, match=message):
                    qcore.DensityMatrix(m)


def test_density_matrix_diagonal_hermiticity_tolerance():
    # |m_ii - conj(m_ii)| = 2 |Im m_ii|: 0.4 tol on the diagonal passes and
    # 0.75 tol fails, which a check of |Im m_ii| <= tol would let through
    for im, accepted in ((0.4 * qcore.VALIDATE_TOL, True), (0.75 * qcore.VALIDATE_TOL, False)):
        m = np.diag([0.25 + 1j * im, 0.25 - 1j * im, 0.25, 0.25])
        m[0, 1] = m[1, 0] = 0.1
        assert (oracles.density_matrix_failure(m) is None) == accepted
        if accepted:
            assert np.array_equal(qcore.DensityMatrix(m).matrix, m)
        else:
            with pytest.raises(ValueError, match="must be Hermitian"):
                qcore.DensityMatrix(m)


def test_is_hermitian_at_a_defect_of_exactly_its_tolerance():
    # |m_01 - conj(m_10)| equal to the tolerance passes; one float more fails
    for tol in (qcore.VALIDATE_TOL, 0.5):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = tol
        assert qcore.is_hermitian(m, tol)
        m[0, 1] = np.nextafter(tol, 1.0)
        assert not qcore.is_hermitian(m, tol)


def test_density_matrix_trace_check_at_exactly_its_tolerance():
    # An imaginary part of exactly VALIDATE_TOL on the diagonal puts the trace
    # exactly VALIDATE_TOL from 1, which the trace check lets through, so the
    # Hermiticity check names the defect; one float more fails on the trace.
    # (A coefficient-built trace is real, and near 1 its distance from 1 is a
    # multiple of 2^-53, never the double 1e-12.)
    m = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    m[0, 0] += 1j * qcore.VALIDATE_TOL
    with pytest.raises(ValueError, match="must be Hermitian"):
        qcore.DensityMatrix(m)
    m[0, 0] = 1.0 + 1j * np.nextafter(qcore.VALIDATE_TOL, 1.0)
    with pytest.raises(ValueError, match="differs from 1"):
        qcore.DensityMatrix(m)


def test_expectation_keeps_an_imaginary_part_of_exactly_1e_9():
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1e-9j
    assert qcore.expectation(np.eye(2), rho) == 0.0
    rho[0, 0] = 1j * np.nextafter(1e-9, 1.0)
    with pytest.raises(ValueError, match="imaginary part"):
        qcore.expectation(np.eye(2), rho)


def test_eigen_hermitian_at_a_reconstruction_error_of_exactly_its_tolerance():
    # LAPACK reads the lower triangle, so a diagonal matrix with ORACLE_TOL
    # above the diagonal reconstructs to its diagonal exactly: an error of
    # exactly ORACLE_TOL, which passes, as the Hermiticity check at the same
    # tolerance does; one float more fails that check first.
    m = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    m[0, 3] = qcore.ORACLE_TOL
    evals, vecs = qcore.eigen_hermitian(m)
    assert evals.tolist() == [0.1, 0.2, 0.3, 0.4]
    assert np.array_equal(np.abs(vecs), np.eye(4))
    m[0, 3] = np.nextafter(qcore.ORACLE_TOL, 1.0)
    with pytest.raises(ValueError, match="expects a Hermitian matrix"):
        qcore.eigen_hermitian(m)


def test_density_matrix_names_hermiticity_before_positivity():
    # the first pivot fails (m00 < 0) before the pass reaches the one
    # non-Hermitian pair, in the last row; Hermiticity is still the verdict
    m = np.diag([-0.1, 0.4, 0.4, 0.3]).astype(complex)
    m[3, 2] = 0.1
    assert oracles.density_matrix_failure(m) == "Hermitian"
    with pytest.raises(ValueError, match="must be Hermitian"):
        qcore.DensityMatrix(m)
    m[3, 2] = 0.0
    with pytest.raises(ValueError, match="negative eigenvalue -0.1"):
        qcore.DensityMatrix(m)


def _coefficient_verdict(c):
    """The message ``state_from_pauli_coefficients`` rejects ``c`` with, or None."""
    try:
        qcore.state_from_pauli_coefficients(c)
    except ValueError as err:
        return str(err)
    return None


def test_coefficient_built_states_fail_as_matrix_built_ones_do():
    # a coefficient-built state is validated on scalar entries with no array;
    # each flaw, alone and paired, gets the message the matrix route gives:
    # the trace before the eigenvalue, non-finite entries before either
    off_trace = np.zeros((4, 4))
    off_trace[0, 0] = 0.25  # the trace is 4 c[0, 0] = 2
    # Bell diagonal with correlations (1/2, 1/2, d): the singlet weight
    # (1 - 1/2 - 1/2 - d) / 4 = -1e-9 is its one negative eigenvalue
    negative = np.diag([0.25, 0.125, 0.125, 1e-9])
    nan = np.zeros((4, 4))
    nan[1, 2] = np.nan  # reaches only the four entries of the xy term
    cases = (
        (off_trace + np.diag([0.25, 0.0, 0.0, 0.0]), "trace 2 differs from 1"),
        (negative, "negative eigenvalue -1e-09"),
        (np.diag([0.25, 0.0, 0.0, 0.0]) + nan, "density matrix has non-finite entries"),
        (negative + off_trace, "trace 2 differs from 1"),
        (negative + nan, "density matrix has non-finite entries"),
        (off_trace * 2.0 + nan, "density matrix has non-finite entries"),
    )
    for c, message in cases:
        assert _coefficient_verdict(c) == message
        assert _verdict(qcore.from_pauli_coefficients(c)) == message
        assert oracles.density_matrix_verdict(oracles.witness_matrix(c)) == message
    # a tolerated lowest eigenvalue (-5e-11) still passes
    assert _coefficient_verdict(np.diag([0.25, 0.125, 0.125, 5e-11])) is None


# sigma_i x sigma_j, (I, x, y, z) order, row 4i + j: reads a matrix's Pauli
# coefficients as Tr(sigma_i x sigma_j . m) / 4
_ORACLE_BASIS = np.array([oracles.kron4(a, b) for a in oracles.PAULIS.values()
                          for b in oracles.PAULIS.values()])


def _coefficients_of(m):
    return np.einsum("kij,ji->k", _ORACLE_BASIS, m).real.reshape(4, 4) / 4.0


def _differential_coefficients(rng, copies):
    """Seeded real 4x4 coefficient arrays, ``copies`` rounds of: a full-rank
    and a rank-deficient state; four states with lowest eigenvalue 1e-12 to
    1e-9 either side of -ORACLE_TOL; four states with a trace off 1 by 1e-13
    to 1e-1; a state with NaN, inf or -inf (in turn over the rounds) at each
    of the 16 positions."""
    for copy in range(copies):
        yield _coefficients_of(oracles.random_density_matrix(rng, 4))
        x = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        low_rank = x[:, :rng.integers(1, 4)]
        low_rank = low_rank @ low_rank.conj().T
        yield _coefficients_of(low_rank / np.trace(low_rank).real)
        for _ in range(4):
            distance = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -9.0)
            yield _coefficients_of(_rotated_state(rng, -qcore.ORACLE_TOL + distance, 1.0))
        for _ in range(4):
            off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -1.0)
            yield _coefficients_of(oracles.random_density_matrix(rng, 4)) * (1.0 + off)
        c = _coefficients_of(oracles.random_density_matrix(rng, 4))
        for position in range(16):
            bad = c.copy()
            bad.flat[position] = (np.nan, np.inf, -np.inf)[copy % 3]
            yield bad


def test_coefficient_route_matches_the_matrix_route_and_the_oracle_verdict_for_verdict():
    # the coefficient route checks no Hermiticity and names no entry until it
    # rejects; its verdicts are the matrix route's and the row-loop oracle's
    rng = np.random.default_rng(37)
    kinds = ("differs from 1", "negative eigenvalue", "non-finite")
    counts = dict.fromkeys((None,) + kinds, 0)
    for c in _differential_coefficients(rng, 200):
        expected = _coefficient_verdict(c)
        assert _verdict(qcore.from_pauli_coefficients(c)) == expected, c
        with np.errstate(invalid="ignore"):  # inf * 0 in the term-by-term sum
            assert oracles.density_matrix_verdict(oracles.witness_matrix(c)) == expected, c
        counts[next((k for k in kinds if expected and k in expected), None)] += 1
    assert sum(counts.values()) >= 5000
    # every verdict, acceptance included, is reached many times
    assert min(counts.values()) >= 100, counts


def test_channel_output_is_certified():
    bell = build(StateFamily.bell())
    # scaling a pure Bell state's correlations by 1.01 moves its three zero
    # eigenvalues to (1 - 1.01) / 4: the channel's output is refused
    with pytest.raises(ValueError, match="negative eigenvalue -0.0025"):
        qcore._scaled_state(bell, 1.01, 1.0)
    same = qcore._scaled_state(bell, 1.0, 1.0)
    assert np.array(same._floats).tobytes() == np.array(bell._floats).tobytes()


def test_coefficient_readers_refuse_complex_and_non_4x4_arrays():
    readers = (qcore.from_pauli_coefficients, qcore.state_from_pauli_coefficients,
               lambda c: qcore.scale_wings(c, 1.0, 1.0))
    c = np.diag([0.25, 0.0, 0.0, 0.0])
    complex_c = c.astype(complex)
    complex_c[1, 2] = 0.1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning before the refusal
        for read in readers:
            with pytest.raises(ValueError, match=re.escape("not a complex128 array of shape (4, 4)")):
                read(complex_c)
            for bad in (c.reshape(16), c.reshape(2, 8), np.eye(2) / 2):
                message = f"real 4x4 array, not a float64 array of shape {bad.shape}"
                with pytest.raises(ValueError, match=re.escape(message)):
                    read(bad)


def test_coefficient_built_state_makes_its_arrays_once_on_first_read():
    c = np.random.default_rng(41).normal(scale=0.02, size=(4, 4))
    c[0, 0] = 0.25
    rho = qcore.state_from_pauli_coefficients(c)
    assert rho.matrix is rho.matrix and qcore.pauli_coefficients(rho) is rho._coefficients
    for array, dtype in ((rho.matrix, complex), (rho._coefficients, float)):
        assert array.dtype == dtype and array.shape == (4, 4) and not array.flags.writeable
    assert np.array_equal(rho._coefficients, c)
    # one coefficient-to-matrix route: the state's matrix is from_pauli_coefficients'
    assert np.array_equal(rho.matrix, qcore.from_pauli_coefficients(c))
    assert np.max(np.abs(rho.matrix - oracles.witness_matrix(c))) < 1e-15
    # the diagonal is real and each entry below it the conjugate of its mirror
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    with pytest.raises(AttributeError, match="no attribute 'spectrum'"):
        rho.spectrum


def test_is_hermitian_is_false_for_anything_but_a_square_matrix():
    assert not qcore.is_hermitian(np.array([1.0, 2.0]))
    assert not qcore.is_hermitian(np.zeros((2, 3)))
    assert not qcore.is_hermitian(np.float64(1.0))
    assert qcore.is_hermitian([[1.0, 2.0 - 1j], [2.0 + 1j, 0.0]])
    assert not qcore.is_hermitian([[1.0, 2.0 + 1j], [2.0 + 1j, 0.0]])
    assert not qcore.is_hermitian(np.diag([np.nan, 1.0]))


def test_density_matrix_is_frozen():
    dm = qcore.DensityMatrix(np.eye(4) / 4)
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 0.9
