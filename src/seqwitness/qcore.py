"""Dense complex linear algebra for one- and two-qubit operators.

It is the one home of the Pauli product basis, index order (I, x, y, z), on
whose real coefficients witness modulation and the averaged channels act as
per-wing scalings and witness expectations as dot products.  Operators are
``numpy`` arrays of ``complex128`` entries (2x2 or 4x4), but a state built
from coefficients runs on Python floats: it carries its 16 coefficients,
``_matrix_entries`` writes its 16 entries from them, and its arrays are
built on first read.  ``DensityMatrix`` is a two-qubit (4x4) state,
validated on its 16 entries as Python numbers: the trace, then one
straight-line pass that checks entrywise Hermiticity while it builds the
Cholesky factor of m + ORACLE_TOL * I; LAPACK runs only to name the
eigenvalue of a rejected state.  The matrix values here, in ``witness``
and in ``measurement`` are ``states._Record`` values equal by array
entries (``_ArrayValue``).  The eigensolve and the matrix expectation
serve the tests and the bench tracer, and the Wootters concurrence the
acceptance gate.
"""

from __future__ import annotations

import math

import numpy as np

from .states import _Record, _set

# Validation tolerance for structural checks (Hermiticity, unit trace).
VALIDATE_TOL = 1e-12
# Tolerance for oracle-grade comparisons (eigen reconstruction, PSD floor).
ORACLE_TOL = 1e-10

_MAX_DIM = 4

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (_I2, _SX, _SY, _SZ):
    _m.setflags(write=False)

_PAULI = {
    "identity": _I2,
    "i": _I2,
    "x": _SX,
    "y": _SY,
    "z": _SZ,
}


def pauli(axis: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix for ``axis`` in {x, y, z, identity}.

    The returned array is read-only; copy before mutating.
    """
    try:
        return _PAULI[axis.lower()]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, restricted to results of dimension <= 4."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dim = a.shape[0] * b.shape[0]
    if dim > _MAX_DIM:
        raise ValueError(f"tensor result dimension {dim} exceeds {_MAX_DIM}; "
                         "this package handles at most two qubits")
    return np.kron(a, b)


# Row 4i + j holds the entries of sigma_i x sigma_j, index order (I, x, y, z),
# in row-major order.  Each basis operator is Hermitian, so Tr(sigma_i x
# sigma_j . m) is the real part of the row's dot product with m's conjugate.
_BASIS_FLAT = np.array([tensor(a, b) for a in (_I2, _SX, _SY, _SZ)
                        for b in (_I2, _SX, _SY, _SZ)]).reshape(16, 16)
_BASIS_FLAT.setflags(write=False)


def is_hermitian(m: np.ndarray, tol: float = VALIDATE_TOL) -> bool:
    """Entrywise check that ``m`` equals its conjugate transpose, the
    ``abs(m - m.conj().T).max() <= tol`` over the upper triangle with NaN
    failing as there; False for anything that is not a square 2-D matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    rows = m.tolist()
    return all(abs(row[j] - rows[j][i].conjugate()) <= tol
               for i, row in enumerate(rows) for j in range(i, len(rows)))


def as_matrix(rho) -> np.ndarray:
    """Accept either a DensityMatrix or a raw array."""
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def pauli_coefficients(m) -> np.ndarray:
    """Real c[i, j] = Tr(sigma_i x sigma_j . m) / 4 of a Hermitian 4x4 operator
    m (a DensityMatrix or a raw array), inverting ``from_pauli_coefficients``.

    A state built from coefficients returns the read-only array it carries,
    made on first read; any other input is computed from its matrix each call.
    """
    carried = getattr(m, "_coefficients", None)
    if carried is not None:
        return carried
    matrix = as_matrix(m)
    if matrix.shape != (4, 4) or not is_hermitian(matrix):
        raise ValueError("Pauli coefficients need a Hermitian 4x4 matrix")
    return (_BASIS_FLAT @ matrix.reshape(16).conj()).real.reshape(4, 4) / 4.0


def from_pauli_coefficients(c: np.ndarray) -> np.ndarray:
    """The 4x4 operator sum_ij c[i, j] sigma_i x sigma_j for real ``c``."""
    c = np.asarray(c)
    if c.dtype.kind == "c":  # the float copy would drop the imaginary part
        raise ValueError("Pauli coefficients must be real")
    return np.array(_matrix_entries(c.astype(float).reshape(16).tolist())).reshape(4, 4)


class _Entries(tuple):
    """16 entries, row-major: what ``DensityMatrix`` takes as they are."""
    __slots__ = ()


def _matrix_entries(c) -> _Entries:
    """The entries of sum_ij c[i, j] sigma_i x sigma_j for 16 real ``c``, row-major:
    sums of two to four coefficients, the diagonal real and each entry below
    it the conjugate of its mirror, so the matrix is Hermitian bit for bit."""
    (c00, c01, c02, c03, c10, c11, c12, c13,
     c20, c21, c22, c23, c30, c31, c32, c33) = c
    # the first wing's I +- z blocks on the diagonal, its x - i y block above
    p0, p3, q0, q3 = c00 + c30, c03 + c33, c00 - c30, c03 - c33
    m01 = complex(c01 + c31, -(c02 + c32))
    m23 = complex(c01 - c31, -(c02 - c32))
    m02 = complex(c10 + c13, -(c20 + c23))
    m13 = complex(c10 - c13, -(c20 - c23))
    m03 = complex(c11 - c22, -(c12 + c21))
    m12 = complex(c11 + c22, c12 - c21)
    return _Entries((p0 + p3, m01, m02, m03,
                     m01.conjugate(), p0 - p3, m12, m13,
                     m02.conjugate(), m12.conjugate(), q0 + q3, m23,
                     m03.conjugate(), m13.conjugate(), m23.conjugate(), q0 - q3))


def state_from_pauli_coefficients(c: np.ndarray) -> DensityMatrix:
    """The validated two-qubit state with Pauli coefficients ``c``, carrying a
    copy of ``c`` for ``pauli_coefficients``."""
    c = np.asarray(c)
    # a complex array would lose its imaginary part to the float copy
    if c.dtype.kind == "c" or c.shape != (4, 4):
        raise ValueError("Pauli coefficients must be a real 4x4 array")
    return _coefficient_state(tuple(c.astype(float).ravel().tolist()))


def _coefficient_state(c: tuple) -> DensityMatrix:
    """The validated state with 16 real coefficients ``c``, which it carries."""
    rho = DensityMatrix(_matrix_entries(c))
    _set(rho, "_floats", c)
    return rho


def _scaled_state(rho, first: float, second: float) -> DensityMatrix:
    """The state whose coefficients are those of ``rho`` scaled as by
    ``scale_wings``, worked on Python floats: the averaged channels' route."""
    c = getattr(rho, "_floats", None) or pauli_coefficients(rho).reshape(16).tolist()
    return _coefficient_state(_scale(c, first, second))


def coefficient_expectation(c: np.ndarray, rho) -> float:
    """Tr(O rho) = 4 sum_ij c[i, j] r[i, j] for the operator O with Pauli
    coefficients ``c`` and the coefficients r of the 4x4 state ``rho``."""
    return 4.0 * float(np.vdot(c, pauli_coefficients(rho)))


def scale_wings(c: np.ndarray, first: float, second: float) -> np.ndarray:
    """Copy of coefficient array ``c`` with first-wing Pauli factors (rows 1:)
    scaled by ``first`` and second-wing ones (columns 1:) by ``second``."""
    return np.array(_scale(np.asarray(c, float).ravel().tolist(), first, second)).reshape(4, 4)


def _scale(c, first: float, second: float) -> tuple:
    """``scale_wings`` on the 16 coefficients ``c``, row-major, as Python
    floats; an entry on both wings is (c * first) * second."""
    (c00, c01, c02, c03, c10, c11, c12, c13,
     c20, c21, c22, c23, c30, c31, c32, c33) = c
    return (c00, c01 * second, c02 * second, c03 * second,
            c10 * first, c11 * first * second, c12 * first * second, c13 * first * second,
            c20 * first, c21 * first * second, c22 * first * second, c23 * first * second,
            c30 * first, c31 * first * second, c32 * first * second, c33 * first * second)


def expectation(obs: np.ndarray, rho) -> float:
    """Tr(obs . rho) for a Hermitian observable; the result is real.

    Raises ``ValueError`` when the observable is not Hermitian or the trace
    picks up a non-negligible imaginary part.  No library path calls it; it
    stays for the tests' matrix route and the bench tracer.
    """
    obs = np.asarray(obs, dtype=complex)
    if not is_hermitian(obs):
        raise ValueError("expectation requires a Hermitian observable")
    value = complex(np.trace(obs @ as_matrix(rho)))
    if abs(value.imag) > 1e-9:
        raise ValueError(f"expectation value has imaginary part {value.imag:g}")
    return value.real


def eigen_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix.  LAPACK reads only one
    triangle, so Hermiticity is checked here, and the decomposition must
    reconstruct the input.  Only ``concurrence_wootters`` calls it; it stays
    for the tests' matrix route and the bench tracer.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("eigen_hermitian expects a square matrix")
    if not is_hermitian(m, tol=1e-10):
        raise ValueError("eigen_hermitian expects a Hermitian matrix")
    evals, vecs = np.linalg.eigh(m)
    recon = vecs @ np.diag(evals.astype(complex)) @ vecs.conj().T
    if np.max(np.abs(recon - m)) > ORACLE_TOL:
        raise RuntimeError("eigendecomposition reconstruction error exceeds tolerance")
    return evals, vecs


class _ArrayValue(_Record):
    """A value equal and hashed by its arrays' shapes and entries (0.0 == -0.0)."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([(v.shape, tuple(v.ravel().tolist())) if isinstance(v, np.ndarray) else v
                      for v in self._values()])


class DensityMatrix(_ArrayValue, repr_omit=("matrix",)):
    """A validated two-qubit (4x4) state.

    Construction re-checks unit trace, Hermiticity and positivity each time,
    on its 16 entries as Python numbers, so every state produced by a
    channel in this package is certified.  After the trace, a single
    straight-line pass checks Hermiticity and positivity together; a
    failure reports the trace first, then Hermiticity, then the negative
    eigenvalue.  A state built from Pauli coefficients carries them in the
    private slot ``_floats``, makes its read-only ``matrix`` and
    ``_coefficients`` arrays on first read, and is pickled and copied
    through ``state_from_pauli_coefficients``.
    """

    __slots__ = ("matrix", "_coefficients", "_floats")

    def __init__(self, matrix: np.ndarray):
        if type(matrix) is _Entries:  # from coefficients: no array until read
            m, entries = None, matrix
        else:
            m = np.array(matrix, dtype=complex)
            if m.shape != (4, 4):
                raise ValueError("density matrix must be 4x4")
            entries = m.ravel().tolist()
        (a00, a01, a02, a03, a10, a11, a12, a13,
         a20, a21, a22, a23, a30, a31, a32, a33) = entries
        trace = a00 + a11 + a22 + a33
        if abs(trace - 1.0) > VALIDATE_TOL:
            _reject(entries, f"trace {trace if trace.imag else trace.real:.3g} differs from 1")
        # Row by row, the pass checks |m[j][i] - conj(m[i][j])| for the row's
        # lower-triangle entries (diagonal included), then forms that row of
        # the Cholesky factor L L^dag of m + ORACLE_TOL * I, which exists iff
        # no eigenvalue is below -ORACLE_TOL; so the factor reads only checked
        # entries.  A pivot that is not > 0 (NaN included) fails positivity
        # only once every row is Hermitian, which ``_reject`` checks when no
        # message is given, and only a failure pays for the eigensolve.
        tol = VALIDATE_TOL
        if not abs(a00 - a00.conjugate()) <= tol:
            _reject(entries, "density matrix must be Hermitian")
        p = a00.real + ORACLE_TOL
        if not p > 0.0:
            _reject(entries)
        l00 = math.sqrt(p)
        if not (abs(a01 - a10.conjugate()) <= tol and abs(a11 - a11.conjugate()) <= tol):
            _reject(entries, "density matrix must be Hermitian")
        l10 = a10 / l00
        p = a11.real + ORACLE_TOL - (l10.real * l10.real + l10.imag * l10.imag)
        if not p > 0.0:
            _reject(entries)
        l11 = math.sqrt(p)
        if not (abs(a02 - a20.conjugate()) <= tol and abs(a12 - a21.conjugate()) <= tol
                and abs(a22 - a22.conjugate()) <= tol):
            _reject(entries, "density matrix must be Hermitian")
        l20 = a20 / l00
        l21 = (a21 - l20 * l10.conjugate()) / l11
        p = (a22.real + ORACLE_TOL - (l20.real * l20.real + l20.imag * l20.imag)
             - (l21.real * l21.real + l21.imag * l21.imag))
        if not p > 0.0:
            _reject(entries)
        l22 = math.sqrt(p)
        if not (abs(a03 - a30.conjugate()) <= tol and abs(a13 - a31.conjugate()) <= tol
                and abs(a23 - a32.conjugate()) <= tol and abs(a33 - a33.conjugate()) <= tol):
            _reject(entries, "density matrix must be Hermitian")
        l30 = a30 / l00
        l31 = (a31 - l30 * l10.conjugate()) / l11
        l32 = (a32 - l30 * l20.conjugate() - l31 * l21.conjugate()) / l22
        p = (a33.real + ORACLE_TOL - (l30.real * l30.real + l30.imag * l30.imag)
             - (l31.real * l31.real + l31.imag * l31.imag)
             - (l32.real * l32.real + l32.imag * l32.imag))
        if not p > 0.0:
            _reject(entries)
        if m is not None:
            m.setflags(write=False)
            _set(self, "matrix", m)

    def __getattr__(self, name):  # only for an unset slot
        if name not in ("matrix", "_coefficients"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        c = self._floats
        value = np.array(_matrix_entries(c) if name == "matrix" else c).reshape(4, 4)
        value.setflags(write=False)
        _set(self, name, value)
        return value

    def __reduce__(self):
        c = getattr(self, "_floats", None) and self._coefficients
        return (state_from_pauli_coefficients, (c,)) if c is not None else super().__reduce__()


def _reject(entries: list, message: str | None = None):
    """Raise ``message``, or after a failed pivot (no message) the Hermiticity
    or lowest-eigenvalue verdict; non-finite entries are named instead."""
    m = np.array(entries, dtype=complex).reshape(4, 4)
    if not np.isfinite(m).all():
        message = "density matrix has non-finite entries"
    elif message is None:
        message = ("density matrix must be Hermitian" if not is_hermitian(m)
                   else f"negative eigenvalue {np.linalg.eigvalsh(m)[0]:.3g}")
    raise ValueError(message) from None


def concurrence_wootters(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    The four square-rooted eigenvalues of rho . rho~ (rho~ the spin-flipped
    state) equal the singular values of sqrt(rho) Y sqrt(rho)* with
    Y = sigma_y x sigma_y.  Working with singular values keeps the error in
    each root linear in round-off; square-rooting near-zero eigenvalues of
    the Hermitian sandwich directly would amplify noise to ~1e-8.
    """
    m = as_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError("concurrence is defined for two-qubit states")
    yy = tensor(_SY, _SY)
    evals, vecs = eigen_hermitian(m)
    # zero out null modes so their round-off never enters the square root
    roots = np.where(evals > 1e-13, np.sqrt(np.clip(evals, 0.0, None)), 0.0)
    sqrt_rho = vecs @ np.diag(roots.astype(complex)) @ vecs.conj().T
    flip = sqrt_rho @ yy @ sqrt_rho.conj()
    sigma = np.linalg.svd(flip, compute_uv=False)  # descending
    return float(max(0.0, sigma[0] - sigma[1] - sigma[2] - sigma[3]))
