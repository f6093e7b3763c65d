"""Dense complex linear algebra for one- and two-qubit operators.

It is the one home of the Pauli product basis, index order (I, x, y, z), on
whose real coefficients witness modulation and the averaged channels act as
per-wing scalings and witness expectations as dot products.  Operators are
``numpy`` arrays of ``complex128`` entries (2x2 or 4x4), but a state built
from coefficients runs on Python floats: it carries its 16 coefficients, and
its arrays are built on first read.  ``DensityMatrix`` is a two-qubit (4x4)
state with one positivity kernel, ``_positive``: a straight-line Cholesky
factor of m + ORACLE_TOL * I in real arithmetic on the diagonal and the
entries below it, which a coefficient-built state sums from its coefficients
and a matrix-built one reads after the trace and entrywise Hermiticity.
LAPACK runs only to name the eigenvalue of a rejected state.  The matrix
values here, in ``witness`` and in ``measurement`` are ``states._Record``
values equal by array entries (``_ArrayValue``).  The eigensolve and the
matrix expectation serve the tests and the bench tracer, and the Wootters
concurrence the acceptance gate.
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
    except (KeyError, AttributeError):  # AttributeError: not a string
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
    return np.array(_matrix_entries(_real_4x4(c))).reshape(4, 4)


def _real_4x4(c) -> list:
    """Real 4x4 array ``c`` as 16 Python floats, row-major; any other shape or a
    complex array, whose float copy would drop the imaginary parts, is refused."""
    c = np.asarray(c)
    if c.dtype.kind == "c" or c.shape != (4, 4):
        raise ValueError("Pauli coefficients must be real, in a real 4x4 array, "
                         f"not a {c.dtype} array of shape {c.shape}")
    return c.astype(float).ravel().tolist()


def _entry_parts(c) -> tuple:
    """The diagonal of sum_ij c[i, j] sigma_i x sigma_j for 16 real ``c``, then the real
    and imaginary parts of each entry below it, row-major: sums of two to four
    coefficients, the first wing's I +- z blocks on the diagonal, x + i y below."""
    (c00, c01, c02, c03, c10, c11, c12, c13,
     c20, c21, c22, c23, c30, c31, c32, c33) = c
    p0, p3, q0, q3 = c00 + c30, c03 + c33, c00 - c30, c03 - c33
    return (p0 + p3, p0 - p3, q0 + q3, q0 - q3,
            c01 + c31, c02 + c32, c10 + c13, c20 + c23, c11 + c22, -(c12 - c21),
            c11 - c22, c12 + c21, c10 - c13, c20 - c23, c01 - c31, c02 - c32)


def _matrix_entries(c) -> tuple:
    """The 16 entries, row-major, with ``_entry_parts`` from ``c``: each entry
    above the diagonal the conjugate of its mirror, Hermitian bit for bit."""
    (d0, d1, d2, d3, r10, i10, r20, i20, r21, i21,
     r30, i30, r31, i31, r32, i32) = _entry_parts(c)
    m10, m20, m21 = complex(r10, i10), complex(r20, i20), complex(r21, i21)
    m30, m31, m32 = complex(r30, i30), complex(r31, i31), complex(r32, i32)
    return (d0, m10.conjugate(), m20.conjugate(), m30.conjugate(),
            m10, d1, m21.conjugate(), m31.conjugate(),
            m20, m21, d2, m32.conjugate(),
            m30, m31, m32, d3)


def state_from_pauli_coefficients(c: np.ndarray) -> DensityMatrix:
    """The validated two-qubit state with Pauli coefficients ``c``, carrying a
    copy of ``c`` for ``pauli_coefficients``."""
    return _coefficient_state(_real_4x4(c))


class _Coefficients(tuple):
    """16 real Pauli coefficients, row-major, validated by ``DensityMatrix``."""
    __slots__ = ()


def _coefficient_state(c) -> DensityMatrix:
    """The validated state with 16 real coefficients ``c``, which it carries."""
    return DensityMatrix(_Coefficients(c))


def _scaled_state(rho, first: float, second: float) -> DensityMatrix:
    """The state whose coefficients are those of ``rho`` scaled as by
    ``scale_wings``, worked on Python floats: the averaged channels' route,
    which hands the ``_Coefficients`` of ``_scale`` straight to ``DensityMatrix``."""
    c = getattr(rho, "_floats", None) or pauli_coefficients(rho).reshape(16).tolist()
    return DensityMatrix(_scale(c, first, second))


def coefficient_expectation(c: np.ndarray, rho) -> float:
    """Tr(O rho) = 4 sum_ij c[i, j] r[i, j] for the operator O with Pauli
    coefficients ``c`` and the coefficients r of the 4x4 state ``rho``."""
    return 4.0 * float(np.vdot(c, pauli_coefficients(rho)))


def scale_wings(c: np.ndarray, first: float, second: float) -> np.ndarray:
    """Copy of coefficient array ``c`` with first-wing Pauli factors (rows 1:)
    scaled by ``first`` and second-wing ones (columns 1:) by ``second``."""
    return np.array(_scale(_real_4x4(c), first, second)).reshape(4, 4)


def _scale(c, first: float, second: float) -> _Coefficients:
    """``scale_wings`` on the 16 coefficients ``c``, row-major, as Python
    floats, in the ``_Coefficients`` a state is built from; an entry on both
    wings is (c * first) * second."""
    (c00, c01, c02, c03, c10, c11, c12, c13,
     c20, c21, c22, c23, c30, c31, c32, c33) = c
    return _Coefficients((
        c00, c01 * second, c02 * second, c03 * second,
        c10 * first, c11 * first * second, c12 * first * second, c13 * first * second,
        c20 * first, c21 * first * second, c22 * first * second, c23 * first * second,
        c30 * first, c31 * first * second, c32 * first * second, c33 * first * second))


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
    so every state produced by a channel in this package is certified.  A
    matrix is checked on its 16 entries as Python numbers: the trace, then
    ``is_hermitian``, then ``_positive``.  Pauli coefficients (a
    ``_Coefficients`` tuple) need the trace and ``_positive`` only: real ones
    give a real diagonal and exact mirror conjugates, so Hermiticity holds by
    construction, and a non-finite one reaches a failed pivot.  A failure
    names the trace, else Hermiticity, else the lowest eigenvalue, unless an
    entry is non-finite.  Such a state carries its coefficients in the private
    slot ``_floats``, makes its read-only ``matrix`` and ``_coefficients``
    arrays on first read, and is pickled and copied through ``state_from_pauli_coefficients``.
    """

    __slots__ = ("matrix", "_coefficients", "_floats")

    def __init__(self, matrix: np.ndarray):
        if type(matrix) is _Coefficients:  # Hermitian by construction
            parts = _entry_parts(matrix)
            trace = parts[0] + parts[1] + parts[2] + parts[3]
            if abs(trace - 1.0) > VALIDATE_TOL:
                _reject(_matrix_entries(matrix), f"trace {trace:.3g} differs from 1")
            if not _positive(parts):
                _reject(_matrix_entries(matrix))
            _set_floats(self, matrix)
            return
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        entries = m.ravel().tolist()
        (a00, _, _, _, a10, a11, _, _, a20, a21, a22, _, a30, a31, a32, a33) = entries
        trace = a00 + a11 + a22 + a33
        if abs(trace - 1.0) > VALIDATE_TOL:
            _reject(entries, f"trace {trace if trace.imag else trace.real:.3g} differs from 1")
        if not is_hermitian(m):
            _reject(entries, "density matrix must be Hermitian")
        if not _positive((a00.real, a11.real, a22.real, a33.real,
                          a10.real, a10.imag, a20.real, a20.imag, a21.real, a21.imag,
                          a30.real, a30.imag, a31.real, a31.imag, a32.real, a32.imag)):
            _reject(entries)
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


# the slot setter, which bypasses the refusing __setattr__ faster than
# object.__setattr__, as for states.StateFamily
_set_floats = DensityMatrix._floats.__set__


def _positive(parts: tuple) -> bool:
    """Whether Hermitian m with ``_entry_parts`` ``parts`` has no eigenvalue below
    -ORACLE_TOL: the row-wise Cholesky factor of m + ORACLE_TOL I, each complex l
    as (x, y), in complex arithmetic's operation order.  A pivot that is not > 0
    fails, and a non-finite part that passed the trace check makes one -inf or NaN."""
    (d0, d1, d2, d3, r10, i10, r20, i20, r21, i21,
     r30, i30, r31, i31, r32, i32) = parts
    p = d0 + ORACLE_TOL
    if not p > 0.0:
        return False
    l00 = math.sqrt(p)
    x10, y10 = r10 / l00, i10 / l00
    p = d1 + ORACLE_TOL - (x10 * x10 + y10 * y10)
    if not p > 0.0:
        return False
    l11 = math.sqrt(p)
    x20, y20 = r20 / l00, i20 / l00
    x21 = (r21 - (x20 * x10 + y20 * y10)) / l11
    y21 = (i21 - (y20 * x10 - x20 * y10)) / l11
    p = d2 + ORACLE_TOL - (x20 * x20 + y20 * y20) - (x21 * x21 + y21 * y21)
    if not p > 0.0:
        return False
    l22 = math.sqrt(p)
    # l_ij = (m_ij - sum_k<j l_ik conj(l_jk)) / l_jj
    x30, y30 = r30 / l00, i30 / l00
    x31 = (r31 - (x30 * x10 + y30 * y10)) / l11
    y31 = (i31 - (y30 * x10 - x30 * y10)) / l11
    x32 = (r32 - (x30 * x20 + y30 * y20) - (x31 * x21 + y31 * y21)) / l22
    y32 = (i32 - (y30 * x20 - x30 * y20) - (y31 * x21 - x31 * y21)) / l22
    p = (d3 + ORACLE_TOL - (x30 * x30 + y30 * y30) - (x31 * x31 + y31 * y31)
         - (x32 * x32 + y32 * y32))
    return p > 0.0


def _reject(entries, message: str | None = None):
    """Raise ``message``, or the lowest eigenvalue if none, naming non-finite entries first."""
    m = np.array(entries, dtype=complex).reshape(4, 4)
    if not np.isfinite(m).all():
        message = "density matrix has non-finite entries"
    elif message is None:
        message = f"negative eigenvalue {np.linalg.eigvalsh(m)[0]:.3g}"
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
