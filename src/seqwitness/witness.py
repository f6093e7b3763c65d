"""Entanglement witness operators in the two-qubit Pauli basis.

A witness is stored only as its real 4x4 coefficient array ``c[i, j]`` on
the basis sigma_i x sigma_j, index order (I, x, y, z), of which
``qcore.from_pauli_coefficients`` builds the matrix.  Sharpness modulation
is then just a coefficient scaling: every Pauli factor on the first wing
picks up ``xi`` and every Pauli factor on the second wing picks up ``lam``.
The tests derive the family witnesses again by partial transposition.
``WitnessOperator`` is a ``states._Record`` value, equal by its entries.
"""

from __future__ import annotations

import numpy as np

from . import states
from .qcore import _ArrayValue, coefficient_expectation, pauli, scale_wings
from .states import _set


class WitnessOperator(_ArrayValue, repr_omit=("coefficients",)):
    """Hermitian witness, nonnegative on all separable states."""

    __slots__ = ("coefficients", "modulation")

    def __init__(self, coefficients: np.ndarray, modulation: tuple[float, float] | None = None):
        c = np.asarray(coefficients)
        if c.dtype.kind == "c" or c.shape != (4, 4):
            raise ValueError("witness coefficients must be a real 4x4 array")
        c = np.array(c, dtype=float)
        # a NaN threshold would read as "stop" and end a chain without an error
        if not np.isfinite(c).all():
            raise ValueError("witness coefficients must be finite")
        c.setflags(write=False)
        _set(self, "coefficients", c)
        _set(self, "modulation", modulation)

    def identity_weight(self) -> float:
        """Coefficient of the I x I term (the sharpness-independent part)."""
        return float(self.coefficients[0, 0])


def witness_psi_plus() -> WitnessOperator:
    """Optimal witness for psi+ (and its white-noise mixtures):
    (I.I + Z.Z - X.X - Y.Y) / 4."""
    c = np.zeros((4, 4))
    c[0, 0] = 0.25
    c[1, 1] = -0.25
    c[2, 2] = -0.25
    c[3, 3] = 0.25
    return WitnessOperator(c)


def witness_phi_colored() -> WitnessOperator:
    """Optimal witness for phi+ mixed with |01>/|10> colored noise:
    (I.I - X.X + Y.Y - Z.Z) / 4."""
    c = np.zeros((4, 4))
    c[0, 0] = 0.25
    c[1, 1] = -0.25
    c[2, 2] = 0.25
    c[3, 3] = -0.25
    return WitnessOperator(c)


_PSI_PLUS = witness_psi_plus()
_FAMILY_WITNESSES = {states.BELL: _PSI_PLUS, states.WERNER: _PSI_PLUS,
                     states.PURE: _PSI_PLUS, states.COLORED: witness_phi_colored()}


def family_witness(kind: str) -> WitnessOperator:
    """The witness each state family is detected with: one validated
    instance per witness.  The library reads its stage values in closed
    form, (1 - xi lam g) / 4; the matrix route here, with ``modulate`` and
    ``expectation``, stays for the tests and the bench tracer."""
    try:
        return _FAMILY_WITNESSES[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown state family {kind!r}") from None


def modulate(w: WitnessOperator, xi: float, lam: float) -> WitnessOperator:
    """Rescale the witness for unsharp implementation.

    Each non-identity Pauli factor on the first wing is scaled by ``xi``
    and on the second wing by ``lam``; the identity term is untouched.
    The one-sided form is ``modulate(w, 1.0, lam)``.  Kept for the tests'
    matrix route and the bench tracer.
    """
    if not (0.0 < xi <= 1.0 and 0.0 < lam <= 1.0):
        raise ValueError("modulation parameters must lie in (0, 1]")
    if w.modulation is not None:
        raise ValueError("witness is already modulated")
    return WitnessOperator(scale_wings(w.coefficients, xi, lam), modulation=(xi, lam))


def expectation(w: WitnessOperator, rho) -> float:
    """Tr(W rho) = 4 sum_ij w[i, j] c[i, j] for a witness and a two-qubit
    (density) matrix with Pauli coefficients c, which a state carries.
    Kept for the tests' matrix route and the bench tracer."""
    return coefficient_expectation(w.coefficients, rho)


def separability_floor(w: WitnessOperator, samples: int, seed: int = 0) -> float:
    """Minimum of Tr(W rho) over Haar-random pure product states.

    A statistical regression guard for witness nonnegativity on separable
    states; the analytic property itself holds by construction.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)

    def moments(n):
        # Haar-random qubit kets from normalized complex Gaussians.
        raw = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        kets = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        out = np.empty((n, 4))
        for idx, axis in enumerate("ixyz"):  # the (I, x, y, z) coefficient order
            out[:, idx] = np.einsum("ni,ij,nj->n", kets.conj(), pauli(axis), kets).real
        return out

    a = moments(samples)
    b = moments(samples)
    values = np.einsum("ni,ij,nj->n", a, w.coefficients, b)
    return float(values.min())
