"""Unsharp dichotomic spin measurements on a single qubit.

An unsharp observable is a spin direction plus a sharpness parameter
``lam`` in (0, 1].  Its two effects are ``lam * P(+-) + (1 - lam)/2 * I``;
``lam = 1`` recovers the projective measurement and ``lam -> 0`` the
identity channel.  The sharpness doubles as the measurement's robustness
(the minimal noise admixture that trivializes it).  The acceptance gate
and the bench tracer use the effects' square roots; the effects themselves
and the RoM by operator norms are the tests' oracles.  Both value classes
are ``states._Record`` values, and a copy runs their checks again.
"""

from __future__ import annotations

import numpy as np

from .qcore import VALIDATE_TOL, _ArrayValue, pauli
from .states import _Record, _set

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])
for _v in (X_AXIS, Y_AXIS, Z_AXIS):
    _v.setflags(write=False)


def spin_operator(direction: np.ndarray) -> np.ndarray:
    """The 2x2 spin component along a unit 3-vector."""
    n = np.asarray(direction, dtype=float)
    return n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z")


class UnsharpObservable(_ArrayValue, repr_omit=("direction",)):
    """A measurement direction together with its sharpness."""

    __slots__ = ("direction", "sharpness")

    def __init__(self, direction: np.ndarray, sharpness: float = 1.0):
        n = np.array(direction, dtype=float)
        if n.shape != (3,) or not abs(np.linalg.norm(n) - 1.0) <= VALIDATE_TOL:
            raise ValueError("direction must be a unit 3-vector")
        if not 0.0 < sharpness <= 1.0:
            raise ValueError(f"sharpness {sharpness} outside (0, 1]")
        n.setflags(write=False)
        _set(self, "direction", n)
        _set(self, "sharpness", sharpness)


class PointerTradeoff(_Record):
    """Quality factor F and precision G of the measurement pointer."""

    __slots__ = ("quality", "precision")

    def __init__(self, quality: float, precision: float):
        if not abs(quality**2 + precision**2 - 1.0) <= VALIDATE_TOL:
            raise ValueError("pointer must satisfy F^2 + G^2 = 1")
        _set(self, "quality", quality)
        _set(self, "precision", precision)


def _projector(obs: UnsharpObservable, outcome: int) -> np.ndarray:
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    return (np.eye(2, dtype=complex) + outcome * spin_operator(obs.direction)) / 2.0


def sqrt_effect(obs: UnsharpObservable, outcome: int) -> np.ndarray:
    """Spectral square root of an effect.

    The effect's eigenprojectors are the two spin projectors, so the root
    is sqrt((1+lam)/2) P(o) + sqrt((1-lam)/2) P(-o); never elementwise.
    """
    lam = obs.sharpness
    return (np.sqrt((1.0 + lam) / 2.0) * _projector(obs, outcome)
            + np.sqrt((1.0 - lam) / 2.0) * _projector(obs, -outcome))


def pointer_tradeoff(obs: UnsharpObservable) -> PointerTradeoff:
    """Optimal pointer pair (F, G) = (sqrt(1 - lam^2), lam)."""
    lam = obs.sharpness
    return PointerTradeoff(quality=float(np.sqrt(1.0 - lam * lam)), precision=lam)
