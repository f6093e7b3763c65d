"""Unsharp dichotomic spin measurements on a single qubit.

An unsharp observable is a spin direction plus a sharpness parameter
``lam`` in (0, 1].  Its two effects are ``lam * P(+-) + (1 - lam)/2 * I``;
``lam = 1`` recovers the projective measurement and ``lam -> 0`` the
identity channel.  The sharpness doubles as the measurement's robustness
(the minimal noise admixture that trivializes it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import DensityMatrix, VALIDATE_TOL, as_matrix, expectation, operator_norm, pauli

# Outcome probabilities below this are treated as impossible branches
# rather than round-off.
PROB_FLOOR = 1e-14

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])
for _v in (X_AXIS, Y_AXIS, Z_AXIS):
    _v.setflags(write=False)


def spin_operator(direction: np.ndarray) -> np.ndarray:
    """The 2x2 spin component along a unit 3-vector."""
    n = np.asarray(direction, dtype=float)
    return n[0] * pauli("x") + n[1] * pauli("y") + n[2] * pauli("z")


@dataclass(frozen=True)
class UnsharpObservable:
    """A measurement direction together with its sharpness."""

    direction: np.ndarray = field(repr=False)
    sharpness: float = 1.0

    def __post_init__(self):
        n = np.array(self.direction, dtype=float)
        if n.shape != (3,) or not abs(np.linalg.norm(n) - 1.0) <= VALIDATE_TOL:
            raise ValueError("direction must be a unit 3-vector")
        if not 0.0 < self.sharpness <= 1.0:
            raise ValueError(f"sharpness {self.sharpness} outside (0, 1]")
        n.setflags(write=False)
        object.__setattr__(self, "direction", n)


@dataclass(frozen=True)
class PointerTradeoff:
    """Quality factor F and precision G of the measurement pointer."""

    quality: float
    precision: float

    def __post_init__(self):
        if not abs(self.quality**2 + self.precision**2 - 1.0) <= VALIDATE_TOL:
            raise ValueError("pointer must satisfy F^2 + G^2 = 1")


def _projector(obs: UnsharpObservable, outcome: int) -> np.ndarray:
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    return (np.eye(2, dtype=complex) + outcome * spin_operator(obs.direction)) / 2.0


def effect(obs: UnsharpObservable, outcome: int) -> np.ndarray:
    """The POVM effect for one outcome: lam * P + (1 - lam)/2 * I."""
    lam = obs.sharpness
    return lam * _projector(obs, outcome) + (1.0 - lam) / 2.0 * np.eye(2, dtype=complex)


def sqrt_effect(obs: UnsharpObservable, outcome: int) -> np.ndarray:
    """Spectral square root of an effect.

    The effect's eigenprojectors are the two spin projectors, so the root
    is sqrt((1+lam)/2) P(o) + sqrt((1-lam)/2) P(-o); never elementwise.
    """
    lam = obs.sharpness
    return (np.sqrt((1.0 + lam) / 2.0) * _projector(obs, outcome)
            + np.sqrt((1.0 - lam) / 2.0) * _projector(obs, -outcome))


def unsharp_expectation(obs: UnsharpObservable, rho) -> float:
    """Expectation of the dichotomic unsharp observable E(+) - E(-)."""
    return expectation(effect(obs, +1) - effect(obs, -1), rho)


def luders_update(obs: UnsharpObservable, outcome: int, rho) -> DensityMatrix:
    """Post-measurement state sqrt(E) rho sqrt(E) / Tr(rho E).

    Raises ``ValueError`` when the outcome probability is below
    ``PROB_FLOOR`` (an impossible branch, not round-off).
    """
    e = effect(obs, outcome)
    prob = expectation(e, rho)
    if prob <= PROB_FLOOR:
        raise ValueError(f"outcome probability {prob:.3g} is below the floor; "
                         "impossible measurement branch")
    root = sqrt_effect(obs, outcome)
    return DensityMatrix(root @ as_matrix(rho) @ root / prob)


def rom(obs: UnsharpObservable) -> float:
    """Robustness of the measurement: sum of effect operator norms minus 1.

    For this effect family the value equals the sharpness parameter.
    """
    return operator_norm(effect(obs, +1)) + operator_norm(effect(obs, -1)) - 1.0


def pointer_tradeoff(obs: UnsharpObservable) -> PointerTradeoff:
    """Optimal pointer pair (F, G) = (sqrt(1 - lam^2), lam)."""
    lam = obs.sharpness
    return PointerTradeoff(quality=float(np.sqrt(1.0 - lam * lam)), precision=lam)
