"""Initial two-qubit state families, their correlation strength g and its
inverse, and their closed-form concurrences.

Basis ordering is fixed as |00>, |01>, |10>, |11>.  The maximally entangled
reference states are psi+ = (|01> + |10>)/sqrt(2) and
phi+ = (|00> + |11>)/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy and qcore load on the first state build
    import numpy as np

    from .qcore import DensityMatrix

BELL = "bell"
WERNER = "werner"
COLORED = "colored"
PURE = "pure"
KINDS = (BELL, WERNER, COLORED, PURE)


def ket(index: int) -> np.ndarray:
    """Computational basis ket |00>..|11> by index 0..3."""
    import numpy as np

    v = np.zeros(4, dtype=complex)
    v[index] = 1.0
    return v


def psi_plus_ket() -> np.ndarray:
    return (ket(1) + ket(2)) / math.sqrt(2.0)


def phi_plus_ket() -> np.ndarray:
    return (ket(0) + ket(3)) / math.sqrt(2.0)


@dataclass(frozen=True)
class StateFamily:
    """One of the four initial-state families.

    kind       parameter
    ----       ---------
    bell       none (equals werner with p = 1)
    werner     p in (0, 1]: weight of psi+ mixed with white noise
    colored    p in (0, 1]: weight of phi+ mixed with |01>/|10> noise
    pure       theta in (0, pi/4): cos(theta)|01> + sin(theta)|10>
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind == BELL:
            if self.param is not None:
                raise ValueError("bell family takes no parameter")
        elif self.kind in (WERNER, COLORED):
            if self.param is None or not 0.0 < self.param <= 1.0:
                raise ValueError(f"{self.kind} parameter must lie in (0, 1]")
        elif self.kind == PURE:
            if self.param is None or not 0.0 < self.param < math.pi / 4.0:
                raise ValueError("pure-state angle must lie in (0, pi/4)")
        else:
            raise ValueError(f"unknown state family {self.kind!r}")

    @classmethod
    def bell(cls) -> "StateFamily":
        return cls(BELL)

    @classmethod
    def werner(cls, p: float) -> "StateFamily":
        return cls(WERNER, p)

    @classmethod
    def colored(cls, p: float) -> "StateFamily":
        return cls(COLORED, p)

    @classmethod
    def pure(cls, theta: float) -> "StateFamily":
        return cls(PURE, theta)


def build(family: StateFamily) -> DensityMatrix:
    """Materialize the 4x4 density matrix of a state family."""
    import numpy as np

    from .qcore import DensityMatrix

    if family.kind == BELL:
        psi = psi_plus_ket()
        return DensityMatrix(np.outer(psi, psi.conj()))
    if family.kind == WERNER:
        psi = psi_plus_ket()
        p = family.param
        return DensityMatrix(p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0)
    if family.kind == COLORED:
        phi = phi_plus_ket()
        p = family.param
        noise = (np.outer(ket(1), ket(1).conj()) + np.outer(ket(2), ket(2).conj())) / 2.0
        return DensityMatrix(p * np.outer(phi, phi.conj()) + (1.0 - p) * noise)
    psi = math.cos(family.param) * ket(1) + math.sin(family.param) * ket(2)
    return DensityMatrix(np.outer(psi, psi.conj()))


def concurrence_closed_form(family: StateFamily) -> float:
    """Known concurrence of each family, (g - 1) / 2 clipped at 0 (no
    spectral computation)."""
    return max(0.0, (correlation_strength(family) - 1.0) / 2.0)


def correlation_strength(family: StateFamily) -> float:
    """Correlation strength g seen by the family's witness: 3 (bell), 3p
    (werner), 4p - 1 (colored) or 1 + 2 sin(2 theta) (pure).

    Both family witnesses have identity weight 1/4 and no single-wing
    Pauli terms, so a (xi, lam)-modulated family witness has expectation
    (1 - xi lam g) / 4 on the state, and each averaged two-sided
    measurement multiplies g by the two wings' attenuations.  Every family
    has concurrence C = max(0, (g - 1) / 2); ``param_for_strength`` is the
    inverse map.
    """
    if family.kind == BELL:
        return 3.0
    if family.kind == WERNER:
        return 3.0 * family.param
    if family.kind == COLORED:
        return 4.0 * family.param - 1.0
    return 1.0 + 2.0 * math.sin(2.0 * family.param)


def param_for_strength(kind: str, g: float) -> float | None:
    """Parameter at which a werner, colored or pure family has correlation
    strength g: g / 3, (g + 1) / 4 or asin((g - 1) / 2) / 2, and None for
    the pure family where no angle has g, outside [-1, 3].  The result is
    not range-checked against the family's parameter interval."""
    if kind == WERNER:
        return g / 3.0
    if kind == COLORED:
        return (g + 1.0) / 4.0
    if kind == PURE:
        s = (g - 1.0) / 2.0
        return math.asin(s) / 2.0 if -1.0 <= s <= 1.0 else None
    raise ValueError("matching parameter applies to werner, colored and pure families")
