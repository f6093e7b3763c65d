"""Initial two-qubit state families, their correlation strength g and its
inverse, and their closed-form concurrences.

Basis ordering is fixed as |00>, |01>, |10>, |11>.  The maximally entangled
reference states are psi+ = (|01> + |10>)/sqrt(2) and
phi+ = (|00> + |11>)/sqrt(2).  ``build`` writes each family's Pauli
coefficients in closed form, and the state carries them; the construction
from kets is the tests' oracle.

Loading this module imports only ``math``.  ``_Record`` is the frozen
``__slots__`` base of every value class in the package, in place of
dataclasses, so nothing in the package loads ``dataclasses``.  numpy and
``qcore`` load on the first ``build``, through ``_qcore``, which keeps the
module for every later state build and averaged channel.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # qcore, and with it numpy, loads on the first state build
    from .qcore import DensityMatrix

BELL = "bell"
WERNER = "werner"
COLORED = "colored"
PURE = "pure"
KINDS = (BELL, WERNER, COLORED, PURE)


class _Record:
    """Base of every immutable value in the package.

    A subclass's fields are its ``__slots__`` not starting with ``_`` (the
    others hold private state), in the order of the parameters of its own
    ``__init__``, which checks them and sets each slot past the refusing
    ``__setattr__`` (``object.__setattr__`` or the slot's ``__set__``).  The
    base gives equality and hashing by ``_key()`` (the field tuple unless
    overridden), pickling and copying through ``__init__``, so each copy is
    checked again, ``__match_args__``, and the dataclass repr without the
    fields named by the class keyword ``repr_omit``.
    """

    __slots__ = ()

    def __init_subclass__(cls, repr_omit=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls.__match_args__ = cls._fields
        cls._repr_fields = tuple(name for name in cls._fields if name not in repr_omit)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    _key = _values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


# The field setter of a frozen value, past its refusing __setattr__.
_set = object.__setattr__


class StateFamily(_Record):
    """One of the four initial-state families.

    kind       parameter
    ----       ---------
    bell       none (equals werner with p = 1)
    werner     p in (0, 1]: weight of psi+ mixed with white noise
    colored    p in (0, 1]: weight of phi+ mixed with |01>/|10> noise
    pure       theta in (0, pi/4): cos(theta)|01> + sin(theta)|10>

    An immutable value, equal and hashed by ``(kind, param)``.
    """

    __slots__ = ("kind", "param")

    def __init__(self, kind: str, param: float | None = None):
        if kind == BELL:
            if param is not None:
                raise ValueError("bell family takes no parameter")
        elif kind in (WERNER, COLORED):
            if param is None or not 0.0 < param <= 1.0:
                raise ValueError(f"{kind} parameter must lie in (0, 1]")
        elif kind == PURE:
            if param is None or not 0.0 < param < math.pi / 4.0:
                raise ValueError("pure-state angle must lie in (0, pi/4)")
        else:
            raise ValueError(f"unknown state family {kind!r}")
        _set_kind(self, kind)
        _set_param(self, param)

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


# the slot setters, which bypass the refusing __setattr__ on construction
# about a third faster than object.__setattr__
_set_kind = StateFamily.kind.__set__
_set_param = StateFamily.param.__set__


_qcore_module = None


def _qcore():
    """The ``qcore`` module, imported on the first call, which loads numpy, and
    kept: state builds and the averaged channels run once per chain stage, and
    a global read costs less than an import statement on every call."""
    global _qcore_module
    if _qcore_module is None:
        from . import qcore as _qcore_module
    return _qcore_module


def build(family: StateFamily) -> DensityMatrix:
    """The family's validated 4x4 state, written from its closed-form Pauli
    coefficients, which the state carries (times 4, order I, x, y, z):
    diag(1, p, p, -p) for werner (p = 1 for bell), diag(1, p, -p, 2p - 1)
    for colored, and for pure sin(2 theta) on xx and yy, -1 on zz and
    +-cos(2 theta) on zI and Iz.  They are 16 Python floats, row-major, so
    the state's arrays wait for their first read."""
    # the closed forms over 4 (a division by 4 is exact)
    zi = iz = 0.0
    if family.kind in (BELL, WERNER):
        xx = yy = (1.0 if family.kind == BELL else family.param) / 4.0
        zz = -xx
    elif family.kind == COLORED:
        p = family.param
        xx, yy, zz = p / 4.0, -p / 4.0, (2.0 * p - 1.0) / 4.0
    else:
        s2, c2 = math.sin(2.0 * family.param), math.cos(2.0 * family.param)
        xx = yy = s2 / 4.0
        zz, zi, iz = -0.25, c2 / 4.0, -c2 / 4.0
    # the one kept qcore reference, not an import statement per chain
    return _qcore()._coefficient_state((0.25, 0.0, 0.0, iz, 0.0, xx, 0.0, 0.0,
                                         0.0, 0.0, yy, 0.0, zi, 0.0, 0.0, zz))


def concurrence_closed_form(family: StateFamily) -> float:
    """Known concurrence of each family, (g - 1) / 2 clipped at 0 (no
    spectral computation)."""
    return max(0.0, (correlation_strength(family) - 1.0) / 2.0)


def correlation_strength(family: StateFamily) -> float:
    """Correlation strength g seen by the family's witness: 3 (bell), 3p
    (werner), 4p - 1 (colored) or 1 + 2 sin(2 theta) (pure).

    A modulated family witness reads the state through g alone
    (``witness_value``), and each averaged two-sided measurement multiplies
    g by the two wings' attenuations.  Every family has concurrence
    C = max(0, (g - 1) / 2); ``param_for_strength`` is the inverse map.
    """
    if family.kind == BELL:
        return 3.0
    if family.kind == WERNER:
        return 3.0 * family.param
    if family.kind == COLORED:
        return 4.0 * family.param - 1.0
    return 1.0 + 2.0 * math.sin(2.0 * family.param)


def witness_value(g: float, xi: float, lam: float) -> float:
    """Expectation of a family witness modulated by (xi, lam) on a state of
    correlation strength g: (1 - xi lam g) / 4.  Both family witnesses have
    identity weight 1/4 and no single-wing Pauli terms, so g is all they
    see; the value is negative, and the stage detects, iff xi lam g > 1."""
    return (1.0 - xi * lam * g) / 4.0


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
