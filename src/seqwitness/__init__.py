"""Sequential two-qubit entanglement witnessing under unsharp measurements.

Submodules
----------
qcore        Pauli matrices, 4x4 linear algebra, Pauli coefficients and
             validated two-qubit states
measurement  unsharp spin observables and the square roots of their effects
witness      witness operators, sharpness modulation, separability checks
states       the initial state families, their correlation strength g and its
             inverse, and their concurrences (g - 1) / 2
sequential   averaged measurement channels and greedy observer counting
resource     detectability optimization and resource comparison tables
cli          batch command-line interface

The names below and the submodules load on first access, so importing the
package loads no numpy; only the matrix layers (qcore, measurement,
witness) import it.  Each loads through the import statement, whichever
way it is reached, so ``python -X importtime`` logs every submodule.
"""

_EXPORTS = {
    "ChainReport": "sequential",
    "DensityMatrix": "qcore",
    "EpsilonPolicy": "sequential",
    "PointerTradeoff": "measurement",
    "SharpnessSchedule": "sequential",
    "StateFamily": "states",
    "UnsharpObservable": "measurement",
    "WitnessOperator": "witness",
}
_SUBMODULES = ("qcore", "measurement", "witness", "states", "sequential", "resource", "cli")

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    home = name if name in _SUBMODULES else _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # which binds the submodule here
    value = globals()[home] if name == home else getattr(globals()[home], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
