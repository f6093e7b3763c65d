"""The numpy-free records of ``states``, ``sequential`` and ``resource`` are
immutable values: keyword and positional construction with fixed defaults,
equality and hashing by field, a dataclass-style repr, pickling, copying and
positional pattern matching, and their construction-time checks.  The
numpy-holding dataclasses of the matrix layer, and a chain report that
carries their states, compare and hash by array entries."""

import copy
import pickle
import re

import numpy as np
import pytest

from seqwitness import measurement, qcore, resource, sequential, states, witness

_SCHEDULE = sequential.SharpnessSchedule(stages=((0.9, 0.8), (1.0, 0.5)))
_SCHEDULE_REPR = "SharpnessSchedule(stages=((0.9, 0.8), (1.0, 0.5)))"
# A library chain that carries its matrix states
_CHAIN = sequential.greedy_symmetric(states.StateFamily.bell())
_CHAIN_FIELDS = {name: getattr(_CHAIN, name) for name in sequential.ChainReport.__slots__}

# (class, keyword arguments, a differing set, defaults of the omitted
# keywords as (required keywords, expected field values), repr, invalid
# keyword sets with their messages)
_CASES = {
    "StateFamily": (
        states.StateFamily, {"kind": "werner", "param": 0.7}, {"kind": "werner", "param": 0.6},
        ({"kind": "bell"}, {"param": None}),
        "StateFamily(kind='werner', param=0.7)",
        (({"kind": "werner", "param": 1.5}, "werner parameter must lie in (0, 1]"),),
    ),
    "EpsilonPolicy": (
        sequential.EpsilonPolicy,
        {"first_stage_slack": 0.02, "later_stage_slack": 0.0, "paper_rounding": True},
        {"first_stage_slack": 0.02, "later_stage_slack": 0.0, "paper_rounding": False},
        ({}, {"first_stage_slack": 1e-2, "later_stage_slack": 1e-2, "paper_rounding": False}),
        "EpsilonPolicy(first_stage_slack=0.02, later_stage_slack=0.0, paper_rounding=True)",
        (({"first_stage_slack": 0.1}, "stage slack must lie in [0, 0.1)"),
         ({"later_stage_slack": -0.01}, "stage slack must lie in [0, 0.1)")),
    ),
    "SharpnessSchedule": (
        sequential.SharpnessSchedule, {"stages": ((0.9, 0.8), (1.0, 0.5))},
        {"stages": ((0.9, 0.8),)},
        None,
        _SCHEDULE_REPR,
        (({"stages": ((0.0, 0.5),)}, "schedule entries must lie in (0, 1]"),
         ({"stages": ((1.0, 1.5),)}, "schedule entries must lie in (0, 1]")),
    ),
    "ChainReport": (
        sequential.ChainReport,
        {"family": states.StateFamily.bell(), "detected_stages": 2, "schedule": _SCHEDULE,
         "thresholds": (1 / 3, 0.5, 1.25), "states": ()},
        {"family": states.StateFamily.bell(), "detected_stages": 2, "schedule": _SCHEDULE,
         "thresholds": (1 / 3, 0.5, 1.25), "states": (None,)},
        None,
        "ChainReport(family=StateFamily(kind='bell', param=None), detected_stages=2, "
        f"schedule={_SCHEDULE_REPR}, thresholds=(0.3333333333333333, 0.5, 1.25))",
        (),
    ),
    "ChainReport with states": (
        sequential.ChainReport, _CHAIN_FIELDS,
        {**_CHAIN_FIELDS, "states": _CHAIN.states[:-1]},
        None,
        f"ChainReport(family={_CHAIN.family!r}, detected_stages={_CHAIN.detected_stages!r}, "
        f"schedule={_CHAIN.schedule!r}, thresholds={_CHAIN.thresholds!r})",
        (),
    ),
    "DetectabilityReport": (
        resource.DetectabilityReport,
        {"per_stage": (-0.125, -0.0625), "total": -0.1875, "schedule": _SCHEDULE},
        {"per_stage": (-0.125, -0.0625), "total": -0.25, "schedule": _SCHEDULE},
        None,
        f"DetectabilityReport(per_stage=(-0.125, -0.0625), total=-0.1875, schedule={_SCHEDULE_REPR})",
        (),
    ),
    "ComparisonRow": (
        resource.ComparisonRow,
        {"family": "werner", "detectability": -0.25, "total_rom": 3.5, "eta_ebits": 1.5,
         "mode": "rom", "matching_parameter": 0.75, "quadratic_constraint": 2.25,
         "per_pair_floor": 0.5, "paper_rounded": {"quadratic_constraint": 2.26}},
        {"family": "werner", "detectability": -0.25, "total_rom": 3.5, "eta_ebits": 1.5,
         "mode": "rom", "matching_parameter": 0.75, "quadratic_constraint": 2.25,
         "per_pair_floor": 0.5, "paper_rounded": {"quadratic_constraint": 2.28}},
        ({"family": "a", "detectability": 1.0, "total_rom": 2.0, "eta_ebits": 3.0, "mode": "m"},
         {"matching_parameter": None, "quadratic_constraint": None, "per_pair_floor": None,
          "paper_rounded": None}),
        "ComparisonRow(family='werner', detectability=-0.25, total_rom=3.5, eta_ebits=1.5, "
        "mode='rom', matching_parameter=0.75, quadratic_constraint=2.25, per_pair_floor=0.5)",
        (),
    ),
    "NonSequentialSolution": (
        resource.NonSequentialSolution,
        {"param": 0.8, "per_pair_floor": 0.625, "quadratic_constraint": 1.25,
         "lambdas": (1.0, 0.625, 0.625), "rom": 4.5},
        {"param": 0.8, "per_pair_floor": 0.625, "quadratic_constraint": 1.25,
         "lambdas": (1.0, 1.0, 0.25), "rom": 4.5},
        None,
        "NonSequentialSolution(param=0.8, per_pair_floor=0.625, quadratic_constraint=1.25, "
        "lambdas=(1.0, 0.625, 0.625), rom=4.5)",
        (),
    ),
}


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", _CASES)
def test_record_is_an_immutable_value(name):
    cls, kwargs, other_kwargs, defaults, expected_repr, invalid = _CASES[name]
    record = cls(**kwargs)
    assert type(record).__name__ == name.split()[0]
    fields = tuple(kwargs)
    assert cls.__match_args__ == fields
    assert all(getattr(record, k) == v for k, v in kwargs.items())
    assert cls(*kwargs.values()) == record  # positional order is field order
    if defaults is not None:
        required, omitted = defaults
        bare = cls(**required)
        assert all(getattr(bare, k) == v for k, v in omitted.items())
        assert cls(**required, **omitted) == bare

    same, other = cls(**kwargs), cls(**other_kwargs)
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != tuple(kwargs.values())
    assert record.__eq__(object()) is NotImplemented
    if all(_hashable(v) for v in kwargs.values()):
        assert hash(record) == hash(same)
        assert {record: 1}[same] == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

    assert repr(record) == expected_repr

    with pytest.raises(AttributeError, match=f"cannot assign to field '{fields[0]}'"):
        setattr(record, fields[0], kwargs[fields[0]])
    with pytest.raises(AttributeError, match=f"cannot delete field '{fields[-1]}'"):
        delattr(record, fields[-1])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == same and not hasattr(record, "extra")

    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == expected_repr

    for bad, message in invalid:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**{**kwargs, **bad})


def test_library_chain_reports_compare_and_hash_by_state_entries():
    bell = states.StateFamily.bell()
    first, second = sequential.greedy_symmetric(bell), sequential.greedy_symmetric(bell)
    assert first.states and first.states[0] is not second.states[0]
    assert first == second and hash(first) == hash(second)
    assert first != sequential.greedy_symmetric(states.StateFamily.werner(0.99))


def test_matrix_layer_values_compare_and_hash_by_entries():
    # signed zeros are equal entries, so they must hash alike
    zero = np.zeros((4, 4))
    psi_plus = witness.witness_psi_plus()
    equal = [
        (witness.WitnessOperator(zero), witness.WitnessOperator(-zero)),
        (witness.modulate(psi_plus, 0.5, 0.9),
         witness.WitnessOperator(qcore.scale_wings(psi_plus.coefficients, 0.5, 0.9), (0.5, 0.9))),
        (states.build(states.StateFamily.werner(0.5)), states.build(states.StateFamily.werner(0.5))),
        (qcore.DensityMatrix(np.diag([1.0, 0.0])), qcore.DensityMatrix(np.diag([1.0, -0.0]))),
        (measurement.UnsharpObservable(measurement.Z_AXIS, 0.5),
         measurement.UnsharpObservable(np.array([-0.0, 0.0, 1.0]), 0.5)),
    ]
    for a, b in equal:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
    unequal = [
        (psi_plus, witness.witness_phi_colored()),
        (psi_plus, witness.modulate(psi_plus, 1.0, 1.0)),
        (qcore.DensityMatrix(np.eye(2) / 2), qcore.DensityMatrix(np.eye(4) / 4)),
        (measurement.UnsharpObservable(measurement.Z_AXIS, 0.5),
         measurement.UnsharpObservable(measurement.Z_AXIS, 0.6)),
    ]
    for a, b in unequal:
        assert a != b and not a == b
    assert qcore.DensityMatrix(np.eye(2) / 2).__eq__(psi_plus) is NotImplemented
