"""Every value class of the package, from the numpy-free records of
``states``, ``sequential`` and ``resource`` to the matrix values of
``qcore``, ``witness`` and ``measurement``, is an immutable ``states._Record``
value: keyword and positional construction with fixed defaults, equality
and hashing by field, a dataclass-style repr, pickling, copying and
positional pattern matching, and their construction-time checks.  Matrix
values, and a chain report that carries states, compare and hash by array
entries; their pickles and copies run the constructor's checks again and
hold read-only arrays.  A value that a record's stored fields fix (a
chain's stage count and thresholds, a detectability total, a total RoM, a
comparison row's two-decimal cascade) is a read-only property outside
them, equal bit for bit to what the record stored before it became one.  None of this loads ``dataclasses``."""

import copy
import math
import os
import pickle
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqwitness import measurement, qcore, resource, sequential, states, witness

_SCHEDULE = sequential.SharpnessSchedule(stages=((0.9, 0.8), (1.0, 0.5)))
_SCHEDULE_REPR = "SharpnessSchedule(stages=((0.9, 0.8), (1.0, 0.5)))"
# A library chain that carries its matrix states
_CHAIN = sequential.greedy_symmetric(states.StateFamily.bell())
_CHAIN_FIELDS = {name: getattr(_CHAIN, name) for name in sequential.ChainReport.__slots__}
_PSI_PLUS = witness.witness_psi_plus().coefficients
# m[0, 1] = 0.1 but m[1, 0] = 0.2: unit trace and not Hermitian
_SKEWED = np.eye(4) / 4
_SKEWED[0, 1], _SKEWED[1, 0] = 0.1, 0.2

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
         ({"later_stage_slack": -0.01}, "stage slack must lie in [0, 0.1)"),
         ({"first_stage_slack": float("nan")}, "stage slack must lie in [0, 0.1)"),
         ({"later_stage_slack": float("nan")}, "stage slack must lie in [0, 0.1)")),
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
        {"family": states.StateFamily.bell(), "schedule": _SCHEDULE,
         "strengths": (3.0, 2.0, 0.8), "states": ()},
        {"family": states.StateFamily.bell(), "schedule": _SCHEDULE,
         "strengths": (3.0, 2.0, 0.8), "states": (None,)},
        None,
        "ChainReport(family=StateFamily(kind='bell', param=None), "
        f"schedule={_SCHEDULE_REPR}, strengths=(3.0, 2.0, 0.8))",
        (),
    ),
    "ChainReport with states": (
        sequential.ChainReport, _CHAIN_FIELDS,
        {**_CHAIN_FIELDS, "states": _CHAIN.states[:-1]},
        None,
        f"ChainReport(family={_CHAIN.family!r}, schedule={_CHAIN.schedule!r}, "
        f"strengths={_CHAIN.strengths!r})",
        (),
    ),
    "DetectabilityReport": (
        resource.DetectabilityReport,
        {"per_stage": (-0.125, -0.0625), "schedule": _SCHEDULE},
        {"per_stage": (-0.125, -0.125), "schedule": _SCHEDULE},
        None,
        f"DetectabilityReport(per_stage=(-0.125, -0.0625), schedule={_SCHEDULE_REPR})",
        (),
    ),
    "ComparisonRow": (
        resource.ComparisonRow,
        {"family": "werner", "detectability": -0.25, "total_rom": 3.5, "eta_ebits": 1.5,
         "mode": "rom", "matching_parameter": 0.75, "quadratic_constraint": 2.25,
         "per_pair_floor": 0.5},
        {"family": "werner", "detectability": -0.25, "total_rom": 3.5, "eta_ebits": 1.5,
         "mode": "rom", "matching_parameter": 0.75, "quadratic_constraint": 2.28,
         "per_pair_floor": 0.5},
        ({"family": "a", "detectability": 1.0, "total_rom": 2.0, "eta_ebits": 3.0, "mode": "m"},
         {"matching_parameter": None, "quadratic_constraint": None, "per_pair_floor": None}),
        "ComparisonRow(family='werner', detectability=-0.25, total_rom=3.5, eta_ebits=1.5, "
        "mode='rom', matching_parameter=0.75, quadratic_constraint=2.25, per_pair_floor=0.5)",
        (),
    ),
    "NonSequentialSolution": (
        resource.NonSequentialSolution,
        {"param": 0.8, "per_pair_floor": 0.625, "quadratic_constraint": 1.25,
         "lambdas": (1.0, 0.625, 0.625)},
        {"param": 0.8, "per_pair_floor": 0.625, "quadratic_constraint": 1.25,
         "lambdas": (1.0, 1.0, 0.25)},
        None,
        "NonSequentialSolution(param=0.8, per_pair_floor=0.625, quadratic_constraint=1.25, "
        "lambdas=(1.0, 0.625, 0.625))",
        (),
    ),
    "DensityMatrix": (
        qcore.DensityMatrix, {"matrix": np.diag([0.75, 0.25, 0.0, 0.0])},
        {"matrix": np.diag([0.25, 0.75, 0.0, 0.0])},
        None,
        "DensityMatrix()",
        (({"matrix": np.eye(2) / 2}, "density matrix must be 4x4"),
         ({"matrix": np.eye(4) / 2}, "trace 2 differs from 1"),
         ({"matrix": np.diag([1.0 + 0.5j, 0.0, 0.0, 0.0])}, "trace 1+0.5j differs from 1"),
         ({"matrix": _SKEWED}, "density matrix must be Hermitian"),
         ({"matrix": np.diag([1.5, -0.5, 0.0, 0.0])}, "negative eigenvalue -0.5"),
         ({"matrix": np.diag([np.nan, 1.0, 0.0, 0.0])}, "density matrix has non-finite entries")),
    ),
    "WitnessOperator": (
        witness.WitnessOperator, {"coefficients": _PSI_PLUS, "modulation": (0.5, 0.9)},
        {"coefficients": _PSI_PLUS, "modulation": None},
        ({"coefficients": _PSI_PLUS}, {"modulation": None}),
        "WitnessOperator(modulation=(0.5, 0.9))",
        (({"coefficients": np.eye(2)}, "witness coefficients must be a real 4x4 array"),
         ({"coefficients": _PSI_PLUS * 1j}, "witness coefficients must be a real 4x4 array"),
         ({"coefficients": np.full((4, 4), np.inf)}, "witness coefficients must be finite")),
    ),
    "UnsharpObservable": (
        measurement.UnsharpObservable, {"direction": measurement.X_AXIS, "sharpness": 0.5},
        {"direction": measurement.Z_AXIS, "sharpness": 0.5},
        ({"direction": measurement.X_AXIS}, {"sharpness": 1.0}),
        "UnsharpObservable(sharpness=0.5)",
        (({"direction": np.array([1.0, 1.0, 0.0])}, "direction must be a unit 3-vector"),
         ({"direction": np.ones(2)}, "direction must be a unit 3-vector"),
         ({"sharpness": 1.5}, "sharpness 1.5 outside (0, 1]"),
         ({"sharpness": 0.0}, "sharpness 0.0 outside (0, 1]")),
    ),
    "PointerTradeoff": (
        measurement.PointerTradeoff, {"quality": 0.6, "precision": 0.8},
        {"quality": 0.8, "precision": 0.6},
        None,
        "PointerTradeoff(quality=0.6, precision=0.8)",
        (({"quality": 0.5}, "pointer must satisfy F^2 + G^2 = 1"),),
    ),
}


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _same(value, expected):
    """Field equality, arrays by their entries."""
    if isinstance(expected, np.ndarray):
        return np.array_equal(value, expected)
    return value == expected


@pytest.mark.parametrize("name", _CASES)
def test_record_is_an_immutable_value(name):
    cls, kwargs, other_kwargs, defaults, expected_repr, invalid = _CASES[name]
    record = cls(**kwargs)
    assert type(record).__name__ == name.split()[0]
    fields = tuple(kwargs)
    assert cls.__match_args__ == fields
    assert all(_same(getattr(record, k), v) for k, v in kwargs.items())
    assert cls(*kwargs.values()) == record  # positional order is field order
    if defaults is not None:
        required, omitted = defaults
        bare = cls(**required)
        assert all(_same(getattr(bare, k), v) for k, v in omitted.items())
        assert cls(**required, **omitted) == bare

    same, other = cls(**kwargs), cls(**other_kwargs)
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != tuple(kwargs.values())
    assert record.__eq__(object()) is NotImplemented
    # hashable when the record's own key is: arrays enter it by their entries
    if all(_hashable(v) for v in record._key()):
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


@pytest.mark.parametrize("stages", [[(0.9, 0.8), (1.0, 0.5)], [[0.9, 0.8], [1.0, 0.5]],
                                    iter(((0.9, 0.8), (1.0, 0.5))), ([0.9, 0.8], [1.0, 0.5]),
                                    ((0.9, 0.8), [1.0, 0.5])],
                         ids=["list", "list of lists", "iterator", "tuple of lists",
                              "tuple with a list"])
def test_schedules_from_lists_are_tuples_that_compare_and_hash_alike(stages):
    schedule = sequential.SharpnessSchedule(stages)
    assert schedule.stages == ((0.9, 0.8), (1.0, 0.5))
    assert all(type(entry) is tuple for entry in (schedule.stages, *schedule.stages))
    assert schedule == _SCHEDULE and hash(schedule) == hash(_SCHEDULE)
    assert repr(schedule) == _SCHEDULE_REPR


def test_a_schedule_keeps_the_tuple_it_is_given():
    stages = ((0.9, 0.8), (1.0, 0.5))
    assert sequential.SharpnessSchedule(stages).stages is stages


# (record, {derived value's name: its value}); g = 4e-15 is the threshold's
# cut, where violation_threshold's slope -g/4 is -1e-15, and gives inf
_DERIVED = (
    (sequential.ChainReport(states.StateFamily.bell(), _SCHEDULE, (3.0, 2.0, 0.8, 4e-15), ()),
     {"detected_stages": 2, "thresholds": (1 / 3, 0.5, 1.25, math.inf)}),
    (resource.DetectabilityReport((-0.125, -0.0625), _SCHEDULE), {"total": -0.1875}),
    (resource.NonSequentialSolution(0.8, 0.625, 1.25, (1.0, 0.625, 0.625)), {"rom": 4.5}),
    (resource.ComparisonRow("werner", -0.2, 5.06, 1.12, "fixed-rom-solve-eta", 0.5849),
     {"paper_rounded": {"matching_parameter": 0.58, "concurrence": 0.37, "eta_ebits": 1.11}}),
)


@pytest.mark.parametrize("record,derived", _DERIVED, ids=[type(r).__name__ for r, _ in _DERIVED])
def test_derived_values_are_read_only_properties_outside_the_fields(record, derived):
    cls = type(record)
    stored = {name: getattr(record, name) for name in cls.__match_args__}
    for name, value in derived.items():
        assert getattr(record, name) == value
        assert isinstance(vars(cls)[name], property)
        assert name not in cls.__match_args__ and f"{name}=" not in repr(record)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        # the keyword of a stored value that is now derived is refused
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(**stored, **{name: value})
    assert cls(**stored) == record


def _bits(value):
    """A float, or a tuple of them, as its IEEE 754 bit patterns."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return struct.pack("<d", value)


def _stored_chain_values(family, two_sided_stages, max_stages, sharpness):
    """(detected_stages, thresholds) as the stage loop stored them before
    they became properties: its own count of recorded stages, and the cut
    of each stage's g it handed to ``sharpness``."""
    g = states.correlation_strength(family)
    stages, thresholds = [], []
    while max_stages is None or len(stages) < max_stages:
        stage = len(stages) + 1
        two_sided = two_sided_stages is None or stage <= two_sided_stages
        t = 1.0 / g if g > 4e-15 else math.inf
        thresholds.append(t)
        s = sharpness(t, stage, two_sided)
        if s is None:
            break
        stages.append((s if two_sided else 1.0, s))
        shrink = sequential.average_shrink(s)
        g *= shrink * shrink if two_sided else shrink
    return len(stages), tuple(thresholds)


def _random_family(rng):
    """Any family over its whole range: colored p <= 1/4 has g <= 0 and an
    infinite threshold, werner p <= 1/3 and colored p <= 1/2 detect nothing."""
    kind = rng.choice(states.KINDS)
    if kind == states.BELL:
        return states.StateFamily.bell()
    if kind == states.PURE:
        return states.StateFamily.pure(rng.uniform(1e-9, math.pi / 4.0 - 1e-9))
    return states.StateFamily(kind, rng.choice([1.0, 0.25, rng.uniform(1e-9, 1.0)]))


def test_derived_chain_values_are_the_values_the_stage_loop_stored():
    # 3,000 seeded chains: greedy symmetric and asymmetric chains under random
    # policies, the asymmetric ones under random stage caps, and fixed schedules
    rng = random.Random(20261021)
    for i in range(3000):
        family = _random_family(rng)
        policy = sequential.EpsilonPolicy(rng.choice([0.0, rng.uniform(0.0, 0.0999)]),
                                          rng.choice([0.0, rng.uniform(0.0, 0.0999)]),
                                          rng.random() < 0.5)
        cap = rng.choice([None, rng.randint(1, 25)])
        if i % 3 == 0:
            report = sequential.greedy_symmetric(family, policy)
            stored = _stored_chain_values(family, None, None, policy.sharpness)
        elif i % 3 == 1:
            alices = rng.randint(1, 5)
            report = sequential.greedy_asymmetric(alices, family, policy, cap)
            stored = _stored_chain_values(family, alices - 1, cap, policy.sharpness)
        else:
            lambdas = tuple(rng.uniform(1e-3, 1.0) for _ in range(rng.randint(1, 6)))
            report = sequential.run_symmetric_schedule(family, lambdas)
            stored = _stored_chain_values(family, None, len(lambdas),
                                          lambda t, stage, _: lambdas[stage - 1])
        assert report.detected_stages == stored[0] == len(report.states)
        assert _bits(report.thresholds) == _bits(stored[1])


def test_derived_totals_and_roms_are_the_values_the_optimizer_stored():
    # the comparison inputs: every family at its table range, stage caps in
    # [0.9, 1] and ebit budgets from the least that reaches the target to 2.9
    rng = random.Random(20261021)
    ranges = {states.WERNER: (0.93, 1.0), states.COLORED: (0.95, 1.0), states.PURE: (0.6, 0.77)}
    for _ in range(100):
        for kind in states.KINDS:
            family = (states.StateFamily.bell() if kind == states.BELL
                      else states.StateFamily(kind, rng.uniform(*ranges[kind])))
            best = resource.maximize_detectability(family,
                                                   tuple(rng.uniform(0.9, 1.0) for _ in range(3)))
            assert _bits(best.total) == _bits(float(sum(best.per_stage)))
            lo = -2.0 * best.total + 0.05
            budget = lo + rng.random() * (2.9 - lo)
            for noisy in (states.WERNER, states.COLORED, states.PURE):
                sol = resource._solve_min_rom(noisy, budget, best.total)
                assert _bits(sol.rom) == _bits(2.0 * sum(sol.lambdas))
                assert _bits(resource.min_total_rom(noisy, budget, best.total)) == _bits(sol.rom)


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
        (qcore.DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0])),
         qcore.DensityMatrix(np.diag([1.0, -0.0, 0.0, 0.0]))),
        (measurement.UnsharpObservable(measurement.Z_AXIS, 0.5),
         measurement.UnsharpObservable(np.array([-0.0, 0.0, 1.0]), 0.5)),
    ]
    for a, b in equal:
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
    unequal = [
        (psi_plus, witness.witness_phi_colored()),
        (psi_plus, witness.modulate(psi_plus, 1.0, 1.0)),
        (qcore.DensityMatrix(np.eye(4) / 4), qcore.DensityMatrix(np.diag([0.7, 0.1, 0.1, 0.1]))),
        (measurement.UnsharpObservable(measurement.Z_AXIS, 0.5),
         measurement.UnsharpObservable(measurement.Z_AXIS, 0.6)),
    ]
    for a, b in unequal:
        assert a != b and not a == b
    assert qcore.DensityMatrix(np.eye(4) / 4).__eq__(psi_plus) is NotImplemented


def _arrays(value):
    """Every array a value holds, its private slots included."""
    slots = type(value).__slots__
    return [a for a in (getattr(value, name, None) for name in slots) if isinstance(a, np.ndarray)]


def test_copies_of_matrix_values_are_checked_again_and_read_only():
    psi_plus = witness.witness_psi_plus()
    values = (states.build(states.StateFamily.werner(0.5)),
              qcore.DensityMatrix(np.diag([0.75, 0.25, 0.0, 0.0])),
              psi_plus, witness.modulate(psi_plus, 0.5, 0.9),
              measurement.UnsharpObservable(measurement.X_AXIS, 0.5))
    for value in values:
        carried = getattr(value, "_coefficients", None)
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
            arrays = _arrays(copied)
            assert len(arrays) == len(_arrays(value))
            assert arrays and not any(a.flags.writeable for a in arrays)
            if isinstance(value, qcore.DensityMatrix):
                # a state keeps the coefficients it was built from, or none
                kept = getattr(copied, "_coefficients", None)
                assert (kept is None) == (carried is None)
                if carried is not None:
                    assert np.array_equal(kept, carried)
                    assert qcore.pauli_coefficients(copied) is kept
                with pytest.raises(ValueError, match="read-only"):
                    copied.matrix[0, 0] = 5.0


def test_a_pickled_state_is_validated_on_load():
    # a pickle is rebuilt through the constructor, so tampered entries fail
    # its checks instead of coming back as a "validated" state
    payload = pickle.dumps(qcore.DensityMatrix(np.diag([0.75, 0.25, 0.0, 0.0])))
    entry = struct.pack("<d", 0.75)
    assert payload.count(entry) == 1
    with pytest.raises(ValueError, match=re.escape("trace 5.25 differs from 1")):
        pickle.loads(payload.replace(entry, struct.pack("<d", 5.0)))


def test_matrix_layers_load_no_dataclasses():
    # a fresh interpreter: the matrix values, a chain that carries states
    # and a pickle round trip all run without the dataclasses module
    script = """
import pickle, sys
from seqwitness import measurement, qcore, sequential, states, witness
rho = states.build(states.StateFamily.werner(0.5))
chain = sequential.greedy_symmetric(states.StateFamily.bell())
assert chain.states and pickle.loads(pickle.dumps(chain)) == chain
assert pickle.loads(pickle.dumps(rho)) == rho
assert "dataclasses" not in sys.modules, "dataclasses loaded"
"""
    src = str(Path(states.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
