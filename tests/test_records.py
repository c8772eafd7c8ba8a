"""The record types: constructor, defaults, equality, hashing, immutability and repr.

Each record is a namedtuple subclass; these tests pin the contract its
callers use, independent of that form: the field order for positional
construction, the defaults of the trailing fields, value equality (deep,
through nested records), a hash for the records that hold no dict or
array, a failing assignment to any field, and a repr naming the class
and each field.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from lambshift.constants import (
    ALPHA0_CODATA2018,
    HBAR_EVS_CODATA2018,
    MEC2_EV_CODATA2018,
    PhysicalConstants,
)
from lambshift.kernel import _EulerRows
from lambshift.oracles import BchCoordinates, SpectralKernelValue
from lambshift.quadrature import Diagnostics, QuadratureResult, QuadratureSpec, _Panel
from lambshift.shifts import BetheResult, DipoleOptions, QuantumState, ShiftResult, TableCell
from lambshift.su11 import GroupElement, RepLabel

# values: a sample of every field in constructor order; defaults: the
# trailing fields that have one; changed: fields set to other valid values
Case = namedtuple("Case", "cls values defaults changed hashable")


def _part(evaluations=105):
    return QuadratureResult(1.25, 1e-12, evaluations, True, 0, (), (0.5, 1.0))


def _arrays(n):
    return [np.arange(3.0) + k for k in range(n)]


CASES = [
    Case(
        PhysicalConstants,
        {"alpha0": 7.3e-3, "mec2_eV": 5.1e5, "hbar_eVs": 6.6e-16},
        {"alpha0": ALPHA0_CODATA2018, "mec2_eV": MEC2_EV_CODATA2018, "hbar_eVs": HBAR_EVS_CODATA2018},
        {"alpha0": 7.0e-3},
        True,
    ),
    Case(
        QuadratureSpec,
        {"rel_tol": 1e-6, "max_subdivisions": 50},
        {"rel_tol": 1e-9, "max_subdivisions": 2000},
        {"rel_tol": 1e-7},
        True,
    ),
    Case(
        QuadratureResult,
        {"value": 1.5, "error_estimate": 1e-12, "evaluations": 45, "converged": False,
         "subdivisions": 1, "columns": (1.0, 0.5), "running": (0.7,)},
        {"subdivisions": 0, "columns": (), "running": ()},
        {"value": 2.5},
        True,
    ),
    Case(
        _Panel,
        {"a": 0.0, "b": 1.0, "value": (0.5,), "error": 1e-15, "rows": np.zeros((15, 1))},
        {},
        {"a": 0.5},
        False,
    ),
    Case(Diagnostics, {"parts": {"tau_phi_integral": _part()}}, {"parts": {}}, {"parts": {}}, False),
    Case(
        GroupElement,
        {"alpha": complex(math.cosh(0.3)), "beta": 1j * math.sinh(0.3)},
        {},
        {"alpha": complex(math.cosh(0.4)), "beta": 1j * math.sinh(0.4)},
        True,
    ),
    Case(BchCoordinates, {"rho": 0.3, "chi": 1.0, "psi": 2.0}, {}, {"rho": 0.4}, True),
    Case(RepLabel, {"m0": 3}, {}, {"m0": 4}, True),
    Case(QuantumState, {"N": 3, "L": 1, "J": 1.5, "Z": 2}, {"J": None, "Z": 1}, {"N": 4}, True),
    Case(
        DipoleOptions,
        {"enabled": True, "cutoff_x": 1e3},
        {"enabled": False, "cutoff_x": None},
        {"cutoff_x": 3e3},
        True,
    ),
    Case(
        ShiftResult,
        {"state": QuantumState(2, 1), "lamb_shift_MHz": 4.1, "partial_rates": ((1, 626.0),),
         "total_rate": 626.0, "tau_phi_term_MHz": 1.0, "pv_term_MHz": 3.1,
         "diagnostics": Diagnostics({"tau_phi_integral": _part()}), "converged": False},
        {"diagnostics": Diagnostics(), "converged": True},
        {"lamb_shift_MHz": 4.2},
        False,
    ),
    Case(
        BetheResult,
        {"N": 2, "L": 1, "gamma": -0.03, "mean_excitation_Ry": 0.97, "cutoffs_used": (1e3, 3e3),
         "estimates": (-0.031, -0.030), "error_estimate": 1e-12, "converged": True,
         "diagnostics": Diagnostics({"tau_phi_integral": _part()})},
        {"diagnostics": Diagnostics()},
        {"gamma": -0.04},
        False,
    ),
    Case(
        TableCell,
        {"table_id": 1, "N": 2, "L": 1, "J": None, "n": None, "quantity": "lamb_shift", "unit": "MHz",
         "computed": 4.086, "reference": 4.097, "rel_dev": -2.7e-3, "converged": False},
        {"converged": True},
        {"computed": 4.087},
        True,
    ),
    Case(SpectralKernelValue, {"value": 0.5 + 0.1j, "last_term": 1e-18, "terms": 40}, {}, {"terms": 41}, True),
    Case(
        _EulerRows,
        {**dict(zip(("amp", "p", "h", "psi", "psi0", "first", "a", "s", "finite", "past"), _arrays(10))),
         "psi": [1, 0, 0]},
        {},
        {"psi": [2, 1, 1]},
        False,
    ),
]
IDS = [c.cls.__name__ for c in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree_in_the_field_order(case):
    by_position = case.cls(*case.values.values())
    by_keyword = case.cls(**case.values)
    for name, value in case.values.items():
        assert getattr(by_position, name) is value and getattr(by_keyword, name) is value
    with pytest.raises(TypeError):
        case.cls(*case.values.values(), 0.0)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_defaults(case):
    required = {k: v for k, v in case.values.items() if k not in case.defaults}
    record = case.cls(**required)
    for name, default in case.defaults.items():
        assert getattr(record, name) == default
    if any(k not in case.defaults for k in case.values):
        with pytest.raises(TypeError):
            case.cls()


def test_default_diagnostics_are_empty_and_not_shared():
    shift = {k: v for k, v in CASES[IDS.index("ShiftResult")].values.items() if k != "diagnostics"}
    bethe = {k: v for k, v in CASES[IDS.index("BetheResult")].values.items() if k != "diagnostics"}
    parts = [Diagnostics().parts, Diagnostics().parts, ShiftResult(**shift).diagnostics.parts,
             ShiftResult(**shift).diagnostics.parts, BetheResult(**bethe).diagnostics.parts]
    assert parts == [{}] * 5 and len({id(p) for p in parts}) == 5
    assert ShiftResult(**shift, diagnostics=None).diagnostics == Diagnostics()


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_value_equality(case):
    record = case.cls(**case.values)
    assert record == case.cls(**case.values) and not record != case.cls(**case.values)
    assert record != case.cls(**{**case.values, **case.changed})


def test_equality_is_deep():
    # equal nested records built apart compare equal, as BetheResults
    # through Diagnostics and QuadratureResult do in the tests of shifts
    values = CASES[IDS.index("BetheResult")].values
    rebuilt = {**values, "diagnostics": Diagnostics({"tau_phi_integral": _part()})}
    assert rebuilt["diagnostics"].parts["tau_phi_integral"] is not values["diagnostics"].parts["tau_phi_integral"]
    assert BetheResult(**rebuilt) == BetheResult(**values)
    other = Diagnostics({"tau_phi_integral": _part(evaluations=120)})
    assert BetheResult(**{**values, "diagnostics": other}) != BetheResult(**values)
    u = GroupElement(complex(math.cosh(0.3)), 1j * math.sinh(0.3))
    assert u == GroupElement(**CASES[IDS.index("GroupElement")].values)


@pytest.mark.parametrize("case", [c for c in CASES if c.hashable], ids=[c.cls.__name__ for c in CASES if c.hashable])
def test_hash_follows_value(case):
    a, b = case.cls(**case.values), case.cls(**case.values)
    assert hash(a) == hash(b) and len({a, b, case.cls(**{**case.values, **case.changed})}) == 2


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_fields_cannot_be_assigned(case):
    record = case.cls(**case.values)
    name, value = next(iter(case.changed.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is case.values[name]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_repr_names_the_class_and_its_fields(case):
    text = repr(case.cls(**case.values))
    assert text.startswith(f"{case.cls.__name__}(") and text.endswith(")")
    assert all(f"{name}=" in text for name in case.values)
    if case.cls is QuantumState:
        assert text == "QuantumState(N=3, L=1, J=1.5, Z=2)"
