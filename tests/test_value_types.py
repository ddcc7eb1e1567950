"""Every value type holds read-only copies of its array fields.

Constructing one never touches the arrays the caller passed in: they stay
writable, unchanged and unshared with the value. Equality and hashing are
by identity: a generated field-wise __eq__ would compare arrays, whose truth
value is undefined, and its __hash__ would hash them. A value derived from
a stored field is read from it, so it can never disagree with its source.
"""

import copy
import dataclasses

import numpy as np
import pytest

from orthofit import (
    EigenSolution,
    ExplicitFitResult,
    GridSearchResult,
    LineFitResult,
    ParametricLine,
    PointSet,
    ScatterSummary,
)


def _eigen_fields():
    return {
        "ambiguous": False,
        "spectrum": np.array([1.0, 0.5]),
        "eigenvectors": np.eye(2),
    }


def _moments_fields():
    return {"scatter": np.diag([1.0, 0.5]), "n_points": 3}


def _line():
    return ParametricLine(np.zeros(2), np.array([1.0, 0.0]))


CASES = {
    "PointSet": (PointSet, lambda: {"points": np.array([[0.0, 1.0], [2.0, 3.0]])}),
    "ParametricLine": (
        ParametricLine,
        lambda: {"anchor": np.array([1.0, 2.0]), "direction": np.array([0.6, 0.8])},
    ),
    "ScatterSummary": (ScatterSummary, _moments_fields),
    "EigenSolution": (EigenSolution, _eigen_fields),
    "LineFitResult": (
        LineFitResult,
        lambda: {
            "line": _line(),
            "per_point_sq": np.array([0.25, 0.0, 0.25]),
            "eigen": EigenSolution(**_eigen_fields()),
            "moments": ScatterSummary(**_moments_fields()),
        },
    ),
    "ExplicitFitResult": (
        ExplicitFitResult,
        lambda: {
            "coefficients": np.array([0.0]),
            "offset": 0.0,
            "residual_sq": 0.5,
            "dependent_col": 1,
            "line": _line(),
        },
    ),
    "GridSearchResult": (
        GridSearchResult,
        lambda: {
            "best_direction": np.array([1.0, 0.0]),
            "best_sq_distance": 0.5,
            "resolution_deg": 1.0,
            "evaluated": 180,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_array_fields_are_read_only_copies(name):
    cls, make_fields = CASES[name]
    passed = make_fields()
    arrays = {key: v for key, v in passed.items() if isinstance(v, np.ndarray)}
    before = {key: v.copy() for key, v in arrays.items()}
    value = cls(**passed)

    held = {
        f.name: getattr(value, f.name)
        for f in dataclasses.fields(value)
        if isinstance(getattr(value, f.name), np.ndarray)
    }
    assert held.keys() == arrays.keys()
    for key, array in held.items():
        assert array.dtype == np.float64
        assert not array.flags.writeable, key
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 7.0
        assert not np.shares_memory(array, arrays[key]), key
        assert arrays[key].flags.writeable, key
        assert np.array_equal(arrays[key], before[key]), key


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash_are_by_identity(name):
    cls, make_fields = CASES[name]
    value = cls(**make_fields())
    assert value == value
    assert value != copy.copy(value)
    assert hash(value) == hash(value)
    assert value in {value}


# (type, fields, derived value, measured field, its source rule, a new value
# of that field): each derived value is its source's bytes, also after
# dataclasses.replace of the measured field.
DERIVED = {
    "ScatterSummary.total_sq_norm": (
        ScatterSummary,
        _moments_fields,
        "total_sq_norm",
        "scatter",
        lambda scatter: float(scatter.trace()),
        np.diag([0.1, 0.2]),
    ),
    "LineFitResult.total_sq_distance": (
        LineFitResult,
        CASES["LineFitResult"][1],
        "total_sq_distance",
        "per_point_sq",
        lambda per_point_sq: float(per_point_sq.sum()),
        np.array([0.1, 0.2, 0.3, 0.4]),
    ),
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_values_follow_their_source(name):
    cls, make_fields, derived, field, rule, replacement = DERIVED[name]
    value = cls(**make_fields())
    assert derived not in {f.name for f in dataclasses.fields(value)}
    replaced = dataclasses.replace(value, **{field: replacement})
    for v, source in ((value, make_fields()[field]), (replaced, replacement)):
        assert type(getattr(v, derived)) is float
        assert repr(getattr(v, derived)) == repr(rule(source))
