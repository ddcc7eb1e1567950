"""Planted defects on the fit path, and which `check` records catch them.

Each defect below is patched into one stage of fit_tls_line (centering,
moments, eigensolver, line, distances), then check_fit runs on seeded line
clouds in d = 2, 3 and 5. The matrix of
defect x dimension x record says which records FAIL. Three rules hold
(mutation analysis; DeMillo, Lipton & Sayward 1978):

(a) clean clouds fail no record;
(b) every defect fails at least one record on every cloud, except in the
    cells of KNOWN_GAPS, where it fails none;
(c) every record check reports is the only failure in at least one
    (defect, dimension) cell: no record is redundant with the others.

A defect row is a change large enough to move some reported value past
check's tolerances; a smaller change (a centroid shifted by 1e-6 of the
spread, say) is rounding to every record and is not a row. Run with -s,
the module prints the matrix: one row per defect and dimension, one column
per record, each cell the number of clouds (of len(SEEDS)) on which the
record failed, "-" where it was skipped.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from conftest import line_cloud

from orthofit import fit, solver
from orthofit.geometry import PointSet, canonical_direction

DIMS = (2, 3, 5)
SEEDS = (0, 1, 2)
RESOLUTION_DEG = 1.0
# (defect, dimension) cells that no record catches.
KNOWN_GAPS = {("centroid-shift-1e-1", 5)}
# Defects that change nothing in d = 2, where lambda_2 is lambda_d and the
# sign-canonical eigenvector matrix is often a symmetric reflection.
FROM_DIM_3 = {"interior-shift-1e-6", "eigenvectors-transposed"}


def _clouds(dim):
    return [
        PointSet(line_cloud(np.random.default_rng([dim, seed]), 40, dim, anchor_scale=10.0)[0])
        for seed in SEEDS
    ]


def _taking(sol, v, **changes):
    """sol with eigenvectors v, whose first column the line is built from."""
    return dataclasses.replace(sol, eigenvectors=v, **changes)


def _turned(v, theta):
    """v with its first column turned by theta toward its second."""
    s = canonical_direction(math.cos(theta) * v[:, 0] + math.sin(theta) * v[:, 1])
    return np.column_stack([s, v[:, 1:]])


def _interior_shift(sol, matrix):
    """lambda_2 + delta and lambda_d - delta with delta = 1e-6 lambda_1: the
    spectrum's sum and largest value stay."""
    spectrum = sol.spectrum.copy()
    delta = 1e-6 * spectrum[0]
    spectrum[1] += delta
    spectrum[-1] -= delta
    return dataclasses.replace(sol, spectrum=spectrum)


# Each eigensolver defect maps (the solver's solution, its input matrix) to
# the solution the fit receives.
SOLVER_DEFECTS = {
    # The lambda-2 pair returned as the dominant one, spectrum unchanged.
    "second-pair": lambda sol, a: _taking(
        sol, sol.eigenvectors[:, [1, 0, *range(2, a.shape[0])]]
    ),
    # The pairs sorted ascending: the smallest taken as the dominant one.
    "ascending-order": lambda sol, a: _taking(
        sol, sol.eigenvectors[:, ::-1], spectrum=sol.spectrum[::-1]
    ),
    "rotated-1e-4": lambda sol, a: _taking(sol, _turned(sol.eigenvectors, 1e-4)),
    "rotated-1e-7": lambda sol, a: _taking(sol, _turned(sol.eigenvectors, 1e-7)),
    "rotated-1e-11": lambda sol, a: _taking(sol, _turned(sol.eigenvectors, 1e-11)),
    # The dominant column turned after the solve, the spectrum as solved.
    # The line is built from that column, so this is rotated-*'s planting;
    # line-rotated-1e-7 and rotated-1e-7 are the same defect.
    "line-rotated-1e-5": lambda sol, a: dataclasses.replace(
        sol, eigenvectors=_turned(sol.eigenvectors, 1e-5)
    ),
    "line-rotated-1e-7": lambda sol, a: dataclasses.replace(
        sol, eigenvectors=_turned(sol.eigenvectors, 1e-7)
    ),
    "eigenvectors-transposed": lambda sol, a: dataclasses.replace(
        sol, eigenvectors=sol.eigenvectors.T
    ),
    "spectrum-reversed": lambda sol, a: dataclasses.replace(sol, spectrum=sol.spectrum[::-1]),
    "spectrum-scaled-1e-6": lambda sol, a: dataclasses.replace(
        sol, spectrum=sol.spectrum * (1.0 + 1e-6)
    ),
    "interior-shift-1e-6": _interior_shift,
}


def _plant_solver(monkeypatch, defect):
    monkeypatch.setattr(
        fit, "dominant_eigenpair", lambda a: defect(solver.dominant_eigenpair(a), a)
    )


def _plant_moments(monkeypatch, change):
    real = fit.accumulate_scatter
    monkeypatch.setattr(fit, "accumulate_scatter", lambda c: change(real(c)))


def _plant_centroid_shift(monkeypatch):
    """The centered cloud moved off its centroid by 1e-1 of its RMS radius,
    along the scatter's least eigenvector (across the line)."""
    real = fit.center

    def shifted(points):
        centered, centroid = real(points)
        y = centered.points
        least = np.linalg.eigh(y.T @ y)[1][:, 0]
        radius = math.sqrt(float(np.sum(y * y)) / y.shape[0])
        return PointSet(y - 1e-1 * radius * least), centroid

    monkeypatch.setattr(fit, "center", shifted)


def _plant_line_turn(monkeypatch):
    """The line built from the solver's column turned 1e-7 rad, toward the
    coordinate axis least along it; the eigensolution is left as solved."""
    real = fit.ParametricLine

    def turned(anchor, direction):
        s = np.asarray(direction)
        axis = np.eye(s.size)[np.argmin(np.abs(s))]
        u = canonical_direction(axis - (axis @ s) * s)
        return real(anchor, math.cos(1e-7) * s + math.sin(1e-7) * u)

    monkeypatch.setattr(fit, "ParametricLine", turned)


def _plant_exponent(monkeypatch):
    """Eigenvalues scaled back by one power of two too many."""
    real = solver._pow2_restored
    monkeypatch.setattr(solver, "_pow2_restored", lambda a, exp: real(a, exp + 1))


def _plant_dropped_distance(monkeypatch):
    """The last point's distance left out of the per-point squares."""
    real = fit._rejection_sq

    def dropped(y, s):
        per_point = real(y, s)
        per_point[-1] = 0.0
        return per_point

    monkeypatch.setattr(fit, "_rejection_sq", dropped)


DEFECTS = {
    **{name: (lambda mp, d=d: _plant_solver(mp, d)) for name, d in SOLVER_DEFECTS.items()},
    "scatter-scaled-1e-6": lambda mp: _plant_moments(
        mp, lambda m: dataclasses.replace(m, scatter=m.scatter * (1.0 + 1e-6))
    ),
    "centroid-shift-1e-1": _plant_centroid_shift,
    "line-turned-1e-7": _plant_line_turn,
    "exponent-off-by-one": _plant_exponent,
    "dropped-distance": _plant_dropped_distance,
}


def _statuses(points):
    """{record name: status} of one check_fit run."""
    return {r.name: r.status for r in fit.check_fit(points, RESOLUTION_DEG)}


@pytest.fixture(scope="module")
def matrix():
    """{(defect or None, dim): [{record: status} per seed]}; None is clean."""
    clouds = {dim: _clouds(dim) for dim in DIMS}
    cells = {(None, dim): [_statuses(p) for p in clouds[dim]] for dim in DIMS}
    for name, plant in DEFECTS.items():
        with pytest.MonkeyPatch.context() as mp:
            plant(mp)
            for dim in DIMS[1:] if name in FROM_DIM_3 else DIMS:
                cells[name, dim] = [_statuses(p) for p in clouds[dim]]
    records = list(cells[None, 3][0])
    print(f"\n{'defect':<24} d  " + "  ".join(records))
    for (name, dim), runs in cells.items():
        counts = [
            f"{'-' if runs[0][r] == 'SKIP' else sum(run[r] == 'FAIL' for run in runs):>{len(r)}}"
            for r in records
        ]
        print(f"{name or 'clean':<24} {dim}  " + "  ".join(counts))
    return cells


def _failed(runs):
    """Per cloud, the set of records that failed."""
    return [{r for r, status in run.items() if status == "FAIL"} for run in runs]


def test_clean_clouds_fail_no_record(matrix):
    for dim in DIMS:
        assert _failed(matrix[None, dim]) == [set()] * len(SEEDS), dim


def test_every_defect_is_caught_outside_the_known_gaps(matrix):
    uncaught = {
        key
        for key, runs in matrix.items()
        if key[0] is not None and set() in _failed(runs)
    }
    assert uncaught == KNOWN_GAPS
    for key in KNOWN_GAPS:
        assert _failed(matrix[key]) == [set()] * len(SEEDS), key


def test_every_record_is_the_only_failure_in_some_cell(matrix):
    records = set(matrix[None, 3][0])
    alone = set()
    for key, runs in matrix.items():
        union = set().union(*_failed(runs))
        if key[0] is not None and len(union) == 1:
            alone |= union
    assert alone == records, sorted(records - alone)
