"""check's tolerances: derived, and met on clean clouds.

Each tolerance of fit.check_fit is c = geometry.ROUNDING_C times a rounding
model of its record's route (check_fit's docstring gives each model). Every
record must PASS on the clean clouds of six probe families:

* line: conftest.line_cloud in d = 2, 3, 4, 5, 8 and 12, n = 10 and 1000,
  anchors 0, 1e3 and 1e9, sigma 0.1, 1e-3 and 0, two seeds each;
* line n = 2e5: the same in d = 2, 3 and 12, anchors 0 and 1e9, sigma 0.1
  and 0, where the n-term sums round most;
* line d <= 60: line clouds in d = 20, 30, 45 and 60, n = d + 1, 200 and
  2000, sigma 0.3, 1e-3 and 0, anchors 0, 1e3 and 1e9, where the d-term
  products of decomposition round most;
* line d <= 300: 1000-point line clouds in d = 150 and 300, sigma 1e-3,
  anchor 1e3, where the solver's eigenvectors lose most orthogonality;
* gapped: conftest.gapped_cloud in d = 2 to 8, relgap 1 to 1e-12, three
  seeds, at offsets 0 and 1e3;
* near-collinear 3-d: 3000 line clouds in d = 3, n from 3 to 2000, sigma 0
  or 10^-16 to 10^-7, anchors 1 to 1e9, where lam2 and lam3 nearly
  coincide.

Run with -s, the module prints the worst measured / tol per family and
record, and the number of clouds (README, Numerical notes). For
grid-agreement the ratio is that of its upper end; its lower end is judged
by the PASS. The last test keeps hand-set tolerances from coming back:
check_fit and cmd_compare hold no float literal in (0, 1).
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import gapped_cloud, line_cloud

import orthofit
from orthofit.fit import check_fit
from orthofit.geometry import PointSet

RESOLUTION_DEG = 2.0


def _line_clouds():
    for d in (2, 3, 4, 5, 8, 12):
        for n in (10, 1000):
            for anchor in (0.0, 1e3, 1e9):
                for sigma in (0.1, 1e-3, 0.0):
                    for seed in range(2):
                        rng = np.random.default_rng([d, n, int(anchor), int(sigma * 1e4), seed])
                        yield line_cloud(rng, n, d, sigma=sigma, anchor_scale=anchor)[0]


def _large_clouds():
    for d in (2, 3, 12):
        for anchor in (0.0, 1e9):
            for sigma in (0.1, 0.0):
                rng = np.random.default_rng([d, int(anchor), int(sigma * 10)])
                yield line_cloud(rng, 200_000, d, sigma=sigma, anchor_scale=anchor)[0]


def _wide_clouds():
    for d in (20, 30, 45, 60):
        for n in (d + 1, 200, 2000):
            for sigma in (0.3, 1e-3, 0.0):
                for anchor in (0.0, 1e3, 1e9):
                    rng = np.random.default_rng([d, n, int(sigma * 1e4), int(anchor)])
                    yield line_cloud(rng, n, d, sigma=sigma, anchor_scale=anchor)[0]


def _very_wide_clouds():
    for d in (150, 300):
        rng = np.random.default_rng([d, 1000, 10, 1000])
        yield line_cloud(rng, 1000, d, sigma=1e-3, anchor_scale=1e3)[0]


def _gapped_clouds():
    for d in range(2, 9):
        for digits in range(0, 13, 2):
            for seed in range(3):
                for offset in (0.0, 1e3):
                    yield gapped_cloud(d, digits, seed) + offset


def _near_collinear_clouds():
    rng = np.random.default_rng(2024)
    for i in range(3000):
        n = int(np.exp(rng.uniform(np.log(3.0), np.log(2000.0))))
        sigma = 0.0 if i % 10 == 0 else 10.0 ** rng.uniform(-16.0, -7.0)
        anchor = 10.0 ** rng.uniform(0.0, 9.0)
        yield line_cloud(rng, n, 3, sigma=sigma, anchor_scale=anchor)[0]


FAMILIES = {
    "line": _line_clouds,
    "line n=2e5": _large_clouds,
    "line d<=60": _wide_clouds,
    "line d<=300": _very_wide_clouds,
    "gapped": _gapped_clouds,
    "near-collinear 3-d": _near_collinear_clouds,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_record_passes_on_clean_clouds(family, record):
    for i, cloud in enumerate(FAMILIES[family]()):
        for r in check_fit(PointSet(cloud), RESOLUTION_DEG):
            if r.status != "SKIP":
                record(f"{family}: {r.name}", r.measured / r.tol)
                assert r.status == "PASS", (family, i, r)


@pytest.mark.parametrize("module, name", [("fit.py", "check_fit"), ("cli.py", "cmd_compare")])
def test_no_hand_set_tolerance(module, name):
    tree = ast.parse((Path(orthofit.__file__).parent / module).read_text(encoding="utf-8"))
    body = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)
    literals = [
        node.value
        for node in ast.walk(body)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value < 1.0
    ]
    assert literals == [], f"{name} holds float literals {literals}"
