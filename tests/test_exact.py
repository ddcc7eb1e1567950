"""An exact reference for the fitted direction of small clouds.

Every float64 is a dyadic rational, so the centroid and the scatter S of
the stored points are exact fractions.Fraction values; here S = M / L^2
with M an integer matrix. The two largest eigenvalues of S are bracketed
to 45 digits of its trace by bisection on the inertia of M - lam I
(Sylvester's law: the number of negative pivots of Gaussian elimination is
the number of eigenvalues below lam), computed in exact integers. The
dominant eigenvector comes from inverse iteration from a fixed start,
shifted to the upper end of the largest eigenvalue's bracket, with each
iterate rounded to 60 digits. Of orthofit only fit_tls_line runs here, on
a PointSet of the cloud, so the reference shares no code with the fit.

The angle between the fit's direction s and that eigenvector is held to
two bounds, evaluated at 60 digits:

1. Davis-Kahan: sin(angle) <= |S s - rho s| / (rho - lam2) for a unit s
   with Rayleigh quotient rho > lam2; the right side also bounds the
   angle itself at the small angles met here. FLOOR, far below any float64
   angle, is added to it: where the fit returns an exact eigenvector the
   residual is exactly 0, while the reference, rounded to 60 digits, reads
   an angle near 1e-60.
2. The solver's skip test: Jacobi leaves an off-diagonal entry only when
   it is at most eps / 2 of a matrix whose largest entry is at least 1/2,
   that is at most eps max|S|. The dominant column of the rotated matrix
   then has an off-diagonal part of norm at most sqrt(d - 1) eps max|S|,
   which for d <= 4 is at most sqrt(3) eps |S|_F, and that residual over
   the gap bounds the angle by Davis-Kahan on the rotated matrix. So the
   angle is at most c eps |S|_F / (lam1 - lam2) + 64 eps, with C_SKIP = 2
   for c: the margin over sqrt(3) covers the rotations' and the scatter's
   own rounding, a few eps |S| that the gap amplifies alike, and 64 eps
   the rounding of the final normalization.

Each eigenvalue enters the bounds at the end of its bracket that makes the
bound larger. Run as a script, the module prints, per family, the worst
angle and the worst ratio of the angle to the skip-test bound.
"""

from __future__ import annotations

import math
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from orthofit.fit import fit_tls_line
from orthofit.geometry import PointSet

PRECISION = Context(prec=60)
# Bisection stops when a bracket is this share of the trace wide.
BRACKET_WIDTH = Fraction(1, 10**45)
# Inverse iteration starts here (powers of the golden ratio's inverse,
# truncated): a fixed vector that no family below is orthogonal to.
START = (
    Fraction(1),
    Fraction("0.6180339887498948482"),
    Fraction("0.3819660112501051518"),
    Fraction("0.2360679774997896964"),
)
N_POINTS = 64
# The Davis-Kahan bound's floor, and c of the skip-test bound.
FLOOR = Decimal("1e-50")
C_SKIP = 2
SEEDS = (0, 1, 2)
# Where eigenvalue_bracket tries to split a bracket, in order.
SHARES = tuple(Fraction(*f) for f in ((1, 2), (2, 5), (3, 5), (3, 7), (4, 7), (2, 7), (5, 7)))


def _spread_cloud(rng, d, gap):
    """N_POINTS points whose scatter has eigenvalues about n (1 + gap), n,
    n / 4 and n / 16 (the first d of them), along random orthogonal axes."""
    z = rng.standard_normal((N_POINTS, d))
    axes, _ = np.linalg.qr(z - z.mean(axis=0))
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = np.sqrt([1.0 + gap, 1.0, 0.25, 0.0625][:d]) * math.sqrt(N_POINTS)
    return (axes * sigma) @ rotation.T


def _collinear_cloud(rng, d):
    """Integer points on a line with an integer direction: exactly collinear."""
    direction = rng.integers(1, 10, d) * rng.choice([-1, 1], d)
    n = int(rng.integers(2, N_POINTS + 1))
    t = rng.permutation(101)[:n] - 50
    anchor = rng.integers(-1000, 1001, d)
    return (anchor + t[:, None] * direction).astype(np.float64)


def cloud(family, value, d, seed):
    rng = np.random.default_rng([seed, d])
    if family == "gap":
        return _spread_cloud(rng, d, value)
    if family == "offset":
        return _spread_cloud(rng, d, 1e-2) + value
    if family == "scale":
        return np.ldexp(_spread_cloud(rng, d, 1e-2), value)
    return _collinear_cloud(rng, d)


FAMILIES = (
    *(("gap", g) for g in (1.0, 1e-2, 1e-4, 1e-6)),
    *(("offset", o) for o in (0.0, 1e6, 1e12)),
    *(("scale", k) for k in (-480, 480)),
    ("collinear", None),
)
CASES = [(f, v, d, seed) for f, v in FAMILIES for d in (2, 3, 4) for seed in SEEDS]


def _case_id(case):
    family, value, d, seed = case
    label = family if value is None else f"{family}_{value:g}"
    return f"{label}-d{d}-seed{seed}"


def exact_scatter(points):
    """The scatter of the stored points times L^2, as an integer matrix,
    with L the least common denominator of the centered coordinates."""
    rows = [[Fraction(x) for x in row] for row in points.tolist()]
    centroid = [sum(column, Fraction(0)) / len(rows) for column in zip(*rows)]
    centered = [[x - c for x, c in zip(row, centroid)] for row in rows]
    scale = math.lcm(*(y.denominator for row in centered for y in row))
    ints = [[int(y * scale) for y in row] for row in centered]
    d = len(centroid)
    return [[sum(r[i] * r[j] for r in ints) for j in range(d)] for i in range(d)]


def count_below(m, lam):
    """How many eigenvalues of the integer matrix m lie below the Fraction
    lam, or None when elimination meets a zero pivot before the last.

    Bareiss elimination of q m - p I (lam = p / q) leaves the leading
    principal minors on the diagonal, and Gaussian elimination's k-th pivot
    is the ratio of the k-th minor to the one before; a zero last pivot
    means lam is an eigenvalue and adds none below it.
    """
    d = len(m)
    p, q = lam.numerator, lam.denominator
    a = [[q * m[i][j] - (p if i == j else 0) for j in range(d)] for i in range(d)]
    below, prev = 0, 1
    for k in range(d):
        pivot = a[k][k]
        if pivot == 0:
            return None if k < d - 1 else below
        below += (pivot < 0) != (prev < 0)
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return below


def eigenvalue_bracket(m, rank):
    """(lo, hi) holding the rank-th largest eigenvalue of the positive
    semidefinite integer matrix m, lo <= lam < hi, hi - lo at most
    BRACKET_WIDTH of the trace."""
    d = len(m)
    trace = sum(m[i][i] for i in range(d))
    lo, hi = Fraction(-1), Fraction(trace + 1)
    while hi - lo > BRACKET_WIDTH * trace:
        # Elimination fails only where one of the leading blocks of sizes
        # 1 to d - 1 of m - lam I is singular, at no more than d (d - 1) / 2
        # points, 6 for d <= 4, so one of seven distinct trial points inside
        # the bracket always gives a count.
        for share in SHARES:
            mid = lo + (hi - lo) * share
            below = count_below(m, mid)
            if below is not None:
                break
        if below >= d - rank + 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _solve(a, b):
    """x with a x = b, by Gauss-Jordan elimination in Fractions."""
    d = len(b)
    rows = [[Fraction(x) for x in (*row, v)] for row, v in zip(a, b)]
    for k in range(d):
        pivot = max(range(k, d), key=lambda i: abs(rows[i][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(d):
            if i != k:
                f = rows[i][k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [rows[k][d] / rows[k][k] for k in range(d)]


def dominant_vector(m, shift):
    """Three steps of inverse iteration on m - shift I from START, each
    iterate scaled to a largest component of 1 and rounded to 60 digits."""
    d = len(m)
    a = [[m[i][j] - (shift if i == j else 0) for j in range(d)] for i in range(d)]
    v = list(START[:d])
    with localcontext(PRECISION):
        for _ in range(3):
            w = _solve(a, v)
            top = max(w, key=abs)
            v = [Fraction(_decimal(x / top)) for x in w]
    return v


def _asin(x: Decimal) -> Decimal:
    """arcsin by its Taylor series, for 0 <= x < 1/2."""
    total, power, coeff, k = Decimal(0), x, Decimal(1), 0
    while True:
        term = coeff * power / (2 * k + 1)
        if total + term == total:
            return total
        total += term
        coeff = coeff * (2 * k + 1) / (2 * k + 2)
        power *= x * x
        k += 1


def angle(s, v) -> Decimal:
    """Angle between the vectors s and v (float or Fraction), at 60 digits:
    2 asin of half the chord between their unit vectors, signs aligned."""
    with localcontext(PRECISION):
        s = [_decimal(Fraction(x)) for x in s]
        v = [_decimal(Fraction(x)) for x in v]
        s_norm = sum(x * x for x in s).sqrt()
        v_norm = sum(x * x for x in v).sqrt()
        sign = 1 if sum(x * y for x, y in zip(s, v)) >= 0 else -1
        chord = sum((x / s_norm - sign * y / v_norm) ** 2 for x, y in zip(s, v)).sqrt()
        assert chord < 1, chord
        return 2 * _asin(chord / 2)


def _residual(m, v, lam) -> Decimal:
    """|m v - lam v| / |v|, rounded to the context's precision."""
    mv = [sum(a * x for a, x in zip(row, v)) for row in m]
    return _decimal(sum((y - lam * x) ** 2 for x, y in zip(v, mv)) / sum(x * x for x in v)).sqrt()


def judge(case):
    """(angle, Davis-Kahan bound, stopping-rule bound) for one case."""
    points = cloud(*case)
    m = exact_scatter(points)
    trace = sum(m[i][i] for i in range(len(m)))
    lam1_lo, lam1_hi = eigenvalue_bracket(m, 1)
    _, lam2_hi = eigenvalue_bracket(m, 2)
    vector = dominant_vector(m, lam1_hi)
    s = [Fraction(x) for x in fit_tls_line(PointSet(points)).line.direction]
    mss = sum(x * sum(a * y for a, y in zip(row, s)) for x, row in zip(s, m))
    rho = mss / sum(x * x for x in s)
    assert rho > lam2_hi
    with localcontext(PRECISION):
        # The reference is an eigenvector to within the bracket's width.
        assert _residual(m, vector, lam1_hi) <= Decimal("1e-40") * trace
        davis_kahan = _residual(m, s, rho) / _decimal(rho - lam2_hi) + FLOOR
        frobenius = Decimal(sum(x * x for row in m for x in row)).sqrt()
        eps = Decimal(sys.float_info.epsilon)
        stopping = C_SKIP * eps * frobenius / _decimal(lam1_lo - lam2_hi) + 64 * eps
    return angle(s, vector), davis_kahan, stopping


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_angle_is_within_both_bounds(case):
    theta, davis_kahan, stopping = judge(case)
    assert theta <= davis_kahan, (theta, davis_kahan)
    assert theta <= stopping, (theta, stopping)


def test_count_below_reads_a_known_spectrum():
    # diag(1, 2, 3) turned by q, which is 3 times an orthogonal matrix: the
    # spectrum is 9, 18 and 27. At an eigenvalue the last pivot is zero and
    # adds none below; at m[0][0] = 21 the first pivot is zero.
    q = [[1, 2, 2], [2, 1, -2], [2, -2, 1]]
    m = [[sum(q[i][k] * (k + 1) * q[j][k] for k in range(3)) for j in range(3)] for i in range(3)]
    lams = (8, 9, 10, 18, 21, 26, 27, 28)
    counts = {lam: count_below(m, Fraction(lam)) for lam in lams}
    assert counts == {8: 0, 9: 0, 10: 1, 18: 1, 21: None, 26: 2, 27: 2, 28: 3}
    for rank, exact in ((1, 27), (2, 18), (3, 9)):
        lo, hi = eigenvalue_bracket(m, rank)
        assert lo <= exact < hi


if __name__ == "__main__":
    worst = {}
    for case in CASES:
        key = _case_id(case).rsplit("-", 2)[0]
        theta, _, stopping = judge(case)
        old_theta, old_ratio = worst.get(key, (Decimal(0), Decimal(0)))
        worst[key] = (max(old_theta, theta), max(old_ratio, theta / stopping))
    print(f"{'family':<12} {'angle':>9} {'ratio':>9}")
    for key, (theta, ratio) in worst.items():
        print(f"{key:<12} {float(theta):9.3g} {float(ratio):9.3g}")
