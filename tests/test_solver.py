import dataclasses
import math

import numpy as np
import pytest

from orthofit import solver
from orthofit.errors import (
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotSymmetric,
    ZeroVector,
)
from orthofit.geometry import (
    SIGN_EPS,
    ParametricLine,
    PointSet,
    _symmetric_scaled,
    canonical_direction,
    center,
    line_distances_sq,
)
from orthofit.scatter import accumulate_scatter
from orthofit.solver import (
    dominant_eigenpair,
    finite_diff_gradient,
    quadratic_objective,
    stationarity_forms,
)


def random_symmetric(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((d, d)) * scale
    return m + m.T


def direction_of(sol):
    """The direction a line built from sol's dominant column holds."""
    return canonical_direction(sol.eigenvectors[:, 0])


def summary_for(seed: int, n: int, dim: int):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, dim))
    centered, _ = center(PointSet(pts))
    return accumulate_scatter(centered)


class TestDominantEigenpair:
    def test_diagonal_matrix(self):
        sol = dominant_eigenpair(np.diag([3.0, 2.0, 1.0]))
        assert np.array_equal(direction_of(sol), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(sol.spectrum, np.array([3.0, 2.0, 1.0]))
        assert not sol.ambiguous

    def test_identity_is_ambiguous(self):
        sol = dominant_eigenpair(np.eye(3))
        assert sol.ambiguous
        assert np.array_equal(sol.spectrum, np.ones(3))

    def test_zero_matrix(self):
        sol = dominant_eigenpair(np.zeros((3, 3)))
        assert np.array_equal(sol.spectrum, np.zeros(3))
        assert sol.ambiguous

    def test_known_2x2(self):
        # [[2, 1], [1, 2]] has eigenpairs (3, (1,1)/sqrt2), (1, (1,-1)/sqrt2).
        sol = dominant_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(sol.spectrum[0] - 3.0) <= 1e-14
        assert abs(sol.spectrum[1] - 1.0) <= 1e-14
        assert np.max(np.abs(direction_of(sol) - np.sqrt(0.5))) <= 1e-12

    def test_matches_lapack_spectrum(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            a = random_symmetric(rng, d, scale=float(10 ** rng.uniform(-2, 2)))
            sol = dominant_eigenpair(a)
            ref = np.linalg.eigvalsh(a)[::-1]
            fro = float(np.linalg.norm(a))
            assert np.max(np.abs(sol.spectrum - ref)) <= 1e-10 * max(fro, 1e-300)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tiny", [1e-200, 1e-310])
    def test_entries_under_the_skip_test_are_left_alone(self, tiny):
        # Both tiny entries, one subnormal, are far below eps / 2 of the
        # scaled matrix, so no rotation turns the third axis, and none
        # could overflow: only the (0, 1) pair rotates, with |diff| and
        # |2 apq| both of order one.
        a = np.array([[1.0, 1.0, tiny], [1.0, 2.0, 0.0], [tiny, 0.0, 3.0]])
        sol = dominant_eigenpair(a)
        assert direction_of(sol).tobytes() == np.array([0.0, 0.0, 1.0]).tobytes()
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(sol.spectrum - ref)) <= 1e-14

    def test_reconstructs_input(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            a = random_symmetric(rng, d)
            sol = dominant_eigenpair(a)
            v = sol.eigenvectors
            rebuilt = v @ np.diag(sol.spectrum) @ v.T
            assert np.max(np.abs(rebuilt - a)) <= 1e-11 * max(float(np.linalg.norm(a)), 1.0)

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            v = dominant_eigenpair(random_symmetric(rng, d)).eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(d))) <= 1e-12

    def test_each_pair_satisfies_eigen_equation(self):
        rng = np.random.default_rng(29)
        a = random_symmetric(rng, 5)
        sol = dominant_eigenpair(a)
        fro = float(np.linalg.norm(a))
        for j in range(5):
            v = sol.eigenvectors[:, j]
            residual = float(np.linalg.norm(a @ v - sol.spectrum[j] * v))
            assert residual <= 1e-10 * fro

    def test_spectrum_sorted_descending(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sol = dominant_eigenpair(random_symmetric(rng, 4))
            assert np.all(np.diff(sol.spectrum) <= 0.0)

    def test_scaling_matrix_scales_rayleigh_not_direction(self):
        rng = np.random.default_rng(37)
        a = random_symmetric(rng, 3)
        a = a @ a.T  # make the dominant eigenvalue unambiguous in sign
        base = dominant_eigenpair(a)
        scaled = dominant_eigenpair(10.0 * a)
        assert np.max(np.abs(direction_of(scaled) - direction_of(base))) <= 1e-12
        # The top eigenvalue is the Rayleigh quotient's value at the direction.
        top, base_top = scaled.spectrum[0], base.spectrum[0]
        assert abs(top - 10.0 * base_top) <= 1e-12 * abs(top)

    def test_ambiguity_threshold(self):
        near = dominant_eigenpair(np.diag([1.0, 1.0 - 1e-9, 0.5]))
        assert near.ambiguous
        clear = dominant_eigenpair(np.diag([1.0, 1.0 - 1e-7, 0.5]))
        assert not clear.ambiguous

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetric):
            dominant_eigenpair(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric):
            dominant_eigenpair(np.ones((2, 3)))
        # Judged on the scaled matrix, reported unscaled; a skew past the
        # float64 maximum reads inf instead of raising OverflowError.
        with pytest.raises(NotSymmetric, match=r"= 8\.29903e\+180 at scale 8\.29903e\+180"):
            dominant_eigenpair(np.ldexp([[1.0, 2.0], [0.0, 1.0]], 600))
        with pytest.raises(NotSymmetric, match=r"= inf at scale 1e\+308"):
            dominant_eigenpair(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    def test_non_finite_matrix_is_typed(self):
        with pytest.raises(NonFinite, match="non-finite values in matrix"):
            dominant_eigenpair(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_matrix_must_be_two_dimensional(self):
        for bad in (np.ones(3), np.ones((2, 2, 2))):
            with pytest.raises(DimensionMismatch, match="matrix must be a 2-d array"):
                dominant_eigenpair(bad)

    def test_tiny_asymmetry_is_tolerated(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        sol = dominant_eigenpair(a)
        assert abs(sol.spectrum[0] - 3.0) <= 1e-9

    @pytest.mark.parametrize("d", [6])
    def test_no_convergence_with_one_sweep(self, monkeypatch, d):
        monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
        rng = np.random.default_rng(41)
        a = random_symmetric(rng, d)
        with pytest.raises(NoConvergence):
            dominant_eigenpair(a)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        # Above the Jacobi's domain, eigh's LinAlgError is the typed error.
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        a = random_symmetric(np.random.default_rng(41), solver._SCALAR_MAX_DIM + 1)
        with pytest.raises(NoConvergence, match="Eigenvalues did not converge"):
            dominant_eigenpair(a)

    def test_empty_matrix_is_typed(self):
        with pytest.raises(DimensionMismatch, match="matrix is empty"):
            dominant_eigenpair(np.zeros((0, 0)))

    def test_direction_is_canonical(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            sol = dominant_eigenpair(random_symmetric(rng, 3))
            for component in direction_of(sol):
                if abs(component) > 1e-12:
                    assert component > 0.0
                    break


def per_entry_jacobi(matrix):
    """The cyclic Jacobi with one scalar update per matrix entry, the
    reference dominant_eigenpair's Jacobi must match bit for bit;
    returns (spectrum, eigenvectors, direction) as it reports them. It
    skips a pair whose entry is at most eps / 2 and stops after a sweep
    that skips every pair."""
    a, exp = _symmetric_scaled(matrix)
    d = a.shape[0]
    v = np.eye(d)
    for _ in range(solver.MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= np.finfo(np.float64).eps / 2:
                    continue
                rotated = True
                diff = a[q, q] - a[p, p]
                if diff == 0.0:
                    t = 1.0
                else:
                    two_apq = 2.0 * apq
                    denom = abs(diff) + math.hypot(diff, two_apq)
                    t = math.copysign(1.0, diff) * two_apq / denom
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                for k in range(d):
                    if k == p or k == q:
                        continue
                    akp, akq = a[k, p], a[k, q]
                    a[k, p] = a[p, k] = c * akp - s * akq
                    a[k, q] = a[q, k] = s * akp + c * akq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        if not rotated:
            break
    # The numpy tail, written out here so that it shares no code with the
    # solver's scalar one: a stable argsort, the argmax-lead sign rule, a
    # power-of-two scaling before the norm, and np.ldexp's scale-back.
    order = np.argsort(-np.diag(a), kind="stable")
    vectors = numpy_signs(v[:, order])
    spectrum = np.ldexp(np.diag(a)[order], exp)
    _, top = math.frexp(float(np.abs(vectors[:, 0]).max()))
    w = np.ldexp(vectors[:, 0], -top)
    return spectrum, vectors, numpy_signs(w / np.linalg.norm(w))


def numpy_signs(vectors):
    """Each column of a matrix, or a lone vector, negated when its first
    component above SIGN_EPS in magnitude is negative."""
    lead = (np.abs(vectors) > SIGN_EPS).argmax(axis=0)
    first = vectors[lead] if vectors.ndim == 1 else vectors[lead, np.arange(vectors.shape[1])]
    return np.where(first < -SIGN_EPS, -vectors, vectors)


def rotation_cases(dims=range(1, 17), reps=3):
    """reps matrices of each of five kinds for each d in dims."""
    rng = np.random.default_rng(2024)
    for i in range(len(dims) * 5 * reps):
        d = dims[i % len(dims)]
        kind = i // len(dims) % 5
        if kind == 0:
            m = random_symmetric(rng, d)
        elif kind == 1:
            m = np.zeros((d, d))
        elif kind == 2:
            m = np.diag(rng.standard_normal(d))
        elif kind == 3:
            m = random_symmetric(rng, d).round()
            m[np.diag_indices(d)] = 1.0
        else:
            m = np.diag(rng.standard_normal(d))
            m[0, -1] = m[-1, 0] = (1e-200, 1e-310)[i % 2] if d > 1 else 0.0
        yield np.ldexp(m, int(rng.choice([-500, -37, 0, 0, 41, 500])))


def test_column_rotations_match_the_per_entry_sweep_bit_for_bit():
    # The Jacobi's pairwise updates must do, entry for entry, the float
    # operations the per-entry sweep did: same bytes in every output, over
    # d 1-16, scales 2^+-500, zero, diagonal, tied and nearly diagonal
    # matrices.
    for m in rotation_cases():
        sol = dominant_eigenpair(m)
        spectrum, vectors, direction = per_entry_jacobi(m)
        assert sol.spectrum.tobytes() == spectrum.tobytes()
        assert sol.eigenvectors.tobytes() == vectors.tobytes()
        assert direction_of(sol).tobytes() == direction.tobytes()


def adversarial_matrices(dims=(2, 3, 5, 8, 12, 20, 26, 30)):
    """Symmetric matrices of each d in dims that are hard on a Jacobi
    iteration: random, rank 1 and 2, a cluster of equal eigenvalues,
    spectra graded down to 1e-20 and small integers, each scaled by
    2^-1000, 1 and 2^1000. d = 26 is the largest the Jacobi solves; d = 30
    takes eigh through the same scaling gate."""
    for d in dims:
        for seed in range(3):
            rng = np.random.default_rng([d, seed])
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            u, w = rng.standard_normal(d), rng.standard_normal(d)
            cluster = np.where(np.arange(d) <= d // 2, 1.0, rng.uniform(0.0, 2.0, d))
            for m in (
                random_symmetric(rng, d),
                np.outer(u, u),
                np.outer(u, u) - 0.5 * np.outer(w, w),
                (q * cluster) @ q.T,
                (q * np.logspace(0.0, -20.0, d)) @ q.T,
                random_symmetric(rng, d).round(),
            ):
                for k in (-1000, 0, 1000):
                    yield np.ldexp(0.5 * (m + m.T), k)


def test_adversarial_matrices_converge():
    # Every Jacobi matrix reaches a sweep with nothing left to rotate
    # within MAX_SWEEPS, and eigh converges on the rest (NoConvergence
    # would fail the test), at LAPACK's spectrum.
    for m in adversarial_matrices():
        sol = dominant_eigenpair(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(sol.spectrum - ref)) <= 1e-12 * np.max(np.abs(m))


class TestObjective:
    def test_known_values(self):
        summary = accumulate_scatter(
            PointSet(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        )
        assert quadratic_objective(summary, [1.0, 0.0, 0.0]) == 0.0
        assert quadratic_objective(summary, [0.0, 1.0, 0.0]) == 2.0
        assert quadratic_objective(summary, [1.0, 1.0, 0.0]) == 1.0

    def test_zero_direction_raises(self):
        summary = summary_for(3, 10, 3)
        with pytest.raises(ZeroVector):
            quadratic_objective(summary, np.zeros(3))

    def test_scale_invariant_in_direction(self):
        summary = summary_for(5, 25, 4)
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = rng.standard_normal(4)
            c = float(10 ** rng.uniform(-3, 3))
            a = quadratic_objective(summary, s)
            b = quadratic_objective(summary, c * s)
            assert abs(a - b) <= 1e-12 * max(a, 1e-300)

    def test_matches_per_point_distances(self):
        rng = np.random.default_rng(7)
        pts = PointSet(rng.uniform(-2.0, 2.0, (30, 3)))
        centered, c = center(pts)
        summary = accumulate_scatter(centered)
        for _ in range(100):
            s = rng.standard_normal(3)
            line = ParametricLine(c, s)
            direct = float(np.sum(line_distances_sq(pts, line)))
            form = quadratic_objective(summary, s)
            assert abs(direct - form) <= 1e-9 * summary.total_sq_norm

    def test_rayleigh_bracketing(self):
        summary = summary_for(11, 40, 3)
        sol = dominant_eigenpair(summary.complement)
        lo, hi = float(sol.spectrum[-1]), float(sol.spectrum[0])
        rng = np.random.default_rng(12)
        margin = 1e-12 * summary.total_sq_norm
        for _ in range(100):
            value = quadratic_objective(summary, rng.standard_normal(3))
            assert lo - margin <= value <= hi + margin


def analytic_gradient(summary, s) -> np.ndarray:
    """Gradient of s^T C s / s^T s: 2 / (s^T s)^2 times the complement form."""
    s = np.asarray(s, dtype=np.float64)
    return 2.0 / float(s @ s) ** 2 * stationarity_forms(summary, s)[0]


class TestGradient:
    def test_finite_diff_matches_analytic(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 5):
            summary = summary_for(100 + dim, 30, dim)
            for _ in range(20):
                s = rng.standard_normal(dim)
                analytic = analytic_gradient(summary, s)
                numeric = finite_diff_gradient(summary, s)
                assert (
                    float(np.linalg.norm(analytic - numeric))
                    <= 1e-6 * summary.total_sq_norm
                )

    def test_vanishes_at_dominant_direction(self):
        summary = summary_for(23, 40, 3)
        direction = direction_of(dominant_eigenpair(summary.scatter))
        xi = summary.total_sq_norm
        assert float(np.linalg.norm(analytic_gradient(summary, direction))) <= 1e-10 * xi
        assert float(np.linalg.norm(finite_diff_gradient(summary, direction))) <= 1e-6 * xi


class TestStationarityForms:
    def test_hand_computed_example(self):
        summary = accumulate_scatter(
            PointSet(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        )
        form_a, form_b = stationarity_forms(summary, np.array([1.0, 1.0, 0.0]))
        expected = np.array([-2.0, 2.0, 0.0])
        assert np.array_equal(form_a, expected)
        assert np.array_equal(form_b, expected)

    def test_forms_agree_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for trial in range(200):
            dim = (2, 3, 5)[trial % 3]
            summary = summary_for(200 + trial, int(rng.integers(5, 40)), dim)
            s = rng.standard_normal(dim) * float(10 ** rng.uniform(-2, 2))
            form_a, form_b = stationarity_forms(summary, s)
            scale = max(
                float(np.max(np.abs(form_a))), float(np.max(np.abs(form_b))), 1e-30
            )
            assert np.max(np.abs(form_a - form_b)) <= 1e-9 * scale

    def test_vanishes_at_eigenvector(self):
        summary = summary_for(37, 30, 3)
        direction = direction_of(dominant_eigenpair(summary.scatter))
        form_a, form_b = stationarity_forms(summary, direction)
        xi = summary.total_sq_norm
        assert float(np.linalg.norm(form_a)) <= 1e-12 * xi
        assert float(np.linalg.norm(form_b)) <= 1e-12 * xi


class TestStackedDiagnostics:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 50])
    def test_each_row_matches_the_single_call(self, dim, k):
        summary = summary_for(300 + dim, 25, dim)
        rng = np.random.default_rng([dim, k])
        stack = rng.standard_normal((k, dim)) * 10.0 ** rng.uniform(-2.0, 2.0, (k, 1))
        values = quadratic_objective(summary, stack)
        forms_a, forms_b = stationarity_forms(summary, stack)
        assert values.shape == (k,)
        assert forms_a.shape == forms_b.shape == (k, dim)
        for row, value, form_a, form_b in zip(stack, values, forms_a, forms_b):
            single = quadratic_objective(summary, row)
            assert isinstance(single, float)
            assert abs(value - single) <= 1e-12 * abs(single)
            single_a, single_b = stationarity_forms(summary, row)
            assert single_a.shape == single_b.shape == (dim,)
            for stacked, one in ((form_a, single_a), (form_b, single_b)):
                scale = float(np.max(np.abs(one)))
                assert np.max(np.abs(stacked - one)) <= 1e-12 * scale

    def test_any_zero_row_is_rejected(self):
        summary = summary_for(51, 10, 3)
        stack = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ZeroVector):
            quadratic_objective(summary, stack)
        with pytest.raises(ZeroVector):
            stationarity_forms(summary, stack)

    @pytest.mark.parametrize("length", [2, 4])
    def test_direction_of_another_dimension_is_typed(self, length):
        summary = summary_for(55, 10, 3)
        s = np.ones(length)
        for call in (quadratic_objective, finite_diff_gradient, stationarity_forms):
            with pytest.raises(DimensionMismatch, match="direction has dimension"):
                call(summary, s)

    def test_rows_are_validated(self):
        summary = summary_for(53, 10, 2)
        with pytest.raises(NonFinite):
            quadratic_objective(summary, np.array([[1.0, 0.0], [np.inf, 1.0]]))
        with pytest.raises(DimensionMismatch):
            stationarity_forms(summary, np.ones((2, 2, 2)))


class TestMinimality:
    def test_dominant_direction_minimizes_complement_form(self):
        summary = summary_for(43, 35, 3)
        best = quadratic_objective(summary, direction_of(dominant_eigenpair(summary.scatter)))
        rng = np.random.default_rng(44)
        slack = 1e-12 * summary.total_sq_norm
        for _ in range(1000):
            competitor = rng.standard_normal(3)
            assert quadratic_objective(summary, competitor) >= best - slack


def test_removed_names_are_gone():
    # The eigen-residual has one route (check's decomposition record) and
    # the analytic gradient one (stationarity_forms' complement form).
    # The 3-d factorization (in oracle, not scatter), the stationarity
    # forms, the quadratic form and its finite-difference gradient stay for
    # the acceptance criteria, but leave the package namespace. The
    # solver reports no Rayleigh quotient: the top eigenvalue is spectrum[0].
    import orthofit
    from orthofit import errors, scatter

    for name in ("stationarity_residual", "objective_gradient", "NotUnit", "cross_matrix",
                 "rejection_matrix", "stationarity_forms", "quadratic_objective",
                 "finite_diff_gradient"):
        assert name not in orthofit.__all__
        assert not hasattr(orthofit, name)
    assert not hasattr(solver, "stationarity_residual")
    assert not hasattr(scatter, "cross_matrix")
    assert not hasattr(scatter, "rejection_matrix")
    assert not hasattr(solver, "objective_gradient")
    assert not hasattr(errors, "NotUnit")
    assert "rayleigh" not in {f.name for f in dataclasses.fields(solver.EigenSolution)}
