"""Tests for the sparse lowering, CSC kernels and factorized-basis machinery.

Four layers are covered:

* :class:`repro.optim.sparse.SparseMatrix` kernel correctness against dense
  numpy references;
* session coefficient patches: a batched row patch equals the same patches
  made one at a time, and a patch that keeps the sparsity pattern refreshes
  the canonical LP in place (a fresh lowering's entries, under a new stamp)
  while one that grows the pattern re-lowers it;
* the lowering of randomized models against the models themselves: at a
  random point, every lowered row and the lowered objective must reproduce
  the value of the expression it came from;
* the revised simplex's factorized basis: Forrest-Tomlin spike solves
  against explicit dense references and against :class:`DenseEtaFactor`
  (the dense product-form eta file, kept here as the test oracle),
  refactorization after long update chains, and the
  one-canonicalization-per-MILP-solve contract of branch and bound.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.optim import Model, lin_sum
from repro.optim import instrumentation as instr
from repro.optim.errors import ModelError
from repro.optim.simplex import (
    SimplexSolver,
    _REFACTOR_INTERVAL,
    _BasisFactor,
    _canonicalize,
    _resumable,
    solve_standard_form,
)
from repro.optim.sparse import SparseMatrix


class DenseEtaFactor(_BasisFactor):
    """Reference basis factor: the dense product-form eta file.

    Each update stores the whole transformed entering column ``w``, so
    FTRAN/BTRAN pay O(m) per update, and the factor refactorizes every
    :data:`_REFACTOR_INTERVAL` updates.  It shares the LU base of
    :class:`_BasisFactor` and must be the same operator as the
    Forrest-Tomlin spike file (see ``test_ft_spikes_match_dense_etas``);
    the Rocketfuel benchmark patches it in as its baseline numeric core.
    """

    __slots__ = ("_etas_r", "_etas_w")

    def __init__(self, lp, basis, art_sign) -> None:
        super().__init__(lp, basis, art_sign)
        self._etas_r: List[int] = []
        self._etas_w: List[np.ndarray] = []

    def clone(self) -> "DenseEtaFactor":
        dup = super().clone()
        dup._etas_r = list(self._etas_r)
        dup._etas_w = list(self._etas_w)
        return dup

    @property
    def n_etas(self) -> int:
        return len(self._etas_r)

    def needs_refactor(self) -> bool:
        return len(self._etas_r) >= _REFACTOR_INTERVAL

    def update(self, row: int, w: np.ndarray) -> None:
        instr.add("eta_updates")
        self._etas_r.append(int(row))
        self._etas_w.append(w)

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        x = self._base_solve(rhs)
        for r, w in zip(self._etas_r, self._etas_w):
            xr = x[r] / w[r]
            x -= w * xr
            x[r] = xr
        return x

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        v = rhs.astype(float, copy=True)
        for r, w in zip(reversed(self._etas_r), reversed(self._etas_w)):
            v[r] = (v[r] - (w @ v - w[r] * v[r])) / w[r]
        return self._base_solve_T(v)


class TestSparseMatrix:
    def test_from_coo_sorts_and_sums_duplicates(self):
        A = SparseMatrix.from_coo([1, 0, 1], [0, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        assert A.nnz == 2
        assert A.get(1, 0) == pytest.approx(6.0)
        assert A.get(0, 1) == pytest.approx(3.0)
        np.testing.assert_allclose(A.to_dense(), [[0.0, 3.0], [6.0, 0.0]])

    def test_explicit_zeros_are_kept_in_the_pattern(self):
        A = SparseMatrix.from_coo([0], [0], [0.0], (1, 2))
        assert A.nnz == 1
        assert not A.set(0, 0, 5.0)  # value update, no structural growth
        assert A.get(0, 0) == pytest.approx(5.0)

    def test_set_reports_fill_in(self):
        A = SparseMatrix.from_coo([0], [0], [1.0], (2, 2))
        assert A.set(1, 1, 2.0)  # brand-new entry grows the pattern
        assert A.nnz == 2
        np.testing.assert_allclose(A.to_dense(), [[1.0, 0.0], [0.0, 2.0]])

    def test_set_row_equals_one_set_per_entry(self):
        # Stored entries, fill-in and repeated columns, at random: the
        # batched write must leave the matrix one set() per entry leaves it.
        rng = np.random.default_rng(11)
        for trial in range(300):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            dense = rng.uniform(-1, 1, (m, n)) * (rng.random((m, n)) < 0.4)
            batched, single = SparseMatrix.from_dense(dense), SparseMatrix.from_dense(dense)
            row = int(rng.integers(m))
            cols = rng.integers(0, n, size=int(rng.integers(0, 8)))
            vals = rng.uniform(-2, 2, size=cols.size)
            grew = False
            for col, val in zip(cols, vals):
                grew |= single.set(row, int(col), float(val))
            assert batched.set_row(row, cols, vals) == grew, trial
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(batched, part), getattr(single, part)), trial

    def test_set_row_checks_every_index_before_writing(self):
        A = SparseMatrix.from_coo([0, 1], [0, 1], [1.0, 2.0], (2, 3))
        for row, cols in ((0, [0, 3]), (0, [-1, 0]), (2, [0])):
            with pytest.raises(IndexError):
                A.set_row(row, np.array(cols), np.full(len(cols), 5.0))
        assert A.nnz == 2
        assert np.array_equal(A.data, [1.0, 2.0])

    def test_hstack_columns_matches_dense_concat(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            nl, nr = rng.integers(0, 6, size=2)
            dl = rng.random((m, nl)) * (rng.random((m, nl)) < 0.5)
            dr = rng.random((m, nr)) * (rng.random((m, nr)) < 0.5)
            stacked = SparseMatrix.hstack_columns(
                SparseMatrix.from_dense(dl), SparseMatrix.from_dense(dr)
            )
            np.testing.assert_allclose(stacked.to_dense(), np.hstack((dl, dr)))

    def test_hstack_columns_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="row mismatch"):
            SparseMatrix.hstack_columns(
                SparseMatrix.zeros((2, 1)), SparseMatrix.zeros((3, 1))
            )

    def test_append_columns_widens_in_place(self):
        rng = np.random.default_rng(31)
        base = rng.random((5, 3)) * (rng.random((5, 3)) < 0.5)
        block = rng.random((5, 4)) * (rng.random((5, 4)) < 0.5)
        A = SparseMatrix.from_dense(base)
        A.append_columns(SparseMatrix.from_dense(block))
        assert A.shape == (5, 7)
        np.testing.assert_allclose(A.to_dense(), np.hstack((base, block)))
        # The widened matrix must feed every kernel correctly (caches were
        # invalidated, not left pointing at the narrower pattern).
        x = rng.standard_normal(7)
        np.testing.assert_allclose(A.matvec(x), np.hstack((base, block)) @ x)
        y = rng.standard_normal(5)
        np.testing.assert_allclose(
            A.rmatvec_range(2, 6, y), np.hstack((base, block))[:, 2:6].T @ y
        )

    def test_append_columns_rejects_row_mismatch(self):
        A = SparseMatrix.zeros((2, 2))
        with pytest.raises(ValueError, match="row mismatch"):
            A.append_columns(SparseMatrix.zeros((3, 1)))

    def test_take_columns_gathers_in_order(self):
        rng = np.random.default_rng(37)
        dense = rng.random((4, 6)) * (rng.random((4, 6)) < 0.5)
        A = SparseMatrix.from_dense(dense)
        picked = A.take_columns([5, 0, 3, 3])
        np.testing.assert_allclose(picked.to_dense(), dense[:, [5, 0, 3, 3]])
        empty = A.take_columns([])
        assert empty.shape == (4, 0)
        assert empty.nnz == 0

    def test_matvec_and_rmatvec_match_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            dense = rng.random((m, n)) * (rng.random((m, n)) < 0.4)
            A = SparseMatrix.from_dense(dense)
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            np.testing.assert_allclose(A.matvec(x), dense @ x, atol=1e-12)
            np.testing.assert_allclose(A.rmatvec(y), dense.T @ y, atol=1e-12)

    def test_rmatvec_cache_survives_value_updates_not_fill_in(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        A = SparseMatrix.from_dense(dense)
        y = np.array([3.0, 4.0])
        np.testing.assert_allclose(A.rmatvec(y), dense.T @ y)
        A.set(0, 0, 7.0)  # in-place value update
        np.testing.assert_allclose(A.rmatvec(y), [21.0, 8.0])
        A.set(1, 0, 5.0)  # fill-in invalidates the cached segment structure
        np.testing.assert_allclose(A.rmatvec(y), [41.0, 8.0])

    def test_rmatvec_range_matches_dense_blocks(self):
        """The partial-pricing kernel: every [lo, hi) slice agrees with the
        dense reference, the full range agrees with rmatvec, empty is empty."""
        rng = np.random.default_rng(23)
        for _ in range(15):
            m, n = rng.integers(1, 9, size=2)
            dense = rng.random((m, n)) * (rng.random((m, n)) < 0.4)
            A = SparseMatrix.from_dense(dense)
            y = rng.standard_normal(m)
            for lo in range(int(n)):
                hi = int(rng.integers(lo, n)) + 1
                np.testing.assert_allclose(
                    A.rmatvec_range(lo, hi, y), dense[:, lo:hi].T @ y, atol=1e-12
                )
            np.testing.assert_allclose(A.rmatvec_range(0, int(n), y), A.rmatvec(y))
            assert A.rmatvec_range(0, 0, y).size == 0

    @staticmethod
    def _row_kernel_matrix(rng, m, n):
        """A random CSC matrix with an empty row, an empty column, explicit
        zeros and one column of at least 9 entries (``np.add.reduceat``
        sums segments that long pairwise)."""
        dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.3)
        long_col = int(rng.integers(n))
        dense[rng.choice(m, size=max(9, m // 2), replace=False), long_col] = 1.0 + rng.random()
        dense[int(rng.integers(m)), :] = 0.0
        dense[:, (long_col + 1) % n] = 0.0
        rows, cols = np.nonzero(dense)
        zr, zc = rng.integers(m, size=3), rng.integers(n, size=3)
        keep = dense[zr, zc] == 0.0
        rows = np.concatenate((rows, zr[keep]))
        cols = np.concatenate((cols, zc[keep]))
        vals = np.concatenate((dense[np.nonzero(dense)], np.zeros(int(keep.sum()))))
        return SparseMatrix.from_coo(rows, cols, vals, (m, n))

    @staticmethod
    def _assert_row_kernel_matches(A, y):
        cols, vals = A.rmatvec_rows(y, A.nnz)
        full = A.rmatvec(y)
        stored = np.zeros(A.shape, dtype=bool)
        stored[A.indices, A.col_ids()] = True
        assert np.array_equal(cols, np.flatnonzero(stored[y != 0].any(axis=0)))
        out = np.zeros(A.shape[1])
        out[cols] = vals
        assert np.array_equal(out, full, equal_nan=True)

    def test_rmatvec_rows_is_bit_identical_to_rmatvec(self):
        """The dual pivot-row kernel: the columns rho's nonzero rows touch
        (explicit zeros count), summed exactly as ``rmatvec`` sums them."""
        rng = np.random.default_rng(41)
        for trial in range(60):
            m = int(rng.integers(10, 300 if trial % 10 == 0 else 40))
            n = int(rng.integers(2, 30))
            A = self._row_kernel_matrix(rng, m, n)
            for density in (0.0, 0.05, 0.3, 1.0):
                y = rng.standard_normal(m) * (rng.random(m) < density)
                self._assert_row_kernel_matches(A, y)

    def test_rmatvec_rows_propagates_non_finite_y(self):
        rng = np.random.default_rng(43)
        for bad in (np.nan, np.inf, -np.inf):
            A = self._row_kernel_matrix(rng, 20, 12)
            y = rng.standard_normal(20) * (rng.random(20) < 0.2)
            y[int(A.indices[0])] = bad  # a row holding a stored entry
            self._assert_row_kernel_matches(A, y)
            _, vals = A.rmatvec_rows(y, A.nnz)
            assert not np.all(np.isfinite(vals))

    def test_rmatvec_rows_follows_patches_and_appends(self):
        rng = np.random.default_rng(47)
        A = self._row_kernel_matrix(rng, 15, 10)
        y = rng.standard_normal(15) * (rng.random(15) < 0.4)
        self._assert_row_kernel_matches(A, y)  # builds the row index
        index = A._row_index
        row, col = int(A.indices[0]), int(A.col_ids()[0])
        assert not A.set(row, col, 3.25)  # a data-only patch
        assert A._row_index is index
        self._assert_row_kernel_matches(A, y)
        empty_col = int(np.flatnonzero(np.diff(A.indptr) == 0)[0])
        assert A.set(int(np.flatnonzero(y)[0]), empty_col, -1.5)  # fill-in
        self._assert_row_kernel_matches(A, y)
        A.append_columns(self._row_kernel_matrix(rng, 15, 6))
        assert A.shape == (15, 16)
        self._assert_row_kernel_matches(A, y)

    def test_rmatvec_rows_declines_rows_over_the_entry_budget(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0], [5.0, 0.0, 0.0]]))
        y = np.array([1.0, 0.0, 2.0])  # rows 0 and 2 hold 3 stored entries
        assert A.rmatvec_rows(y, 2) is None
        cols, vals = A.rmatvec_rows(y, 3)
        assert cols.tolist() == [0, 1]
        assert vals.tolist() == [11.0, 2.0]
        cols, vals = A.rmatvec_rows(np.zeros(3), 0)
        assert cols.size == 0 and vals.size == 0

    def test_gather_col_and_getitem(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        A = SparseMatrix.from_dense(dense)
        out = A.gather_col(2, np.zeros(2))
        np.testing.assert_allclose(out, [2.0, 0.0])
        assert A[1, 1] == pytest.approx(3.0)
        assert A[0, 1] == 0.0
        with pytest.raises(IndexError):
            A.set(5, 0, 1.0)

    def test_scipy_round_trip(self):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        dense = np.array([[0.0, 1.5], [2.5, 0.0]])
        A = SparseMatrix.from_dense(dense)
        np.testing.assert_allclose(A.to_scipy().toarray(), dense)


def _random_model(rng: np.random.Generator) -> Model:
    """A random LP/MILP exercising every variable class and constraint sense,
    with a constant term in the objective."""
    n = int(rng.integers(2, 8))
    n_rows = int(rng.integers(1, 7))
    model = Model("prop", sense="max" if rng.random() < 0.5 else "min")
    xs = []
    for i in range(n):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            xs.append(model.add_var(f"x{i}", lb=-np.inf))
        elif kind == 1:
            xs.append(model.add_var(f"x{i}", lb=float(rng.uniform(-4, 1))))
        elif kind == 2:
            lo = float(rng.uniform(-3, 1))
            xs.append(model.add_var(f"x{i}", lb=lo, ub=lo + float(rng.uniform(0.5, 5))))
        elif kind == 3:
            xs.append(model.add_var(f"x{i}", vartype="binary"))
        else:
            xs.append(model.add_var(f"x{i}", lb=0.0, ub=float(rng.uniform(1, 6))))
    for row in range(n_rows):
        coeffs = rng.uniform(-2, 2, size=n)
        coeffs[rng.random(n) < 0.4] = 0.0
        expr = lin_sum(float(c) * x for c, x in zip(coeffs, xs))
        rhs = float(rng.uniform(-4, 4))
        sense = int(rng.integers(0, 3))
        if sense == 0:
            model.add_constr(expr <= rhs, name=f"c{row}")
        elif sense == 1:
            model.add_constr(expr >= rhs, name=f"c{row}")
        else:
            model.add_constr(expr == rhs, name=f"c{row}")
    objective = lin_sum(float(c) * x for c, x in zip(rng.uniform(-2, 2, size=n), xs))
    model.set_objective(objective + float(rng.uniform(-3, 3)))
    return model


class TestLoweringEquivalence:
    """Property: the lowering reproduces the model it came from."""

    def test_rows_and_objective_match_the_model_at_random_points(self):
        """Oracle independent of the lowering: each constraint's expression
        (right-hand side folded in) evaluated at a random point must equal
        its lowered row residual times the row's sign, and the lowered
        objective must equal the model objective in minimization sense."""
        rng = np.random.default_rng(20260729)
        for _ in range(60):
            model = _random_model(rng)
            form = model.to_standard_form()
            x = rng.uniform(-5.0, 5.0, size=model.num_vars)
            point = {var.name: float(x[var.index]) for var in model.variables}
            residual = {
                "ub": form.A_ub.matvec(x) - form.b_ub,
                "eq": form.A_eq.matvec(x) - form.b_eq,
            }
            rows_seen = {"ub": set(), "eq": set()}
            for constr in model.constraints:
                kind, row, sign = form.row_map[constr.name]
                rows_seen[kind].add(row)
                assert kind == ("eq" if constr.sense == "==" else "ub")
                assert sign == (-1.0 if constr.sense == ">=" else 1.0)
                assert residual[kind][row] == pytest.approx(
                    sign * constr.expr.value(point), rel=1e-12, abs=1e-12
                )
            # Every lowered row belongs to exactly one constraint.
            assert rows_seen["ub"] == set(range(form.A_ub.shape[0]))
            assert rows_seen["eq"] == set(range(form.A_eq.shape[0]))
            objective = model.objective.value(point)
            expected = -objective if model.sense == "max" else objective
            assert float(form.c @ x) + form.objective_offset == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )
            assert form.names == [var.name for var in model.variables]
            np.testing.assert_array_equal(form.lb, [var.lb for var in model.variables])
            np.testing.assert_array_equal(form.ub, [var.ub for var in model.variables])
            np.testing.assert_array_equal(
                form.integrality, [int(var.is_integer) for var in model.variables]
            )

    def test_zero_coefficient_terms_stay_in_the_pattern(self):
        model = Model("zeros", sense="min")
        x, y = model.add_var("x"), model.add_var("y")
        model.add_constr(1.0 * x + 0.0 * y <= 3, name="row")
        model.set_objective(x + y)
        form = model.to_standard_form()
        assert form.A_ub.nnz == 2  # the zero coefficient is stored explicitly
        assert form.A_ub.get(0, y.index) == 0.0


class TestBasisFactor:
    """The LU + eta-file machinery against explicit dense references."""

    def _canonical_fixture(self, rng, m=12):
        """A canonical LP whose first ``m`` columns form a well-conditioned
        basis, with ``m`` further dense-ish columns available to enter."""
        model = Model("factor", sense="min")
        xs = [model.add_var(f"x{i}", lb=0.0, ub=10.0) for i in range(2 * m)]
        for i in range(m):
            coeffs = rng.uniform(-1, 1, size=2 * m) * (rng.random(2 * m) < 0.4)
            coeffs[i] = float(rng.uniform(4, 6))  # strongly diagonal basis block
            expr = lin_sum(float(c) * x for c, x in zip(coeffs, xs))
            model.add_constr(expr == float(rng.uniform(1, 5)), name=f"r{i}")
        model.set_objective(lin_sum(xs))
        return _canonicalize(model.to_standard_form())

    def test_eta_updates_track_explicit_basis_replacements(self):
        rng = np.random.default_rng(3)
        lp = self._canonical_fixture(rng)
        m = lp.m
        basis = np.arange(m, dtype=np.int64)
        art_sign = np.ones(m)
        factor = _BasisFactor(lp, basis, art_sign)
        B = np.stack([lp.A.gather_col(j, np.zeros(m)) for j in basis], axis=1)

        updates = 0
        attempts = 0
        while updates < 40 and attempts < 400:  # well past _REFACTOR_INTERVAL
            attempts += 1
            q = int(rng.integers(0, lp.n))
            if q in basis:
                continue
            col = lp.A.gather_col(q, np.zeros(m))
            w = factor.ftran(col)
            r = int(np.argmax(np.abs(w)))
            if abs(w[r]) < 1e-6:
                continue
            factor.update(r, w)
            basis[r] = q
            B[:, r] = col
            updates += 1

            rhs = rng.standard_normal(m)
            np.testing.assert_allclose(factor.ftran(rhs.copy()), np.linalg.solve(B, rhs), atol=1e-7)
            np.testing.assert_allclose(
                factor.btran(rhs.copy()), np.linalg.solve(B.T, rhs), atol=1e-7
            )
        assert updates == 40
        assert factor.needs_refactor()  # long eta file demands refactorization
        fresh = _BasisFactor(lp, basis, art_sign)
        rhs = rng.standard_normal(m)
        np.testing.assert_allclose(fresh.ftran(rhs.copy()), factor.ftran(rhs.copy()), atol=1e-6)

    @pytest.mark.parametrize(
        "factor_class", [_BasisFactor, DenseEtaFactor], ids=["ft-spikes", "dense-etas"]
    )
    def test_clone_is_copy_on_write(self, factor_class):
        """A child's updates must never leak into the parent, in either
        update representation: the parent's update file stays empty and its
        solves stay bitwise-identical to before the clone pivoted."""
        rng = np.random.default_rng(5)
        lp = self._canonical_fixture(rng)
        m = lp.m
        basis = np.arange(m, dtype=np.int64)
        factor = factor_class(lp, basis, np.ones(m))
        rhs = rng.standard_normal(m)
        before_ftran = factor.ftran(rhs.copy())
        before_btran = factor.btran(rhs.copy())
        clone = factor.clone()
        assert type(clone) is factor_class
        col = lp.A.gather_col(m, np.zeros(m))
        w = factor.ftran(col)
        clone.update(int(np.argmax(np.abs(w))), w)
        clone.update(int(np.argmin(np.abs(w - 1.0))), clone.ftran(col.copy()))
        assert clone.n_etas == 2
        assert factor.n_etas == 0  # the original's update file is untouched
        np.testing.assert_array_equal(factor.ftran(rhs.copy()), before_ftran)
        np.testing.assert_array_equal(factor.btran(rhs.copy()), before_btran)

    def test_ft_spikes_match_dense_etas(self):
        """Property: over one shared pivot sequence, the Forrest-Tomlin
        spike file and the reference dense-eta file are the same operator
        (FTRAN and BTRAN agree to 1e-9 on random right-hand sides)."""
        rng = np.random.default_rng(9)
        lp = self._canonical_fixture(rng)
        m = lp.m
        basis = np.arange(m, dtype=np.int64)
        dense = DenseEtaFactor(lp, basis, np.ones(m))
        ft = _BasisFactor(lp, basis, np.ones(m))
        updates = 0
        attempts = 0
        while updates < 30 and attempts < 300:
            attempts += 1
            q = int(rng.integers(0, lp.n))
            if q in basis:
                continue
            col = lp.A.gather_col(q, np.zeros(m))
            w_ft = ft.ftran(col.copy())
            w_dense = dense.ftran(col.copy())
            np.testing.assert_allclose(w_ft, w_dense, atol=1e-9)
            r = int(np.argmax(np.abs(w_ft)))
            if abs(w_ft[r]) < 1e-6:
                continue
            ft.update(r, w_ft)
            dense.update(r, w_dense)
            basis[r] = q
            updates += 1
            rhs = rng.standard_normal(m)
            np.testing.assert_allclose(ft.ftran(rhs.copy()), dense.ftran(rhs.copy()), atol=1e-9)
            np.testing.assert_allclose(ft.btran(rhs.copy()), dense.btran(rhs.copy()), atol=1e-9)
        assert updates == 30
        assert ft._spike_nnz > 0  # spikes, not etas, carried the FT side

    def test_warm_chain_triggers_refactorization_and_stays_exact(self):
        """A long warm-started re-solve chain must refactorize and keep
        matching a cold solve of the same data (eta-drift regression)."""
        from repro.optim import SolverSession
        from repro.optim.simplex import solve_standard_form

        rng = np.random.default_rng(17)
        model = Model("chain", sense="min")
        xs = [model.add_var(f"x{i}", ub=10.0) for i in range(6)]
        model.add_constr(lin_sum(xs) >= 6.0, name="cover")
        model.add_constr(xs[0] + 2 * xs[1] + 3 * xs[2] >= 3.0, name="mix")
        model.add_constr(xs[3] + xs[4] >= 1.0, name="pair")
        model.set_objective(lin_sum(float(c) * x for c, x in zip([2, 1, 3, 1.5, 2.5, 1.2], xs)))
        session = SolverSession(model, backend="simplex")
        instr.reset()
        for step in range(25 * max(1, _REFACTOR_INTERVAL // 8)):
            for name, hi in (("cover", 12.0), ("mix", 6.0), ("pair", 4.0)):
                rhs = float(rng.uniform(0.5, hi))
                session.update_constraint_rhs(name, rhs)
                model.update_constraint_rhs(name, rhs)  # mirrored ground truth
            warm = session.solve()
            cold = solve_standard_form(model.to_standard_form())
            assert warm.status is cold.status, f"step {step}"
            if cold.objective is not None:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-6), f"step {step}"
        assert instr.get("eta_updates") > _REFACTOR_INTERVAL
        assert instr.get("refactorizations") >= 1


class TestCanonicalizationContract:
    def test_branch_and_bound_canonicalizes_once(self, monkeypatch):
        """The whole B&B tree shares one canonicalization; per-node work is
        bound patches and basis updates (the PR's acceptance contract)."""
        from repro.optim import branch_and_bound
        from repro.optim.branch_and_bound import solve_milp

        rng = np.random.default_rng(3)
        model = Model("cover", sense="min")
        xs = [model.add_var(f"z{i}", vartype="binary") for i in range(12)]
        for row in range(8):
            coeffs = rng.uniform(0.1, 1.0, size=12)
            model.add_constr(lin_sum(float(c) * x for c, x in zip(coeffs, xs)) >= 2.0)
        model.set_objective(lin_sum(float(w) * x for w, x in zip(rng.uniform(1, 3, size=12), xs)))
        form = model.to_standard_form()
        instr.reset()
        # No cut rounds: each one re-lowers the (extended) form by design,
        # so the one-canonicalization contract applies to the tree.
        monkeypatch.setattr(branch_and_bound, "_MAX_CUT_ROUNDS", 0)
        solution = solve_milp(form)
        assert solution.is_optimal
        assert solution.iterations >= 2  # a real tree was explored...
        # One LP per node plus the strong-branching probes that initialize
        # the pseudocosts -- all warm solves against the same lowering.
        assert instr.get("lp_solves") == solution.iterations + instr.get("strong_branch_probes")
        assert instr.get("canonicalizations") == 1  # ...over one lowering

    def test_simplex_solver_reuses_canonical_structure(self):
        model = Model("reuse", sense="min")
        x = model.add_var("x", lb=0.0, ub=4.0)
        y = model.add_var("y", lb=0.0, ub=4.0)
        model.add_constr(x + y >= 2, name="cover")
        model.set_objective(x + 2 * y)
        solver = SimplexSolver(model.to_standard_form())
        instr.reset()
        sol1, basis = solver.solve()
        lb = np.array([1.0, 0.0])
        ub = np.array([4.0, 4.0])
        sol2, _ = solver.solve(lb=lb, ub=ub, warm_basis=basis)
        assert sol1.objective == pytest.approx(2.0)
        assert sol2.objective == pytest.approx(2.0)
        assert instr.get("canonicalizations") == 1

    def test_bound_class_change_recanonicalizes(self):
        model = Model("reclass", sense="min")
        x = model.add_var("x", lb=-np.inf)  # free at the root: split column
        model.add_constr(x >= -5, name="floor")
        model.set_objective(x)
        solver = SimplexSolver(model.to_standard_form())
        instr.reset()
        sol1, _ = solver.solve()
        assert sol1.objective == pytest.approx(-5.0)
        # A finite bound changes the free classification: new structure.
        sol2, _ = solver.solve(lb=np.array([-2.0]), ub=np.array([np.inf]))
        assert sol2.objective == pytest.approx(-2.0)
        assert instr.get("canonicalizations") == 2


def _patch_model() -> Model:
    """An LP with a free column (split in two canonical columns), a ``>=``
    row (lowered negated), a ``<=`` row and an equality row.  ``z`` is not
    in row ``ge``, so patching it there grows the pattern."""
    model = Model("patch", sense="min")
    x = model.add_var("x", lb=0.0, ub=4.0)
    y = model.add_var("y", lb=-np.inf)
    z = model.add_var("z", lb=0.0, ub=3.0)
    model.add_constr(x + 2 * y >= 1, name="ge")
    model.add_constr(x - y + z <= 5, name="le")
    model.add_constr(y + z == 1, name="eq")
    model.set_objective(x + y + 2 * z)
    return model


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_matrix(a: SparseMatrix, b: SparseMatrix) -> bool:
    return a.shape == b.shape and all(
        _same_bits(getattr(a, part), getattr(b, part)) for part in ("indptr", "indices", "data")
    )


class TestSessionCoefficientPatches:
    """A batched coefficient patch is the one-coefficient patches made at
    once, and a patch that keeps the pattern refreshes the canonical LP in
    place instead of re-lowering it."""

    def test_batched_patch_equals_one_coefficient_patches(self):
        patches = [
            ("ge", ["x", "y", "z"], [1.5, -0.5, 2.0]),  # sign flip; z grows the pattern
            ("eq", ["z", "y"], [0.25, 3.0]),
            ("le", ["y"], [0.0]),  # an explicit zero stays in the pattern
        ]
        batched = _patch_model().session(backend="simplex")
        single = _patch_model().session(backend="simplex")
        for name, variables, coeffs in patches:
            batched.update_constraint_coeffs(name, variables, coeffs)
            for var, coeff in zip(variables, coeffs):
                single.update_constraint_coeff(name, var, coeff)
        assert _same_matrix(batched.form.A_ub, single.form.A_ub)
        assert _same_matrix(batched.form.A_eq, single.form.A_eq)
        _, ge_row, sign = batched.form.row_map["ge"]
        assert sign == -1.0 and batched.form.A_ub.get(ge_row, 2) == -2.0
        assert batched.form.A_ub.nnz == _patch_model().to_standard_form().A_ub.nnz + 1
        assert batched.solve().objective == single.solve().objective

    def test_rejected_batch_writes_nothing(self):
        session = _patch_model().session(backend="simplex")
        before = (session.form.A_ub.copy(), session.form.A_eq.copy())
        with pytest.raises(ModelError, match="finite"):
            session.update_constraint_coeffs("ge", ["x", "z", "y"], [2.0, 1.0, float("nan")])
        with pytest.raises(ModelError, match="coefficients"):
            session.update_constraint_coeffs("ge", ["x", "y"], [2.0])
        with pytest.raises(ModelError, match="no variable"):
            session.update_constraint_coeffs("ge", ["x", "z", "w"], [2.0, 1.0, 1.0])
        with pytest.raises(ModelError, match="no constraint"):
            session.update_constraint_coeffs("gone", ["x"], [2.0])
        assert _same_matrix(session.form.A_ub, before[0])
        assert _same_matrix(session.form.A_eq, before[1])

    def test_data_patch_regathers_the_canonical_lp_under_a_new_stamp(self):
        form = _patch_model().to_standard_form()
        solver = SimplexSolver(form)
        _, token = solver.solve()
        lp = solver._lp
        assert lp.negated.any()  # the free column's minus part is gathered negated
        form.A_ub.data *= 1.5
        form.A_eq.data -= 0.25
        solver.refresh(pattern_grew=False)
        assert solver._lp is lp
        assert lp.stamp != token.factor.stamp and not _resumable(token, lp)
        fresh = _canonicalize(form)
        assert _same_matrix(lp.A, fresh.A)
        assert _same_bits(lp.source, fresh.source) and _same_bits(lp.negated, fresh.negated)

    def test_pattern_growth_relowers_the_canonical_lp(self):
        form = _patch_model().to_standard_form()
        solver = SimplexSolver(form)
        solver.solve()
        lp = solver._lp
        assert form.A_ub.set(form.row_map["ge"][1], 2, -2.0)
        solver.refresh(pattern_grew=True)
        instr.reset()
        solution, _ = solver.solve()
        assert instr.get("canonicalizations") == 1
        assert solver._lp is not lp and _same_matrix(solver._lp.A, _canonicalize(form).A)
        assert solution.objective == pytest.approx(solve_standard_form(form).objective, abs=1e-9)

    @pytest.mark.parametrize("grow", [False, True])
    def test_session_re_solves_match_cold_solves(self, grow):
        session = _patch_model().session(backend="simplex")
        session.solve()
        lp = session._simplex._lp
        session.update_constraint_coeffs("ge", ["x", "y"], [1.5, -0.5])
        session.update_constraint_coeffs("eq", ["y", "z"], [2.0, 0.5])
        if grow:
            session.update_constraint_coeffs("ge", ["z"], [0.75])
        instr.reset()
        solution = session.solve()
        assert instr.get("canonicalizations") == int(grow)
        assert (session._simplex._lp is lp) is not grow
        assert _same_matrix(session._simplex._lp.A, _canonicalize(session.form).A)
        cold = solve_standard_form(session.form)
        assert solution.objective == pytest.approx(cold.objective, abs=1e-9)
