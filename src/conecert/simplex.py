"""Dense two-phase simplex for equality-form linear programs.

Solves   min c'x  s.t.  Ax = b, x >= 0   on dense tableaus.  Bland's rule
is used for both the entering and leaving choices, so the method cannot
cycle and is fully deterministic.  Intended for desk-scale problems (tens
of variables); no sparsity, no revised factorizations.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "solve_lp", "PIVOT_TOL", "FEAS_TOL"]

PIVOT_TOL = 1e-9  # entries smaller than this never pivot
FEAS_TOL = 1e-8  # phase-1 objective above this means infeasible


@dataclass
class SimplexResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None
    objective: float | None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    # eliminate the pivot column from every other row, objective included
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _bland_iterate(T, basis, ncols, max_iter):
    """Run simplex pivots on tableau T until optimal or unbounded.

    T layout: rows 0..m-1 are constraints with rhs in the last column,
    row m is the reduced-cost row.  Only columns < ncols may enter.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        obj = T[m, :ncols]
        entering = -1
        for j in range(ncols):
            if obj[j] < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        # ratio test; ties broken by smallest basis variable index (Bland)
        leaving = -1
        best = np.inf
        for i in range(m):
            a = T[i, entering]
            if a > PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(T, basis, leaving, entering)
    raise RuntimeError(f"simplex exhausted its budget of {max_iter} pivots in one phase")


def solve_lp(c, A, b, max_iter=None):
    """Minimize c'x subject to Ax = b, x >= 0.

    Returns a SimplexResult; x is None unless status is 'optimal'.
    Phase-1 'unbounded' cannot occur (the artificial objective is bounded
    below by 0); phase-2 unbounded is reported as such.  Each phase has a
    budget of max_iter pivots, 200 (m + n + 10) by default; running out of
    it raises RuntimeError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if A.ndim != 2:
        raise ValueError("A must be 2-D")
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError("inconsistent LP dimensions")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ValueError("LP data must be finite")
    if max_iter is None:
        max_iter = 200 * (m + n + 10)

    # phase 1: nonnegative rhs, artificial basis
    A1 = A.copy()
    b1 = b.copy()
    neg = b1 < 0
    A1[neg] *= -1.0
    b1[neg] *= -1.0

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A1
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b1
    # reduced costs for cost = sum of artificials
    T[m, :n] = -A1.sum(axis=0)
    T[m, -1] = -b1.sum()
    basis = list(range(n, n + m))

    status = _bland_iterate(T, basis, n + m, max_iter)
    if status != "optimal":
        raise RuntimeError(f"phase 1 ended {status!r}; its objective is bounded below")
    if -T[m, -1] > FEAS_TOL:
        return SimplexResult("infeasible", None, None)

    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(T[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant constraint row
            _pivot(T, basis, i, pivot_col)
        keep.append(i)

    rows = keep + [m]
    T2 = np.concatenate([T[rows, :n], T[rows, -1:]], axis=1)
    basis2 = [basis[i] for i in keep]
    # rebuild the objective row for the real costs
    T2[-1, :n] = c
    T2[-1, -1] = 0.0
    for i, bi in enumerate(basis2):
        T2[-1] -= c[bi] * T2[i]

    status = _bland_iterate(T2, basis2, n, max_iter)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None)

    x = np.zeros(n)
    for i, bi in enumerate(basis2):
        x[bi] = T2[i, -1]
    return SimplexResult("optimal", x, float(c @ x))
