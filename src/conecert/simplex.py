"""Dense two-phase simplex for equality-form linear programs.

Solves   min c'x  s.t.  Ax = b, x >= 0   on dense tableaus.  Bland's rule
is used for both the entering and leaving choices, so the method cannot
cycle and is fully deterministic.  A zero-cost LP (a feasibility question)
ends at phase 1: x is read from the phase-1 tableau once the artificials
are driven out, since a phase 2 with zero costs would make no pivot.
Intended for desk-scale problems (tens of variables); no sparsity, no
revised factorizations.
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
    factors = T[:, col, None].copy()
    factors[row] = 0.0
    T -= factors * T[row]
    basis[row] = col


def _bland_iterate(T, basis, ncols, max_iter):
    """Run simplex pivots on tableau T until optimal or unbounded.

    T layout: rows 0..m-1 are constraints with rhs in the last column,
    row m is the reduced-cost row.  Only columns < ncols may enter.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        entering = -1
        for j, r in enumerate(T[m, :ncols].tolist()):
            if r < -PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        # ratio test; ties broken by smallest basis variable index (Bland)
        leaving = -1
        best = np.inf
        rhs = T[:m, -1].tolist()
        for i, a in enumerate(T[:m, entering].tolist()):
            if a > PIVOT_TOL:
                ratio = rhs[i] / a
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
    Phase-1 'unbounded' cannot occur in exact arithmetic (the artificial
    objective is bounded below by 0); where rounding makes it occur, the
    RuntimeError names the column.  Phase-2 unbounded is reported as such.
    Each phase has a budget of max_iter pivots, 200 (m + n + 10) by
    default; running out of it raises RuntimeError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    if A.ndim != 2:
        raise ValueError("A must be 2-D")
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("LP data must be finite")
    if max_iter is None:
        max_iter = 200 * (m + n + 10)

    # phase 1: nonnegative rhs, artificial basis
    A1 = A.copy()
    b1 = b.copy()
    neg = b1 < 0
    if neg.any():
        A1[neg] *= -1.0
        b1[neg] *= -1.0

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A1
    np.fill_diagonal(T[:m, n : n + m], 1.0)
    T[:m, -1] = b1
    # reduced costs for cost = sum of artificials
    T[m, :n] = -A1.sum(axis=0)
    T[m, -1] = -b1.sum()
    basis = list(range(n, n + m))

    status = _bland_iterate(T, basis, n + m, max_iter)
    if status != "optimal":
        col = int(np.argmax(T[m, : n + m] < -PIVOT_TOL))
        raise RuntimeError(
            f"phase 1 ended {status!r}: column {col} has reduced cost {T[m, col]:.3e} "
            f"but no entry above {PIVOT_TOL:g}, so the tableau lost its accuracy "
            "at this scale"
        )
    if -T[m, -1] > FEAS_TOL:
        return SimplexResult("infeasible", None, None)

    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j, v in enumerate(T[i, :n].tolist()):
                if abs(v) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant constraint row
            _pivot(T, basis, i, pivot_col)
        keep.append(i)

    basis2 = [basis[i] for i in keep]
    if c.any():
        rows = keep + [m]
        T2 = np.concatenate([T[rows, :n], T[rows, -1:]], axis=1)
        # rebuild the objective row for the real costs
        T2[-1, :n] = c
        T2[-1, -1] = 0.0
        for i, bi in enumerate(basis2):
            T2[-1] -= c[bi] * T2[i]
        if _bland_iterate(T2, basis2, n, max_iter) == "unbounded":
            return SimplexResult("unbounded", None, None)
        rhs = T2[:-1, -1]
    else:  # with zero costs phase 2 would make no pivot
        rhs = T[keep, -1]
    x = np.zeros(n)
    x[basis2] = rhs
    return SimplexResult("optimal", x, float(c @ x))
