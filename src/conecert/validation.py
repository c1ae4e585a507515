"""Input validation helpers shared across the package.

Matrices are plain float ndarrays.  Symmetric matrices are kept exactly
symmetric (S == S.T elementwise); anything computed from float products is
passed through ``symmetrize`` before it is stored or compared.
"""

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "as_square",
    "as_symmetric",
    "symmetrize",
    "require_finite",
    "frobenius",
]


def require_finite(name, a):
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_matrix(name, a, rows=None, cols=None):
    """Coerce to a 2-D float array with optional shape constraints."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {a.shape[1]}")
    return require_finite(name, a)


def as_vector(name, a, length=None):
    a = np.asarray(a, dtype=float)
    if a.ndim == 2 and 1 in a.shape:
        a = a.reshape(-1)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if length is not None and a.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {a.shape[0]}")
    return require_finite(name, a)


def as_square(name, a, dim=None):
    a = as_matrix(name, a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"{name} must be {dim}x{dim}, got {a.shape[0]}x{a.shape[0]}")
    return a


def frobenius(name, a, axis=None):
    """Frobenius norm of a, or of each matrix of a stack over axis, without overflow."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, axis=axis)  # inf once the squares overflow, from about 1e154
        if (norm if axis is None else norm.max(initial=0.0)) < np.inf:
            return norm
        top = np.maximum(np.max(np.abs(a), axis=axis, keepdims=True), 1e-300)
        norm = top.reshape(np.shape(norm)) * np.linalg.norm(a / top, axis=axis)
    if not np.isfinite(norm).all():
        raise ValueError(f"{name} is too large: its Frobenius norm overflows")
    return norm


def symmetrize(S):
    """Exactly symmetric part 0.5*(S + S.T); idempotent on symmetric input."""
    S = np.asarray(S, dtype=float)
    return 0.5 * (S + S.T)


def as_symmetric(name, a, dim=None):
    """Coerce to an exactly symmetric square matrix.

    Input asymmetry beyond 1e-8 * (1 + ||a||_F) is an error; smaller
    asymmetry is folded away by symmetrizing.
    """
    a = as_square(name, a, dim=dim)
    tol = 1e-8 * (1.0 + frobenius(name, a))
    skew = np.max(np.abs(a - a.T)) if a.size else 0.0
    if skew > tol:
        raise ValueError(f"{name} is not symmetric (max asymmetry {skew:.3e})")
    return symmetrize(a)
