"""Small dense linear-algebra helpers used throughout the library."""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite

# Singular values below PINV_RTOL * sigma_max are treated as zero everywhere a
# pseudo-inverse or rank decision is taken, so that rank decisions agree
# between modules.
PINV_RTOL = 1e-10

# Scale-aware PSD slack: eigenvalues >= -PSD_SLACK * max(1, lambda_max).
PSD_SLACK = 1e-10


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce scalars/lists to a float 2-D array, optionally checking shape."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if rows is not None and cols is not None and m.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {m.shape}")
    return m


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (A + A^T)/2 of a matrix or of each in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def asymmetry(a: np.ndarray) -> float:
    """Frobenius norm of the skew part, ||A - A^T||_F."""
    return float(np.linalg.norm(a - a.T))


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(sym(a))[0])


def is_psd(a: np.ndarray, slack: float = PSD_SLACK) -> bool:
    """Scale-aware PSD test on a symmetric matrix."""
    w = np.linalg.eigvalsh(sym(a))
    lam_max = max(1.0, float(w[-1]))
    return bool(w[0] >= -slack * lam_max)


def is_pd(a: np.ndarray) -> bool:
    """Strict positive definiteness via Cholesky."""
    try:
        np.linalg.cholesky(sym(a))
        return True
    except np.linalg.LinAlgError:
        return False


def require_pd(a: np.ndarray, name: str) -> np.ndarray:
    """Return the symmetrized matrix, raising NotPositiveDefinite otherwise."""
    s = sym(a)
    if not is_pd(s):
        raise NotPositiveDefinite(f"{name} is not positive definite")
    return s


def psd_clip(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip negative eigenvalues of a symmetric matrix to zero.

    Returns the clipped matrix and the magnitude of the most negative
    eigenvalue that was removed (0.0 if none).
    """
    w, v = np.linalg.eigh(sym(a))
    clip = float(max(0.0, -w[0]))
    w = np.maximum(w, 0.0)
    return (v * w) @ v.T, clip


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root with eigenvalue clipping at zero."""
    w, v = np.linalg.eigh(sym(a))
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def solve_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A (no explicit inverse)."""
    c = np.linalg.cholesky(sym(a))
    y = np.linalg.solve(c, b)
    return np.linalg.solve(c.T, y)


def slogdet_pd(a: np.ndarray, name: str = "matrix") -> float:
    """log det of a symmetric PD matrix, or the sum over a stack of them, by
    one Cholesky factorization; raises NotPositiveDefinite otherwise."""
    s = sym(a)
    try:
        c = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{name} is not positive definite") from None
    return 2.0 * float(np.sum(np.log(np.diagonal(c, axis1=-2, axis2=-1))))


def block(a: np.ndarray, b: np.ndarray, c: np.ndarray,
          d: np.ndarray) -> np.ndarray:
    """The block matrix [[a, b], [c, d]], or one per matrix of a stack."""
    return np.concatenate([np.concatenate([a, b], axis=-1),
                           np.concatenate([c, d], axis=-1)], axis=-2)


def blkdiag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix [[a, 0], [0, b]]."""
    return block(a, np.zeros((a.shape[0], b.shape[1])),
                 np.zeros((b.shape[0], a.shape[1])), b)


def spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))
