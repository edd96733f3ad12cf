"""Small dense linear algebra used throughout the library.

The capacity chain makes a few hundred linear-algebra calls per budget point,
nearly all on matrices of a few rows or on stacks of them, and np.linalg
spends about half of each such call in its Python wrapper (array
conversion, type promotion, the stacked-square checks), not in LAPACK.
The kernels solve, cholesky, inv, eigvalsh, eigh and eigvals call
the numpy.linalg._umath_linalg gufunc that np.linalg itself calls, under the
same error state, so they run the same LAPACK routine on the same array,
return bit-identical results, raise the same np.linalg.LinAlgError and leave
the caller's error state as they found it.  They take float64 arrays and
skip the wrapper's checks.  Each of the three error states (singular, not
positive definite, no convergence) is built once, at import, and a call
installs it by setting numpy's error-state context variable; building an
np.errstate costs about 1.3 us, 40% of a small Cholesky call, and setting
the variable about 0.3 us.  numpy 1.x, which has no such variable,
builds the np.errstate on each call.  fro is np.linalg.norm's
default (Frobenius) norm by the formula norm itself uses.  svd stays on
np.linalg, since its gufuncs are named differently in numpy 1.x and 2.x.

The library calls the kernels as la.<kernel> through this module, so a test
can count them by patching it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg as _gufuncs

from .errors import NotPositiveDefinite

# Singular values below PINV_RTOL * sigma_max are treated as zero everywhere a
# pseudo-inverse or rank decision is taken, so that rank decisions agree
# between modules.
PINV_RTOL = 1e-10

# Scale-aware PSD slack: eigenvalues >= -PSD_SLACK * max(1, lambda_max).
PSD_SLACK = 1e-10


def _raiser(message: str):
    def handler(err, flag):
        raise np.linalg.LinAlgError(message)
    return handler


def _lapack_errors(handler):
    """np.linalg's error state around a gufunc: a LAPACK failure, flagged
    as invalid, calls handler; the other flags are ignored."""
    return np.errstate(call=handler, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


try:  # numpy >= 2 keeps the error state in a context variable
    from numpy._core.umath import _extobj_contextvar as _ERRSTATE
except ImportError:  # numpy 1.x
    _ERRSTATE = None

if _ERRSTATE is not None:
    def _errors(handler):
        """The error state _lapack_errors(handler) installs."""
        with _lapack_errors(handler):
            return _ERRSTATE.get()

    def _run(errors, gufunc, signature, *arrays):
        """gufunc(*arrays) under the error state errors."""
        token = _ERRSTATE.set(errors)
        try:
            return gufunc(*arrays, signature=signature)
        finally:
            _ERRSTATE.reset(token)
else:
    def _errors(handler):
        return handler

    def _run(handler, gufunc, signature, *arrays):
        with _lapack_errors(handler):
            return gufunc(*arrays, signature=signature)


_SINGULAR = _errors(_raiser("Singular matrix"))
_NOT_PD = _errors(_raiser("Matrix is not positive definite"))
_NO_CONVERGENCE = _errors(_raiser("Eigenvalues did not converge"))


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """As np.linalg.solve, for b a vector or a matrix (or a stack)."""
    gufunc = _gufuncs.solve1 if b.ndim == 1 else _gufuncs.solve
    return _run(_SINGULAR, gufunc, "dd->d", a, b)


def inv(a: np.ndarray) -> np.ndarray:
    """As np.linalg.inv, for a matrix or a stack."""
    return _run(_SINGULAR, _gufuncs.inv, "d->d", a)


def cholesky(a: np.ndarray) -> np.ndarray:
    """As np.linalg.cholesky: the lower factor of a matrix or a stack."""
    return _run(_NOT_PD, _gufuncs.cholesky_lo, "d->d", a)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """As np.linalg.eigvalsh: ascending, from the lower triangle."""
    return _run(_NO_CONVERGENCE, _gufuncs.eigvalsh_lo, "d->d", a)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """As np.linalg.eigh: (w, v), from the lower triangle."""
    return _run(_NO_CONVERGENCE, _gufuncs.eigh_lo, "d->dd", a)


def eigvals(a: np.ndarray) -> np.ndarray:
    """As np.linalg.eigvals, for a real matrix: real when every
    imaginary part is 0, complex otherwise."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    w = _run(_NO_CONVERGENCE, _gufuncs.eigvals, "d->D", a)
    return w if w.imag.any() else w.real


def fro(a: np.ndarray) -> float:
    """As np.linalg.norm with its default (Frobenius) norm, for a float
    array: sqrt(r . r) over the raveled array r."""
    r = a.ravel(order="K")
    return math.sqrt(r.dot(r))


def as_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce scalars/lists to a float 2-D array, optionally checking shape."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if rows is not None and cols is not None and m.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {m.shape}")
    return m


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (A + A^T)/2 of a matrix or of each in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def asymmetry(a: np.ndarray) -> float:
    """Frobenius norm of the skew part, ||A - A^T||_F."""
    return fro(a - a.T)


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(eigvalsh(sym(a))[0])


def is_psd(a: np.ndarray) -> bool:
    """Scale-aware PSD test on a symmetric matrix."""
    w = eigvalsh(sym(a))
    lam_max = max(1.0, float(w[-1]))
    return bool(w[0] >= -PSD_SLACK * lam_max)


def is_pd(a: np.ndarray) -> bool:
    """Strict positive definiteness via Cholesky."""
    try:
        cholesky(sym(a))
        return True
    except np.linalg.LinAlgError:
        return False


def require_pd(a: np.ndarray, name: str) -> np.ndarray:
    """Return the symmetrized matrix, raising NotPositiveDefinite otherwise."""
    s = sym(a)
    if not is_pd(s):
        raise NotPositiveDefinite(f"{name} is not positive definite")
    return s


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root with eigenvalue clipping at zero."""
    w, v = eigh(sym(a))
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def solve_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A (no explicit inverse)."""
    c = cholesky(sym(a))
    y = solve(c, b)
    return solve(c.T, y)


def slogdet_pd(a: np.ndarray, name: str = "matrix") -> float:
    """log det of a symmetric PD matrix, or the sum over a stack of them, by
    one Cholesky factorization; raises NotPositiveDefinite otherwise."""
    s = sym(a)
    try:
        c = cholesky(s)
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
    return float(np.max(np.abs(eigvals(a))))
