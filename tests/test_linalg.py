"""The LAPACK kernels of lqgcap.linalg against np.linalg, bit for bit.

Each kernel calls the gufunc that np.linalg calls, so on float64 input it
must return the same array and raise the same LinAlgError.  Needs only numpy
and pytest, so it also runs on the oldest numpy the package admits.
"""

import ast
import pathlib

import numpy as np
import pytest

from lqgcap import linalg as la
from lqgcap.errors import NotPositiveDefinite

SRC = pathlib.Path(la.__file__).parent
KERNELS = ("solve", "cholesky", "inv", "eigvalsh", "eigh", "eigvals")

# Single matrices and stacks of the sizes the library factors: the barrier's
# padded block stacks (up to 98 blocks of 1x1 on the horizon-32 program,
# 16x16 at most), the Riccati equations' 1x1 to 10x10 matrices.
SHAPES = [(1, 1), (2, 2), (3, 3), (10, 10), (16, 16), (98, 1, 1),
          (12, 4, 4), (7, 10, 10), (5, 16, 16), (3, 2, 6, 6)]


def _spd(rng, shape):
    """A well-conditioned symmetric positive definite matrix (or stack)."""
    n = shape[-1]
    b = rng.standard_normal(shape)
    return b @ b.swapaxes(-1, -2) + n * np.eye(n)


def _general(rng, shape):
    n = shape[-1]
    return rng.standard_normal(shape) + n * np.eye(n)


def _views(a):
    """a as given and as a non-contiguous (transposed) view of a copy."""
    t = np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
    assert not t.flags.c_contiguous or a.shape[-1] == 1
    return [a, t]


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _raised(f, *args):
    with pytest.raises(np.linalg.LinAlgError) as err:
        f(*args)
    return str(err.value)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
class TestSameArrays:
    def test_cholesky(self, shape):
        for a in _views(_spd(np.random.default_rng(1), shape)):
            _same(la.cholesky(a), np.linalg.cholesky(a))

    def test_inv(self, shape):
        for a in _views(_general(np.random.default_rng(2), shape)):
            _same(la.inv(a), np.linalg.inv(a))

    def test_eigvalsh(self, shape):
        for a in _views(_spd(np.random.default_rng(3), shape) - 2.0):
            _same(la.eigvalsh(a), np.linalg.eigvalsh(a))

    def test_eigh(self, shape):
        for a in _views(_spd(np.random.default_rng(4), shape) - 2.0):
            (w, v), want = la.eigh(a), np.linalg.eigh(a)
            _same(w, want[0])
            _same(v, want[1])

    def test_solve_matrix_rhs(self, shape):
        rng = np.random.default_rng(5)
        b = rng.standard_normal(shape[:-1] + (3,))
        for a in _views(_general(rng, shape)):
            _same(la.solve(a, b), np.linalg.solve(a, b))
            _same(la.solve(a, b[..., :1]), np.linalg.solve(a, b[..., :1]))

    def test_fro(self, shape):
        for a in _views(np.random.default_rng(6).standard_normal(shape)):
            want = np.linalg.norm(a)
            assert la.fro(a) == want and isinstance(la.fro(a), float)
            assert la.fro(a.ravel()) == np.linalg.norm(a.ravel())


@pytest.mark.parametrize("n", [1, 2, 3, 10, 16])
def test_solve_vector_rhs(n):
    rng = np.random.default_rng(7)
    b = rng.standard_normal(n)
    for a in _views(_general(rng, (n, n))):
        _same(la.solve(a, b), np.linalg.solve(a, b))
    _same(la.solve(a, b[::-1]), np.linalg.solve(a, b[::-1]))


class TestEigvals:
    def test_a_real_spectrum_is_real(self):
        rng = np.random.default_rng(8)
        for a in [np.array([[0.5]]), np.diag([1.2, 0.7, 0.5]),
                  np.triu(rng.standard_normal((6, 6))),
                  _spd(rng, (10, 10))]:
            for view in _views(a):
                got = la.eigvals(view)
                _same(got, np.linalg.eigvals(view))
                assert got.dtype == np.float64

    def test_a_complex_spectrum_is_complex(self):
        rng = np.random.default_rng(9)
        c, s = np.cos(0.3), np.sin(0.3)
        for a in [np.array([[c, -s], [s, c]]), rng.standard_normal((10, 10)),
                  rng.standard_normal((4, 5, 5))]:
            for view in _views(a):
                got = la.eigvals(view)
                _same(got, np.linalg.eigvals(view))
                assert got.dtype == np.complex128

    def test_spectral_radius(self):
        a = np.array([[0.0, -2.0], [0.5, 0.0]])
        want = float(np.max(np.abs(np.linalg.eigvals(a))))
        assert la.spectral_radius(a) == want == 1.0


class TestSameErrors:
    def test_cholesky_of_a_stack_with_one_indefinite_block(self):
        s = _spd(np.random.default_rng(10), (12, 4, 4))
        s[7, 2, 2] = -1.0
        want = _raised(np.linalg.cholesky, s)
        assert _raised(la.cholesky, s) == want
        assert _raised(la.cholesky, s[7]) == want
        la.cholesky(s[:7])    # the other blocks factor

    def test_singular_solve_and_inv(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        b = np.ones(2)
        assert _raised(la.solve, a, b) == _raised(np.linalg.solve, a, b)
        bm = np.ones((2, 3))
        assert _raised(la.solve, a, bm) == _raised(np.linalg.solve, a, bm)
        assert _raised(la.inv, a) == _raised(np.linalg.inv, a)
        stack = np.stack([np.eye(2), a])
        assert _raised(la.inv, stack) == _raised(np.linalg.inv, stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_eigvals_of_a_non_finite_matrix(self, bad):
        a = np.array([[bad, 1.0], [0.0, 1.0]])
        assert _raised(la.eigvals, a) == _raised(np.linalg.eigvals, a)

    def test_the_library_checks_still_see_the_error(self):
        assert not la.is_pd(np.diag([1.0, -1e-12]))
        assert la.is_pd(np.eye(3))
        with pytest.raises(NotPositiveDefinite, match="Psi"):
            la.slogdet_pd(np.stack([np.eye(2), -np.eye(2)]), "Psi")

    def test_the_error_state_is_restored(self):
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError):
            la.cholesky(-np.eye(2))
        assert np.geterr() == before


def _kernel_calls(tree: ast.AST) -> list[str]:
    """`np.linalg.<kernel>(` / `numpy.linalg.<kernel>(` calls in a module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in KERNELS
                and isinstance(f.value, ast.Attribute)
                and f.value.attr == "linalg"
                and isinstance(f.value.value, ast.Name)
                and f.value.value.id in ("np", "numpy")):
            found.append(f"{f.value.value.id}.linalg.{f.attr}:{node.lineno}")
    return found


def test_no_src_module_calls_np_linalg_kernels():
    found = {path.name: _kernel_calls(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: calls for name, calls in found.items() if calls} == {}
    # the check sees such a call
    assert _kernel_calls(ast.parse("np.linalg.solve(a, b)")) == [
        "np.linalg.solve:1"]
