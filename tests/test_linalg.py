"""The LAPACK kernels of lqgcap.linalg against np.linalg, bit for bit.

Each kernel calls the gufunc that np.linalg calls, so on float64 input it
must return the same array and raise the same LinAlgError, under any error
state of the caller's and in any thread.  Needs only numpy and pytest, so it
also runs on the oldest numpy the package admits.
"""

import ast
import pathlib
import sys
import threading

import numpy as np
import pytest

from lqgcap import BudgetedProblem, riccati, upper_bound
from lqgcap import linalg as la
from lqgcap.config import load_config
from lqgcap.errors import NotPositiveDefinite
from lqgcap.lower_bound import solve_capacity

SRC = pathlib.Path(la.__file__).parent
CONFIGS = SRC.parent.parent / "configs"
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


def _outcome(f, *args):
    """What f(*args) returns, or the message of the LinAlgError it raises."""
    try:
        return f(*args)
    except np.linalg.LinAlgError as err:
        return str(err)


def _same_outcome(got, want):
    assert isinstance(got, str) == isinstance(want, str), (got, want)
    if isinstance(want, str):
        assert got == want
    elif isinstance(want, tuple):   # eigh's (w, v)
        for g, w in zip(got, want, strict=True):
            _same(g, w)
    else:
        _same(got, want)


def _cases():
    """Each kernel's inputs: ones it solves, and a singular, indefinite or
    non-finite one."""
    rng = np.random.default_rng(11)
    spd, general = _spd(rng, (3, 3)), _general(rng, (3, 3))
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    nan = np.full((3, 3), np.nan)
    return {
        "solve": [(general, np.ones(3)), (_general(rng, (4, 3, 3)),
                                          np.ones((4, 3, 2))),
                  (singular, np.ones(2)), (singular, np.ones((2, 2)))],
        "inv": [(general,), (np.stack([np.eye(2), singular]),)],
        "cholesky": [(spd,), (spd - 10.0 * np.eye(3),)],
        "eigvalsh": [(spd - 2.0,), (nan,)],
        "eigh": [(spd - 2.0,), (nan,)],
        "eigvals": [(general,), (rng.standard_normal((3, 3)),), (nan,)],
    }


def _callers_handler(err, flag):
    raise AssertionError(f"the caller's handler was called ({err})")


# error states a caller may hold around a kernel call
CALLER_STATES = {"raise": {"all": "raise"}, "ignore": {"all": "ignore"},
                 "call": {"all": "call", "call": _callers_handler}}


@pytest.mark.parametrize("caller", CALLER_STATES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_the_callers_error_state_changes_nothing(kernel, caller):
    """Under any error state of the caller's a kernel returns and raises
    what np.linalg does, and leaves that state as it found it."""
    cases = _cases()[kernel]
    want = [_outcome(getattr(np.linalg, kernel), *args) for args in cases]
    if kernel in ("solve", "inv", "cholesky"):
        assert isinstance(want[-1], str)    # a singular or indefinite input
    with np.errstate(**CALLER_STATES[caller]):
        state = np.geterr(), np.geterrcall()
        got = []
        for args in cases:
            got.append(_outcome(getattr(la, kernel), *args))
            assert (np.geterr(), np.geterrcall()) == state
    for g, w in zip(got, want, strict=True):
        _same_outcome(g, w)


def test_each_thread_keeps_its_own_error_state():
    """8 threads alternate failing and succeeding calls; each call returns
    or raises what np.linalg does."""
    cases = _cases()
    calls = [(name, args) for name in ("cholesky", "solve", "eigvalsh")
             for args in cases[name]]
    want = [_outcome(getattr(np.linalg, name), *args) for name, args in calls]
    assert sum(isinstance(w, str) for w in want) >= 3   # failing calls
    errors = []

    def run(offset):
        try:
            for j in range(600):
                i = (j + offset) % len(calls)
                name, args = calls[i]
                _same_outcome(_outcome(getattr(la, name), *args), want[i])
        except Exception as e:      # raised below, in the test's thread
            errors.append(e)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1.x builds the error state on each call")
@pytest.mark.parametrize("plant, budget", [("scalar", 2.0), ("vector3", 120.0)])
def test_kernel_calls_build_no_error_state(monkeypatch, plant, budget):
    """One capacity solve builds at most one np.errstate per Riccati
    doubling loop, however many kernel calls it makes."""
    built, dare, kernel_calls = [], [], []

    class Counted(np.errstate):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    for module in (riccati, upper_bound):
        def counted(*args, _solve=module._solve_dare, **kwargs):
            dare.append(args)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, "_solve_dare", counted)
    for name in KERNELS:
        def kernel(*args, _f=getattr(la, name)):
            kernel_calls.append(args)
            return _f(*args)
        monkeypatch.setattr(la, name, kernel)
    cfg = load_config(str(CONFIGS / f"{plant}.json"))
    monkeypatch.setattr(np, "errstate", Counted)
    solve_capacity(BudgetedProblem(cfg.model, cfg.weights, budget))
    assert len(kernel_calls) > 100
    assert 0 < len(built) <= len(dare)
