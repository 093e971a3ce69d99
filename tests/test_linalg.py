"""The direct LAPACK calls return scipy's bits and reject non-finite
operands, and importing the package loads no ``scipy.linalg``."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtri

import mtgp
from mtgp import linalg
from mtgp.errors import NonFiniteError
from mtgp.linalg import chol_solve, cholesky_batch, cholesky_inverse_batch, tri_solve
from mtgp.seeding import make_rng


def factor(rng, n):
    A = rng.normal(size=(n, n))
    L, _, _, errors = cholesky_batch((A @ A.T + n * np.eye(n))[None])
    assert not errors
    return L[0]


@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("rhs", ["vector", "columns", "transposed"])
def test_solves_equal_scipy_bitwise(n, rhs):
    rng = make_rng("linalg-solves", n)
    L = factor(rng, n)
    b = {
        "vector": lambda: rng.normal(size=n),
        "columns": lambda: rng.normal(size=(n, 5)),
        "transposed": lambda: rng.normal(size=(40, n)).T,  # the Fortran-ordered K(X*, X)^T
    }[rhs]()
    given = b.copy()
    np.testing.assert_array_equal(chol_solve(L, b), cho_solve((L, True), b))
    np.testing.assert_array_equal(b, given)  # chol_solve does not overwrite the right-hand side
    # tri_solve solves a Fortran-ordered b (a vector, the transposed case) in place
    np.testing.assert_array_equal(tri_solve(L, b), solve_triangular(L, given, lower=True))


@pytest.mark.parametrize("n", [1, 5, 17, 30])
def test_inverse_equals_scipy_dtrtri_bitwise(n):
    rng = make_rng("linalg-inverse", n)
    factors = np.stack([factor(rng, n) for _ in range(3)])
    # scipy's dtrtri on L^T in Fortran order: the call cholesky_inverse_batch makes
    inverses = np.stack([dtrtri(L.T, lower=0)[0].T for L in factors])
    out = np.full(factors.shape, np.nan)
    Kinv = cholesky_inverse_batch(factors, out)
    assert Kinv is out
    np.testing.assert_array_equal(factors, inverses)  # L is overwritten with L^{-1}
    np.testing.assert_array_equal(Kinv, inverses.swapaxes(-1, -2) @ inverses)


def test_importing_the_cli_loads_no_scipy_linalg():
    code = (
        "import sys, mtgp.cli; "
        "print(sorted(m for m in sys.modules if 'lapack' in m or m.startswith('scipy.linalg')"
        " or m.endswith('.linalg')))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mtgp.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # neither scipy.linalg nor the extension loaded from its directory is a module
    assert run.stdout.strip() == "['mtgp.linalg', 'numpy.linalg']"


@pytest.mark.parametrize("solve", [tri_solve, chol_solve])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["factor", "rhs"])
def test_non_finite_operand_raises(solve, bad, operand):
    rng = make_rng("linalg-non-finite", 0)
    L, b = factor(rng, 4), rng.normal(size=(4, 3))
    (L if operand == "factor" else b)[1, 0] = bad
    with pytest.raises(NonFiniteError, match="not finite"):
        solve(L, b)


@pytest.mark.parametrize("n", [1, 7, 30])
def test_tri_solve_overwrites_a_fortran_ordered_rhs(n):
    rng = make_rng("linalg-overwrite", n)
    L = factor(rng, n)
    b = rng.normal(size=(40, n)).T  # the Fortran-ordered K(X*, X)^T
    expected = solve_triangular(L, b, lower=True)
    x = tri_solve(L, b)
    np.testing.assert_array_equal(x, expected)
    assert np.shares_memory(x, b)
    np.testing.assert_array_equal(b, expected)


@pytest.mark.parametrize("n", [2, 7, 30])  # at n = 1 a C-ordered row is Fortran-ordered too
def test_tri_solve_copies_a_c_ordered_rhs(n):
    rng = make_rng("linalg-overwrite-c", n)
    L = factor(rng, n)
    b = rng.normal(size=(n, 40))
    given = b.copy()
    x = tri_solve(L, b)
    np.testing.assert_array_equal(x, solve_triangular(L, b, lower=True))
    assert not np.shares_memory(x, b)
    np.testing.assert_array_equal(b, given)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tri_solve_checks_finiteness_before_lapack(monkeypatch, bad):
    rng = make_rng("linalg-overwrite-non-finite", 0)
    L, b = factor(rng, 4), rng.normal(size=(40, 4)).T
    b[2, 5] = bad
    given = b.copy()
    calls = []
    monkeypatch.setattr(linalg, "dtrtrs", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(NonFiniteError, match="not finite"):
        tri_solve(L, b)
    assert calls == []
    np.testing.assert_array_equal(b, given)
