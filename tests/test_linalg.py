"""The direct LAPACK solves return scipy's bits and reject non-finite operands."""

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from mtgp.errors import NonFiniteError
from mtgp.linalg import chol_solve, cholesky_batch, tri_solve
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
    np.testing.assert_array_equal(tri_solve(L, b), solve_triangular(L, b, lower=True))
    np.testing.assert_array_equal(chol_solve(L, b), cho_solve((L, True), b))
    np.testing.assert_array_equal(b, given)  # the right-hand side is not overwritten


@pytest.mark.parametrize("solve", [tri_solve, chol_solve])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("operand", ["factor", "rhs"])
def test_non_finite_operand_raises(solve, bad, operand):
    rng = make_rng("linalg-non-finite", 0)
    L, b = factor(rng, 4), rng.normal(size=(4, 3))
    (L if operand == "factor" else b)[1, 0] = bad
    with pytest.raises(NonFiniteError, match="not finite"):
        solve(L, b)
