"""Cholesky helpers: :func:`cholesky_batch`, the package's one jitter-and-factorize
routine (training batches and fits alike), and the solves with its factors.

The solves call LAPACK's ``dpotrs`` and ``dtrtrs`` with the arguments
``scipy.linalg.cho_solve`` and ``solve_triangular`` pass for a C-ordered
float64 factor, so they return the wrappers' bits without their per-call
cost, and reject a non-finite operand as the wrappers' ``check_finite`` does.

The three LAPACK routines come from scipy's own extension module
``scipy/linalg/_flapack``, the one ``scipy.linalg.lapack`` re-exports them
from, loaded by file path so that ``scipy.linalg`` is never imported:
importing it pulls in scipy's array-API shim, which clones numpy with
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, and took about 0.39 s of
the 0.59 s ``import mtgp.cli`` took. Loading the extension alone takes about
8 ms, and its routines are the same compiled code, so they return the same
bits. The module is kept out of ``sys.modules``.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
import scipy
from numpy.linalg import _umath_linalg

from .errors import IllConditionedKernelError, NonFiniteError


def _load_flapack():
    """scipy's ``linalg/_flapack`` extension, executed from its file."""
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [directory])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack was not found in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # creating the extension entered it in sys.modules under its bare name
    if sys.modules.get(spec.name) is module:
        del sys.modules[spec.name]
    return module


_flapack = _load_flapack()
dpotrs, dtrtri, dtrtrs = _flapack.dpotrs, _flapack.dtrtri, _flapack.dtrtrs
# the lower-factor gufunc behind np.linalg.cholesky, without its per-call checks
_cholesky_lo = _umath_linalg.cholesky_lo

BASE_JITTER_REL = 1e-8
MAX_JITTER_REL = 1e-4


def cholesky_batch(K: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Lower Cholesky factors of a stack ``K`` of shape (B, N, N), overwriting K.

    Each matrix gets ``rel * sum(diag K) / N`` added to its diagonal in place,
    at ``rel = BASE_JITTER_REL`` first, and one batched factorization runs:
    the gufunc ``np.linalg.cholesky`` calls, called directly, which leaves
    NaN in place of a factor that fails instead of raising. When every
    factor's diagonal is finite, that is all. Otherwise each matrix whose
    diagonal is not is factorized again on its own with
    ``np.linalg.cholesky`` (the same LAPACK call per matrix, so a matrix
    that factorizes gets the bits the batched call would give it, whatever
    the other matrices are), multiplying its ``rel`` by 10 on failure until
    it exceeds ``MAX_JITTER_REL``. A factor with a non-finite diagonal (a
    covariance with non-finite or overflowing entries) is a failure too.

    Returns:
        (L, rel, jitter, errors): the factors, the (B,) relative and absolute
        jitter each matrix was factorized with, and ``{row: message}`` for
        matrices that failed (their L, rel and jitter are NaN).
    """
    B, N = K.shape[0], K.shape[-1]
    diag = K.reshape(B, N * N)[:, :: N + 1]
    total = np.add.reduce(diag, axis=1)
    given = diag.copy()
    rel = np.full(B, BASE_JITTER_REL)
    jitter = total * (BASE_JITTER_REL / N)
    diag += jitter[:, None]
    with np.errstate(invalid="ignore"):  # raised by a factor that fails
        L = _cholesky_lo(K)
    # a factor's diagonal is positive, so its sum is finite unless an entry is not
    L_diag = L.reshape(B, N * N)[:, :: N + 1]
    if math.isfinite(np.add.reduce(L_diag, axis=None)):
        return L, rel, jitter, {}
    for b in np.flatnonzero(~np.isfinite(L_diag).all(axis=1)):
        while rel[b] <= MAX_JITTER_REL:
            try:
                L[b] = np.linalg.cholesky(K[b])
                break
            except np.linalg.LinAlgError:
                rel[b] *= 10.0
                jitter[b] = total[b] * (rel[b] / N)
                diag[b] = given[b] + jitter[b]
    errors = {}
    for b in np.flatnonzero(~np.isfinite(L_diag).all(axis=1)):
        errors[int(b)] = f"Cholesky failed for {N}x{N} matrix " + (
            f"even with relative jitter {MAX_JITTER_REL:g}" if rel[b] > MAX_JITTER_REL
            else "with a factor that is not finite"
        )
        L[b] = rel[b] = jitter[b] = np.nan
    return L, rel, jitter, errors


def cholesky_inverse_batch(L: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``K^{-1} = L^{-T} L^{-1}`` for each lower factor of a C-ordered stack L
    (B, N, N), which is overwritten with ``L^{-1}``; written to and returning
    ``out`` (B, N, N)."""
    for b in range(L.shape[0]):
        # L[b].T is L^T in Fortran order, so LAPACK inverts it in place
        dtrtri(L[b].T, 0, 0, 1)  # lower=0, unitdiag=0, overwrite_c=1
    return np.matmul(L.swapaxes(-1, -2), L, out=out)


def _require_finite(L: np.ndarray, b: np.ndarray, solve: str):
    if not (np.isfinite(L).all() and np.isfinite(b).all()):
        raise NonFiniteError(f"{solve}: the factor or the right-hand side is not finite")


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` given the lower factor L (N, N) and b (N,) or (N, K)."""
    _require_finite(L, b, "chol_solve")
    x, info = dpotrs(L, b, lower=1)
    if info:
        raise ValueError(f"chol_solve: dpotrs returned info {info}")
    return x


def tri_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for a lower-triangular, C-ordered L (N, N) and b (N,) or (N, K).

    LAPACK reads L's memory as ``L^T`` in Fortran order and solves the
    transposed system, so L is not copied. A float64 b in Fortran order
    (such as ``K.T`` of a C-ordered K, or a contiguous vector) is
    overwritten with x, which is returned in its memory; any other b is
    copied and left unchanged. The result's bits are the same either way.
    """
    _require_finite(L, b, "tri_solve")
    x, info = dtrtrs(L.T, b, lower=0, trans=1, overwrite_b=True)
    if info:  # > 0: a zero on the diagonal
        raise IllConditionedKernelError(f"tri_solve: dtrtrs returned info {info}")
    return x
