"""Cholesky helpers with relative jitter and bounded escalation."""

import numpy as np
from scipy.linalg import cholesky, cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtri

from .errors import IllConditionedKernelError

BASE_JITTER_REL = 1e-8
MAX_JITTER_REL = 1e-4


def jitter_scale(K: np.ndarray) -> float:
    """Reference scale for relative jitter: mean of the diagonal, floored at 1."""
    if K.shape[0] == 0:
        return 1.0
    scale = float(np.mean(np.diag(K)))
    return scale if scale > 0.0 else 1.0


def cholesky_with_jitter(
    K: np.ndarray,
    base_rel: float = BASE_JITTER_REL,
    max_rel: float = MAX_JITTER_REL,
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``K + jitter*I``.

    A jitter of ``base_rel`` times the mean diagonal is always added; on
    factorization failure it is multiplied by 10 until ``max_rel`` is
    exceeded, at which point :class:`IllConditionedKernelError` is raised.

    Returns:
        (L, jitter) with ``L @ L.T == K + jitter*I`` and the jitter actually used.
    """
    scale = jitter_scale(K)
    rel = base_rel
    while rel <= max_rel:
        jitter = rel * scale
        try:
            L = cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            rel *= 10.0
    raise IllConditionedKernelError(
        f"Cholesky failed for {K.shape[0]}x{K.shape[0]} matrix even with "
        f"relative jitter {max_rel:g}"
    )


def cholesky_batch(K: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Lower Cholesky factors of a stack ``K`` of shape (B, N, N), overwriting K.

    The base relative jitter is added to each matrix's diagonal in place,
    then one batched factorization runs (a matrix whose mean diagonal is not
    positive cannot factorize, so its scale needs no floor here). If it
    fails, each matrix is factorized on its own: at the base jitter first,
    with the same routine (so a matrix that factorizes gets the bits the
    batched call would give it, whatever the other matrices are), then
    through :func:`cholesky_with_jitter`'s escalation ladder.

    Returns:
        (L, rel, errors): the factors, the (B,) relative jitter each matrix
        was factorized with, and ``{row: message}`` for matrices that failed
        even at the maximum jitter (their L and rel are NaN).
    """
    B, N = K.shape[0], K.shape[-1]
    diag = K.reshape(B, N * N)[:, :: N + 1]
    rel = np.full(B, BASE_JITTER_REL)
    given = diag.copy()
    diag += (diag.sum(axis=1) * (BASE_JITTER_REL / N))[:, None]
    try:
        return np.linalg.cholesky(K), rel, {}
    except np.linalg.LinAlgError:
        pass
    L = np.full(K.shape, np.nan)
    errors = {}
    for b in range(B):
        if not np.all(np.isfinite(K[b])):
            errors[b] = "covariance matrix has non-finite entries"
            rel[b] = np.nan
            continue
        try:
            L[b] = np.linalg.cholesky(K[b])
            continue
        except np.linalg.LinAlgError:
            pass
        diag[b] = given[b]
        try:
            L[b], jitter = cholesky_with_jitter(K[b])
        except IllConditionedKernelError as exc:
            errors[b] = str(exc)
            rel[b] = np.nan
            continue
        rel[b] = jitter / jitter_scale(K[b])
    return L, rel, errors


def cholesky_inverse_batch(L: np.ndarray) -> np.ndarray:
    """``K^{-1} = L^{-T} L^{-1}`` for each lower factor of a C-ordered stack L
    (B, N, N), which is overwritten with ``L^{-1}``."""
    for b in range(L.shape[0]):
        # L[b].T is L^T in Fortran order, so LAPACK inverts it in place
        dtrtri(L[b].T, lower=0, overwrite_c=1)
    return L.swapaxes(-1, -2) @ L


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` given the lower factor L."""
    return cho_solve((L, True), b)


def tri_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular L."""
    return solve_triangular(L, b, lower=True)
