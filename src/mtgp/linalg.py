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
    """Lower Cholesky factors of a stack ``K`` of shape (B, N, N).

    One batched factorization adds the base relative jitter to every matrix.
    If it fails, each matrix is factorized on its own: at the base jitter
    first, with the same routine (so a matrix that factorizes gets the bits
    the batched call would give it, whatever the other matrices are), then
    through :func:`cholesky_with_jitter`'s escalation ladder.

    Returns:
        (L, escalated, errors): the factors, a (B,) flag for matrices that
        needed more than the base jitter, and ``{row: message}`` for
        matrices that failed even at the maximum jitter (their L is NaN).
    """
    B, N = K.shape[0], K.shape[-1]
    jittered = np.array(K, dtype=float)
    diag = jittered.reshape(B, N * N)[:, :: N + 1]
    scale = diag.sum(axis=1) / N
    diag += BASE_JITTER_REL * np.where(scale > 0.0, scale, 1.0)[:, None]
    escalated = np.zeros(B, dtype=bool)
    try:
        return np.linalg.cholesky(jittered), escalated, {}
    except np.linalg.LinAlgError:
        pass
    L = np.full(K.shape, np.nan)
    errors = {}
    for b in range(B):
        if not np.all(np.isfinite(K[b])):
            errors[b] = "covariance matrix has non-finite entries"
            continue
        try:
            L[b] = np.linalg.cholesky(jittered[b])
            continue
        except np.linalg.LinAlgError:
            pass
        try:
            L[b], jitter = cholesky_with_jitter(K[b])
        except IllConditionedKernelError as exc:
            errors[b] = str(exc)
            continue
        escalated[b] = jitter > BASE_JITTER_REL * jitter_scale(K[b])
    return L, escalated, errors


def cholesky_inverse_batch(L: np.ndarray) -> np.ndarray:
    """``K^{-1} = L^{-T} L^{-1}`` for each lower factor of a stack L (B, N, N)."""
    U = np.empty_like(L)
    for b in range(L.shape[0]):
        # L[b].T is L^T in Fortran order, so LAPACK inverts it without a copy
        U[b], _ = dtrtri(L[b].T, lower=0)
    return U @ U.swapaxes(-1, -2)


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = b`` given the lower factor L."""
    return cho_solve((L, True), b)


def tri_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular L."""
    return solve_triangular(L, b, lower=True)
