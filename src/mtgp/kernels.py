"""Scalar covariance kernels on vector inputs.

Two stationary anisotropic kernels are provided:

    squared_exponential:  k(x, x') = s2 * exp(-1/2 * sum_p ((x_p - x'_p) / l_p)^2)
    matern52:             k(r) = s2 * (1 + sqrt(5) r + 5 r^2 / 3) * exp(-sqrt(5) r),
                          r^2 = sum_p ((x_p - x'_p) / l_p)^2

where ``l_p`` are per-dimension lengthscales and ``s2`` the signal variance.
All hyperparameters are positive and are optimized in log-space elsewhere.
:func:`kernel_profile` holds the formulas the model computes with;
:func:`kernel_matrix` is the dense oracle the checks compare against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

SQUARED_EXPONENTIAL = "squared_exponential"
MATERN52 = "matern52"
KERNEL_KINDS = (SQUARED_EXPONENTIAL, MATERN52)

_SQRT5 = np.sqrt(5.0)
# the factor on r^2 that kernel_profile's argument carries, per kind
PROFILE_SCALE = {SQUARED_EXPONENTIAL: -0.5, MATERN52: 5.0}


@dataclass(frozen=True, eq=False)
class ScalarKernelSpec:
    """Hyperparameterized positive-definite kernel on R^P.

    Attributes:
        kind: one of :data:`KERNEL_KINDS`.
        lengthscales: shape (P,), strictly positive, one per input dimension.
        signal_variance: strictly positive; equals k(x, x) for every x.
    """

    kind: str
    lengthscales: np.ndarray
    signal_variance: float

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1 or ls.size == 0:
            raise ShapeError("lengthscales must be a nonempty 1-d vector")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0.0):
            raise ValueError("lengthscales must be finite and strictly positive")
        sv = float(self.signal_variance)
        if not np.isfinite(sv) or sv <= 0.0:
            raise ValueError("signal_variance must be finite and strictly positive")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", sv)

    @property
    def input_dim(self) -> int:
        return self.lengthscales.size


def _as_matrix(X, dim: int, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1) if dim == 1 else X.reshape(1, -1)
    if X.ndim != 2:
        raise ShapeError(f"{name} must be a 2-d array, got ndim={X.ndim}")
    if X.shape[1] != dim:
        raise ShapeError(f"{name} has {X.shape[1]} columns, kernel expects {dim}")
    return X


def kernel_matrix(spec: ScalarKernelSpec, X, X2=None) -> np.ndarray:
    """Covariance matrix with entries k(X_i, X2_j).

    ``X2=None`` means ``X2 = X``; the result is then symmetric positive
    semidefinite by construction.
    """
    X = _as_matrix(X, spec.input_dim, "X")
    X2 = X if X2 is None else _as_matrix(X2, spec.input_dim, "X2")
    if X.shape[0] == 0 or X2.shape[0] == 0:
        return np.zeros((X.shape[0], X2.shape[0]))
    diff = X[:, None, :] - X2[None, :, :]
    sq = np.sum((diff / spec.lengthscales) ** 2, axis=-1)
    if spec.kind == SQUARED_EXPONENTIAL:
        return spec.signal_variance * np.exp(-0.5 * sq)
    r = np.sqrt(sq)
    return spec.signal_variance * (1.0 + _SQRT5 * r + (5.0 / 3.0) * sq) * np.exp(-_SQRT5 * r)


def kernel_profile(kind: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-variance kernel and its lengthscale slope at ``z = PROFILE_SCALE[kind] * r^2``.

    ``r^2 = sum_p ((x_p - x'_p) / l_p)^2`` is the scaled squared distance;
    the factor rides on it so that callers fold it into the inverse squared
    lengthscales. For ``K = s2 * unit`` the derivative with respect to
    ``log l_p`` is ``s2 * slope * (d_p / l_p)^2``; for SE ``slope is unit``.
    Works elementwise on arrays of any shape and overwrites z.
    """
    if kind == SQUARED_EXPONENTIAL:
        unit = np.exp(z, out=z)
        return unit, unit
    slope = np.sqrt(z)  # sqrt(5) r
    e = np.negative(slope)
    np.exp(e, out=e)
    # the 1/r singularity of d/dr cancels exactly, so r=0 entries are simply 0
    slope += 1.0
    slope *= e  # (1 + sqrt(5) r) e
    z *= e
    z *= 1.0 / 3.0
    z += slope  # (1 + sqrt(5) r + 5 r^2 / 3) e
    slope *= 5.0 / 3.0
    return z, slope
