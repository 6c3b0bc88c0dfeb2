"""Dense small-matrix kernels: norms, spectral radii and exterior squares.

Everything here works on plain complex128 numpy arrays.  Matrices are
validated once (square, finite) and treated as immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "as_matrix",
    "MatrixSet",
    "spectral_radius",
    "operator_norm",
    "max_entry_norm",
    "exterior_square",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a square, finite complex128 array (a defensive copy)."""
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class MatrixSet:
    """A finite indexed family A_1, ..., A_l of d x d complex matrices.

    Symbols are 1-based throughout the package: ``ms.matrix(i)`` returns
    A_i for i in 1..len(ms).
    """

    matrices: tuple
    labels: tuple = field(default=None)

    def __post_init__(self):
        mats = tuple(as_matrix(a) for a in self.matrices)
        if not mats:
            raise InputError("a MatrixSet needs at least one matrix")
        d = mats[0].shape[0]
        if any(m.shape[0] != d for m in mats):
            raise InputError("all matrices in a set must share the same dimension")
        object.__setattr__(self, "matrices", mats)
        if self.labels is None:
            object.__setattr__(self, "labels", _default_labels(len(mats)))
        elif len(self.labels) != len(mats):
            raise InputError("labels must match the number of matrices")

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def __len__(self) -> int:
        return len(self.matrices)

    def matrix(self, i: int) -> np.ndarray:
        """Return A_i for a 1-based symbol i."""
        if not 1 <= i <= len(self.matrices):
            raise InputError(f"symbol {i} outside 1..{len(self.matrices)}")
        return self.matrices[i - 1]

    def scaled(self, c: float) -> "MatrixSet":
        return MatrixSet(tuple(c * m for m in self.matrices), self.labels)

    def is_real(self, tol: float = 0.0) -> bool:
        return all(np.max(np.abs(m.imag)) <= tol for m in self.matrices)

    def stack(self) -> np.ndarray:
        return np.stack(self.matrices)


@lru_cache(maxsize=16)
def _default_labels(n: int) -> tuple:
    """("A1", ..., "An"), one shared tuple per n rather than one per set."""
    return tuple(f"A{i + 1}" for i in range(n))


def _eigvals(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}", operand=a) from exc


def spectral_radius(a) -> float:
    """Maximum modulus of the eigenvalues of a single matrix."""
    a = np.asarray(a, dtype=np.complex128)
    return float(np.max(np.abs(_eigvals(a))))


def _op_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., d, d) stack."""
    try:
        return np.linalg.svd(a, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}", operand=a) from exc


def operator_norm(a) -> float:
    """Largest singular value (the norm induced by the Euclidean norm)."""
    return float(_op_norms(np.asarray(a, dtype=np.complex128)))


def max_entry_norm(a) -> float:
    """Maximum modulus over the entries; also valid for rectangular blocks."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def exterior_square(a) -> np.ndarray:
    """Induced action on the second exterior power.

    Basis is e_i ^ e_j for i < j in lexicographic order, so the result is
    C(d,2) x C(d,2); for d = 2 it is the 1x1 matrix [det A].
    """
    a = np.asarray(a, dtype=np.complex128)
    d = a.shape[0]
    if a.ndim != 2 or a.shape[1] != d:
        raise InputError("exterior_square needs a square matrix")
    if d < 2:
        raise InputError("exterior_square requires dimension >= 2")
    pairs = list(combinations(range(d), 2))
    out = np.empty((len(pairs), len(pairs)), dtype=np.complex128)
    for r, (i, j) in enumerate(pairs):
        for c, (k, l) in enumerate(pairs):
            out[r, c] = a[i, k] * a[j, l] - a[i, l] * a[j, k]
    return out
