"""Dense small-matrix kernels: norms, spectral radii and exterior squares.

Everything here works on plain complex128 numpy arrays.  Matrices are
validated once (square, finite) and treated as immutable afterwards.
"""

from __future__ import annotations

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


class MatrixSet:
    """A finite indexed family A_1, ..., A_l of d x d complex matrices.

    Symbols are 1-based throughout the package: ``ms.matrix(i)`` returns
    A_i for i in 1..len(ms).  The matrices are held as one read-only
    (l, d, d) array; ``matrices`` gives views of it.
    """

    __slots__ = ("_stack", "labels")

    def __init__(self, matrices, labels=None):
        mats = [as_matrix(a) for a in matrices]
        if not mats:
            raise InputError("a MatrixSet needs at least one matrix")
        d = mats[0].shape[0]
        if any(m.shape[0] != d for m in mats):
            raise InputError("all matrices in a set must share the same dimension")
        if labels is None:
            labels = _default_labels(len(mats))
        elif len(labels) != len(mats):
            raise InputError("labels must match the number of matrices")
        stack = np.stack(mats)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"MatrixSet is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return MatrixSet, (self._stack, self.labels)

    def __repr__(self) -> str:
        return f"MatrixSet({self.matrices!r}, labels={self.labels!r})"

    @property
    def matrices(self) -> tuple:
        return tuple(self._stack)

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    def __len__(self) -> int:
        return len(self._stack)

    def matrix(self, i: int) -> np.ndarray:
        """Return A_i for a 1-based symbol i."""
        if not 1 <= i <= len(self._stack):
            raise InputError(f"symbol {i} outside 1..{len(self._stack)}")
        return self._stack[i - 1]

    def scaled(self, c: float) -> "MatrixSet":
        return MatrixSet(c * self._stack, self.labels)

    def is_real(self) -> bool:
        return not np.any(self._stack.imag)

    def stack(self) -> np.ndarray:
        return self._stack.copy()


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
