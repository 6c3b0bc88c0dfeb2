"""Common invariant subspaces, upper triangularisation and relative
product boundedness of a matrix set.

Irreducibility is certified through the generated algebra: if products of
the set (together with the identity) span all of the d x d matrices, no
common invariant subspace exists.  When the algebra is deficient, a
subspace is located by growing the orbit of an eigenvector of a random
member of the linear span of the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import estimate
from .cocycle import _extend, _log_norms
from .errors import InputError, NumericalError
from .matrices import MatrixSet, max_entry_norm
from .norms import certified_norm

__all__ = [
    "find_common_invariant_subspace",
    "Triangularisation",
    "triangularise",
    "BoundednessVerdict",
    "product_boundedness",
]

_SUBSPACE_ATTEMPTS = 12  # random span members tried for an eigenvector orbit
_GROWTH_DEPTH = 64  # product length of the growth fit
_GROWTH_BEAM = 256  # products kept per level of the growth fit
_BOUNDED_TOL = 1e-6  # relative slack on the certified norm's rate


def _algebra_rank(ms: MatrixSet, tol: float) -> int:
    """Rank of the span of all products of {I, A_1..A_l} (length <= d*d)."""
    d = ms.dim
    # grow an orthonormal row basis of vectorised products
    vecs = [np.eye(d, dtype=np.complex128).reshape(-1)]
    for a in ms.matrices:
        vecs.append(a.reshape(-1))
    q = np.zeros((0, d * d), dtype=np.complex128)

    def insert(v, q):
        if q.shape[0]:
            v = v - (q.conj() @ v) @ q
        n = np.linalg.norm(v)
        if n > tol:
            return np.vstack([q, v[None, :] / n]), True
        return q, False

    frontier = []
    for v in vecs:
        q, added = insert(v, q)
        if added:
            frontier.append(v)
    while frontier and q.shape[0] < d * d:
        new_frontier = []
        for v in frontier:
            mat = v.reshape(d, d)
            for a in ms.matrices:
                for prod in (a @ mat, mat @ a):
                    w = prod.reshape(-1)
                    n = np.linalg.norm(w)
                    if n == 0.0:
                        continue
                    q, added = insert(w / n, q)
                    if added:
                        new_frontier.append(w / n)
        frontier = new_frontier
    return q.shape[0]


def _orbit_span(ms: MatrixSet, v: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the smallest invariant subspace containing v."""
    d = ms.dim
    v = v / np.linalg.norm(v)
    basis = v[:, None].astype(np.complex128)
    frontier = [v]
    while frontier and basis.shape[1] < d:
        new_frontier = []
        for u in frontier:
            for a in ms.matrices:
                w = a @ u
                w = w - basis @ (basis.conj().T @ w)
                n = np.linalg.norm(w)
                if n > tol:
                    w = w / n
                    basis = np.hstack([basis, w[:, None]])
                    new_frontier.append(w)
        frontier = new_frontier
    return basis


def _residual(ms: MatrixSet, basis: np.ndarray) -> float:
    proj = basis @ basis.conj().T
    eye = np.eye(ms.dim)
    return max(
        max_entry_norm((eye - proj) @ a @ proj) for a in ms.matrices
    )


def find_common_invariant_subspace(ms: MatrixSet, tol: float = 1e-8, seed: int = 0):
    """Orthonormal basis of a proper common invariant subspace, or None.

    None is returned exactly when the generated algebra has full rank d*d
    (so no such subspace can exist).  Otherwise eigenvectors of random
    members of the span of the set are tried, ``_SUBSPACE_ATTEMPTS`` of
    them; every invariant subspace contains an eigenvector of each such
    member, so its orbit stays proper for suitable starting vectors.
    """
    d = ms.dim
    if d == 1:
        return None
    if _algebra_rank(ms, tol) == d * d:
        return None
    rng = np.random.default_rng(seed)
    for attempt in range(_SUBSPACE_ATTEMPTS):
        if attempt == 0 and len(ms) == 1:
            r = ms.matrices[0]
        else:
            coeffs = rng.normal(size=len(ms)) + (
                1j * rng.normal(size=len(ms)) if not ms.is_real() else 0.0
            )
            r = sum(c * a for c, a in zip(coeffs, ms.matrices))
        try:
            _, vectors = np.linalg.eig(r)
        except np.linalg.LinAlgError:
            continue
        for k in range(d):
            basis = _orbit_span(ms, vectors[:, k], tol)
            if basis.shape[1] < d and _residual(ms, basis) <= tol:
                return basis
    raise NumericalError(
        "the generated algebra is rank deficient but no invariant subspace "
        "was isolated; adjust the tolerance",
        operand=None,
    )


@dataclass(frozen=True)
class Triangularisation:
    """Simultaneous block-triangular form M^-1 A_i M = [[A1_i, B_i], [0, A2_i]]."""

    basis_change: np.ndarray
    block_dim: int
    upper_blocks: MatrixSet
    lower_blocks: MatrixSet
    corner_blocks: tuple
    residual: float

    def to_json(self) -> dict:
        return {
            "basis_change_re": np.real(self.basis_change).tolist(),
            "basis_change_im": np.imag(self.basis_change).tolist(),
            "block_dim": self.block_dim,
            "upper_blocks": [
                {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}
                for a in self.upper_blocks.matrices
            ],
            "lower_blocks": [
                {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}
                for a in self.lower_blocks.matrices
            ],
            "corner_blocks": [
                {"re": np.real(b).tolist(), "im": np.imag(b).tolist()}
                for b in self.corner_blocks
            ],
            "residual": self.residual,
        }


def triangularise(ms: MatrixSet, tol: float = 1e-8, seed: int = 0) -> Triangularisation:
    """Basis change adapted to a maximal common invariant subspace.

    The subspace is enlarged greedily: after each find, the search repeats
    inside the quotient action on the orthogonal complement, and any
    subspace found there is lifted and joined on, until the quotient is
    irreducible or only the full space would remain.
    """
    d = ms.dim
    basis = find_common_invariant_subspace(ms, tol=tol, seed=seed)
    if basis is None:
        raise InputError("matrix set is irreducible; no triangularisation exists")
    while basis.shape[1] < d - 1:
        q, _ = np.linalg.qr(
            np.hstack([basis, np.eye(d, dtype=np.complex128)]), mode="reduced"
        )
        comp = q[:, basis.shape[1] : d]
        quotient = MatrixSet(
            tuple(comp.conj().T @ a @ comp for a in ms.matrices)
        )
        try:
            sub = find_common_invariant_subspace(quotient, tol=tol, seed=seed)
        except NumericalError:
            break
        if sub is None:
            break
        enlarged = np.hstack([basis, comp @ sub])
        if enlarged.shape[1] >= d or _residual(ms, enlarged) > tol:
            break
        basis = enlarged
    k = basis.shape[1]
    q, _ = np.linalg.qr(np.hstack([basis, np.eye(d, dtype=np.complex128)]))
    m = q[:, :d]
    blocks = [m.conj().T @ a @ m for a in ms.matrices]
    residual = max(max_entry_norm(b[k:, :k]) for b in blocks)
    if residual > tol:
        raise NumericalError(
            "triangularisation residual exceeds tolerance", operand=m
        )
    upper = MatrixSet(tuple(b[:k, :k] for b in blocks), ms.labels)
    lower = MatrixSet(tuple(b[k:, k:] for b in blocks), ms.labels)
    corners = tuple(np.array(b[:k, k:]) for b in blocks)
    return Triangularisation(
        basis_change=m,
        block_dim=k,
        upper_blocks=upper,
        lower_blocks=lower,
        corner_blocks=corners,
        residual=float(residual),
    )


@dataclass(frozen=True)
class BoundednessVerdict:
    """Relative product boundedness diagnosis.

    ``status`` is Bounded / Unbounded / Unknown; Bounded carries a norm
    whose induced values certify it; Unbounded carries the fitted
    polynomial growth exponent of the rho-normalised product norms.
    """

    status: str
    depth: int
    max_scaled_norm: float
    certificate: object = None
    growth_exponent: float = None


def product_boundedness(ms: MatrixSet) -> BoundednessVerdict:
    """Diagnose whether rho-normalised products stay uniformly bounded.

    rho is the lower end of an ``estimate`` of the JSR.  First asks
    ``norms.certified_norm`` for a norm whose rate is at most
    rho * (1 + ``_BOUNDED_TOL`` + gap/rho), gap the width of that
    enclosure; one that passes certifies Bounded.  Failing that, fits the
    growth of the largest normalised product norm against depth on a
    log-log scale, up to depth ``_GROWTH_DEPTH`` (beam search keeping
    ``_GROWTH_BEAM`` products a level, so the fit is a lower envelope): an
    exponent >= 0.5 is reported Unbounded, anything milder Unknown.
    """
    est = estimate(ms, target_gap=1e-8, budget=200000, max_depth=24)
    rho = est.lower
    if rho == 0.0:
        # every long product collapses; bounded in the scaled sense
        if est.upper == 0.0:
            return BoundednessVerdict(
                status="Bounded", depth=0, max_scaled_norm=0.0, certificate=None
            )
        return BoundednessVerdict(status="Unknown", depth=0, max_scaled_norm=math.inf)
    found = certified_norm(ms, rho * (1.0 + _BOUNDED_TOL + est.gap / rho))
    if found is not None:
        return BoundednessVerdict(
            status="Bounded", depth=0, max_scaled_norm=1.0, certificate=found[0]
        )

    # growth fit on the rho-normalised beam maxima
    stack = ms.stack()
    logrho = math.log(rho)
    products = np.eye(ms.dim, dtype=np.complex128)[None]
    logs = np.zeros(1)
    s = []
    for k in range(1, _GROWTH_DEPTH + 1):
        products, logs, _ = _extend(stack, products, logs)
        scores = _log_norms(products, logs, "op") - k * logrho
        s.append(float(np.max(scores)))
        if scores.shape[0] > _GROWTH_BEAM:
            keep = np.argsort(-scores)[:_GROWTH_BEAM]
            products = products[keep]
            logs = logs[keep]
    ks = np.arange(1, _GROWTH_DEPTH + 1, dtype=np.float64)
    window = ks >= _GROWTH_DEPTH / 2.0
    y = np.array(s)[window]
    x = np.log(ks[window])
    gamma = None  # no fit while the normalised maxima stay flat
    if np.max(y) > math.log(1.0 + 10.0 * _BOUNDED_TOL):
        gamma = float(np.polyfit(x, y, 1)[0])
    return BoundednessVerdict(
        status="Unbounded" if gamma is not None and gamma >= 0.5 else "Unknown",
        depth=_GROWTH_DEPTH,
        max_scaled_norm=float(math.exp(max(s))),
        growth_exponent=gamma,
    )
