"""Candidate norm models and extremal / Barabanov norm machinery.

A norm model is a computable vector norm together with its induced matrix
norm.  Four kinds are supported:

* ``euclidean`` -- the Euclidean norm; induced norm = largest singular value.
* ``max_entry`` -- the sup norm max|v_i|; induced norm = max abs row sum.
* ``weighted_diag`` -- max_i w_i |v_i| with positive weights.
* ``angular_grid`` -- piecewise-linear-in-angle norm on R^2, stored as the
  norm values h_j on uniformly spaced unit directions.

The Barabanov construction iterates the relaxed step
nu_{k+1}(v) = (max_i nu_k(A_i v)/rho_k + nu_k(v))/2, renormalised to sup 1,
on an angular grid (d = 2).  It has the fixed points of the plain step
nu_{k+1}(v) = max_i nu_k(A_i v)/rho_k, but does not fall into its limit
cycles (Kozyakin, DCDS-B 14, 2010).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .cocycle import prefix_values
from .errors import InputError, NumericalError, require_fields, require_int
from .matrices import MatrixSet, max_entry_norm, operator_norm

__all__ = [
    "NormModel",
    "candidate_norms",
    "BarabanovCertificate",
    "check_extremal",
    "barabanov_iterate",
    "certified_norm",
    "extremal_norm_2d",
    "classify_extremality",
    "kozyakin_extremal_witness",
    "test_directions",
]

_LN = math.log


@dataclass(frozen=True)
class NormModel:
    """A computable vector norm with its induced matrix norm.

    ``params`` holds kind-specific data: nothing (euclidean / max_entry),
    ``weights`` (weighted_diag), or ``values`` as the length-m array of norm
    values on the uniform angular grid (angular_grid).

    An angular grid need not bound a convex ball.  On one that does not,
    ``vector`` and ``induced`` are not a norm's values: ``vector`` is the
    gauge of the star-shaped polygon through the grid vertices (the star
    gauge), and ``induced`` is the largest star gauge of A v over those
    vertices.  Rates taken with them are still upper bounds.  The convex
    hull of the vertices is the ball of a genuine norm, its vertices are
    grid vertices, and its gauge is at most the star gauge, so ``induced``
    bounds that norm's induced value from above.
    """

    kind: str
    dim: int
    weights: np.ndarray = None
    values: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "max_entry", "weighted_diag", "angular_grid"):
            raise InputError(f"unknown norm kind {self.kind!r}")
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        if self.kind == "weighted_diag":
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (self.dim,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise InputError("weights must be positive finite, one per axis")
            object.__setattr__(self, "weights", w)
        if self.kind == "angular_grid":
            if self.dim != 2:
                raise InputError("angular_grid norms exist only in dimension 2")
            h = np.asarray(self.values, dtype=np.float64)
            if h.ndim != 1 or h.shape[0] < 8 or h.shape[0] % 2 != 0:
                raise InputError("angular grid needs an even number >= 8 of values")
            if np.any(h <= 0) or not np.all(np.isfinite(h)):
                raise InputError("grid norm values must be positive finite")
            m = h.shape[0]
            if np.max(np.abs(h - np.roll(h, m // 2))) > 1e-9 * np.max(h):
                raise InputError("grid values must be antipodally symmetric")
            object.__setattr__(self, "values", h)

    # ---- vector norm -------------------------------------------------

    @cached_property
    def _grid_ball_vertices(self):
        m = self.values.shape[0]
        theta = 2.0 * math.pi * np.arange(m) / m
        return np.cos(theta) / self.values, np.sin(theta) / self.values

    def vector_many(self, points: np.ndarray) -> np.ndarray:
        """Norms of the rows of an (n, d) real or complex array."""
        points = np.asarray(points)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.dim:
            raise InputError("vector dimension mismatch")
        if self.kind == "euclidean":
            return np.linalg.norm(points, axis=1)
        if self.kind == "max_entry":
            return np.max(np.abs(points), axis=1)
        if self.kind == "weighted_diag":
            return np.max(self.weights[None, :] * np.abs(points), axis=1)
        if np.max(np.abs(np.imag(points))) > 0.0:
            raise InputError(f"{self.kind} norms are defined on real vectors only")
        points = np.real(points).astype(np.float64)
        vx, vy = self._grid_ball_vertices
        return _kernels.polygon_gauge(points[:, 0], points[:, 1], vx, vy)

    def vector(self, v) -> float:
        return float(self.vector_many(np.asarray(v)[None, :])[0])

    # ---- induced matrix norm ------------------------------------------

    def induced(self, a) -> float:
        """Matrix norm induced by this vector norm."""
        a = np.asarray(a, dtype=np.complex128)
        if a.shape != (self.dim, self.dim):
            raise InputError("matrix dimension mismatch")
        if self.kind == "euclidean":
            return operator_norm(a)
        if self.kind == "max_entry":
            return float(np.max(np.sum(np.abs(a), axis=1)))
        if self.kind == "weighted_diag":
            w = self.weights
            scaled = np.abs(a) * (w[:, None] / w[None, :])
            return float(np.max(np.sum(scaled, axis=1)))
        if np.max(np.abs(np.imag(a))) > 0.0:
            raise InputError(f"{self.kind} induced norms need real matrices")
        vx, vy = self._grid_ball_vertices
        ball = np.stack([vx, vy], axis=1)
        return float(np.max(self.vector_many(ball @ np.real(a).T)))

    # ---- serialisation -------------------------------------------------

    def to_json(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim}
        if self.weights is not None:
            out["weights"] = self.weights.tolist()
        if self.values is not None:
            out["values"] = self.values.tolist()
        return out

    @classmethod
    def from_json(cls, doc: dict) -> "NormModel":
        kind, dim = require_fields(doc, "norm", "kind", "dim")
        return cls(kind, require_int(dim, "dim"), doc.get("weights"), doc.get("values"))

    @classmethod
    def euclidean(cls, dim: int) -> "NormModel":
        return cls(kind="euclidean", dim=dim)

    @classmethod
    def sup(cls, dim: int) -> "NormModel":
        return cls(kind="max_entry", dim=dim)

    @classmethod
    def weighted(cls, weights) -> "NormModel":
        w = np.asarray(weights, dtype=np.float64)
        return cls(kind="weighted_diag", dim=w.shape[0], weights=w)

    @classmethod
    def angular_grid(cls, values) -> "NormModel":
        h = np.asarray(values, dtype=np.float64)
        return cls(kind="angular_grid", dim=2, values=h)


def candidate_norms(ms: MatrixSet) -> list:
    """Fixed norms to try as extremal, in order: sup first for diagonal sets,
    Euclidean, then sup weighted by the Perron vector of max_i |A_i|."""
    diagonal = all(
        max_entry_norm(a - np.diag(np.diag(a))) == 0.0 for a in ms.matrices
    )
    sup, euclid = NormModel.sup(ms.dim), NormModel.euclidean(ms.dim)
    cands = [sup, euclid] if diagonal else [euclid, sup]
    env = np.max(np.stack([np.abs(a) for a in ms.matrices]), axis=0)
    try:
        vals, vecs = np.linalg.eig(env)
        p = np.abs(vecs[:, int(np.argmax(np.abs(vals)))])
        if np.min(p) > 1e-12:
            cands.append(NormModel.weighted(1.0 / p))
    except np.linalg.LinAlgError:
        pass
    return cands


@dataclass(frozen=True)
class BarabanovCertificate:
    """Converged approximate Barabanov norm with its growth rate.

    ``residual`` is the largest observed |max_i nu(A_i v)/(rho_hat nu(v)) - 1|
    over the construction grid and a seeded batch of random directions.
    """

    norm: NormModel
    rho_hat: float
    residual: float
    iterations: int


def check_extremal(norm: NormModel, ms: MatrixSet, rho_hat: float, tol: float):
    """Is the induced norm of every A_i at most rho_hat*(1+tol)?

    Returns ``(ok, max_violation)`` where the violation is
    max_i induced(A_i)/rho_hat - 1 (negative slack allowed), or the raw
    induced norm when rho_hat = 0.
    """
    if rho_hat < 0.0:
        raise InputError("rho_hat must be >= 0")
    rate = _rate(ms, norm)
    worst = rate / rho_hat - 1.0 if rho_hat > 0.0 else rate
    return worst <= tol, worst


def _rate(ms: MatrixSet, norm: NormModel) -> float:
    """max_i induced(A_i): the growth rate ``norm`` certifies for ``ms``."""
    return max(norm.induced(a) for a in ms.matrices)


def residual_on(norm: NormModel, ms: MatrixSet, rho_hat: float, points: np.ndarray):
    """max over rows v of |max_i nu(A_i v)/(rho_hat nu(v)) - 1|."""
    base = norm.vector_many(points)
    best = np.full(points.shape[0], -np.inf)
    for a in ms.matrices:
        best = np.maximum(best, norm.vector_many(points @ np.real(a).T))
    ok = base > 0.0
    return float(np.max(np.abs(best[ok] / (rho_hat * base[ok]) - 1.0)))


def _grid_images(ms: MatrixSet, m: int):
    """The m grid directions u_j and the images A_i u_j with their sectors.

    The images do not depend on the grid values, so their angles and
    polygon sectors are computed once per call.  All ell images are
    stacked into one (ell*m) batch, image of A_1 first.
    """
    theta = 2.0 * math.pi * np.arange(m) / m
    grid = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    q = np.concatenate([grid @ np.real(a).T for a in ms.matrices])
    qx = np.ascontiguousarray(q[:, 0])
    qy = np.ascontiguousarray(q[:, 1])
    j, j1 = _kernels.polygon_sectors(qx, qy, m)
    return grid, (qx, qy, j, j1)


def _max_image_gauge(grid: np.ndarray, images, h: np.ndarray) -> np.ndarray:
    """max_i nu(A_i u_j) for every j, nu the grid norm with values h."""
    g = _kernels.polygon_gauge_at(*images, grid[:, 0] / h, grid[:, 1] / h)
    return g.reshape(-1, h.shape[0]).max(axis=0)


def barabanov_iterate(
    ms: MatrixSet,
    resolution: int = 2048,
    max_iters: int = 20000,
    tol: float = 1e-10,
    bounds=None,
    seed: int = 20240801,
) -> BarabanovCertificate:
    """Approximate Barabanov norm for a real 2x2 set on an angular grid.

    Iterates the relaxed step h_j <- (max_i nu(A_i u_j)/rho_k + h_j)/2,
    renormalised to sup 1, where rho_k = max_j max_i nu(A_i u_j) for the
    current h of sup 1; rho_k converges to the growth rate.  The step has
    the fixed points of the plain step h_j <- max_i nu(A_i u_j)/rho_k and,
    unlike it, does not fall into limit cycles (Kozyakin, DCDS-B 14, 2010).
    Convergence requires |rho_k - rho_{k-1}| <= tol and a sup-change of
    the grid values <= tol for three consecutive iterations.  The
    sup-change is that of the relaxed step, about half the fixed-point
    defect max_j |max_i nu(A_i u_j)/rho_k - h_j|, so at the stop that
    defect is about 2 * tol.

    The angles and polygon sectors of the images A_i u_j are computed once;
    each iteration only re-evaluates the gauge formula at them.

    Raises ``NumericalError`` at the cap and ``InputError`` on a reducible
    set.
    """
    if ms.dim != 2:
        raise InputError("the angular-grid construction needs dimension 2")
    if not ms.is_real():
        raise InputError("the Barabanov construction needs real matrices")
    if resolution % 8 != 0 or resolution < 8:
        raise InputError("resolution must be a positive multiple of 8")
    from .reducibility import find_common_invariant_subspace

    if find_common_invariant_subspace(ms) is not None:
        raise InputError(
            "matrix set is reducible; a Barabanov norm needs irreducibility"
        )

    m = resolution
    grid, images = _grid_images(ms, m)

    h = np.ones(m)
    streak = 0
    rho = math.nan
    for it in range(1, max_iters + 1):
        g = _max_image_gauge(grid, images, h)
        rho_prev, rho = rho, float(g.max())
        if rho <= 0.0:
            raise NumericalError("norm iteration collapsed to zero", operand=h)
        h_new = 0.5 * (g / rho + h)
        h_new = h_new / h_new.max()
        change = float(np.abs(h_new - h).max())
        if abs(rho - rho_prev) <= tol and change <= tol:
            streak += 1
        else:
            streak = 0
        h = h_new
        if streak >= 3:
            break
    else:
        raise NumericalError(
            f"Barabanov iteration did not converge in {max_iters} iterations",
            operand=h,
        )

    norm = NormModel.angular_grid(h)
    rng = np.random.default_rng(seed)
    random_dirs = rng.normal(size=(4096, 2))
    random_dirs /= np.linalg.norm(random_dirs, axis=1)[:, None]
    residual = max(
        residual_on(norm, ms, rho, grid),
        residual_on(norm, ms, rho, random_dirs),
    )
    if bounds is not None:
        lo = bounds.lower - residual * max(1.0, rho)
        hi = bounds.upper + residual * max(1.0, rho)
        if not lo <= rho <= hi:
            raise NumericalError(
                f"Barabanov growth rate {rho} escapes the certified interval "
                f"[{bounds.lower}, {bounds.upper}]",
                operand=h,
            )
    return BarabanovCertificate(norm=norm, rho_hat=rho, residual=residual, iterations=it)


def certified_norm(ms: MatrixSet, budget: float):
    """``(norm, rate, source)`` of the first norm whose rate
    max_i induced(A_i) is at most ``budget``, or None: ``candidate_norms``
    in order, then for real 2x2 sets a Barabanov norm (resolution 512, tol
    1e-8; an iteration that raises certifies nothing).  ``source`` is the
    norm's kind, or ``barabanov``."""
    for cand in candidate_norms(ms):
        rate = _rate(ms, cand)
        if rate <= budget:
            return cand, rate, cand.kind
    if not (ms.dim == 2 and ms.is_real()):
        return None
    try:
        cert = barabanov_iterate(ms, resolution=512, tol=1e-8)
    except (InputError, NumericalError):
        return None
    rate = _rate(ms, cert.norm)
    return (cert.norm, rate, "barabanov") if rate <= budget else None


def extremal_norm_2d(
    ms: MatrixSet,
    rho: float,
    resolution: int = 512,
    horizon: int = 200,
) -> NormModel:
    """Running-max extremal-norm construction for real 2x2 sets.

    Tracks s_n(v) = max over length-n words of ||L(w) v|| / rho**n on the
    angular grid via s_{n+1}(v) = max_i s_n(A_i v)/rho and returns the
    running maximum over n as a norm model.  Unlike the Barabanov
    iteration this never renormalises; the result is only extremal, not
    Barabanov.  ``rho`` should be a lower bound on the growth rate close
    to it (the running max grows without bound otherwise).
    """
    if ms.dim != 2:
        raise InputError("the angular-grid construction needs dimension 2")
    if not ms.is_real():
        raise InputError("the extremal-norm construction needs real matrices")
    if rho <= 0.0:
        raise InputError("rho must be positive")
    if resolution % 8 != 0 or resolution < 8:
        raise InputError("resolution must be a positive multiple of 8")
    m = resolution
    grid, images = _grid_images(ms, m)
    s = np.ones(m)
    h = np.ones(m)
    for _ in range(horizon):
        s = _max_image_gauge(grid, images, s) / rho
        if np.max(s) > 1e6:
            raise NumericalError(
                "running-max norm diverges; rho is far below the growth rate",
                operand=h,
            )
        h = np.maximum(h, s)
    return NormModel.angular_grid(h / np.max(h))


_EXTREMALITY_EPS = 1e-3  # classify_extremality's ratio floor and rate slack


def classify_extremality(ms: MatrixSet, norm: NormModel, rho_hat: float, w):
    """Finite-horizon extremality class of a word with its ratio trace.

    With eps = ``_EXTREMALITY_EPS``: ``StrongCandidate`` when
    nu(L(w, m)) >= eps * rho_hat**m for every prefix length m;
    ``WeakCandidate`` when only the endpoint rate satisfies
    log nu(L(w))/|w| >= log rho_hat - eps; ``Neither`` otherwise.
    The trace holds nu(L(w, m))/rho_hat**m for m = 1..|w|.
    """
    w = tuple(w)
    if len(w) < 1:
        raise InputError("classification needs a nonempty word")
    if rho_hat <= 0.0:
        raise InputError("rho_hat must be positive")
    logr = _LN(rho_hat)
    trace = []
    strong = True
    for cv in prefix_values(ms, w):
        m = len(cv.word)
        nu = norm.induced(cv.product)
        lognu = _LN(nu) + cv.log_scale if nu > 0.0 else -math.inf
        trace.append(math.exp(lognu - m * logr) if lognu > -math.inf else 0.0)
        if lognu < _LN(_EXTREMALITY_EPS) + m * logr:
            strong = False
    if strong:
        return "StrongCandidate", trace
    final = trace[-1]
    if final > 0.0 and _LN(final) / len(w) >= -_EXTREMALITY_EPS:
        return "WeakCandidate", trace
    return "Neither", trace


_RANDOM_DIRECTIONS = 64  # random directions at the end of test_directions
_DIRECTIONS_SEED = 7


def test_directions(norm: NormModel, dim: int):
    """Deterministic direction battery: signed axes first, then the norm's
    own ball vertices when it has any, then ``_RANDOM_DIRECTIONS`` random
    directions seeded with ``_DIRECTIONS_SEED``."""
    dirs = [np.eye(dim)[i] for i in range(dim)]
    dirs += [-np.eye(dim)[i] for i in range(dim)]
    if norm.kind == "angular_grid":
        vx, vy = norm._grid_ball_vertices
        dirs += [np.array([x, y]) for x, y in zip(vx, vy)]
    rng = np.random.default_rng(_DIRECTIONS_SEED)
    extra = rng.normal(size=(_RANDOM_DIRECTIONS, dim))
    dirs += [v for v in extra]
    return dirs


_KOZYAKIN_TOL = 0.1  # kozyakin_extremal_witness's relative shortfall


def kozyakin_extremal_witness(ms: MatrixSet, norm: NormModel, rho_hat: float, w):
    """Search for a unit vector whose norm image tracks rho_hat**m exactly.

    Looks for v with nu(v) = 1 and
    nu(L(w, m) v) >= (1 - ``_KOZYAKIN_TOL``) rho_hat**m for every m <= |w|,
    over the ``test_directions`` battery; returns the best qualifying unit
    vector or None.
    """
    w = tuple(w)
    if rho_hat <= 0.0:
        raise InputError("rho_hat must be positive")
    prefixes = prefix_values(ms, w)
    logr = _LN(rho_hat)
    floor = _LN(1.0 - _KOZYAKIN_TOL)
    best_v = None
    best_margin = -math.inf
    for v in test_directions(norm, ms.dim):
        v = np.asarray(v, dtype=np.float64)
        nv = norm.vector(v)
        if nv == 0.0:
            continue
        v = v / nv
        margin = math.inf
        for cv in prefixes:
            m = len(cv.word)
            img = np.real(cv.product) @ v if ms.is_real() else cv.product @ v
            nu = norm.vector_many(img[None, :])[0]
            lognu = _LN(nu) + cv.log_scale if nu > 0.0 else -math.inf
            margin = min(margin, lognu - m * logr)
            if margin < floor:
                break
        if margin >= floor and margin > best_margin:
            best_margin = margin
            best_v = v
    return best_v
