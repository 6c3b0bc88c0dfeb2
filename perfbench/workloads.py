"""The workloads: seeded case streams, the public jsrkit calls each case
makes, and checks against references that do not depend on jsrkit.

Case i of a workload is drawn from ``numpy.random.default_rng([seed, i])``
(certify's alpha also from one offset per seed), so a run's cases are
always a prefix of the seed's stream and a case can be rebuilt from its
index.  Each case kind is fixed by i, so every
run sees the same mix of kinds.

A runner makes the timed calls and returns an Outcome whose checks run
after the clock stops.  Spans open only around calls into jsrkit and counts
are computed from their arguments and results; the library itself is not
instrumented.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from jsrkit import (
    MarkovChainSpec,
    MatrixSet,
    NormModel,
    barabanov_iterate,
    beta_sandwich,
    build_mather_approx,
    estimate,
    extremal_norm_2d,
    lower_bound_periodic,
    markov_lyapunov,
    matrix_observable,
    minimal_set_diagnostic,
    ratio_curve,
    recurrent_ratio_check,
    triangularise,
    upper_bound_at_depth,
)
from jsrkit.errors import InputError, JsrkitError, NumericalError
from jsrkit.families import pair_family, rotation

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
SHEAR = (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]]))
NILPOTENT = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
# ROADMAP C's reproducers: a reducible pair on which estimate stalls (the
# enclose workload also draws pairs like it, {[[1, b], [0, 1]], a*I}), and
# the single matrix on which beta_sandwich's lower side exceeds log JSR = 0.
STALL_PAIR = (np.array([[1.0, 100.0], [0.0, 1.0]]), 0.5 * np.eye(2))
BETA_REPRODUCER = (np.array([[1.0, 100.0], [0.0, 1.0]]),)
RATIO_ALPHAS = tuple(round(0.1 + 0.05 * k, 10) for k in range(19))

# Kinds and shapes (d, ell) follow a fixed cycle in every workload, so that
# runs of every seed do the same mix of work and only the entries change;
# markov's random, orthogonal and diagonal sets take these shapes in turn.
SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))

REL = 1e-9  # slack for comparing two norm-based values in floating point


@dataclass
class Outcome:
    """What a case produced: checks to run untimed, plus quality figures."""

    checks: list = field(default_factory=list)  # (name, zero-arg callable)
    solved: list = field(default_factory=list)  # one flag per solved_frac unit
    gaps: list = field(default_factory=list)  # (upper - lower) / upper

    def check(self, name, fn):
        self.checks.append((name, fn))


# ---------------------------------------------------------------- references


def periodic_value(ms: MatrixSet, word) -> float:
    """rho(L(w))**(1/|w|) by numpy.linalg.eigvals, rescaling as it goes."""
    product = np.eye(ms.dim, dtype=np.complex128)
    log_scale = 0.0
    for s in word:
        product = ms.matrices[s - 1] @ product
        m = np.max(np.abs(product))
        if m == 0.0:
            return 0.0
        product = product / m
        log_scale += math.log(m)
    r = float(np.max(np.abs(np.linalg.eigvals(product))))
    return math.exp((math.log(r) + log_scale) / len(word)) if r > 0.0 else 0.0


def log_depth_bounds(ms: MatrixSet, depth: int) -> list:
    """(1/n) log max over length-n words of ||L(w)||_2, for n = 1..depth."""
    stack = np.asarray(ms.matrices, dtype=np.complex128)
    products = stack
    out = []
    for n in range(1, depth + 1):
        if n > 1:
            products = np.einsum("iab,jbc->ijac", stack, products).reshape(
                -1, ms.dim, ms.dim
            )
        top = float(np.max(np.linalg.norm(products, ord=2, axis=(1, 2))))
        out.append(math.log(top) / n if top > 0.0 else -math.inf)
    return out


def close(a: float, b: float, rel: float = 1e-8) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def spectral_radius_np(a) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def eig_rel(ms: MatrixSet, value: float) -> float:
    """Relative slack for a value of ms computed from eigenvalues.

    A defective eigenvalue of A, as in the Jordan pairs of ``enclose``, is
    accurate only to about sqrt(eps) * |A|; the factor 64 covers products.
    """
    scale = max(np.linalg.norm(a, 2) for a in ms.matrices)
    return max(REL, 64 * math.sqrt(np.finfo(float).eps) * scale / value) if value > 0 else REL


def witness_checks(out: Outcome, ms: MatrixSet, value: float, witness, upper=None):
    """The witness reproduces the lower bound; no upper bound undercuts it."""
    out.check("witness.eigvals", lambda: close(periodic_value(ms, witness), value, eig_rel(ms, value)))
    if upper is not None:
        out.check("lower_le_upper", lambda: value <= upper * (1 + eig_rel(ms, value)))


def known_jsr_checks(out: Outcome, ms: MatrixSet, lower: float, upper: float, jsr: float):
    out.check(
        "known_jsr.enclosed",
        lambda: lower <= jsr * (1 + eig_rel(ms, jsr)) and upper >= jsr * (1 - REL),
    )


# ---------------------------------------------------------- input generators


def normal_set(rng, dim: int, size: int) -> MatrixSet:
    return MatrixSet(tuple(rng.normal(size=(dim, dim)) for _ in range(size)))


def orthogonal(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def conjugated(mats, q) -> MatrixSet:
    return MatrixSet(tuple(q @ a @ q.T for a in mats))


def full_chain(rng, states: int, stationary_start: bool = False) -> MarkovChainSpec:
    """Half uniform, half Dirichlet rows: every transition is >= 1/(2*states)."""
    p = 0.5 / states + 0.5 * rng.dirichlet(np.ones(states), size=states)
    p /= p.sum(axis=1, keepdims=True)
    if stationary_start:
        vals, vecs = np.linalg.eig(p.T)
        pi = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
    else:
        pi = 0.5 / states + 0.5 * rng.dirichlet(np.ones(states))
    pi /= pi.sum()
    return MarkovChainSpec(transition=p, initial=pi, seed=int(rng.integers(2**31)))


# --------------------------------------------------------- traced public calls


def call_estimate(tr, out, ms, gap, budget, max_depth=64, primary=True, solved=False):
    with tr.span("bounds.estimate"):
        b = estimate(ms, target_gap=gap, budget=budget, max_depth=max_depth)
    tr.count("bounds.estimate.evaluations", b.evaluations)
    tr.count("bounds.estimate.converged", int(b.converged))
    if primary:
        out.gaps.append((b.upper - b.lower) / b.upper if b.upper > 0.0 else 0.0)
        if solved:
            out.solved.append(b.converged)
    if b.lower_witness is not None:
        witness_checks(out, ms, b.lower, b.lower_witness, b.upper)
    return b


def necklace_count(ell: int, n: int) -> int:
    """Primitive necklaces of length n over ell symbols (Moebius formula)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(d) * ell ** (n // d)
    return total // n


def _moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def call_lower_bound_periodic(tr, out, ms, max_period, upper=None):
    with tr.span("bounds.lower_bound_periodic"):
        value, witness = lower_bound_periodic(ms, max_period)
    tr.count(
        "bounds.lower_bound_periodic.words",
        sum(necklace_count(len(ms), n) for n in range(1, max_period + 1)),
    )
    witness_checks(out, ms, value, witness, upper)
    return value, witness


def call_upper_bound_at_depth(tr, out, ms, lower):
    ell = len(ms)
    depth = int(16 // math.log2(ell))  # ell**depth <= 2**16
    with tr.span("bounds.upper_bound_at_depth"):
        upper = upper_bound_at_depth(ms, depth)
    tr.count("bounds.upper_bound_at_depth.products", sum(ell**n for n in range(1, depth + 1)))
    out.check("depth_bound_ge_lower", lambda: upper >= lower * (1 - eig_rel(ms, lower)))
    return upper


# --------------------------------------------------------------------- sweep

SWEEP_TOL = 5e-3
BARABANOV_ITERS = 20000


def norm_candidates(ms: MatrixSet) -> list:
    """Euclidean, sup and a Perron-weighted norm, as criterion 5 tries them."""
    d = ms.dim
    diagonal = all(np.count_nonzero(a - np.diag(np.diag(a))) == 0 for a in ms.matrices)
    cands = [NormModel.euclidean(d)]
    cands.insert(0 if diagonal else 1, NormModel.sup(d))
    env = np.max(np.stack([np.abs(a) for a in ms.matrices]), axis=0)
    try:
        vals, vecs = np.linalg.eig(env)
    except np.linalg.LinAlgError:
        return cands
    p = np.abs(vecs[:, int(np.argmax(np.abs(vals)))])
    if np.min(p) > 1e-12:
        cands.append(NormModel.weighted(1.0 / p))
    return cands


def norm_rate(tr, ms: MatrixSet, norm: NormModel) -> float:
    """The rate a norm certifies: max_i of its induced norm of A_i."""
    with tr.span("norms.NormModel.induced"):
        return max(norm.induced(a) for a in ms.matrices)


def certify(tr, ms: MatrixSet, lower: float, resolution: int, horizon: int, max_iters=BARABANOV_ITERS):
    """A norm and its certified rate within SWEEP_TOL of ``lower``, or None.

    Tries the candidate norms, then a Barabanov iteration on a 512-point
    grid for up to ``max_iters`` iterations, then the running-max extremal
    norm at ``resolution``/``horizon``.
    """
    tr.count("certify.attempts")
    with tr.span("certify"):
        found = _certify(tr, ms, lower, resolution, horizon, max_iters)
    tr.count("certify.certified", int(found is not None))
    return found


def _certify(tr, ms, lower, resolution, horizon, max_iters):
    if lower <= 0.0:
        return None
    budget = lower * (1.0 + SWEEP_TOL)
    for cand in norm_candidates(ms):
        rho_c = norm_rate(tr, ms, cand)
        if rho_c <= budget:
            return cand, rho_c
    ell = len(ms)
    cert = None
    try:
        with tr.span("norms.barabanov_iterate"):
            cert = barabanov_iterate(ms, resolution=512, tol=1e-8, max_iters=max_iters, seed=1)
    except NumericalError as err:
        # a run that hit the iteration cap did every iteration (computed)
        if "did not converge" in str(err):
            tr.count("norms.barabanov_iterate.iterations", max_iters)
            tr.count("norms.barabanov_iterate.gauge_points", max_iters * 512 * ell)
    except InputError:
        pass
    if cert is not None:
        tr.count("norms.barabanov_iterate.iterations", cert.iterations)
        tr.count("norms.barabanov_iterate.gauge_points", cert.iterations * 512 * ell)
        rho_c = norm_rate(tr, ms, cert.norm)
        if rho_c <= budget:
            return cert.norm, rho_c
    try:
        with tr.span("norms.extremal_norm_2d"):
            norm = extremal_norm_2d(ms, lower, resolution=resolution, horizon=horizon)
    except (InputError, NumericalError):
        return None
    tr.count("norms.extremal_norm_2d.gauge_points", horizon * resolution * ell)
    rho_c = norm_rate(tr, ms, norm)
    return (norm, rho_c) if rho_c <= budget else None


def call_mather(tr, ms, norm, rho_c):
    try:
        with tr.span("mather.build_mather_approx"):
            ap = build_mather_approx(ms, norm, rho_c, max_depth=8, tol=SWEEP_TOL)
    except JsrkitError:
        return None
    tr.count("mather.build_mather_approx.survivors", sum(len(s) for s in ap.survivors.values()))
    return ap


def sweep_case(seed: int, i: int) -> dict:
    rng = np.random.default_rng([seed, i])
    return {"id": i, "kind": "pair", "set": normal_set(rng, 2, 2)}


def run_sweep(case, tr) -> Outcome:
    """Criterion 5 on one N(0,1) pair, built from public names only."""
    out = Outcome()
    b0 = call_estimate(tr, out, case["set"], 1e-3, 200000, 40)
    ms = case["set"].scaled(1.0 / b0.upper)
    b = call_estimate(tr, out, ms, 1e-3, 200000, 40)
    out.check("sweep.scaled_to_one", lambda: 0.995 <= b.upper <= 1.005)
    periodic, _ = call_lower_bound_periodic(tr, out, ms, 8, b.upper)
    if periodic >= 1.0:
        out.solved.append(True)  # periodic counterexample
        return out
    found = certify(tr, ms, b.lower, 512, 200)
    ap = None
    if found is not None:
        ap = call_mather(tr, ms, *found)
        if ap is None:
            tr.count("certify.retries")
            found = certify(tr, ms, b.lower, 2048, 600)
            if found is not None:
                ap = call_mather(tr, ms, *found)
    if ap is None:
        out.solved.append(False)  # no certified norm with nonempty survivors
        return out
    survivor_checks(tr, out, ms, ap, found[1], b.lower, b.upper)
    if ap.is_full_language():
        out.solved.append(True)
        return out
    chain = MarkovChainSpec.uniform(2, seed=7)
    est = call_markov(tr, ms, chain, 200, 64)
    evidence = est.absorbed_count > 0 or (
        math.isfinite(est.lambda_hat) and est.lambda_hat + 3 * est.stderr < 0
    )
    out.check("sweep.flagged_has_markov_evidence", lambda: evidence)
    out.solved.append(evidence)
    return out


def survivor_checks(tr, out, ms, ap, rho_c, lower, upper):
    """Diagnose the survivors of a certified norm and check what it found.

    ``lower`` and ``upper`` bound the JSR independently of the norm; the
    norm's rate ``rho_c`` is itself an upper bound, so it is at least
    ``lower``, and no cycle of the survivor graph beats ``upper``.
    """
    out.check("certified_rate_ge_lower", lambda: rho_c >= lower * (1 - eig_rel(ms, lower)))
    with tr.span("mather.minimal_set_diagnostic"):
        diag = minimal_set_diagnostic(ap)
    with tr.span("mather.recurrent_ratio_check"):
        rec = recurrent_ratio_check(ap)
    tr.count("mather.recurrent_ratio_check.cycles_examined", rec["cycles_examined"])
    out.check("survivors.nested", lambda: survivors_nested(ap.survivors))
    out.check("diagnostic.consistent", lambda: (diag.kind == "UniqueSCC") == (diag.count == 1))
    if rec["best_cycle"] is not None:
        out.check(
            "cycle_ratio.eigvals",
            lambda: close(periodic_value(ms, rec["best_cycle"]) / rho_c, rec["max_ratio"], eig_rel(ms, lower)),
        )
        out.check("cycle_ratio_le_upper", lambda: rec["max_ratio"] * rho_c <= upper * (1 + eig_rel(ms, lower)))


def survivors_nested(survivors: dict) -> bool:
    """Every depth-n survivor's prefix and shift survive at depth n-1."""
    for n in sorted(survivors)[1:]:
        prev = survivors[n - 1]
        if any(w[:-1] not in prev or w[1:] not in prev for w in survivors[n]):
            return False
    return True


# ------------------------------------------------------------------- certify

# sweep's certify and survivor steps on 2x2 pairs whose certify path is
# fixed by their kind, so that every run does the same mix of work:
#   euclidean  c*R(t1), c*R(t2)*diag(1, s): the Euclidean norm certifies c
#   reducible  a hidden triangular pair with JSR c: Barabanov rejects it as
#              reducible, the extremal norm certifies, and the survivor set
#              empties, so build_mather_approx fails
#   barabanov  pair_family(alpha), alpha in [0.20, 0.29]: Barabanov
#              converges in about 950 to 1650 iterations
#   capped     CAPPED_PAIR scaled by c: Barabanov cycles to the cap, then
#              the extremal norm certifies (ROADMAP C's fail-fast path)
# Per cycle of ten, the three capped cases are the slowest and the four
# Barabanov cases hold the median, each with a margin on either side.
CERTIFY_KINDS = (
    "reducible", "barabanov", "capped", "barabanov", "euclidean",
    "capped", "barabanov", "reducible", "capped", "barabanov",
)
CERTIFY_ITERS = 2000  # every barabanov case converges well inside this cap
CAPPED_PAIR = (rotation(0.7) @ np.diag([1.0, 0.4]), rotation(2.5) @ np.diag([1.0, 0.6]))


@functools.lru_cache(maxsize=None)
def capped_lower() -> float:
    """max over words of length <= 8 of CAPPED_PAIR's periodic values."""
    ms = MatrixSet(CAPPED_PAIR)
    return max(periodic_value(ms, w) for n in range(1, 9) for w in itertools.product((1, 2), repeat=n))


def power_word_lower(a, b, words: int) -> float:
    """max over k < words of rho(a^k b)**(1/(k+1)), by numpy.linalg.eigvals."""
    product, best = b, spectral_radius_np(b)
    for k in range(1, words):
        product = a @ product
        best = max(best, spectral_radius_np(product) ** (1.0 / (k + 1)))
    return best


def certify_case(seed: int, i: int) -> dict:
    """A pair and a lower bound on its JSR, computed with numpy alone."""
    rng = np.random.default_rng([seed, i])
    kind = CERTIFY_KINDS[i % len(CERTIFY_KINDS)]
    case = {"id": i, "kind": kind}
    c = float(rng.uniform(0.5, 2.0))
    if kind == "euclidean":
        t = rng.uniform(0.0, 2.0 * math.pi, size=2)
        mats = (c * rotation(t[0]), c * rotation(t[1]) @ np.diag([1.0, rng.uniform(0.2, 0.9)]))
        case["set"] = MatrixSet(mats)
        case["lower"] = c  # the JSR
    elif kind == "reducible":
        sign = lambda: rng.choice([-1.0, 1.0])  # noqa: E731
        tri = [
            np.array([[sign() * c * top, sign() * c * rng.uniform(1.0, 2.0)], [0.0, sign() * c * rng.uniform(0.2, 0.6)]])
            for top in (1.0, rng.uniform(0.2, 0.8))
        ]
        case["set"] = conjugated(tri, orthogonal(rng, 2))
        case["lower"] = c  # the JSR
    elif kind == "barabanov":
        # alpha steps through the range by the golden ratio from one seeded
        # offset, so every run covers it evenly: the iteration count is not
        # monotone in alpha, and uneven draws would move the median case
        offset = np.random.default_rng([seed]).uniform()
        ms = pair_family(0.20 + 0.09 * ((offset + i * (GOLDEN - 1.0)) % 1.0))
        case["set"] = ms
        case["lower"] = power_word_lower(*ms.matrices, 24)
    else:
        case["set"] = MatrixSet(tuple(c * a for a in CAPPED_PAIR))
        case["lower"] = c * capped_lower()
    return case


def run_certify(case, tr) -> Outcome:
    """Certify a norm near the lower bound, build survivors and diagnose them."""
    out = Outcome()
    ms, lower = case["set"], case["lower"]
    found = certify(tr, ms, lower, 512, 200, CERTIFY_ITERS)
    out.solved.append(found is not None)
    if found is None:
        return out
    norm, rho_c = found
    out.gaps.append((rho_c - lower) / rho_c)
    if case["kind"] == "euclidean":
        out.check("euclidean.rate_is_jsr", lambda: close(rho_c, lower, 1e-9))
    ap = call_mather(tr, ms, norm, rho_c)
    if ap is not None:
        survivor_checks(tr, out, ms, ap, rho_c, lower, rho_c)
    return out


# ------------------------------------------------------------------- enclose

# Per cycle of fourteen: four fast sets (a 2x3 random set and three
# references), four 3x3 pairs (three random, one separated triangular), two
# 4x4 random sets and four budget-bound Jordan sets.  The median case is
# then a 3x3 pair and the case with ten beyond it a Jordan set, each inside
# a cluster of like cases, for any seed and for 40 to 90 cases a run.
#
# estimate's cost on a hidden triangular set is bimodal: a few evaluations
# when the diagonal blocks are apart and weakly coupled, its whole budget
# when they tie through a Jordan coupling (ROADMAP C's stall).  Sets with
# random couplings fall on either side at random, and the number that did
# moved cases_per_s by up to 30% between seeds, so each cycle holds one set
# of each regime.
ENCLOSE_CYCLE = (
    ("random", 2, 3), ("triangular", 3, 2), ("stall_pair", 2, 2), ("random", 3, 2),
    ("reference", 0, 0), ("random", 4, 2), ("jordan_pair", 2, 2), ("random", 3, 2),
    ("tied_triangular", 3, 2), ("reference", 1, 0), ("random", 4, 3), ("jordan_pair", 2, 2),
    ("random", 3, 2), ("reference", 2, 0),
)
REFERENCES = ("diagonal", "shear", "nilpotent", "rotations")


def enclose_case(seed: int, i: int) -> dict:
    rng = np.random.default_rng([seed, i])
    kind, d, ell = ENCLOSE_CYCLE[i % len(ENCLOSE_CYCLE)]
    case = {"id": i, "kind": kind, "jsr": None}
    if kind == "random":
        case["set"] = normal_set(rng, d, ell)
    elif kind == "triangular":
        # position j of the diagonals peaks at r**k_j, k a permutation of
        # 0..d-1 and r in [0.4, 0.6]; the couplings are a tenth of N(0, 1)
        c = float(rng.uniform(0.5, 2.0))
        top = rng.uniform(0.4, 0.6) ** rng.permutation(d)
        diag = top * rng.uniform(-0.8, 0.8, size=(ell, d))
        diag[rng.integers(ell, size=d), np.arange(d)] = top * rng.choice([-1.0, 1.0], size=d)
        tri = [c * (np.diag(diag[k]) + 0.1 * np.triu(rng.normal(size=(d, d)), 1)) for k in range(ell)]
        case["set"] = conjugated(tri, orthogonal(rng, d))
        case["jsr"] = c
    elif kind == "tied_triangular":
        # the first matrix holds a Jordan block [[1, b], [0, 1]], b in [50, 150];
        # every other diagonal entry is below 0.7 in modulus
        c = float(rng.uniform(0.5, 2.0))
        a = np.triu(rng.normal(size=(d, d)), 1)
        a[0, 1] = rng.uniform(50.0, 150.0)
        a += np.diag(np.concatenate([[1.0, 1.0], rng.uniform(0.2, 0.6, size=d - 2)]))
        b = np.triu(rng.normal(size=(d, d)), 1) + np.diag(rng.uniform(-0.7, 0.7, size=d))
        case["set"] = conjugated((c * a, c * b), orthogonal(rng, d))
        case["jsr"] = c
    elif kind == "stall_pair":
        case["set"] = conjugated(STALL_PAIR, orthogonal(rng, 2))
        case["jsr"] = 1.0
    elif kind == "jordan_pair":
        jordan = np.array([[1.0, rng.uniform(50.0, 150.0)], [0.0, 1.0]])
        case["set"] = conjugated((jordan, rng.uniform(0.3, 0.7) * np.eye(2)), orthogonal(rng, 2))
        case["jsr"] = 1.0
    else:
        # three reference slots per cycle take the four references in turn
        kind = case["kind"] = REFERENCES[(3 * (i // len(ENCLOSE_CYCLE)) + d) % len(REFERENCES)]
        c = float(rng.uniform(0.5, 2.0))
        if kind == "diagonal":
            mats, jsr = (np.diag([3.0, 1.0]), np.diag([1.0, 3.0])), 3.0
        elif kind == "shear":
            mats, jsr = SHEAR, GOLDEN
        elif kind == "nilpotent":
            mats, jsr = NILPOTENT, 1.0
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=3)
            mats = tuple(rotation(t) for t in angles)
            jsr = 1.0
        case["set"] = conjugated(tuple(c * a for a in mats), orthogonal(rng, 2))
        case["jsr"] = c * jsr
    return case


def run_enclose(case, tr) -> Outcome:
    """estimate at a fixed budget; reducible sets are also split into blocks."""
    out = Outcome()
    ms, jsr = case["set"], case["jsr"]
    b = call_estimate(tr, out, ms, 1e-2, 20000, solved=True)
    call_upper_bound_at_depth(tr, out, ms, b.lower)
    if jsr is not None:
        known_jsr_checks(out, ms, b.lower, b.upper, jsr)
    if case["kind"] == "shear":
        c = jsr / GOLDEN
        out.check("shear.witness", lambda: b.lower_witness == (1, 2) and close(b.lower, c * GOLDEN))
    if case["kind"] in ("triangular", "tied_triangular", "stall_pair", "jordan_pair"):
        with tr.span("reducibility.triangularise"):
            tri = triangularise(ms)
        blocks = [
            call_estimate(tr, out, part, 1e-2, 20000, primary=False)
            for part in (tri.upper_blocks, tri.lower_blocks)
        ]
        out.check(
            "blocks.dims",
            lambda: tri.upper_blocks.dim + tri.lower_blocks.dim == ms.dim,
        )
        known_jsr_checks(out, ms, max(x.lower for x in blocks), max(x.upper for x in blocks), jsr)
    return out


# ------------------------------------------------------------------ periodic

# Three of eight cases enumerate period-12 necklaces of 3x3 pairs, so the
# median case is one of these like cases and not a boundary between kinds.
PERIODIC_KINDS = (
    "necklaces2", "necklaces3", "beta", "necklaces2", "ratio_curve", "necklaces2", "necklaces3",
    "beta_reproducer",
)


def periodic_case(seed: int, i: int) -> dict:
    rng = np.random.default_rng([seed, i])
    kind = PERIODIC_KINDS[i % len(PERIODIC_KINDS)]
    d = (2, 3, 4)[(i // len(PERIODIC_KINDS)) % 3]
    case = {"id": i, "kind": kind}
    if kind == "necklaces2":
        case["set"] = normal_set(rng, 3, 2)
    elif kind == "necklaces3":
        case["set"] = normal_set(rng, d, 3)
    elif kind == "beta":
        case["set"] = normal_set(rng, d, 2)
    elif kind == "beta_reproducer":
        case["set"] = MatrixSet(BETA_REPRODUCER)
    return case


def run_periodic(case, tr) -> Outcome:
    """Flat enumeration of short words: necklaces, ratio curve, beta sandwich."""
    out = Outcome()
    kind = case["kind"]
    if kind.startswith("necklaces"):
        ms = case["set"]
        value, _ = call_lower_bound_periodic(tr, out, ms, 12 if len(ms) == 2 else 8)
        out.check(
            "periodic_ge_radius",
            lambda: value >= max(spectral_radius_np(a) for a in ms.matrices) * (1 - eig_rel(ms, value)),
        )
        out.check(
            "periodic_le_norm",
            lambda: value <= max(np.linalg.norm(a, 2) for a in ms.matrices) * (1 + eig_rel(ms, value)),
        )
    elif kind == "ratio_curve":
        with tr.span("oneratio.ratio_curve"):
            curve = ratio_curve(pair_family, RATIO_ALPHAS, 1, max_period=10)
        tr.count("oneratio.ratio_curve.words", len(RATIO_ALPHAS) * sum(necklace_count(2, n) for n in range(1, 11)))
        out.check("ratio_curve.jump_le_0.2", lambda: ratio_jumps_ok(curve))
        out.check("ratio_curve.shear_gamma_half", lambda: shear_row_ok(curve))
    else:
        ms = case["set"]
        depth = period = 8
        with tr.span("subadditive.beta_sandwich"):
            lower, upper = beta_sandwich(matrix_observable(ms), depth=depth, max_period=period)
        ell = len(ms)
        tr.count(
            "subadditive.beta_sandwich.observable_calls",
            sum(ell**n for n in range(1, depth + 1))
            + sum(necklace_count(ell, p) * max(1, math.ceil(depth / p)) for p in range(1, period + 1)),
        )
        # log JSR is 0 for the reproducer and at most the depth-12 bound otherwise
        reproducer = kind == "beta_reproducer"
        out.check("beta.upper_is_depth_bound", lambda: close(upper, min(log_depth_bounds(ms, depth)), 1e-9))
        out.check(
            "beta.lower_le_log_jsr",
            lambda: lower <= (0.0 if reproducer else min(log_depth_bounds(ms, 12))) + 1e-9,
        )
    return out


def ratio_jumps_ok(curve) -> bool:
    unique = [r for r in curve["rows"] if r["unique"]]
    jumps = [abs(b["gamma"] - a["gamma"]) for a, b in zip(unique, unique[1:])]
    return len(unique) >= 2 and max(jumps) <= 0.2 and curve["max_adjacent_jump"] <= 0.2


def shear_row_ok(curve) -> bool:
    row = next(r for r in curve["rows"] if r["alpha"] == 1.0)
    return row["gamma"] == 0.5 and row["witness"] == (1, 2)


# -------------------------------------------------------------------- markov

MARKOV_KINDS = ("random_uniform", "random_chain", "orthogonal", "diagonal", "nilpotent")
HORIZON = 1000
TRIALS = 64


def markov_case(seed: int, i: int) -> dict:
    rng = np.random.default_rng([seed, i])
    kind = MARKOV_KINDS[i % len(MARKOV_KINDS)]
    d, ell = SHAPES[(i // len(MARKOV_KINDS)) % len(SHAPES)]
    case = {"id": i, "kind": kind, "lambda": None}
    if kind == "random_uniform":
        case["set"] = normal_set(rng, d, ell)
        case["chain"] = MarkovChainSpec.uniform(ell, seed=int(rng.integers(2**31)))
    elif kind == "random_chain":
        case["set"] = normal_set(rng, d, ell)
        case["chain"] = full_chain(rng, ell)
    elif kind == "orthogonal":
        c = float(rng.uniform(0.7, 1.5))
        case["set"] = MatrixSet(tuple(c * orthogonal(rng, d) for _ in range(ell)))
        case["chain"] = full_chain(rng, ell)
        case["lambda"] = math.log(c)
    elif kind == "diagonal":
        # coordinate 1 dominates every matrix, so the top exponent is the
        # stationary mean of log|a_i[0, 0]|; starting stationary makes the
        # finite-horizon estimate unbiased
        lead = rng.uniform(1.5, 3.0, size=ell) * rng.choice([-1.0, 1.0], size=ell)
        mats = [np.diag(np.concatenate([[lead[k]], rng.uniform(-1.0, 1.0, size=d - 1)])) for k in range(ell)]
        case["set"] = MatrixSet(tuple(mats))
        case["chain"] = full_chain(rng, ell, stationary_start=True)
        case["lambda"] = float(case["chain"].initial @ np.log(np.abs(lead)))
    else:
        c = float(rng.uniform(0.5, 2.0))
        case["set"] = MatrixSet(tuple(c * a for a in NILPOTENT))
        case["chain"] = full_chain(rng, 2)
    return case


def call_markov(tr, ms, chain, horizon, trials):
    with tr.span("stability.markov_lyapunov"):
        est = markov_lyapunov(ms, chain, horizon=horizon, trials=trials)
    tr.count("stability.markov_lyapunov.symbol_steps", horizon * trials)
    tr.count("stability.markov_lyapunov.absorbed_trials", est.absorbed_count)
    return est


def run_markov(case, tr) -> Outcome:
    """markov_lyapunov at horizon 1000 with 64 trials."""
    out = Outcome()
    ms, kind, lam = case["set"], case["kind"], case["lambda"]
    est = call_markov(tr, ms, case["chain"], HORIZON, TRIALS)
    if kind == "nilpotent":
        out.check("markov.fully_absorbed", lambda: est.absorbed_count == TRIALS)
    elif kind == "orthogonal":
        # ||c^n Q||_max lies in [c^n / sqrt(d), c^n] for orthogonal Q
        slack = math.log(ms.dim) / (2 * HORIZON)
        out.check("markov.orthogonal_exact", lambda: lam - slack - 1e-12 <= est.lambda_hat <= lam + 1e-12)
    elif kind == "diagonal":
        out.check("markov.within_5_stderr", lambda: abs(est.lambda_hat - lam) <= 5 * est.stderr)
    else:
        # |L(x, n)|_max <= prod |A|_2, and >= prod sigma_min(A) / d, so a
        # trial can fall below the absorption floor 1e-300 only that fast
        out.check("markov.rate_le_top_norm", lambda: rate_le_top_norm(ms, est))
        out.check("markov.absorption_possible", lambda: absorption_possible(ms, est))
    return out


def rate_le_top_norm(ms, est) -> bool:
    top = max(math.log(np.linalg.norm(a, 2)) for a in ms.matrices)
    return not math.isfinite(est.lambda_hat) or est.lambda_hat <= top + 1e-12


def absorption_possible(ms, est) -> bool:
    least = min(np.linalg.norm(a, -2) for a in ms.matrices)
    return least == 0.0 or all(
        s * math.log(least) - math.log(ms.dim) < math.log(1e-300) + 1e-9
        for s in est.absorption_steps
    )


WORKLOADS = {
    "sweep": (sweep_case, run_sweep),
    "certify": (certify_case, run_certify),
    "enclose": (enclose_case, run_enclose),
    "periodic": (periodic_case, run_periodic),
    "markov": (markov_case, run_markov),
}
