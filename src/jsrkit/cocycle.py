"""Matrix cocycle over the full shift: scaled products along finite words.

For a word w = (w_1, ..., w_n) the cocycle value is the product
A_{w_n} ... A_{w_1}: the symbol read at time k multiplies on the LEFT.
The joint spectral radius does not depend on this orientation, but the
growth-maximising sequence semantics do, so the convention is fixed here
once and used everywhere.

Products are kept in a scaled representation ``product * exp(log_scale)``.
There is one rescale rule, and only this module applies it: after each
multiplication, a product whose max-entry norm m has frexp exponent e
(m in [2**(e-1), 2**e)) with |e| > 32 is multiplied by 2**-e and e*ln 2
is added to its log scale.  The factors are exact powers of two, so the
log bookkeeping is exact.  ``_rescale`` applies it to one product (the
per-word loops), ``_rescale_batch`` to a stack.

Product-tree levels are built and read only here, by three helpers that
``bounds``, ``reducibility`` and ``subadditive`` share:

- ``_extend``: every one-symbol extension of a level, rescaled;
- ``_log_norms``: log of the ``op`` or ``max`` norm of each true product
  (``_check_norm`` rejects any other name);
- ``_rates``: rho(L(w))**(1/|w|) of each true product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matrices import MatrixSet, _eigvals, _op_norms, max_entry_norm
from .words import necklace_trie

__all__ = [
    "CocycleValue",
    "evaluate",
    "prefix_values",
    "cocycle_check",
    "path_log_norms",
    "periodic_values",
    "word_log_norms",
]

_LN2 = math.log(2.0)
_SCALE_HI = 32  # rescale when the max entry leaves [2**-32, 2**32]
_BLOCK = 16  # path steps multiplied into one block product
_BLOCK_RANGE = 900  # log2 range a block product may span unrescaled


@dataclass(frozen=True)
class CocycleValue:
    """A matrix product in scaled form: true value = product * exp(log_scale)."""

    product: np.ndarray
    log_scale: float
    word: tuple

    @property
    def value(self) -> np.ndarray:
        return self.product * math.exp(self.log_scale)

    def log_max_entry(self) -> float:
        """log of the max-entry norm of the true product; -inf for zero."""
        m = max_entry_norm(self.product)
        if m == 0.0:
            return -math.inf
        return math.log(m) + self.log_scale


def _rescale(product: np.ndarray, log_scale: float):
    m = max_entry_norm(product)
    if m == 0.0:
        return np.zeros_like(product), 0.0
    e = math.frexp(m)[1]  # m in [2**(e-1), 2**e)
    if abs(e) > _SCALE_HI:
        product = product * 2.0**-e
        log_scale += e * _LN2
    return product, log_scale


def _rescale_batch(products: np.ndarray, log_scale: np.ndarray, m: np.ndarray):
    """``_rescale`` for a (n, d, d) stack with max-entry norms m, in place.

    A zero product (m = 0) is left as it is, log scale included.
    """
    e = np.frexp(m)[1]
    big = np.abs(e) > _SCALE_HI
    if big.any():
        products[big] *= np.ldexp(1.0, -e[big])[:, None, None]
        log_scale[big] += e[big] * _LN2


def _extend(stack: np.ndarray, products: np.ndarray, log_scale: np.ndarray):
    """Every one-symbol extension of a level of scaled products.

    Children come parent-major, then by symbol, so a level in
    lexicographic word order stays in it.  Each child is rescaled by
    ``_rescale_batch``.  Returns ``(children, log_scale, m)`` with m their
    max-entry norms before the rescale (0 for a zero product).
    """
    ell, d = stack.shape[:2]
    children = (stack[None] @ products[:, None]).reshape(-1, d, d)
    log_scale = np.repeat(log_scale, ell)
    m = np.abs(children).max(axis=(1, 2))
    _rescale_batch(children, log_scale, m)
    return children, log_scale, m


def _check_norm(norm: str):
    """Reject a norm name other than ``op`` or ``max``."""
    if norm not in ("op", "max"):
        raise InputError(f"unknown norm {norm!r}; use 'op' or 'max'")


def _log_norms(products: np.ndarray, log_scale: np.ndarray, norm: str) -> np.ndarray:
    """log norm(true product) of each scaled product; -inf for a zero one.

    ``norm`` is ``op`` (largest singular value) or ``max`` (d times the
    max-entry norm, which unlike the bare max entry is submultiplicative).
    """
    _check_norm(norm)
    if norm == "op":
        value = _op_norms(products)
    else:
        value = float(products.shape[1]) * np.abs(products).max(axis=(1, 2))
    # scalar log: numpy's vectorised one can differ in the last bit
    logs = (math.log(v) if v > 0.0 else -math.inf for v in value.tolist())
    return np.fromiter(logs, np.float64, len(value)) + log_scale


def _rates(products: np.ndarray, log_scale: np.ndarray, n: int) -> list:
    """rho(true product)**(1/n) of each scaled product of length-n words.

    0 for a nilpotent product.  An unscaled single matrix (n = 1, log
    scale 0) keeps its raw spectral radius, which exp(log(r)) may miss by
    an ulp.
    """
    radii = np.abs(_eigvals(products)).max(axis=1)
    # scalar log/exp: numpy's differ from them in the last bit
    return [
        math.exp((math.log(r) + s) / n) if r > 0.0 and (n > 1 or s != 0.0) else r
        for r, s in zip(radii.tolist(), log_scale.tolist())
    ]


def _step(factor: np.ndarray, product: np.ndarray, log_scale: np.ndarray, floor: float):
    """``factor @ product`` for a stack, rescaled as in ``evaluate``.

    ``log_scale`` is updated in place.  Returns the new products and the
    mask of those whose true max-entry norm (before the rescale) is zero or
    below ``exp(floor)``.
    """
    product = factor @ product
    m = np.abs(product).max(axis=(1, 2))
    low = np.log(m) + log_scale < floor
    _rescale_batch(product, log_scale, m)
    return product, low


def path_log_norms(stack: np.ndarray, chunks, trials: int, floor: float):
    """log max-entry norm of the product along each path, all paths at once.

    ``stack`` is (l, d, d); ``chunks`` yields the 0-based symbols of all
    trials a run of steps at a time, as (n, trials) arrays whose column t
    continues the word of trial t, so ``[words]`` will do for a (horizon,
    trials) array.  A trial whose product becomes exactly zero or falls
    below ``exp(floor)`` in true value is absorbed: it drops out, its log
    norm is -inf and its absorption step (1-based) is recorded.  Once every
    trial is absorbed, ``chunks`` is read no further.  Returns
    ``(log_norm, absorbed)``, with ``absorbed`` -1 for trials that never
    were.

    Each chunk is cut into blocks of ``_BLOCK`` steps, the last one padded
    with the identity, which is exact.  All block products of all live
    trials come from ``_BLOCK`` batched matmuls.  They skip the per-step
    rescale when the set's bounds keep a block inside 2**-900..2**900:
    ``_BLOCK * max(hi, -lo) <= 900`` with hi the largest log2 of a row-sum
    norm ||A_i||_inf and lo the smallest log2 of a least singular value (a
    singular set always rescales).  The blocks then fold into the running
    product one at a time, rescaled as in ``evaluate``.  Since
    ||A P||_max <= ||A||_inf ||P||_max, every product inside a block has
    ln||P_j||_max >= ln||P_end||_max - _BLOCK * g, with
    g = max(0, max_i ln||A_i||_inf).  A trial whose bound stays at least 1
    above the floor cannot have been absorbed in the block.  Every other
    trial is replayed step by step from the block's start with the
    per-step rule.  Absorption steps are thus those of a step-by-step
    product up to rounding at the floor: the block-start product comes
    from blocked matmuls, so a norm within rounding of ``exp(floor)`` may
    be absorbed a step earlier or later.  Transient memory is one chunk's
    symbols and block products.
    """
    ell, d = stack.shape[:2]
    eye = np.eye(d, dtype=stack.dtype)
    factors = np.concatenate([stack, eye[None]])  # symbol ell pads blocks
    with np.errstate(divide="ignore"):  # log(0) = -inf marks a zero product
        hi = np.log2(np.abs(stack).sum(axis=2).max())
        lo = np.log2(np.linalg.svd(stack, compute_uv=False)[:, -1].min())
        rescale_blocks = not _BLOCK * max(hi, -lo) <= _BLOCK_RANGE
        pass_floor = floor + 1.0 + _BLOCK * max(0.0, hi) * _LN2
        product = np.tile(eye, (trials, 1, 1))
        log_scale = np.zeros(trials)
        live = np.arange(trials)
        log_norm = np.full(trials, -math.inf)
        absorbed = np.full(trials, -1, dtype=np.int64)
        done = 0  # steps before the chunk
        for chunk in chunks:
            n = len(chunk)
            blocks = -(-n // _BLOCK)
            symbols = np.full((blocks * _BLOCK, live.size), ell, np.min_scalar_type(ell))
            symbols[:n] = chunk[:, live]
            symbols = symbols.reshape(blocks, _BLOCK, live.size)
            block = eye
            block_scale = np.zeros(blocks * live.size)
            for j in range(_BLOCK):
                factor = factors[symbols[:, j].ravel()]
                if rescale_blocks:
                    block, _ = _step(factor, block, block_scale, -math.inf)
                else:
                    block = factor @ block
            block = block.reshape(blocks, live.size, d, d)
            block_scale = block_scale.reshape(blocks, live.size)
            for b in range(blocks):
                scale = log_scale + block_scale[b]
                after, low = _step(block[b], product, scale, pass_floor)
                if low.any():
                    replay = np.flatnonzero(low)
                    p, s = product[replay], log_scale[replay]
                    for j in range(min(_BLOCK, n - b * _BLOCK)):
                        p, dead = _step(factors[symbols[b, j, replay]], p, s, floor)
                        if dead.any():
                            absorbed[live[replay[dead]]] = done + b * _BLOCK + j + 1
                            replay, p, s = replay[~dead], p[~dead], s[~dead]
                    after[replay], scale[replay] = p, s
                    keep = absorbed[live] < 0
                    live, after, scale = live[keep], after[keep], scale[keep]
                    block, block_scale = block[:, keep], block_scale[:, keep]
                    symbols = symbols[:, :, keep]
                product, log_scale = after, scale
                if live.size == 0:
                    break
            if live.size == 0:
                break
            done += n
            del block, block_scale  # not held while the next chunk is drawn
        m = np.abs(product).max(axis=(1, 2), initial=0.0)
        log_norm[live] = np.log(m) + log_scale
    return log_norm, absorbed


def periodic_values(ms: MatrixSet, max_period: int) -> list:
    """``(w, rho(L(w))**(1/|w|))`` for the primitive necklaces w, |w| <= max_period.

    Words come in (period, lex) order, as in ``words.primitive_necklaces``.
    Products are built level by level over the necklaces' prefix trie, so a
    shared prefix is multiplied once: one batched matmul per level, rescaled
    as in ``evaluate``, and one eigensolver call per period, read by
    ``_rates``.  Each value is bit for bit the one ``evaluate`` and
    ``spectral_radius`` give; 0 for a nilpotent product.
    """
    levels, periods = necklace_trie(len(ms), max_period)
    stack = ms.stack()
    product = np.eye(ms.dim, dtype=np.complex128)[None]
    log_scale = np.zeros(1)
    out = []
    for n, ((parent, symbol), (words, nodes)) in enumerate(zip(levels, periods), start=1):
        product = stack[symbol] @ product[parent]
        log_scale = log_scale[parent]
        _rescale_batch(product, log_scale, np.abs(product).max(axis=(1, 2)))
        out.extend(zip(words, _rates(product[nodes], log_scale[nodes], n)))
    return out


def word_log_norms(ms: MatrixSet, depth: int, norm: str = "op"):
    """log norm(L(w)) for every word w of length n = 1..depth, level by level.

    Returns an iterator of one list per n, in ``enumerate_words``
    lexicographic order, with -inf for a zero product.  ``norm`` is ``op``
    (largest singular value) or ``max`` (d times the max-entry norm),
    checked before the iterator is returned.  The words of length n are
    one level of the product tree (``_extend``) read by ``_log_norms``.
    Each value is bit for bit log(norm of ``evaluate``'s product) plus its
    log scale.  Only one level of ell**n products is held at a time, so
    peak memory is the last level's.
    """
    _check_norm(norm)
    stack = ms.stack()

    def levels():
        product = np.eye(ms.dim, dtype=np.complex128)[None]
        log_scale = np.zeros(1)
        for _ in range(depth):
            product, log_scale, _ = _extend(stack, product, log_scale)
            yield _log_norms(product, log_scale, norm).tolist()

    return levels()


def evaluate(ms: MatrixSet, word) -> CocycleValue:
    """Scaled product along a word, newest symbol multiplying on the left."""
    word = tuple(word)
    product = np.eye(ms.dim, dtype=np.complex128)
    log_scale = 0.0
    for s in word:
        product = ms.matrix(s) @ product
        product, log_scale = _rescale(product, log_scale)
    return CocycleValue(product, log_scale, word)


def prefix_values(ms: MatrixSet, word):
    """Cocycle values for every prefix w[:m], m = 1..len(word)."""
    word = tuple(word)
    out = []
    product = np.eye(ms.dim, dtype=np.complex128)
    log_scale = 0.0
    for m, s in enumerate(word, start=1):
        product = ms.matrix(s) @ product
        product, log_scale = _rescale(product, log_scale)
        out.append(CocycleValue(product.copy(), log_scale, word[:m]))
    return out


_CHECK_RTOL = 1e-9  # cocycle_check's tolerance, relative to max|L(w)|


def cocycle_check(ms: MatrixSet, word, n: int) -> bool:
    """Verify L(w) = L(shift^n w, |w|-n) L(w, n) in the scaled representation,
    to within ``_CHECK_RTOL`` times the largest entry of L(w)."""
    word = tuple(word)
    if not 0 <= n <= len(word):
        raise InputError("split point outside the word")
    whole = evaluate(ms, word)
    head = evaluate(ms, word[:n])
    tail = evaluate(ms, word[n:])
    combined = tail.product @ head.product
    combined, log_scale = _rescale(combined, tail.log_scale + head.log_scale)
    scale = max_entry_norm(whole.product)
    if scale == 0.0:
        return max_entry_norm(combined) <= _CHECK_RTOL
    diff = combined * math.exp(log_scale - whole.log_scale) - whole.product
    return max_entry_norm(diff) <= _CHECK_RTOL * scale
