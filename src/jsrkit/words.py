"""Finite words over {1..l}, the shift, the 2^-n metric and de Bruijn graphs.

Words are plain tuples of 1-based integer symbols.  Infinite sequences are
always represented by finite prefixes with an explicit depth, and periodic
sequences by the lexicographically least rotation of a primitive word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import InputError, ResourceCapError

__all__ = [
    "shift",
    "cylinder_metric",
    "enumerate_words",
    "least_rotation",
    "is_primitive",
    "normalize_periodic",
    "necklace_trie",
    "primitive_necklaces",
    "symbol_frequency",
    "WordGraph",
    "strongly_connected_components",
]

DEFAULT_WORD_CAP = 2**24


def shift(w):
    """Drop the first symbol."""
    if len(w) == 0:
        raise InputError("cannot shift the empty word")
    return tuple(w[1:])


def cylinder_metric(x, y) -> float:
    """2^-(first index of disagreement), 1-based; 0 when equal throughout."""
    if len(x) != len(y):
        raise InputError("cylinder_metric needs words of equal length")
    for n, (a, b) in enumerate(zip(x, y), start=1):
        if a != b:
            return 2.0**-n
    return 0.0


def enumerate_words(ell: int, n: int, cap: int = DEFAULT_WORD_CAP):
    """All l^n words of length n in lexicographic order."""
    if ell < 1 or n < 0:
        raise InputError("need alphabet size >= 1 and length >= 0")
    if ell**n > cap:
        raise ResourceCapError(f"{ell}^{n} words exceed the cap of {cap}")
    return product(range(1, ell + 1), repeat=n)


def least_rotation(w):
    """Lexicographically least rotation (Booth would be overkill at this size)."""
    if not w:
        return tuple(w)
    return min(tuple(w[k:] + w[:k]) for k in range(len(w)))


def is_primitive(w) -> bool:
    """True when w is not a power of a strictly shorter word."""
    n = len(w)
    if n == 0:
        return False
    for p in range(1, n):
        if n % p == 0 and w == w[p:] + w[:p]:
            return False
    return True


def normalize_periodic(w):
    """Primitive root in least-rotation normal form."""
    w = tuple(w)
    if not w:
        raise InputError("a periodic orbit needs period >= 1")
    n = len(w)
    for p in range(1, n + 1):
        if n % p == 0 and w[:p] * (n // p) == w:  # holds at p = n at the latest
            return least_rotation(w[:p])


@lru_cache(maxsize=8)
def necklace_trie(ell: int, max_period: int):
    """Primitive necklaces up to ``max_period`` with the trie of their prefixes.

    Duval's algorithm (Fredricksen-Kessler-Maiorana) generates the Lyndon
    words, i.e. the primitive least-rotation words, in lexicographic order.
    Each shares with the previous one its prefix of length
    min(|previous|, |word| - 1), so the trie is built in the same pass.
    ``levels[k-1]`` holds the length-k prefixes in lexicographic order as
    two int arrays, (parent's index in level k-1, 0 at the root; 0-based
    last symbol), and ``periods[k-1]`` the necklaces of period k in
    lexicographic order as (word tuples, their nodes' indices in level k).

    The result is immutable (tuples and read-only arrays) and memoised per
    (ell, max_period), so repeated calls share one trie.  Raises past the
    word cap before generating anything, on every call.
    """
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    enumerate_words(ell, max_period)  # raises past the word cap; makes no word
    max_period = 1 if ell == 1 else max_period  # (1,) is the only necklace
    levels = [[] for _ in range(max_period)]
    periods = [[] for _ in range(max_period)]
    path = [0] * (max_period + 1)  # trie node of each prefix of w
    known = 0  # prefixes of w that are already trie nodes
    w = [0]
    while w:
        w[-1] += 1
        n = len(w)
        for k in range(min(known, n - 1), n):
            path[k + 1] = len(levels[k])
            levels[k].append((path[k], w[k] - 1))
        periods[n - 1].append((tuple(w), path[n]))
        known = n
        w += [w[k % n] for k in range(n, max_period)]  # periodic extension
        while w and w[-1] == ell:
            w.pop()
    return (
        tuple(tuple(_read_only(column) for column in zip(*level)) for level in levels),
        tuple(
            (tuple(w for w, _ in period), _read_only([node for _, node in period]))
            for period in periods
        ),
    )


def _read_only(values) -> np.ndarray:
    a = np.array(values, dtype=np.intp)
    a.flags.writeable = False
    return a


def primitive_necklaces(ell: int, max_period: int):
    """Primitive least-rotation representatives, ordered by (period, lex).

    The Lyndon words of ``necklace_trie`` in Duval's lexicographic order,
    stably sorted by length, as a list.
    """
    return [w for words, _ in necklace_trie(ell, max_period)[1] for w in words]


def symbol_frequency(w, i: int) -> float:
    if not w:
        raise InputError("frequency of the empty word is undefined")
    return w.count(i) / len(w)


@dataclass
class WordGraph:
    """De Bruijn-style graph on a set of length-n words.

    There is an edge w -> w' exactly when the two words overlap in n-1
    symbols, i.e. w' = shift(w) + (s,).
    """

    depth: int
    nodes: frozenset
    edges: frozenset = field(init=False)

    def __post_init__(self):
        nodes = frozenset(tuple(w) for w in self.nodes)
        if any(len(w) != self.depth for w in nodes):
            raise InputError("all nodes must have length equal to the depth")
        by_prefix = {}
        for v in nodes:
            by_prefix.setdefault(v[:-1], []).append(v)
        edges = frozenset(
            (w, v) for w in nodes if self.depth >= 1 for v in by_prefix.get(w[1:], ())
        )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    def cycles(self, length_bound: int):
        """Simple cycles of length <= ``length_bound`` <= depth, as words.

        A cycle of length p <= n runs through the n-windows of a p-periodic
        sequence, its least node being one period's least rotation u
        repeated to length n.  So the cycles are primitive least-rotation
        words u, yielded in (period, lex) order.
        """
        n = self.depth
        if length_bound > n:
            raise InputError(f"cycle length bound {length_bound} exceeds the depth {n}")
        nodes = sorted(self.nodes)
        for p in range(1, length_bound + 1):
            for s in nodes:
                u = s[:p]
                x = u * (n // p + 2)
                if x[:n] == s and is_primitive(u) and u == least_rotation(u):
                    if all(x[k : k + n] in self.nodes for k in range(1, p)):
                        yield u

    def to_dot(self) -> str:
        def name(w):
            return '"' + "".join(str(s) for s in w) + '"'

        lines = ["digraph words {"]
        for w in sorted(self.nodes):
            lines.append(f"  {name(w)};")
        for a, b in sorted(self.edges):
            lines.append(f"  {name(a)} -> {name(b)};")
        lines.append("}")
        return "\n".join(lines)


def strongly_connected_components(g: WordGraph):
    """SCC partition restricted to components that carry at least one edge,
    so that each returned component supports an infinite orbit (Tarjan)."""
    successors = {v: [] for v in g.nodes}
    for a, b in g.edges:
        successors[a].append(b)
    index, low, stack, out = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        return v, iter(successors[v])

    for root in sorted(g.nodes):
        if root in index:
            continue
        work = [visit(root)]
        while work:
            v, children = work[-1]
            for w in children:
                if w not in index:
                    work.append(visit(w))
                    break
                low[v] = min(low[v], low[w])  # finished nodes hold len(g.nodes)
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = set()
                    while v not in comp:
                        comp.add(stack.pop())
                    low.update(dict.fromkeys(comp, len(g.nodes)))
                    if len(comp) > 1 or (v, v) in g.edges:
                        out.append(frozenset(comp))
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
    return out
