import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsrkit import (
    InputError,
    ResourceCapError,
    WordGraph,
    cylinder_metric,
    enumerate_words,
    is_primitive,
    least_rotation,
    normalize_periodic,
    primitive_necklaces,
    shift,
    strongly_connected_components,
    symbol_frequency,
)
from jsrkit.words import necklace_trie

words_strategy = st.lists(
    st.integers(min_value=1, max_value=3), min_size=1, max_size=12
).map(tuple)

equal_length_triples = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        *(
            st.lists(
                st.integers(min_value=1, max_value=3), min_size=n, max_size=n
            ).map(tuple)
            for _ in range(3)
        )
    )
)


def test_shift_drops_first_symbol():
    assert shift((1, 2, 3)) == (2, 3)
    assert shift((1,)) == ()


def test_enumerate_words_lexicographic_and_complete():
    ws = list(enumerate_words(2, 3))
    assert len(ws) == 8
    assert ws == sorted(ws)
    assert set(ws) == set(itertools.product((1, 2), repeat=3))


def test_enumerate_words_resource_cap():
    with pytest.raises(ResourceCapError):
        list(enumerate_words(3, 30, cap=1000))


def test_cylinder_metric_values():
    assert cylinder_metric((1, 2, 1), (1, 2, 2)) == 0.125
    assert cylinder_metric((1, 2), (1, 2)) == 0.0
    assert cylinder_metric((2,), (1,)) == 0.5


@given(equal_length_triples)
@settings(max_examples=200, deadline=None)
def test_cylinder_metric_is_an_ultrametric(triple):
    x, y, z = triple
    dxy = cylinder_metric(tuple(x), tuple(y))
    dxz = cylinder_metric(tuple(x), tuple(z))
    dzy = cylinder_metric(tuple(z), tuple(y))
    assert dxy == cylinder_metric(tuple(y), tuple(x))
    assert dxy <= max(dxz, dzy) + 1e-15


@given(words_strategy, st.integers(min_value=0, max_value=11))
@settings(max_examples=200, deadline=None)
def test_least_rotation_is_rotation_invariant(w, k):
    k = k % len(w)
    rotated = w[k:] + w[:k]
    assert least_rotation(rotated) == least_rotation(w)
    assert least_rotation(w) <= w


def test_is_primitive():
    assert is_primitive((1, 2))
    assert is_primitive((1, 2, 2))
    assert not is_primitive((1, 2, 1, 2))
    assert not is_primitive((1, 1, 1))
    assert is_primitive((1,))


def test_normalize_periodic_reduces_and_rotates():
    assert normalize_periodic((1, 2, 1, 2)) == (1, 2)
    assert normalize_periodic((2, 1)) == (1, 2)
    assert normalize_periodic((2, 2, 2)) == (2,)


def test_primitive_necklace_counts():
    # binary necklace counts by length: 2, 1, 2, 3, 6 for lengths 1..5
    by_len = {}
    for w in primitive_necklaces(2, 5):
        by_len.setdefault(len(w), []).append(w)
        assert is_primitive(w)
        assert least_rotation(w) == w
    assert [len(by_len[n]) for n in range(1, 6)] == [2, 1, 2, 3, 6]


def test_primitive_necklaces_match_brute_force_filter():
    for ell in range(1, 5):
        brute = [
            w
            for n in range(1, 8)
            for w in enumerate_words(ell, n)
            if w == least_rotation(w) and is_primitive(w)
        ]
        for max_period in range(1, 8):
            expected = [w for w in brute if len(w) <= max_period]
            assert primitive_necklaces(ell, max_period) == expected


def test_primitive_necklaces_argument_checks():
    with pytest.raises(InputError):
        primitive_necklaces(0, 3)
    with pytest.raises(InputError):
        primitive_necklaces(2, 0)
    with pytest.raises(ResourceCapError):
        primitive_necklaces(2, 25)


def test_necklace_trie_is_shared_and_immutable():
    necklace_trie.cache_clear()
    first = necklace_trie(2, 9)
    fresh_levels, fresh_periods = first
    necklace_trie.cache_clear()
    levels, periods = necklace_trie(2, 9)
    # a rebuilt trie holds equal data
    assert len(levels) == len(fresh_levels) == 9
    for (parent, symbol), (parent2, symbol2) in zip(levels, fresh_levels):
        assert np.array_equal(parent, parent2) and np.array_equal(symbol, symbol2)
    for (words, nodes), (words2, nodes2) in zip(periods, fresh_periods):
        assert words == words2 and np.array_equal(nodes, nodes2)
    # a repeated call shares it, and nobody can change it
    assert necklace_trie(2, 9) is necklace_trie(2, 9)
    assert isinstance(levels, tuple) and isinstance(periods[3][0], tuple)
    for array in (levels[2][0], levels[2][1], periods[2][1]):
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(TypeError):
        periods[2][0][0] = (1, 1, 2)


def test_necklace_trie_raises_at_the_cap_on_every_call():
    for _ in range(2):
        with pytest.raises(ResourceCapError):
            necklace_trie(2, 25)
        with pytest.raises(InputError):
            necklace_trie(2, 0)


def test_symbol_frequency():
    assert symbol_frequency((1, 2, 2, 1), 1) == 0.5
    assert symbol_frequency((2, 2, 2), 1) == 0.0


def test_word_graph_full_language_edges():
    nodes = frozenset(enumerate_words(2, 3))
    g = WordGraph(3, nodes)
    # every node overlaps two successors in a full de Bruijn graph
    assert len(g.edges) == 2 * len(nodes)
    for u, v in g.edges:
        assert u[1:] == v[:-1]


def networkx_graph(g: WordGraph):
    nx = pytest.importorskip("networkx")
    gx = nx.DiGraph()
    gx.add_nodes_from(g.nodes)
    gx.add_edges_from(g.edges)
    return nx, gx


def test_word_graph_matches_networkx_scc():
    nodes = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
    g = WordGraph(2, nodes)
    sccs = strongly_connected_components(g)
    assert sccs == [nodes]
    nx, gx = networkx_graph(g)
    assert [frozenset(c) for c in nx.strongly_connected_components(gx)] == sccs


def random_de_bruijn_subgraph(rng, ell: int, depth: int) -> WordGraph:
    """A dense random subset of a small de Bruijn graph; in a large one,
    the windows of a few periodic words and random walks plus random
    nodes, so that the graph has cycles of several lengths and SCCs."""
    if ell**depth <= 64:
        keep = rng.random(ell**depth) < rng.uniform(0.4, 1.0)
        return WordGraph(depth, frozenset(itertools.compress(enumerate_words(ell, depth), keep)))
    nodes = set()
    for _ in range(rng.integers(1, 4)):
        u = tuple(rng.integers(1, ell + 1, size=rng.integers(1, depth + 1)))
        x = u * (depth // len(u) + 2)
        nodes.update(x[k : k + depth] for k in range(len(u)))
    for _ in range(rng.integers(0, 4)):
        x = tuple(rng.integers(1, ell + 1, size=depth + rng.integers(0, 12)))
        nodes.update(x[k : k + depth] for k in range(len(x) - depth + 1))
    for _ in range(rng.integers(0, 8)):
        nodes.add(tuple(rng.integers(1, ell + 1, size=depth)))
    return WordGraph(depth, frozenset(tuple(int(s) for s in w) for w in nodes))


def test_word_graph_cycles_and_sccs_match_networkx():
    rng = np.random.default_rng(20261019)
    for ell in range(1, 5):
        for depth in range(1, 8):
            for _ in range(5):
                g = random_de_bruijn_subgraph(rng, ell, depth)
                nx, gx = networkx_graph(g)
                for bound in range(1, depth + 1):
                    cycles = list(g.cycles(bound))
                    reference = {
                        normalize_periodic(tuple(v[0] for v in c))
                        for c in nx.simple_cycles(gx, length_bound=bound)
                    }
                    assert len(cycles) == len(set(cycles))
                    assert set(cycles) == reference
                reference = {
                    frozenset(c)
                    for c in nx.strongly_connected_components(gx)
                    if len(c) > 1 or any(gx.has_edge(v, v) for v in c)
                }
                sccs = strongly_connected_components(g)
                assert len(sccs) == len(set(sccs))
                assert set(sccs) == reference


def test_word_graph_split_components():
    # only the two constant words: two trivial one-node loops
    nodes = frozenset({(1, 1, 1), (2, 2, 2)})
    g = WordGraph(3, nodes)
    sccs = strongly_connected_components(g)
    assert sorted(sccs, key=min) == [
        frozenset({(1, 1, 1)}),
        frozenset({(2, 2, 2)}),
    ]


def test_word_graph_cycles_yield_periodic_words():
    nodes = frozenset(enumerate_words(2, 2))
    assert list(WordGraph(2, nodes).cycles(2)) == [(1,), (2,), (1, 2)]
    nodes = frozenset(enumerate_words(2, 3))
    g = WordGraph(3, nodes)
    # (period, lex) order, each cycle as its least rotation
    assert list(g.cycles(3)) == [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]
    assert list(g.cycles(2)) == [(1,), (2,), (1, 2)]
    # without 212 the cycle 121 -> 212 is gone, and 122 -> 221 -> 212 too
    g = WordGraph(3, nodes - {(2, 1, 2)})
    assert list(g.cycles(3)) == [(1,), (2,), (1, 1, 2)]
    with pytest.raises(InputError):
        list(g.cycles(4))


def test_word_graph_dot_output():
    g = WordGraph(2, frozenset({(1, 1)}))
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert "11" in dot
