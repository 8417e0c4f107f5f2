"""Tests for the Poset type (repro.poset.poset)."""

from __future__ import annotations

import gc
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CycleError, PosetError
from repro.poset.builders import h261_poset
from repro.poset.poset import Poset, antichain, chain


@st.composite
def random_dags(draw):
    """A random DAG as (n, edges) with edges (i, j), i < j (acyclic)."""
    n = draw(st.integers(min_value=1, max_value=10))
    pair_pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pair_pool), max_size=20)) if pair_pool else []
    return n, edges


class TestConstruction:
    def test_duplicate_elements_rejected(self):
        with pytest.raises(PosetError):
            Poset([1, 1, 2])

    def test_unknown_element_in_relation(self):
        with pytest.raises(PosetError):
            Poset([1, 2], [(1, 3)])

    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            Poset([1, 2, 3], [(1, 2), (2, 3), (3, 1)])

    def test_two_cycle_detected(self):
        with pytest.raises(CycleError):
            Poset([1, 2], [(1, 2), (2, 1)])

    def test_reflexive_pairs_ignored(self):
        poset = Poset([1, 2], [(1, 1), (1, 2)])
        assert poset.le(1, 2)

    def test_membership(self):
        poset = Poset([1, 2])
        assert 1 in poset and 3 not in poset
        assert len(poset) == 2
        assert list(poset) == [1, 2]


class TestOrderAxioms:
    @given(random_dags())
    @settings(max_examples=60)
    def test_reflexive_antisymmetric_transitive(self, dag):
        n, edges = dag
        poset = Poset(range(n), edges)
        for x in range(n):
            assert poset.le(x, x)
        for x in range(n):
            for y in range(n):
                if x != y and poset.le(x, y):
                    assert not poset.le(y, x)
                for z in range(n):
                    if poset.le(x, y) and poset.le(y, z):
                        assert poset.le(x, z)

    @given(random_dags())
    @settings(max_examples=40)
    def test_above_below_are_duals(self, dag):
        n, edges = dag
        poset = Poset(range(n), edges)
        for x in range(n):
            for y in poset.above(x):
                assert x in poset.below(y)


class TestQueries:
    @pytest.fixture
    def diamond(self) -> Poset[str]:
        # a <= b, a <= c, b <= d, c <= d
        return Poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])

    def test_comparable(self, diamond):
        assert diamond.comparable("a", "d")
        assert not diamond.comparable("b", "c")

    def test_covers(self, diamond):
        assert diamond.covers("a", "b")
        assert not diamond.covers("a", "d")  # b is in between

    def test_cover_pairs(self, diamond):
        assert set(diamond.cover_pairs()) == {
            ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")
        }

    def test_minimal_maximal(self, diamond):
        assert diamond.minimal_elements() == ["a"]
        assert diamond.maximal_elements() == ["d"]

    def test_anchors(self, diamond):
        # anchors = elements something depends on = above someone
        assert set(diamond.anchors()) == {"b", "c", "d"}

    def test_chains_and_antichains(self, diamond):
        assert diamond.is_chain(["a", "b", "d"])
        assert not diamond.is_chain(["b", "c"])
        assert diamond.is_antichain(["b", "c"])
        assert not diamond.is_antichain(["a", "b"])

    def test_longest_chain(self, diamond):
        assert diamond.longest_chain_length() == 3

    def test_ranks(self, diamond):
        ranks = diamond.ranks()
        assert ranks == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_is_ranked(self, diamond):
        assert diamond.is_ranked()

    def test_unranked_example(self):
        # a < b < d and a < d' direct: covers(a, c) with rank gap 2
        poset = Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        # chain a<b<c: c covers b; does c cover a? a<b<c means no.
        assert poset.is_ranked()
        fork = Poset("abcd", [("a", "b"), ("b", "d"), ("a", "d"), ("a", "c"), ("c", "d")])
        assert fork.is_ranked()

    def test_dual_reverses(self, diamond):
        dual = diamond.dual()
        assert dual.le("d", "a")
        assert dual.minimal_elements() == ["d"]

    def test_restrict(self, diamond):
        sub = diamond.restrict(["a", "b", "d"])
        assert sub.le("a", "d")
        assert len(sub) == 3

    def test_restrict_unknown(self, diamond):
        with pytest.raises(PosetError):
            diamond.restrict(["z"])

    def test_unknown_element_query(self, diamond):
        with pytest.raises(PosetError):
            diamond.le("a", "z")


class TestFactories:
    def test_chain_structure(self):
        c = chain(4)
        assert c.longest_chain_length() == 4
        assert c.le(0, 3)
        assert c.is_chain(range(4))

    def test_antichain_structure(self):
        a = antichain(4)
        assert a.longest_chain_length() == 1
        assert a.is_antichain(range(4))

    def test_empty(self):
        assert len(chain(0)) == 0
        assert chain(0).longest_chain_length() == 0

    def test_negative_rejected(self):
        with pytest.raises(PosetError):
            chain(-1)
        with pytest.raises(PosetError):
            antichain(-1)

    @given(st.integers(min_value=1, max_value=12))
    def test_mirsky_on_chain(self, n):
        from repro.poset.antichain import rank_decomposition

        layers = rank_decomposition(chain(n))
        assert len(layers) == n
        assert all(len(layer) == 1 for layer in layers)


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestRanksIterative:
    def test_deep_chain_needs_no_recursion(self):
        # A single-intra H.261 stream is one long dependency chain.  Any
        # recursion over it would need a frame per element; with the
        # limit just above the current depth even a 600-chain overflows.
        frames = 600
        poset = h261_poset(frames, intra_interval=frames)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 50)
        try:
            ranks = poset.ranks()
            longest = poset.longest_chain_length()
        finally:
            sys.setrecursionlimit(limit)
        assert ranks == {i: frames - 1 - i for i in range(frames)}
        assert longest == frames

    @settings(max_examples=60, deadline=None)
    @given(random_dags())
    def test_ranks_satisfy_the_recursive_definition(self, dag):
        n, edges = dag
        poset = Poset(range(n), edges)
        ranks = poset.ranks()
        assert list(ranks) == list(range(n))
        for x in range(n):
            below = poset.below(x)
            expected = 1 + max(ranks[y] for y in below) if below else 0
            assert ranks[x] == expected
        assert poset.longest_chain_length() == 1 + max(ranks.values())

    def test_ranks_leave_no_cyclic_garbage(self):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            h261_poset(40, intra_interval=12).ranks()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
