"""Tests for subgraph representation and matching (repro.core.subgraph)."""

import pytest

from repro.core.intern import unpack_twig
from repro.core.partition import extract_partition
from repro.core.subgraph import EPSILON, MatchSemantics, Subgraph
from repro.core.treecache import TreeCache
from repro.tree.node import Tree


def subgraphs_of(text: str, delta: int):
    cache = TreeCache(Tree.from_bracket(text))
    return cache, extract_partition(cache, owner=0, delta=delta)


def label_at(cache: TreeCache, number: int) -> str:
    return cache.interner.label(cache.labels[number])


def twig_labels(cache: TreeCache, sub: Subgraph) -> tuple[str, str, str]:
    """The subgraph's root twig as label strings (epsilon = ``""``)."""
    return tuple(cache.interner.label(i) for i in unpack_twig(sub.twig_key))


def matches(sub: Subgraph, probe: TreeCache, number: int, semantics) -> bool:
    """``sub`` matched at binary node ``number`` of ``probe``."""
    return sub.matches_at_number(probe, number, semantics is MatchSemantics.PAPER)


class TestTwigs:
    def test_twig_epsilon_for_missing_children(self):
        cache, subs = subgraphs_of("{a}", 1)
        assert twig_labels(cache, subs[0]) == ("a", EPSILON, EPSILON)

    def test_twig_uses_member_children_only(self):
        # Partition a chain so that a bridging edge dangles off a root.
        cache, subs = subgraphs_of("{a{b{c{d{e{f}}}}}}", 2)
        by_root = {label_at(cache, sub.root_number): sub for sub in subs}
        assert "a" in by_root  # the residual holds the tree root
        residual = by_root["a"]
        # Its left child chain was cut somewhere: the twig of the cut
        # subgraph's root must not leak non-member labels.
        for sub in subs:
            root = sub.root_number
            _, left, right = twig_labels(cache, sub)
            for label, child in (
                (left, cache.left[root]), (right, cache.right[root])
            ):
                if not child:
                    assert label == EPSILON
                elif not sub.member_bits[child]:
                    assert label == EPSILON
                else:
                    assert label == label_at(cache, child)

    def test_incoming_kinds(self):
        cache, subs = subgraphs_of("{a{b{x}{y}}{c{z}{w}}}", 3)
        codes = {sub.incoming_code for sub in subs}
        assert 0 in codes  # the residual: no incoming edge
        assert codes <= {0, 1, 2}  # root, left, right


class TestMatching:
    def test_whole_tree_matches_itself(self):
        cache, subs = subgraphs_of("{a{b}{c}}", 1)
        other = TreeCache(Tree.from_bracket("{a{b}{c}}"))
        assert matches(subs[0], other, other.size, MatchSemantics.PAPER)
        assert matches(subs[0], other, other.size, MatchSemantics.SAFE)

    def test_every_subgraph_matches_its_own_tree(self, rng):
        from tests.conftest import make_random_tree

        for _ in range(15):
            tree = make_random_tree(rng, rng.randint(7, 25))
            cache = TreeCache(tree)
            probe = TreeCache(tree.copy())
            delta = rng.randint(1, 5)
            if delta > tree.size:
                continue
            for sub in extract_partition(cache, 0, delta):
                # The copy numbers its nodes identically.
                target = sub.root_number
                for semantics in MatchSemantics:
                    assert matches(sub, probe, target, semantics), (
                        semantics, sub, tree.to_bracket(),
                    )

    def test_label_mismatch_rejected(self):
        cache, subs = subgraphs_of("{a{b}{c}}", 1)
        other = TreeCache(Tree.from_bracket("{a{b}{z}}"))
        assert not matches(subs[0], other, other.size, MatchSemantics.SAFE)

    def test_safe_ignores_extra_children_paper_rejects(self):
        # Subgraph = whole tree {a{b}}; probe tree {a{b}{c}} has an extra
        # child where the subgraph has an empty slot (b.right).
        cache, subs = subgraphs_of("{a{b}}", 1)
        probe = TreeCache(Tree.from_bracket("{a{b}{c}}"))
        root = probe.size
        assert matches(subs[0], probe, root, MatchSemantics.SAFE)
        assert not matches(subs[0], probe, root, MatchSemantics.PAPER)

    def test_paper_requires_incoming_category(self):
        # Cut {a{b{c{d}}}} (chain) into 2: one subgraph's root has a LEFT
        # incoming bridge.  Probing at a node with a RIGHT incoming edge
        # must fail under PAPER semantics but pass under SAFE.
        cache, subs = subgraphs_of("{a{b{c{d{e}}}}}", 2)
        cut = next(s for s in subs if s.incoming_code != 0)  # not the residual
        assert cut.incoming_code == 1  # chains produce left bridges
        # Build a probe where the same chain segment hangs as a *sibling*:
        # in {r{x}{c...}} the chain c... gets a RIGHT incoming edge.
        chain_labels = []
        node = cut.root_number
        while node and cut.member_bits[node]:
            chain_labels.append(label_at(cache, node))
            node = cache.left[node]
        nested = "".join("{" + lab for lab in chain_labels) + "}" * len(chain_labels)
        probe = TreeCache(Tree.from_bracket("{r{x}" + nested + "}"))
        target = next(
            b for b in range(1, probe.size + 1)
            if label_at(probe, b) == chain_labels[0]
            and probe.incoming_code(b) == 2  # a RIGHT incoming edge
        )
        assert matches(cut, probe, target, MatchSemantics.SAFE)
        assert not matches(cut, probe, target, MatchSemantics.PAPER)

    def test_paper_requires_dangling_edge_to_exist(self):
        # Two-subgraph split of a chain: the residual has a dangling left
        # bridge under its deepest member.  A probe tree that ends exactly
        # where the bridge starts must fail strictly, pass safely.
        cache, subs = subgraphs_of("{a{b{c{d{e{f}}}}}}", 2)
        residual = next(s for s in subs if s.incoming_code == 0)
        member_labels = sorted(
            label_at(cache, n) for n in range(1, cache.size + 1)
            if residual.member_bits[n]
        )
        # Probe = just the residual part as a standalone chain.
        depth = len(member_labels)
        text = "".join("{" + lab for lab in ["a", "b", "c", "d", "e", "f"][:depth])
        text += "}" * depth
        probe = TreeCache(Tree.from_bracket(text))
        assert matches(residual, probe, probe.size, MatchSemantics.SAFE)
        assert not matches(residual, probe, probe.size, MatchSemantics.PAPER)


class TestSemanticsCoercion:
    def test_coerce_accepts_strings_and_instances(self):
        assert MatchSemantics.coerce("paper") is MatchSemantics.PAPER
        assert MatchSemantics.coerce(MatchSemantics.SAFE) is MatchSemantics.SAFE

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown match semantics"):
            MatchSemantics.coerce("bogus")
