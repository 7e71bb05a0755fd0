"""Tests for the public TED API (repro.ted.api)."""

import pytest

from repro.errors import InvalidParameterError
from repro.ted.api import ted, ted_within
from repro.ted.simple import ted_reference
from repro.ted.zhang_shasha import zhang_shasha
from repro.tree.node import Tree

# The exact implementations: ``ted`` (the orientation-adaptive entry
# point), the plain leftmost DP it runs, and the recursive oracle.
EXACT = {"reference": ted_reference, "rted": ted, "zhang_shasha": zhang_shasha}


class TestTed:
    def test_default_algorithm(self):
        assert ted(Tree.from_bracket("{a{b}}"), Tree.from_bracket("{a}")) == 1

    @pytest.mark.parametrize("algorithm", sorted(EXACT))
    def test_all_algorithms_agree(self, algorithm):
        t1 = Tree.from_bracket("{a{b{c}}{d}}")
        t2 = Tree.from_bracket("{a{b}{d{e}}}")
        assert EXACT[algorithm](t1, t2) == 2

    def test_unknown_algorithm(self):
        # One exact entry point: there is no algorithm knob to pass.
        with pytest.raises(TypeError):
            ted(Tree.from_bracket("{a}"), Tree.from_bracket("{a}"), algorithm="rted")

    def test_rename_cost_passthrough(self):
        free = lambda a, b: 0
        assert ted(
            Tree.from_bracket("{a}"), Tree.from_bracket("{z}"), rename_cost=free
        ) == 0


class TestTedWithin:
    def test_within_threshold_returns_distance(self):
        a = Tree.from_bracket("{a{b}}")
        b = Tree.from_bracket("{a{b}{c}{d}}")
        assert ted_within(a, b, 2) == 2
        assert ted_within(a, b, 5) == 2

    def test_above_threshold_returns_none(self):
        a = Tree.from_bracket("{a{b}}")
        b = Tree.from_bracket("{a{b}{c}{d}}")
        assert ted_within(a, b, 1) is None

    def test_bounds_do_not_change_result(self, rng):
        # ted_within screens with the verifier's bounds before its banded
        # DP; the result is still the thresholded exact distance.
        from tests.conftest import make_random_tree

        for _ in range(30):
            t1 = make_random_tree(rng, rng.randint(1, 20))
            t2 = make_random_tree(rng, rng.randint(1, 20))
            exact = zhang_shasha(t1, t2)
            for tau in (0, 1, 3, 20):
                expected = exact if exact <= tau else None
                assert ted_within(t1, t2, tau) == expected

    def test_negative_tau_rejected(self):
        with pytest.raises(InvalidParameterError):
            ted_within(Tree.from_bracket("{a}"), Tree.from_bracket("{a}"), -1)

    @pytest.mark.parametrize("tau", [1.5, "1", True])
    def test_non_integer_tau_rejected(self, tau):
        # The same validation as every other entry point (check_tau): a
        # float or string is no threshold, and a bool is not an integer.
        with pytest.raises(InvalidParameterError, match="integer"):
            ted_within(Tree.from_bracket("{a}"), Tree.from_bracket("{b}"), tau)

    def test_tau_zero_identical_trees(self):
        tree = Tree.from_bracket("{a{b}{c}}")
        assert ted_within(tree, tree.copy(), 0) == 0
