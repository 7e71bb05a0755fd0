"""Trees held as bracket text (``Tree.from_bracket``) against the node parser.

``Tree.from_bracket`` keeps a tree's canonical text and builds no node;
``TreeCache`` then builds the record straight from that text.  Everything
observable must equal what the node parser (``parse_bracket``) and the
node walk give: the accepted strings and the exact error messages, the
size, ``to_bracket()``, the nodes once read, and every record array with
its label ids.  The join, stream, search and persistence paths must not
parse a collection tree's nodes at all.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.tree.bracket as bracket
from repro.core.intern import LabelInterner
from repro.core.join import PartSJConfig
from repro.core.treecache import TreeCache
from repro.datasets.io import save_trees
from repro.errors import TreeFormatError
from repro.session import TreeCollection
from repro.stream.engine import StreamingJoin
from repro.tree.bracket import parse_bracket
from repro.tree.node import Tree, TreeNode

ALPHABET = ["{", "}", "\\", "a", " ", "\n", "\x85"]
ARRAYS = ("size", "labels", "left", "right", "parent", "general_post", "internal")


def raw_label():
    """A label as written: metacharacters escaped, others sometimes
    escaped needlessly."""
    return st.lists(
        st.tuples(st.sampled_from(ALPHABET), st.booleans()), max_size=3
    ).map(lambda chars: "".join(
        "\\" + ch if ch in "{}\\" or needless else ch for ch, needless in chars
    ))


def written_tree():
    """Bracket text of a tree over the alphabet, maybe padded."""
    node = st.recursive(
        raw_label().map(lambda label: "{" + label + "}"),
        lambda children: st.tuples(raw_label(), st.lists(children, max_size=3))
        .map(lambda t: "{" + t[0] + "".join(t[1]) + "}"),
        max_leaves=8,
    )
    pad = st.sampled_from(["", " ", "\n", "\x85"])
    return st.tuples(pad, node, pad).map("".join)


def mutated(texts):
    """One character of a text replaced or deleted: mostly invalid."""
    return st.tuples(
        texts, st.integers(min_value=0, max_value=60),
        st.sampled_from([""] + ALPHABET),
    ).map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:])


def assert_same_tree(text):
    """``Tree.from_bracket(text)`` against the node parser plus node walk."""
    try:
        reference = parse_bracket(text)
    except TreeFormatError as exc:
        with pytest.raises(TreeFormatError) as raised:
            Tree.from_bracket(text)
        assert str(raised.value) == str(exc)
        return
    tree = Tree.from_bracket(text)
    assert tree.text is not None  # no node yet
    assert tree.size == reference.size
    assert tree.to_bracket() == reference.to_bracket()
    # One interner: the same ids; fresh ones: the same first-seen order.
    shared = LabelInterner()
    walked = TreeCache(reference, shared)
    read = TreeCache(tree, shared)
    for name in ARRAYS:
        assert getattr(read, name) == getattr(walked, name), name
    fresh = [LabelInterner(), LabelInterner()]
    TreeCache(reference, fresh[0])
    TreeCache(tree, fresh[1])
    assert fresh[0]._labels == fresh[1]._labels
    # The first root read parses the nodes, which then are the tree.
    assert tree.root == reference.root
    assert tree.text is None
    assert tree.to_bracket() == reference.to_bracket()


class TestParity:
    @given(st.one_of(
        st.text(alphabet=ALPHABET, max_size=30),
        written_tree(),
        mutated(written_tree()),
    ))
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_the_node_parser(self, text):
        assert_same_tree(text)

    @pytest.mark.parametrize("text", [
        "{a" * 5000 + "}" * 5000,  # a 5,000-deep chain
        "{r" + "{x}" * 5000 + "}",  # a 5,000-wide fan
        "{}",  # the "" label
        "{{{}}{}}",
        r"{\{{\}}{\\}}",  # the metacharacters as labels
        r"{\a\ \é{b\\\}}}",  # needless escapes
        "{ünï{ç😀{中文}}{ }}",  # unicode
        "  {a{b}}\n",
        "{a\\",  # a dangling escape
        "{a}{b}",
        "{a{b}x}",
        "{a}}",
    ])
    def test_adversarial_cases(self, text):
        assert_same_tree(text)


class TestTextForm:
    def test_needless_escapes_are_normalised(self):
        tree = Tree.from_bracket(r"  {\a{\{b\\}}  ")
        assert tree.to_bracket() == r"{a{\{b\\}}"
        assert tree == Tree.from_bracket("{a{\\{b\\\\}}")

    def test_copy_shares_the_text_and_edits_the_nodes(self):
        tree = Tree.from_bracket("{a{b}}")
        twin = tree.copy()
        assert twin.text == tree.text and twin.size == 2
        twin.root.children[0].label = "c"
        twin.root.add_child(TreeNode("d"))
        assert tree.to_bracket() == "{a{b}}"
        assert twin.to_bracket() == "{a{c}{d}}"
        assert twin.size == 3

    def test_nodes_replace_the_text_once_read(self):
        tree = Tree.from_bracket("{a{b}}")
        tree.root.children.append(parse_bracket("{c}").root)
        assert tree.to_bracket() == "{a{b}{c}}" and tree.size == 3
        replaced = Tree.from_bracket("{a{b}}")
        replaced.root = parse_bracket("{c}").root
        assert replaced.to_bracket() == "{c}" and replaced.size == 1

    def test_equality_across_forms(self):
        text = Tree.from_bracket("{a{b}{c}}")
        assert text == parse_bracket("{a{b}{c}}")
        assert text != Tree.from_bracket("{a{c}{b}}")


@pytest.fixture
def no_node_parsing(monkeypatch):
    """Fail any parse of a text tree's nodes (fork workers inherit this)."""
    def refuse(text):
        raise AssertionError(f"nodes parsed for {text[:30]!r}")

    monkeypatch.setattr(bracket, "parse_nodes", refuse)


def text_forest(tmp_path):
    lines = [
        "{a{b}{c{d}}}", "{a{b}{c{e}}}", "{a{b}{c}}", "{x{y{z}}{w}}",
        "{x{y{z}}{v}}", "{a{b}{c{d}}{f}}", "{q}", "{q{r}}",
    ]
    path = tmp_path / "forest.trees"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, lines


class TestNoNodesOnTheJoinPaths:
    def test_join_stream_search_and_snapshot(self, tmp_path, no_node_parsing):
        path, lines = text_forest(tmp_path)
        col = TreeCollection.from_file(path, sidecar=None)
        serial = col.join(2).run().pairs
        pooled = TreeCollection.from_file(path, sidecar=None).join(
            2, config=PartSJConfig(workers=2)
        ).run().pairs
        assert pooled == serial and serial
        hits = col.search(Tree.from_bracket("{a{b}{c{d}}}"), 2).run()
        assert [h.index for h in hits] == [0, 1, 2, 5]

        wal = tmp_path / "arrivals.wal"
        with StreamingJoin(2, wal=str(wal)) as engine:
            for line in lines:
                engine.add(Tree.from_bracket(line))
        recovered = StreamingJoin.recover(str(wal))
        assert recovered.results() == serial
        assert recovered.searcher().search(Tree.from_bracket("{q}"))
        recovered.close()

        snapshot = tmp_path / "forest.repro-idx"
        col.save(snapshot)
        loaded = TreeCollection.load(snapshot)
        assert loaded.join(2).run().pairs == serial
        for trees in (col.trees, recovered.trees, loaded.trees):
            assert all(tree.text is not None for tree in trees)


class TestLineBreakLabels:
    @pytest.mark.parametrize("char", ["\n", "\r"])
    def test_dataset_writer_refuses_before_writing(self, tmp_path, char):
        path = tmp_path / "forest.trees"
        trees = [Tree.from_bracket("{a}"), parse_bracket("{a{b}}")]
        trees[1].root.children[0].label = f"b{char}c"
        with pytest.raises(TreeFormatError, match="tree 1"):
            save_trees(trees, path)
        assert not path.exists()

    def test_snapshot_refuses_a_newline_label(self, tmp_path):
        path = tmp_path / "forest.repro-idx"
        tree = parse_bracket("{a{b}}")
        tree.root.label = "a\nb"
        with pytest.raises(TreeFormatError, match="tree 0"):
            TreeCollection.from_trees([tree]).save(path)
        assert not path.exists()

    # Every line break str.splitlines() knows besides "\n".
    @pytest.mark.parametrize("char", [
        "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ])
    def test_snapshot_round_trips_a_label_with(self, tmp_path, char):
        trees = [
            Tree.from_bracket(f"{{a{char}b{{c}}}}"),
            Tree.from_bracket("{a{c}}"),
            Tree.from_bracket(f"{{x{{{char}}}}}"),
        ]
        col = TreeCollection.from_trees(trees)
        col.prepare(1)
        path = tmp_path / "forest.repro-idx"
        col.save(path)
        loaded = TreeCollection.load(path)
        assert loaded.trees == trees
        assert loaded.join(1).run().pairs == col.join(1).run().pairs
