"""Tree substrate: data model, bracket and XML IO, edits, statistics."""

from repro.tree.bracket import parse_bracket, to_bracket
from repro.tree.edits import (
    Delete,
    EditOperation,
    Insert,
    Rename,
    apply_edit,
    apply_script,
    random_edit,
    random_script,
)
from repro.tree.node import Tree, TreeNode
from repro.tree.stats import CollectionStats, TreeStats, collection_stats, tree_stats
from repro.tree.validate import validate_tree
from repro.tree.xmlio import tree_from_xml, tree_from_xml_file, tree_to_xml

__all__ = [
    "Tree",
    "TreeNode",
    "parse_bracket",
    "to_bracket",
    "Rename",
    "Delete",
    "Insert",
    "EditOperation",
    "apply_edit",
    "apply_script",
    "random_edit",
    "random_script",
    "TreeStats",
    "CollectionStats",
    "tree_stats",
    "collection_stats",
    "validate_tree",
    "tree_from_xml",
    "tree_from_xml_file",
    "tree_to_xml",
]
