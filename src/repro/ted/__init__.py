"""Tree edit distance algorithms, string edit distance, and TED bounds."""

from repro.ted.api import ted, ted_within
from repro.ted.bounds import (
    binary_branch_lower_bound,
    branch_bound_from_bags,
    composite_lower_bound,
    degree_bound_from_bags,
    degree_histogram_lower_bound,
    label_bound_from_bags,
    label_multiset_lower_bound,
    multiset_l1,
    size_lower_bound,
    traversal_string_lower_bound,
    trivial_upper_bound,
)
from repro.ted.cutoff import zhang_shasha_bounded
from repro.ted.simple import ted_reference
from repro.ted.string_edit import string_edit_distance, string_edit_within
from repro.ted.zhang_shasha import AnnotatedTree, zhang_shasha

__all__ = [
    "ted",
    "ted_within",
    "zhang_shasha",
    "zhang_shasha_bounded",
    "AnnotatedTree",
    "ted_reference",
    "string_edit_distance",
    "string_edit_within",
    "multiset_l1",
    "size_lower_bound",
    "label_multiset_lower_bound",
    "degree_histogram_lower_bound",
    "traversal_string_lower_bound",
    "binary_branch_lower_bound",
    "composite_lower_bound",
    "label_bound_from_bags",
    "degree_bound_from_bags",
    "branch_bound_from_bags",
    "trivial_upper_bound",
]
