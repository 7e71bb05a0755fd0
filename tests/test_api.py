"""Tests for the join entry point: ``TreeCollection.join``'s methods and
options (validation lives in ``tests/test_session.py``)."""

import pytest

from repro.core.join import PartSJConfig
from repro.session import TreeCollection


@pytest.fixture
def col(sample_forest):
    return TreeCollection.from_trees(sample_forest)


class TestDispatch:
    def test_default_method_is_partsj(self, col):
        assert col.join(1).run().stats.method == "PRT"

    @pytest.mark.parametrize("method,label", [
        ("partsj", "PRT"),
        ("prt", "PRT"),
        ("str", "STR"),
        ("set", "SET"),
        ("histogram", "HST"),
        ("nested_loop", "NL"),
        ("rel", "NL"),
    ])
    def test_method_names_and_aliases(self, col, method, label):
        assert col.join(1, method=method).run().stats.method == label

    def test_method_name_case_insensitive(self, col):
        assert col.join(1, method="PaRtSj").run().stats.method == "PRT"


class TestOptions:
    def test_partsj_config_object(self, col):
        result = col.join(1, config=PartSJConfig(semantics="paper")).run()
        assert result.stats.method == "PRT"

    def test_partsj_kwargs_build_config(self, col):
        result = col.join(1, semantics="paper", postorder_filter="off").run()
        assert result.stats.method == "PRT"

    def test_str_banded_option(self, col):
        result = col.join(1, method="str", banded=False).run()
        assert result.stats.extra["banded"] is False

    def test_nested_loop_bounds_option(self, col):
        result = col.join(1, method="nested_loop", use_bounds=False).run()
        assert result.stats.method == "NL"
