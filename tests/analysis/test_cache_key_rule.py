"""Cache-key completeness: the rule is live against the real sources.

The acceptance test for the whole rule: copy the real ``session.py`` /
``join.py`` / ``snapshot.py`` trio, delete the one line that threads
``seed`` into ``_prep_key``, and the linter must fail.  Plus the
bookkeeping cases: stale exclusions and contradicted exclusions are
findings in their own right.
"""

import shutil
from pathlib import Path

import repro
from repro.analysis import analyze

SRC_ROOT = Path(repro.__file__).resolve().parent


def copy_real_trio(tmp_path):
    shutil.copy(SRC_ROOT / "core" / "join.py", tmp_path / "join.py")
    shutil.copy(
        SRC_ROOT / "persist" / "snapshot.py", tmp_path / "snapshot.py"
    )
    return SRC_ROOT / "session.py"


class TestLiveness:
    def test_real_trio_is_complete(self, tmp_path):
        session = copy_real_trio(tmp_path)
        shutil.copy(session, tmp_path / "session.py")
        report = analyze([tmp_path], rule_ids=["cache-key"])
        assert report.clean, report.render()

    def test_dropping_seed_from_prep_key_fails(self, tmp_path):
        session = copy_real_trio(tmp_path)
        source = session.read_text()
        line = "            config.seed,\n"
        assert source.count(line) == 1
        (tmp_path / "session.py").write_text(source.replace(line, ""))
        report = analyze([tmp_path], rule_ids=["cache-key"])
        assert not report.clean
        assert any(
            f.rule == "cache-key" and "_prep_key" in f.message
            and "'seed'" in f.message
            for f in report.findings
        ), report.render()


CONFIG = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class PartSJConfig:
    semantics: str = "safe"
    seed: int = 0
    workers: int = 0
    retry: object = None
    fault_injector: object = None
"""

COMPLETE_CONSUMERS = """\
def _prep_key(tau, config):
    return (tau, config.semantics, config.seed)


def _config_fields(config):
    return {"semantics": config.semantics, "seed": config.seed}
"""


class TestBookkeeping:
    def write(self, tmp_path, consumers):
        (tmp_path / "config.py").write_text(CONFIG)
        (tmp_path / "consumers.py").write_text(consumers)
        return analyze([tmp_path], rule_ids=["cache-key"])

    def test_minimal_complete_pair_is_clean(self, tmp_path):
        report = self.write(tmp_path, COMPLETE_CONSUMERS)
        assert report.clean, report.render()

    def test_missing_field_is_a_finding(self, tmp_path):
        report = self.write(
            tmp_path,
            COMPLETE_CONSUMERS.replace(
                "config.semantics, config.seed)", "config.semantics)"
            ),
        )
        assert any(
            "_prep_key" in f.message and "'seed'" in f.message
            for f in report.findings
        ), report.render()

    def test_contradicted_exclusion_is_a_finding(self, tmp_path):
        # _config_fields reads workers although the exclusion list says
        # it is deliberately omitted.
        report = self.write(
            tmp_path,
            COMPLETE_CONSUMERS.replace(
                '"seed": config.seed}', '"seed": config.seed, "w": config.workers}'
            ),
        )
        assert any(
            "exclusion list claims" in f.message and "'workers'" in f.message
            for f in report.findings
        ), report.render()

    def test_stale_exclusion_is_a_finding(self, tmp_path):
        # Remove retry/fault_injector from the dataclass: the committed
        # exclusion entries for them become stale and must be flagged.
        (tmp_path / "config.py").write_text(
            CONFIG.replace("    retry: object = None\n", "")
        )
        (tmp_path / "consumers.py").write_text(COMPLETE_CONSUMERS)
        report = analyze([tmp_path], rule_ids=["cache-key"])
        stale = [f for f in report.findings if "stale entry" in f.message]
        assert len(stale) == 2  # one per consumer's exclusion list
        assert all("'retry'" in f.message for f in stale)

    def test_missing_consumer_is_a_finding(self, tmp_path):
        (tmp_path / "config.py").write_text(CONFIG)
        report = analyze([tmp_path], rule_ids=["cache-key"])
        assert any(
            "cannot be checked" in f.message for f in report.findings
        ), report.render()

    def test_whole_config_hash_covers_cache_key(self, tmp_path):
        (tmp_path / "config.py").write_text(CONFIG)
        (tmp_path / "consumers.py").write_text(
            COMPLETE_CONSUMERS
            + "\n\ndef _cache_key(self):\n"
            "    return (\"join\", self.tau, self.config)\n"
        )
        report = analyze([tmp_path], rule_ids=["cache-key"])
        assert report.clean, report.render()

    def test_partial_cache_key_is_a_finding(self, tmp_path):
        (tmp_path / "config.py").write_text(CONFIG)
        (tmp_path / "consumers.py").write_text(
            COMPLETE_CONSUMERS
            + "\n\ndef _cache_key(self):\n"
            "    cfg = self.config_obj\n"
            "    return (\"join\", cfg.semantics)\n"
        )
        report = analyze([tmp_path], rule_ids=["cache-key"])
        assert any(
            f.rule == "cache-key" and "_cache_key" in f.message
            for f in report.findings
        ), report.render()
