"""Per-rule coverage over the committed fixture trees.

Each bad fixture plants one violation per construct the rule knows;
the assertions pin the rule id AND the exact file:line, so a rule that
drifts (stops firing, or fires on the wrong node) fails loudly.  The
good fixtures prove the negative space: idiomatic code and documented
exemptions produce zero findings.
"""

from pathlib import Path

from repro.analysis import analyze

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def findings_for(path, rule=None):
    report = analyze([FIXTURES / path])
    found = report.findings
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


def lines(findings):
    return [f.line for f in findings]


class TestDeterminismRule:
    def test_bad_fixture_every_construct_detected(self):
        found = findings_for("core/bad_determinism.py", "determinism")
        assert lines(found) == [6, 10, 14, 18, 23, 29]
        messages = " ".join(f.message for f in found)
        assert "global RNG" in messages
        assert "without a seed" in messages
        assert "id(...)" in messages
        assert "sorted" in messages

    def test_good_fixture_is_clean(self):
        assert findings_for("core/good_determinism.py") == []

    def test_scope_is_directory_based(self):
        # The same constructs outside core/parallel/stream/ted
        # are not the determinism rule's business.
        assert findings_for("bad_counters.py", "determinism") == []


class TestWallClockRule:
    def test_wall_clock_reads_flagged_outside_obs(self):
        found = findings_for("stream/bad_clock.py", "wall-clock")
        assert lines(found) == [7, 11]

    def test_obs_directory_is_exempt(self):
        assert findings_for("obs/clock_ok.py") == []


class TestPoolBoundaryRule:
    def test_bad_fixture_every_construct_detected(self):
        found = findings_for("parallel/bad_pool.py", "pool-boundary")
        assert lines(found) == [10, 14, 18, 24, 28]
        roles = " ".join(f.message for f in found)
        assert "PoolSupervisor.run task" in roles
        assert "apply_async task" in roles
        assert "pool initializer" in roles
        assert "nested function 'helper'" in roles

    def test_parent_side_closures_are_exempt(self):
        # Factory lambda, fallback lambda, partial-of-def, def initializer.
        assert findings_for("parallel/good_pool.py") == []


class TestErrorContractRule:
    def test_bare_except_and_builtin_raises(self):
        found = findings_for("bad_errors.py", "error-contract")
        assert lines(found) == [7, 13, 19]
        assert "bare except" in found[0].message
        assert "ValueError" in found[1].message
        assert "RuntimeError" in found[2].message

    def test_unexported_subclasses_detected(self):
        report = analyze([FIXTURES / "errlib"])
        found = [f for f in report.findings if f.rule == "error-contract"]
        assert [(Path(f.file).name, f.line) for f in found] == [
            ("errors.py", 12), ("extra.py", 12),
        ]
        assert "ForgottenError" in found[0].message
        assert "StrayError" in found[1].message


class TestCounterRegistryRule:
    def test_unregistered_names_detected(self):
        found = findings_for("bad_counters.py", "counter-registry")
        assert lines(found) == [5, 6, 7, 9, 10]
        named = " ".join(f.message for f in found)
        for name in ("bogus_counter", "another_bogus", "sneaky_default",
                     "mystery", "repro_bogus_total"):
            assert name in named

    def test_registered_and_dynamic_names_pass(self):
        assert findings_for("good_counters.py") == []
