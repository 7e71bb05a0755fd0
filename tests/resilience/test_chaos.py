"""Chaos tests: the parallel executor under injected faults.

The acceptance bar of the resilience layer: with deterministic crashes,
hangs, corrupt envelopes, and poison exceptions injected at every shard
and verify-chunk index, a ``workers=N`` join still returns results
**bit-identical** to the serial engine, with every swallowed
failure accounted for in ``JoinStats.extra``.  PartSJ dispatches only
``shard:<n>`` tasks; the ``verify:<k>`` chunks are exercised through the
STR join, whose parallel verification takes its faults from
``REPRO_FAULT_SPEC``.  Real worker pools are started (and killed), so the
workloads are kept small and the wildcard fault specs cover every task
index within a single join.
"""

import random
import time

import pytest

from repro.baselines.str_join import str_join
from repro.core.join import PartSJConfig, partsj_join
from repro.errors import TaskTimeoutError, WorkerFailureError
from repro.resilience import FAULT_SPEC_ENV, FaultInjector, RetryPolicy
from repro.session import TreeCollection
from tests.conftest import make_cluster_forest

WORKER_COUNTS = (2, 4)
TAUS = (1, 2)

# Fast-failure policy for chaos runs: immediate retries, and a timeout
# large enough that only *injected* hangs ever trip it.
CHAOS_POLICY = RetryPolicy(
    max_attempts=3, task_timeout=5.0, backoff_base=0.0, jitter=0.0
)


def triples(result):
    return [(p.i, p.j, p.distance) for p in result.pairs]


def make_workload(seed=11):
    rng = random.Random(seed)
    return make_cluster_forest(
        rng, clusters=3, cluster_size=3, base_size=10, max_edits=2
    )


def faulted_join(trees, tau, workers, spec, policy=CHAOS_POLICY):
    cfg = PartSJConfig(
        workers=workers,
        retry=policy,
        fault_injector=FaultInjector.from_spec(spec),
    )
    return partsj_join(trees, tau, cfg)


def env_faulted_str_join(monkeypatch, trees, tau, workers, spec):
    """A ``workers``-way STR join with ``spec`` in ``REPRO_FAULT_SPEC``."""
    monkeypatch.setenv(FAULT_SPEC_ENV, spec)
    return str_join(trees, tau, workers=workers)


@pytest.fixture(scope="module")
def workload():
    trees = make_workload()
    serial = {tau: triples(partsj_join(trees, tau)) for tau in TAUS}
    return trees, serial


class TestCrashEveryTask:
    """A worker crash at every shard / chunk index; retries succeed."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("tau", TAUS)
    def test_crash_every_shard_first_attempt(self, workload, workers, tau):
        trees, serial = workload
        result = faulted_join(trees, tau, workers, "shard:*@1=crash")
        assert triples(result) == serial[tau]
        extra = result.stats.extra
        assert extra["worker_failures"] >= 1
        assert extra["retries"] >= 1
        assert extra["pool_respawns"] >= 1
        assert extra["degraded_serial_tasks"] == 0
        assert any(
            event["task"].startswith("shard:") and event["reason"] == "crash"
            for event in extra["fault_events"]
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("tau", TAUS)
    def test_crash_every_verify_chunk_first_attempt(
        self, workload, monkeypatch, workers, tau
    ):
        trees, serial = workload
        result = env_faulted_str_join(
            monkeypatch, trees, tau, workers, "verify:*@1=crash"
        )
        assert triples(result) == serial[tau]
        extra = result.stats.extra
        assert extra["worker_failures"] >= 1
        assert extra["retries"] >= 1
        # parallel_verify reports only the failure counters that moved.
        assert "degraded_serial_tasks" not in extra


class TestHangAndCorrupt:
    def test_hang_detected_by_task_timeout(self, workload):
        trees, serial = workload
        policy = RetryPolicy(
            max_attempts=2, task_timeout=0.5, backoff_base=0.0, jitter=0.0
        )
        start = time.perf_counter()
        result = faulted_join(trees, 2, 2, "shard:1@1=hang", policy)
        wall = time.perf_counter() - start
        assert triples(result) == serial[2]
        assert result.stats.extra["timeouts"] >= 1
        # Detection is timeout-bounded, not hang-bounded (the injected
        # default hang is an hour).
        assert wall < 30.0

    def test_corrupt_envelope_detected_and_retried(self, workload):
        trees, serial = workload
        result = faulted_join(trees, 1, 2, "shard:0@1=corrupt")
        assert triples(result) == serial[1]
        extra = result.stats.extra
        assert extra["worker_failures"] >= 1
        assert extra["retries"] >= 1
        assert any(
            event["task"] == "shard:0" and event["reason"] == "corrupt"
            for event in extra["fault_events"]
        )

    def test_corrupt_verify_envelope_detected_and_retried(
        self, workload, monkeypatch
    ):
        trees, serial = workload
        result = env_faulted_str_join(
            monkeypatch, trees, 1, 2, "verify:0@1=corrupt"
        )
        assert triples(result) == serial[1]
        extra = result.stats.extra
        assert extra["worker_failures"] >= 1
        assert extra["retries"] >= 1
        assert "degraded_serial_tasks" not in extra

    def test_poison_task_is_retried(self, workload):
        trees, serial = workload
        result = faulted_join(trees, 1, 2, "shard:0@1=poison")
        assert triples(result) == serial[1]
        assert result.stats.extra["worker_failures"] >= 1


class TestGracefulDegradation:
    def test_persistent_crash_degrades_serially(self, workload):
        trees, serial = workload
        # No @attempt selector: the fault defeats every retry, forcing
        # the in-process serial fallback for that shard.
        result = faulted_join(trees, 2, 2, "shard:0=crash")
        assert triples(result) == serial[2]
        extra = result.stats.extra
        assert extra["degraded_serial_tasks"] >= 1
        assert extra["retries"] >= 1

    def test_persistent_verify_crash_degrades_serially(
        self, workload, monkeypatch
    ):
        trees, serial = workload
        result = env_faulted_str_join(
            monkeypatch, trees, 2, 2, "verify:*=crash"
        )
        assert triples(result) == serial[2]
        assert result.stats.extra["degraded_serial_tasks"] >= 1

    def test_degradation_disabled_crash_escapes(self, workload):
        trees, _ = workload
        policy = RetryPolicy(
            max_attempts=2, task_timeout=5.0, backoff_base=0.0,
            jitter=0.0, degradation=False,
        )
        with pytest.raises(WorkerFailureError, match="degradation is disabled"):
            faulted_join(trees, 2, 2, "shard:0=crash", policy)

    def test_degradation_disabled_hang_escapes_as_timeout(self, workload):
        trees, _ = workload
        policy = RetryPolicy(
            max_attempts=1, task_timeout=0.4, backoff_base=0.0,
            jitter=0.0, degradation=False,
        )
        with pytest.raises(TaskTimeoutError):
            faulted_join(trees, 2, 2, "shard:*=hang", policy)


class TestEnvHookAndAccounting:
    def test_fault_spec_env_hook(self, workload, monkeypatch):
        trees, serial = workload
        monkeypatch.setenv(FAULT_SPEC_ENV, "shard:0@1=crash")
        result = partsj_join(
            trees, 1, PartSJConfig(workers=2, retry=CHAOS_POLICY)
        )
        assert triples(result) == serial[1]
        assert result.stats.extra["worker_failures"] >= 1

    def test_partsj_runs_no_verify_tasks(self, workload, monkeypatch):
        """One stage: a verify-chunk fault spec never touches PartSJ."""
        trees, serial = workload
        monkeypatch.setenv(FAULT_SPEC_ENV, "verify:*=crash")
        result = partsj_join(
            trees, 2, PartSJConfig(workers=2, retry=CHAOS_POLICY)
        )
        assert triples(result) == serial[2]
        extra = result.stats.extra
        assert extra["worker_failures"] == 0
        assert extra["fault_events"] == []
        assert len(extra["shards"]) == 2

    def test_clean_run_reports_zero_failures(self, workload):
        trees, serial = workload
        result = partsj_join(trees, 1, PartSJConfig(workers=2))
        assert triples(result) == serial[1]
        extra = result.stats.extra
        assert extra["retries"] == 0
        assert extra["worker_failures"] == 0
        assert extra["timeouts"] == 0
        assert extra["degraded_serial_tasks"] == 0
        assert extra["pool_respawns"] == 0
        assert extra["fault_events"] == []

    def test_explain_surfaces_active_policy(self, workload):
        trees, _ = workload
        col = TreeCollection(trees)
        plan = col.join(
            2,
            config=PartSJConfig(
                workers=2,
                retry=RetryPolicy(max_attempts=5, task_timeout=1.5),
                fault_injector=FaultInjector.from_spec("shard:0=crash"),
            ),
        ).explain()
        resilience = plan["resilience"]
        assert resilience["max_attempts"] == 5
        assert resilience["task_timeout"] == 1.5
        assert resilience["fault_injection"] is True
        clean = TreeCollection(trees).join(2, workers=2).explain()
        assert clean["resilience"]["fault_injection"] is False
        assert "resilience" not in TreeCollection(trees).join(2).explain()


class TestOverheadBound:
    def test_faulted_join_within_3x_of_clean_parallel(self, workload):
        """Crash-every-first-attempt must cost at most 3x the clean
        parallel run (plus fixed pool-startup slack): recovery is one
        pool respawn and one retry round, not a serial re-run of the
        whole join."""
        trees, serial = workload
        clean_cfg = PartSJConfig(workers=2, retry=CHAOS_POLICY)
        partsj_join(trees, 2, clean_cfg)  # warm the OS page cache / imports
        start = time.perf_counter()
        clean = partsj_join(trees, 2, clean_cfg)
        clean_wall = time.perf_counter() - start
        start = time.perf_counter()
        faulted = faulted_join(trees, 2, 2, "shard:*@1=crash")
        faulted_wall = time.perf_counter() - start
        assert triples(faulted) == triples(clean) == serial[2]
        assert faulted_wall <= 3.0 * clean_wall + 2.0, (
            f"faulted {faulted_wall:.3f}s vs clean {clean_wall:.3f}s"
        )
