"""The asyncio front end: concurrent ingest + search over one warm index."""

import asyncio
import random

import pytest

from repro.api import similarity_join
from repro.errors import IngestError, InvalidParameterError, ReproError
from repro.stream import StreamJoinService
from repro.tree.node import Tree
from tests.conftest import make_cluster_forest


def triples(pairs):
    return [(p.i, p.j, p.distance) for p in pairs]


@pytest.fixture
def workload():
    rng = random.Random(51)
    trees = make_cluster_forest(
        rng, clusters=3, cluster_size=3, base_size=9, max_edits=2
    )
    rng.shuffle(trees)
    return trees


class TestStreamJoinService:
    def test_concurrent_ingest_search_subscribe(self, workload):
        tau = 2
        searches = []
        received = []

        async def producer(service):
            for tree in workload:
                await service.ingest(tree)

        async def search_client(service):
            # Interleaves with the producer on the event loop; each query
            # sees some prefix of the stream and must answer over it.
            for _ in range(5):
                hits = await service.search(workload[0])
                stats = await service.stats()
                searches.append((len(hits), stats.trees))
                await asyncio.sleep(0)

        async def subscriber(service):
            async for pair in service.subscribe():
                received.append(pair)

        async def scenario():
            async with StreamJoinService(tau) as service:
                sub = asyncio.create_task(subscriber(service))
                await asyncio.gather(
                    producer(service), search_client(service)
                )
                results = await service.results()
                stats = await service.stats()
                return sub, results, stats

        async def run():
            sub, results, stats = await scenario()
            await sub  # close() ended the subscription
            return results, stats

        results, stats = asyncio.run(run())
        batch = similarity_join(workload, tau)
        assert triples(results) == triples(batch.pairs)
        assert stats.trees == len(workload)
        # Every verified pair was published to the subscriber.
        assert sorted(triples(received)) == sorted(triples(batch.pairs))
        # Searches observed monotonically growing prefixes.
        prefixes = [trees for _, trees in searches]
        assert prefixes == sorted(prefixes)

    def test_close_is_idempotent(self):
        async def run():
            service = StreamJoinService(1)
            await service.ingest(Tree.from_bracket("{a{b}}"))
            await service.close()
            await service.close()

        asyncio.run(run())

    def test_subscribe_after_close_ends_immediately(self):
        async def run():
            service = StreamJoinService(1)
            await service.close()
            received = [pair async for pair in service.subscribe()]
            return received

        # Must terminate (not hang on an empty queue) and yield nothing.
        assert asyncio.run(asyncio.wait_for(run(), timeout=5)) == []


class TestServiceFailureSemantics:
    def test_operations_after_close_raise_clearly(self):
        async def run():
            service = StreamJoinService(1)
            await service.ingest(Tree.from_bracket("{a{b}}"))
            await service.close()
            for call in (
                service.ingest(Tree.from_bracket("{a}")),
                service.ingest_many([Tree.from_bracket("{a}")]),
                service.search(Tree.from_bracket("{a}")),
                service.flush(),
            ):
                with pytest.raises(ReproError, match="closed"):
                    await call
            # Read-only accessors survive close.
            results = await service.results()
            stats = await service.stats()
            return results, stats

        results, stats = asyncio.run(run())
        assert stats.trees == 1
        assert results == []

    def test_concurrent_close_with_subscribers(self, workload):
        """Many coroutines racing close() while subscribers are live:
        every close completes, every subscription ends, nothing hangs."""

        async def run():
            service = StreamJoinService(2)
            subs = [service.subscribe() for _ in range(3)]
            consumers = [
                asyncio.create_task(self._consume(sub)) for sub in subs
            ]
            await service.ingest_many(workload[:5])
            await asyncio.gather(*[service.close() for _ in range(4)])
            return await asyncio.gather(*consumers)

        received = asyncio.run(asyncio.wait_for(run(), timeout=10))
        # All subscribers saw the same published pairs.
        assert len({tuple(triples(r)) for r in received}) == 1

    @staticmethod
    async def _consume(subscription):
        return [pair async for pair in subscription]

    def test_ingest_accepts_bracket_strings(self):
        async def run():
            async with StreamJoinService(1) as service:
                await service.ingest("{a{b}}")
                await service.ingest_many(["{a{b{c}}}", "{a}"])
                return await service.stats()

        assert asyncio.run(run()).trees == 3

    def test_malformed_ingest_fail_raises_with_context(self):
        async def run():
            async with StreamJoinService(1) as service:
                with pytest.raises(IngestError):
                    await service.ingest("{{unbalanced")
                with pytest.raises(IngestError, match="Tree or bracket"):
                    await service.ingest(42)
                return await service.stats()

        stats = asyncio.run(run())
        assert stats.trees == 0
        assert stats.quarantined_trees == 0

    def test_malformed_ingest_skip_quarantines(self):
        async def run():
            async with StreamJoinService(1, on_error="skip") as service:
                assert await service.ingest("{{unbalanced") == []
                await service.ingest_many(
                    ["{a{b}}", "not a tree", "{a{b{c}}}", object()]
                )
                return await service.stats()

        stats = asyncio.run(run())
        assert stats.trees == 2
        assert stats.quarantined_trees == 3
        assert len(stats.extra["quarantine_log"]) == 3

    def test_on_error_validated(self):
        with pytest.raises(InvalidParameterError):
            StreamJoinService(1, on_error="ignore")


class TestBoundedSubscriptions:
    def test_drop_oldest_bounds_memory_and_counts_drops(self, workload):
        """A subscriber that never consumes: with drop_oldest its queue
        stays at maxsize and the drop counter accounts for the rest."""

        async def run():
            async with StreamJoinService(2) as service:
                sub = service.subscribe(maxsize=2, overflow="drop_oldest")
                await service.ingest_many(workload)
                published = len(await service.results())
                return sub, published

        sub, published = asyncio.run(asyncio.wait_for(run(), timeout=10))
        assert published > 2
        assert sub._queue.qsize() <= 3  # maxsize + end sentinel
        # Everything beyond the buffer was dropped and counted.
        assert sub.dropped >= published - 2

    def test_block_applies_backpressure_without_losing_pairs(self, workload):
        """A slow consumer under the block policy delays the publisher
        but receives every pair exactly once."""

        async def run():
            async with StreamJoinService(2) as service:
                sub = service.subscribe(maxsize=1, overflow="block")
                received = []

                async def slow_consumer():
                    async for pair in sub:
                        received.append(pair)
                        await asyncio.sleep(0)

                consumer = asyncio.create_task(slow_consumer())
                await service.ingest_many(workload)
                expected = await service.results()
                await service.close()
                await consumer
                return sub, received, expected

        sub, received, expected = asyncio.run(
            asyncio.wait_for(run(), timeout=10)
        )
        # Published in verification order; same pairs, nothing lost.
        assert sorted(triples(received)) == sorted(triples(expected))
        assert sub.dropped == 0

    def test_close_ends_stalled_bounded_subscriber(self, workload):
        """close() must not deadlock behind a full bounded queue whose
        consumer stopped: the sentinel is forced in."""

        async def run():
            service = StreamJoinService(2)
            sub = service.subscribe(maxsize=1, overflow="drop_oldest")
            await service.ingest_many(workload[:6])
            await service.close()
            return [pair async for pair in sub]

        # Terminates; the stalled subscriber sees at most its buffer.
        received = asyncio.run(asyncio.wait_for(run(), timeout=10))
        assert len(received) <= 1

    def test_subscribe_parameters_validated(self):
        service = StreamJoinService(1)
        with pytest.raises(InvalidParameterError):
            service.subscribe(maxsize=-1)
        with pytest.raises(InvalidParameterError):
            service.subscribe(maxsize=2, overflow="drop_newest")
