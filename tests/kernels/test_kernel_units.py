"""Direct property tests of the two kernels against their references."""

import pytest

from repro.kernels import get_numpy, numpy_available
from tests.conftest import make_random_tree

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


class TestPartitionKernel:
    """Numpy span fills must produce byte-identical subgraph bitmaps."""

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_matches_reference_bitmaps(self, rng, tau):
        from repro.core.partition import extract_partition
        from repro.core.treecache import TreeCache

        delta = 2 * tau + 1
        for _ in range(20):
            cache = TreeCache(make_random_tree(rng, rng.randint(delta, 60)))
            py = extract_partition(cache, 0, delta, backend="python")
            np_ = extract_partition(cache, 0, delta, backend="numpy")
            assert [s.root_number for s in py] == [s.root_number for s in np_]
            for sp, sn in zip(py, np_):
                assert isinstance(sn.member_bits, bytearray)
                assert bytes(sp.member_bits) == bytes(sn.member_bits)

    def test_binary_numbering_matches(self, rng):
        from repro.core.partition import extract_partition
        from repro.core.treecache import TreeCache

        for _ in range(10):
            cache = TreeCache(make_random_tree(rng, 40))
            py = extract_partition(
                cache, 0, 5, numbering="binary", backend="python"
            )
            np_ = extract_partition(
                cache, 0, 5, numbering="binary", backend="numpy"
            )
            assert [bytes(s.member_bits) for s in py] == \
                [bytes(s.member_bits) for s in np_]


class TestProbeScratch:
    def test_grows_geometrically_and_shares_memory(self):
        from repro.kernels.probe import ProbeScratch

        scratch = ProbeScratch()
        scratch.ensure(10)
        assert len(scratch.seen) >= 10
        scratch.seen[3] = 1
        assert int(scratch.seen_np[3]) == 1  # zero-copy view
        buf = scratch.seen
        scratch.ensure(5)
        assert scratch.seen is buf  # no shrink, no realloc
        scratch.ensure(1000)
        assert len(scratch.seen) >= 1000


class TestTreeCacheArrays:
    def test_as_arrays_cached_and_consistent(self, rng):
        from repro.core.treecache import TreeCache

        np = get_numpy()
        cache = TreeCache(make_random_tree(rng, 25))
        arrays = cache.as_arrays(np)
        assert cache.as_arrays(np) is arrays
        labels, left, right, general = arrays
        assert labels.tolist() == list(cache.labels)
        assert left.tolist() == list(cache.left)
        assert right.tolist() == list(cache.right)
        assert general.tolist() == list(cache.general_post)


class TestBucketArrayCache:
    def test_bucket_arrays_invalidated_on_insert(self, rng):
        from repro.core.join import PartSJConfig, ShardDriver
        from repro.kernels.probe import _bucket_arrays

        np = get_numpy()
        trees_ = [make_random_tree(rng, 12) for _ in range(6)]
        cfg = PartSJConfig(backend="numpy").resolved()
        driver = ShardDriver(trees_, 1, cfg)
        driver.ingest(0)
        driver.ingest(1)
        bucket = None
        for by_size in driver.index.merged.values():
            for b in by_size.values():
                if b.entries:
                    bucket = b
                    break
            if bucket is not None:
                break
        assert bucket is not None
        arrays = _bucket_arrays(bucket, np)
        assert bucket.arrays is arrays
        before = len(bucket.entries)
        bucket.add(*bucket.entries[0])
        assert bucket.arrays is None  # invalidated by the insert
        rebuilt = _bucket_arrays(bucket, np)
        assert rebuilt[0].shape[0] == before + 1
