"""The production FTL against the page-at-a-time reference model.

``tests/ftl_reference.py`` is the FTL as it was when it mapped one page per
loop iteration.  The property below drives it and ``repro.conv.PageMappedFTL``
with the same script of ``write``/``trim`` extents and requires, after
*every* operation — including one that raised — the same mapping tables,
free list, frontiers, counters, ``GCResult`` and exception.  Extents run
from one page to several erase blocks, so they straddle block boundaries,
trigger GC part-way through, overwrite pages living in the very block GC
then picks as its victim, and overfill the device until it reports being
out of space (in host allocation and inside GC relocation).
"""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.conv import FTLConfig, PageMappedFTL

from ftl_reference import ReferencePageMappedFTL

UNMAPPED = PageMappedFTL.UNMAPPED

ARRAYS = ("l2p", "p2l", "valid_count")
SCALARS = ("free_blocks", "active_block", "active_offset", "gc_block",
           "gc_offset", "host_pages_written", "gc_pages_moved",
           "blocks_erased", "write_amplification")


def assert_same_state(ftl, ref, where):
    for name in ARRAYS:
        got, want = getattr(ftl, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), \
            f"{name} differs {where}"
    for name in SCALARS:
        assert getattr(ftl, name) == getattr(ref, name), \
            f"{name} differs {where}"


def assert_consistent(ftl, where):
    """The two maps are inverses and ``valid_count`` counts them."""
    ppb = ftl.config.pages_per_block
    lpns = np.flatnonzero(ftl.l2p != UNMAPPED)
    per_block = (ftl.p2l.reshape(ftl.num_blocks, ppb) != UNMAPPED).sum(axis=1)
    assert np.array_equal(ftl.p2l[ftl.l2p[lpns]], lpns), where
    assert np.array_equal(ftl.valid_count, per_block), where
    assert int(ftl.valid_count.sum()) == lpns.size, where
    assert len(ftl.free_blocks) == len(set(ftl.free_blocks)), where
    assert not per_block[ftl.free_blocks].any(), where


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc), str(exc))


def run_script(config, ops):
    """Apply ``ops`` to both models, comparing after each.

    Returns the production FTL and the messages of the errors raised."""
    ftl, ref = PageMappedFTL(config), ReferencePageMappedFTL(config)
    raised = []
    assert_same_state(ftl, ref, "at construction")
    for step, (kind, lpn, npages) in enumerate(ops):
        where = f"after op {step}: {kind}({lpn}, {npages})"
        got = outcome(getattr(ftl, kind), lpn, npages)
        want = outcome(getattr(ref, kind), lpn, npages)
        assert got == want, f"result differs {where}: {got} != {want}"
        assert_same_state(ftl, ref, where)
        assert_consistent(ftl, where)
        if got[0] == "raised":
            raised.append(got[2])
    return ftl, raised


@st.composite
def geometries(draw):
    ppb = draw(st.sampled_from([4, 16, 64, 256]))
    # Below ~9 blocks of logical space the 10-block floor on
    # physical_blocks leaves GC idle; above it the op_ratio decides.
    blocks = draw(st.one_of(st.integers(1, 3), st.integers(8, 14),
                            st.integers(8, 14), st.integers(9, 11)))
    logical_pages = blocks * ppb - draw(st.integers(0, ppb - 1))
    low, high = draw(st.sampled_from([(4, 8), (4, 8), (1, 3), (0, 2)]))
    return FTLConfig(logical_pages=logical_pages, pages_per_block=ppb,
                     op_ratio=draw(st.sampled_from([0.07, 0.2, 0.5])),
                     gc_low_watermark=low, gc_high_watermark=high)


@st.composite
def scripts(draw):
    config = draw(geometries())
    pages, ppb = config.logical_pages, config.pages_per_block
    lengths = st.one_of(
        st.integers(1, 5),
        st.sampled_from([ppb - 1, ppb, ppb + 1, 2 * ppb, 2 * ppb + 3]),
        st.integers(1, 3 * ppb),
        st.just(pages))
    starts = st.one_of(
        st.integers(0, pages - 1),
        st.integers(0, (pages - 1) // ppb).map(lambda b: b * ppb),
        st.just(0))

    def op(kind, lpn, npages, clip):
        # Most extents are clipped into range; the rest check that both
        # models refuse the same out-of-range extents the same way.
        if clip:
            npages = max(1, min(npages, pages - lpn))
        return (kind, lpn, npages)

    ops = draw(st.lists(
        st.builds(op,
                  st.sampled_from(["write"] * 5 + ["trim"]),
                  st.one_of(starts, starts, starts,
                            st.integers(-2, pages + 2)),
                  lengths,
                  st.sampled_from([True] * 9 + [False])),
        min_size=1, max_size=80))
    # Fill first, most of the time: GC only has work on a full device.
    if draw(st.sampled_from([True] * 7 + [False])):
        ops.insert(0, ("write", 0, pages))
    return config, ops


@settings(max_examples=150, deadline=None)
@given(scripts())
def test_extent_ftl_matches_page_at_a_time_reference(script):
    config, ops = script
    ftl, raised = run_script(config, ops)
    # Coverage, visible with --hypothesis-show-statistics.
    if ftl.gc_pages_moved:
        event("GC relocated pages")
    for message in raised:
        event("raised: " + ("out of range" if "out of range" in message
                            else message.split(":")[0]))


class TestDirectedScripts:
    """The cases the extent walk has to get right, spelled out."""

    def test_sequential_rewrite_in_multi_block_extents(self):
        # Each extent invalidates pages of the block GC is about to pick,
        # so the victim still holds pages of the extent being written.
        config = FTLConfig(logical_pages=16 * 12, pages_per_block=16)
        ops = [("write", 0, 16 * 12)]
        for _ in range(6):
            ops += [("write", lpn, 40) for lpn in range(0, 16 * 12 - 40, 40)]
        ftl, _ = run_script(config, ops)
        assert ftl.blocks_erased > 0

    def test_extent_offset_from_block_boundaries(self):
        config = FTLConfig(logical_pages=64 * 11, pages_per_block=64)
        ops = [("write", 0, 64 * 11)]
        for shift in (1, 63, 65, 17):
            ops += [("write", lpn, 100)
                    for lpn in range(shift, 64 * 11 - 100, 100)]
        ftl, _ = run_script(config, ops)
        assert ftl.gc_pages_moved > 0

    def test_random_small_writes_then_big_extents(self):
        import random
        rng = random.Random(5)
        config = FTLConfig(logical_pages=1024, pages_per_block=32,
                           op_ratio=0.1)
        ops = [("write", 0, 1024)]
        ops += [("write", rng.randrange(1024), 1) for _ in range(1500)]
        ops += [("write", rng.randrange(1024 - 200), rng.randrange(1, 200))
                for _ in range(200)]
        ops += [("trim", rng.randrange(1024 - 50), rng.randrange(1, 50))
                for _ in range(20)]
        ops += [("write", rng.randrange(1024 - 200), rng.randrange(1, 200))
                for _ in range(100)]
        ftl, _ = run_script(config, ops)
        assert ftl.gc_pages_moved > 1000

    def test_relocation_runs_out_of_blocks(self):
        # 10 physical blocks of 4 pages cannot hold 39 logical pages plus
        # two open frontiers: GC finds a victim but no block to move it to,
        # part-way through the victim, again and again.
        config = FTLConfig(logical_pages=39, pages_per_block=4,
                           op_ratio=0.0, gc_low_watermark=0,
                           gc_high_watermark=2)
        ops = [("write", 0, 39)]
        ops += [("write", lpn, 3) for lpn in range(0, 36, 5)] * 4
        _, raised = run_script(config, ops)
        assert raised.count("FTL out of free blocks during GC") > 4

    def test_host_allocation_runs_out_of_blocks(self):
        # 8 blocks of 4 pages for 31 logical pages: three collections in a
        # row leave every block fully valid, and the extent's seventh
        # page finds nothing to reclaim.
        config = FTLConfig(logical_pages=31, pages_per_block=4,
                           op_ratio=0.0, gc_low_watermark=1,
                           gc_high_watermark=3)
        ops = [("trim", 27, 4), ("write", 15, 9), ("write", 25, 6),
               ("write", 0, 6), ("write", 10, 6), ("write", 4, 8),
               ("write", 9, 3), ("trim", 0, 31), ("write", 0, 31)]
        ftl, raised = run_script(config, ops)
        assert raised[0].startswith(
            "FTL out of free blocks: GC could not reclaim space")
        assert ftl.blocks_erased >= 3


@pytest.mark.parametrize("ppb", [4, 16, 64, 256])
def test_bench_shaped_stream_matches(ppb):
    """16-page writes from 8 interleaved streams over a full device: the
    shape of the ``mdraid_overwrite`` workload at every block size."""
    pages = ppb * 12
    config = FTLConfig(logical_pages=pages, pages_per_block=ppb)
    io = max(1, ppb // 16)
    span = pages // 8
    ops = [("write", 0, pages)]
    for _ in range(3):
        for off in range(0, span - io + 1, io):
            ops += [("write", job * span + off, io) for job in range(8)]
    ftl, _ = run_script(config, ops)
    assert ftl.gc_pages_moved > 0
