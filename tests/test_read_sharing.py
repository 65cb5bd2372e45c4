"""Single-flight survivor reads: properties of ``ReadPath``'s in-flight table.

While a device is unavailable, a stripe's direct reads and its
reconstruction's survivor reads of the same bytes ride one device command
(DESIGN.md, "Read-path fan-out").  Whatever is written, whichever device
is lost and however many reads are in flight together: every read returns
what was written, the shared run never issues more device reads than the
same script over a table that holds nothing, every consumer of a command
hears of it exactly once, and nothing is left in the table.  A healthy
array does not consult the table at all: one command per piece, in piece
order, as the address mapper alone predicts.
"""

from hypothesis import given, settings, strategies as st

from repro.block import Bio, Op
from repro.faults import fresh_replacement
from repro.raizn.rebuild import rebuild_process
from repro.sim import Simulator
from repro.units import SECTOR_SIZE

from conftest import TEST_STRIPE_UNIT, make_volume, pattern

SU = TEST_STRIPE_UNIT
STRIPE = 4 * SU
ZONE = 16 * STRIPE
MAX_FILL = ZONE + 6 * STRIPE
SECTORS = st.integers(0, MAX_FILL // SECTOR_SIZE)

#: A batch is submitted in one tick and drained: QD 1-32.
BATCHES = st.lists(st.lists(st.tuples(SECTORS, SECTORS), min_size=1,
                            max_size=32), min_size=1, max_size=3)


class Forgetful(dict):
    """An in-flight table that holds nothing: every consumer finds it
    empty and issues its own command — the unshared read path."""

    def __setitem__(self, key, entry):
        pass

    def __delitem__(self, key):
        pass


class Run:
    """One array, filled, optionally degraded, every device read logged."""

    def __init__(self, fill, lost=None, share=True):
        self.sim = Simulator()
        self.volume, self.devices = make_volume(self.sim, num_zones=6)
        self.data = pattern(fill, seed=fill)
        for lba in range(0, fill, STRIPE):
            self.volume.execute(Bio.write(lba, self.data[lba:lba + STRIPE]))
        self.stream = []
        for device in self.devices:
            device.add_hook("pre_apply", self.log_read)
        if lost is not None:
            self.volume.fail_device(lost)
        readpath = self.volume.readpath
        if not share:
            readpath._inflight = Forgetful()
        self.submitted, self.completed = [], []
        submit = readpath._submit
        for name in ("_read_done", "_read_attempted", "_survivor_read"):
            setattr(readpath, name, self.completion_of(getattr(readpath, name)))

        def logged_submit(device, pba, length, handler, context, *rest):
            self.submitted.append((handler, context))
            submit(device, pba, length, handler, context, *rest)
        readpath._submit = logged_submit

    def log_read(self, device, bio):
        if bio.op is Op.READ:
            self.stream.append((self.devices.index(device), bio.offset,
                                bio.length))

    def completion_of(self, handler):
        def completion(bio, *fed):
            self.completed.append((completion, bio.wctx))
            handler(bio, *fed)
        return completion

    def read(self, batches):
        """Each batch submitted at once and drained; the results, in
        submission order."""
        fill = len(self.data)
        results = []
        for batch in batches:
            events = []
            for start, extent in batch:
                offset = start * SECTOR_SIZE % fill
                length = min(extent * SECTOR_SIZE % (2 * STRIPE)
                             + SECTOR_SIZE, fill - offset)
                events.append((offset, length, self.volume.submit(
                    Bio.read(offset, length))))
            self.sim.run()
            assert not self.volume.readpath._inflight
            for offset, length, event in events:
                assert event.triggered and event.ok
                assert bytes(event.value.result) == \
                    self.data[offset:offset + length]
                results.append(event.value.result)
        return results

    def consumers_heard_once(self):
        def identities(consumers):
            return sorted((id(handler), id(context))
                          for handler, context in consumers)
        return identities(self.submitted) == identities(self.completed)


@settings(max_examples=40, deadline=None)
@given(fill=st.integers(1, MAX_FILL // SECTOR_SIZE), lost=st.integers(0, 4),
       batches=BATCHES)
def test_degraded_reads_share_and_stay_correct(fill, lost, batches):
    fill *= SECTOR_SIZE
    shared = Run(fill, lost)
    unshared = Run(fill, lost, share=False)
    assert shared.read(batches) == unshared.read(batches)
    assert len(shared.stream) <= len(unshared.stream)
    assert len(unshared.stream) - len(shared.stream) == \
        shared.volume.readpath.joined_reads
    assert unshared.volume.readpath.joined_reads == 0
    assert shared.consumers_heard_once() and unshared.consumers_heard_once()


@settings(max_examples=40, deadline=None)
@given(stripes=st.integers(1, 20), lost=st.integers(0, 4),
       picks=st.lists(st.integers(0, 19), min_size=1, max_size=8,
                      unique=True))
def test_full_stripe_degraded_read_is_num_data_commands(stripes, lost, picks):
    """Data lost: the three direct pieces ride the reconstruction's four
    survivor commands.  Parity lost: four direct pieces.  Either way each
    surviving byte of the stripe is fetched once — also with several
    stripes in flight."""
    run = Run(stripes * STRIPE, lost)
    picks = sorted({pick % stripes for pick in picks})
    run.read([[(stripe * STRIPE // SECTOR_SIZE, STRIPE // SECTOR_SIZE - 1)
               for stripe in picks]])
    assert len(run.stream) == 4 * len(picks)
    assert len(set(run.stream)) == len(run.stream)
    assert run.consumers_heard_once()


@settings(max_examples=40, deadline=None)
@given(fill=st.integers(1, MAX_FILL // SECTOR_SIZE), batches=BATCHES)
def test_healthy_array_never_consults_the_table(fill, batches):
    fill *= SECTOR_SIZE
    run = Run(fill)
    readpath = run.volume.readpath

    class Untouchable(dict):
        def get(self, key, default=None):
            raise AssertionError("healthy read consulted the table")
    readpath._inflight = Untouchable()
    results = run.read(batches)
    mapper = run.volume.mapper
    expected = []
    for result, (start, _extent) in zip(
            results, [read for batch in batches for read in batch]):
        offset = start * SECTOR_SIZE % fill
        expected += mapper.split_extent(offset, len(result))
    assert run.stream == expected
    assert readpath.joined_reads == 0 and run.consumers_heard_once()


def test_foreground_reconstruction_beside_the_rebuild_is_not_shared():
    """The rebuild reads both stripes' lost units as one run, one
    ``2 x SU`` command per survivor, outside the table: a foreground
    degraded read of the first unit wants survivor bytes the run is
    fetching, and is a second request for them — it issues its own
    ``SU`` survivor reads instead of riding the rebuild's."""
    run = Run(2 * STRIPE)
    volume, sim = run.volume, run.sim
    lost = volume.mapper.stripe_layout(0, 0).data_devices[0]
    volume.fail_device(lost)
    replacement = fresh_replacement(sim, run.devices[0], name="spare")
    rebuild = sim.process(rebuild_process(sim, volume, lost, replacement))
    read = volume.submit(Bio.read(0, SU))   # stripe 0's unit on ``lost``
    sim.run()
    assert rebuild.ok and read.ok
    assert bytes(read.value.result) == run.data[:SU]
    survivors = [device for device in range(len(run.devices))
                 if device != lost]
    for device in survivors:
        assert sorted(command for command in run.stream
                      if command[0] == device) == \
            [(device, 0, SU), (device, 0, 2 * SU)]
    assert volume.readpath.joined_reads == 0
    assert not volume.readpath._inflight
