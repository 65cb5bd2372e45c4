"""Bio: the unit of IO between layers, modelled on the Linux block layer.

RAIZN is a device-mapper target, so its interface contract is expressed in
terms of bios and their flags: ``REQ_OP_*`` operation codes plus the
``REQ_FUA`` and ``REQ_PREFLUSH`` persistence flags (paper §5.3).  This
module reproduces that vocabulary.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..errors import InvalidAddressError
from ..members import Members
from ..units import SECTOR_SIZE


class Op(Members):
    """Bio operation codes (subset of Linux ``REQ_OP_*`` relevant to ZNS)."""

    READ = "read"
    WRITE = "write"
    FLUSH = "flush"
    DISCARD = "discard"
    ZONE_APPEND = "zone_append"
    ZONE_RESET = "zone_reset"
    ZONE_FINISH = "zone_finish"
    ZONE_OPEN = "zone_open"
    ZONE_CLOSE = "zone_close"


class BioFlags(enum.IntFlag):
    """Persistence flags carried by a bio."""

    NONE = 0
    #: Forced unit access: the write itself must be durable before completion.
    FUA = 1
    #: Flush the device write cache before executing this bio.
    PREFLUSH = 2


#: Plain-int flag masks for the per-command hot path.
_FUA = int(BioFlags.FUA)
_PREFLUSH = int(BioFlags.PREFLUSH)


class Bio:
    """One IO request.

    ``offset`` and data lengths are in bytes.  WRITE and ZONE_APPEND carry
    ``data``; READ carries ``length``; zone-management ops carry only the
    zone-identifying ``offset``.  After completion, ``result`` holds the
    bytes read (READ) or the byte address at which data landed
    (ZONE_APPEND).
    """

    __slots__ = (
        "op",
        "offset",
        "data",
        "length",
        "flags",
        "result",
        "error",
        "errors_as_status",
        "end_io",
        "submit_time",
        "complete_time",
        "aux",
        "wctx",
        "counted",
        "span",
        "span_grant",
    )

    def __init__(
        self,
        op: Op,
        offset: int = 0,
        data: Optional[bytes] = None,
        length: int = 0,
        flags: BioFlags = BioFlags.NONE,
    ):
        if offset < 0:
            raise InvalidAddressError(f"negative bio offset: {offset}")
        if op is Op.WRITE or op is Op.ZONE_APPEND:
            if data is None:
                raise ValueError(f"{op.value} bio requires data")
            length = len(data)
        elif op is Op.READ:
            if length <= 0:
                raise ValueError("READ bio requires a positive length")
        self.op = op
        self.offset = offset
        self.data = data
        self.length = length
        # Stored as a plain int: IntFlag arithmetic costs a dynamic class
        # lookup per `&`, and flags are tested on every command.  IntFlag
        # members compare and combine with ints transparently.
        self.flags = int(flags)
        self.result: object = None
        #: The ``DeviceError`` this bio completed with, when the submitter
        #: opted into error-status completion (see ``errors_as_status``).
        self.error: Optional[BaseException] = None
        #: Opt-in: a device error *completes* the bio with ``error`` set
        #: instead of failing the completion event.  Mirrors the block
        #: layer's ``bio->bi_status``: a driver that checks status gets the
        #: failing bio back; everyone else keeps the legacy raise behaviour.
        self.errors_as_status = False
        #: Completion callback, ``bi_end_io``: when set, the device calls
        #: ``end_io(bio)`` at completion instead of triggering an event.
        #: Every outcome arrives as status (``error`` set, never raised),
        #: so the submitter must set ``errors_as_status`` too.
        self.end_io: Optional[Callable[["Bio"], None]] = None
        self.submit_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        #: Device-private scratch (e.g. flush snapshots); not for callers.
        self.aux: object = None
        #: Submitter-private context rider: the RAIZN write and read paths
        #: park their per-attempt join state here so the device completion
        #: callback can be one shared bound method, not a closure per command.
        self.wctx: object = None
        #: Set once the bio has been charged to ``DeviceStats`` — stats
        #: count logical commands, so a resubmission (retry) of the same
        #: bio must not count again.
        self.counted = False
        #: Trace state while this bio is in flight on a device (see
        #: :mod:`repro.trace`); None unless tracing is enabled, else the
        #: parent-span id (an int, ``-1`` for no parent) captured at
        #: submission.  With ``span_grant`` — the instant service starts
        #: on a channel, computed by ``BlockDevice._serve`` — the device
        #: folds a full span into the trace ring at completion without
        #: allocating anything.
        self.span = None
        self.span_grant = 0.0

    # -- constructors ---------------------------------------------------------

    @classmethod
    def command(cls, op: Op, offset: int, data, length: int, flags: int,
                wctx: object, end_io: Callable[["Bio"], None]) -> "Bio":
        """A device command from a trusted internal caller, completing
        through ``end_io(bio)`` with errors as status.

        Skips ``__init__``'s argument checks: the RAIZN data path builds
        its data/parity writes, device reads and metadata-log appends
        from addresses it has already validated, one per device command.
        ``length`` must be ``len(data)`` for a write or append, and
        ``flags`` a plain int.
        """
        bio = cls.__new__(cls)
        bio.op = op
        bio.offset = offset
        bio.data = data
        bio.length = length
        bio.flags = flags
        bio.result = None
        bio.error = None
        bio.errors_as_status = True
        bio.end_io = end_io
        bio.submit_time = None
        bio.complete_time = None
        bio.aux = None
        bio.wctx = wctx
        bio.counted = False
        bio.span = None
        bio.span_grant = 0.0
        return bio

    @classmethod
    def read(cls, offset: int, length: int) -> "Bio":
        """A read of ``length`` bytes at byte ``offset``."""
        return cls(Op.READ, offset=offset, length=length)

    @classmethod
    def write(cls, offset: int, data: bytes, flags: BioFlags = BioFlags.NONE) -> "Bio":
        """A write of ``data`` at byte ``offset``.

        ``data`` may be any readable buffer (``bytes``, ``bytearray``,
        ``memoryview``); it is NOT copied.  The caller must not mutate the
        buffer while the bio is in flight — the RAIZN fan-out path exploits
        this to slice one logical payload into stripe units without a copy
        per unit.
        """
        return cls(Op.WRITE, offset=offset, data=data, flags=flags)

    @classmethod
    def zone_append(cls, zone_start: int, data: bytes,
                    flags: BioFlags = BioFlags.NONE) -> "Bio":
        """A zone append into the zone starting at byte ``zone_start``.

        Like :meth:`write`, ``data`` is borrowed, not copied.
        """
        return cls(Op.ZONE_APPEND, offset=zone_start, data=data, flags=flags)

    @classmethod
    def flush(cls) -> "Bio":
        """A standalone cache flush (``REQ_OP_FLUSH``)."""
        return cls(Op.FLUSH)

    @classmethod
    def zone_reset(cls, zone_start: int) -> "Bio":
        """Reset the zone starting at byte ``zone_start``."""
        return cls(Op.ZONE_RESET, offset=zone_start)

    @classmethod
    def zone_finish(cls, zone_start: int) -> "Bio":
        """Transition the zone starting at ``zone_start`` to FULL."""
        return cls(Op.ZONE_FINISH, offset=zone_start)

    @classmethod
    def zone_open(cls, zone_start: int) -> "Bio":
        """Explicitly open the zone starting at ``zone_start``."""
        return cls(Op.ZONE_OPEN, offset=zone_start)

    @classmethod
    def zone_close(cls, zone_start: int) -> "Bio":
        """Close the zone starting at ``zone_start``."""
        return cls(Op.ZONE_CLOSE, offset=zone_start)

    # -- properties -----------------------------------------------------------

    @property
    def end_offset(self) -> int:
        """One past the last byte this bio touches."""
        return self.offset + self.length

    @property
    def latency(self) -> float:
        """Completion minus submission time; only valid after completion."""
        if self.submit_time is None or self.complete_time is None:
            raise ValueError("bio has not completed")
        return self.complete_time - self.submit_time

    def check_alignment(self) -> None:
        """Raise unless offset and length are sector aligned (data ops only)."""
        op = self.op
        if op is Op.READ or op is Op.WRITE or op is Op.ZONE_APPEND:
            if self.offset % SECTOR_SIZE or self.length % SECTOR_SIZE:
                raise InvalidAddressError(
                    f"{self.op.value} bio not sector aligned: "
                    f"offset={self.offset:#x} length={self.length:#x}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Bio {self.op.value} off={self.offset:#x} "
                f"len={self.length:#x} flags={self.flags!r}>")
