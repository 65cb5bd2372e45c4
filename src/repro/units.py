"""Size and time units used throughout the reproduction.

All device address arithmetic in this codebase is done in *bytes* at API
boundaries and in *sectors* internally where the ZNS specification requires
it.  The sector size is fixed at 4 KiB, matching the paper's configuration
("RAIZN metadata header layout when using 4KiB sectors", Figure 3).
"""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

#: Logical block (sector) size.  The paper's devices are formatted with
#: 4 KiB sectors; every metadata header occupies exactly one sector.
SECTOR_SIZE = 4 * KiB

#: One microsecond, in simulated seconds.
USEC = 1e-6
#: One millisecond, in simulated seconds.
MSEC = 1e-3


def sectors(nbytes: int) -> int:
    """Return the number of whole sectors covering ``nbytes`` bytes.

    Raises ``ValueError`` for negative sizes.
    """
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    return (nbytes + SECTOR_SIZE - 1) // SECTOR_SIZE


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count, e.g. ``fmt_bytes(65536) == '64.0KiB'``."""
    value = float(nbytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            return f"{value:.1f}{suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")
