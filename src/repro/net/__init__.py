"""repro.net — the KMS loop's struct-of-arrays simulation schedule.

See :mod:`repro.net.arena` for the full story; the object
:class:`~repro.network.circuit.Circuit` stays the source of truth,
and the arena's parallel arrays feed only the simulation of
:func:`repro.core.kms`'s working copy, at O(touched) maintenance cost.
"""

from .arena import (  # noqa: F401
    ARENA_COUNTERS,
    LEGACY_ENV,
    NetArena,
    attach_arena,
    detach_arena,
    get_arena,
    net_enabled,
)
