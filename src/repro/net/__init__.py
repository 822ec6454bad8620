"""repro.net — arena-based struct-of-arrays netlist (source of truth).

See :mod:`repro.net.arena` for the full story; the object
:class:`~repro.network.circuit.Circuit` remains the import/export
boundary while the arena's parallel arrays feed simulation,
fingerprinting, and cone queries at O(touched) maintenance cost.
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
