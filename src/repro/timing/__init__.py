"""Timing substrate: STA, paths, static sensitization, viability."""

from .models import (
    NEVER,
    AsBuiltDelayModel,
    DelayModel,
    FanoutDelayModel,
    LibraryDelayModel,
    PAPER_SECTION3_TABLE,
    UnitDelayModel,
)
from .sta import (
    IncrementalSTA,
    TimingAnnotation,
    analyze,
    critical_connections,
    topological_delay,
)
from .incremental import (
    IncrementalTiming,
    PREFILTER_WIDTH,
)
from .paths import (
    Path,
    iter_paths_longest_first,
    longest_paths,
    path_length,
)
from .sensitize import (
    SensitizationChecker,
    SideInput,
    side_inputs,
    statically_sensitizable,
)
from .exact_viability import (
    ExactViabilityReport,
    exact_viability_delay,
    path_viable_exact,
    viable_lengths_under,
)
from .speedtest import (
    Speedtest,
    SpeedtestReport,
    find_speedtest,
    is_tau_redundant,
    speedtest_report,
    tau_detects,
)
from .viability import (
    DelayReport,
    ViabilityChecker,
    early_side_inputs,
    sensitizable_delay,
    viability_delay,
)

__all__ = [
    "AsBuiltDelayModel",
    "DelayModel",
    "DelayReport",
    "ExactViabilityReport",
    "exact_viability_delay",
    "path_viable_exact",
    "viable_lengths_under",
    "FanoutDelayModel",
    "IncrementalSTA",
    "IncrementalTiming",
    "LibraryDelayModel",
    "NEVER",
    "PREFILTER_WIDTH",
    "PAPER_SECTION3_TABLE",
    "Path",
    "SensitizationChecker",
    "SideInput",
    "Speedtest",
    "SpeedtestReport",
    "find_speedtest",
    "is_tau_redundant",
    "speedtest_report",
    "tau_detects",
    "TimingAnnotation",
    "UnitDelayModel",
    "ViabilityChecker",
    "analyze",
    "critical_connections",
    "early_side_inputs",
    "iter_paths_longest_first",
    "longest_paths",
    "path_length",
    "sensitizable_delay",
    "side_inputs",
    "statically_sensitizable",
    "topological_delay",
    "viability_delay",
]
