"""Path-diversity analyses of §VI.

GRC-conforming length-3 path enumeration, MA-created paths (directly and
indirectly gained, Top-n agreement conclusion), the path/destination
diversity analysis (Figs. 3 and 4), the geodistance analysis (Fig. 5),
the bandwidth analysis (Fig. 6), and CDF/statistics helpers.
"""

from repro.paths.bandwidth import (
    BandwidthResult,
    PairBandwidthRecord,
    analyze_bandwidth,
    path_bandwidths,
)
from repro.paths.diversity import (
    DEFAULT_SCENARIOS,
    ASDiversityRecord,
    DiversityResult,
    analyze_as,
    analyze_path_diversity,
    sample_ases,
)
from repro.paths.geodistance import (
    GeodistanceResult,
    PairGeodistanceRecord,
    analyze_geodistance,
    path_geodistances,
)
from repro.paths.extensions import (
    ExtensionPathIndex,
    analyze_extension_diversity,
    build_extension_path_index,
    enumerate_extension_agreements,
)
from repro.paths.grc import (
    count_grc_length3_paths,
    grc_length3_destinations,
    grc_length3_paths,
    grc_paths_between,
    is_grc_conforming_segment,
)
from repro.paths.ma_paths import (
    MAPathIndex,
    agreement_paths,
    build_ma_path_index,
    new_ma_paths,
)
from repro.paths.metrics import EmpiricalCDF, summarize

__all__ = [
    "is_grc_conforming_segment",
    "grc_length3_paths",
    "grc_length3_destinations",
    "grc_paths_between",
    "count_grc_length3_paths",
    "MAPathIndex",
    "agreement_paths",
    "build_ma_path_index",
    "new_ma_paths",
    "EmpiricalCDF",
    "summarize",
    "DEFAULT_SCENARIOS",
    "ASDiversityRecord",
    "DiversityResult",
    "analyze_as",
    "analyze_path_diversity",
    "sample_ases",
    "PairGeodistanceRecord",
    "GeodistanceResult",
    "analyze_geodistance",
    "path_geodistances",
    "PairBandwidthRecord",
    "BandwidthResult",
    "analyze_bandwidth",
    "path_bandwidths",
    "ExtensionPathIndex",
    "enumerate_extension_agreements",
    "build_extension_path_index",
    "analyze_extension_diversity",
]
