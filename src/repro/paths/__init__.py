"""Path-diversity analyses of §VI.

GRC-conforming length-3 path enumeration, MA-created paths (directly and
indirectly gained, Top-n agreement conclusion), the path/destination
diversity analysis (Figs. 3 and 4), the pair-metric analysis behind the
geodistance (Fig. 5) and bandwidth (Fig. 6) figures, the §III-B3
extension-agreement path counts, and CDF/statistics helpers.
"""

from repro.paths.diversity import (
    DEFAULT_SCENARIOS,
    ASDiversityRecord,
    DiversityResult,
    analyze_as,
    analyze_path_diversity,
    sample_ases,
)
from repro.paths.extensions import analyze_extension_diversity
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
from repro.paths.pair_metrics import (
    PairMetricRecord,
    PairMetricResult,
    analyze_bandwidth,
    analyze_geodistance,
)

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
    "PairMetricRecord",
    "PairMetricResult",
    "analyze_geodistance",
    "analyze_bandwidth",
    "analyze_extension_diversity",
]
