"""Path-diversity analyses of §VI.

GRC-conforming length-3 path enumeration, MA-created paths (directly and
indirectly gained, Top-n agreement conclusion), the path/destination
diversity analysis (Figs. 3 and 4), the pair-metric analysis behind the
geodistance (Fig. 5) and bandwidth (Fig. 6) figures, the §III-B3
extension-agreement path counts, and CDF/statistics helpers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.paths.diversity": (
            "DEFAULT_SCENARIOS",
            "ASDiversityRecord",
            "DiversityResult",
            "analyze_as",
            "analyze_path_diversity",
            "sample_ases",
        ),
        "repro.paths.extensions": ("analyze_extension_diversity",),
        "repro.paths.ma_paths": (
            "MAPathIndex",
            "agreement_paths",
            "build_ma_path_index",
            "new_ma_paths",
        ),
        "repro.paths.metrics": ("EmpiricalCDF", "summarize"),
        "repro.paths.pair_metrics": (
            "PairMetricRecord",
            "PairMetricResult",
            "analyze_bandwidth",
            "analyze_geodistance",
        ),
    },
)

__all__ = [
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
