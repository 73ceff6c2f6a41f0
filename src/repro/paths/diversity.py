"""Path- and destination-diversity analysis (§VI-A, Figs. 3 and 4).

For a sample of ASes, the analysis counts the length-3 paths starting at
each AS and the destinations reachable over such paths, under six
degrees of agreement conclusion:

- ``GRC`` — only GRC-conforming paths,
- ``MA* (Top 1/5/50)`` — GRC paths plus the directly gained paths of the
  AS's 1/5/50 most attractive MAs,
- ``MA*`` — GRC paths plus all directly gained MA paths,
- ``MA`` — GRC paths plus all MA paths (direct and indirect).

It also produces the headline statistics quoted in §VI-A: the average
and maximum number of *additional* paths and *additionally reachable*
destinations per AS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agreements.mutuality import enumerate_mutuality_agreements
from repro.core import PathEngine, path_engine_for
from repro.paths.ma_paths import MAPathIndex, build_ma_path_index
from repro.paths.metrics import EmpiricalCDF, summarize
from repro.topology.graph import ASGraph

#: The degrees of MA conclusion reported in Figs. 3 and 4.
DEFAULT_SCENARIOS: tuple[str, ...] = (
    "GRC",
    "MA* (Top 1)",
    "MA* (Top 5)",
    "MA* (Top 50)",
    "MA*",
    "MA",
)


@dataclass(frozen=True)
class ASDiversityRecord:
    """Per-AS path and destination counts under every scenario."""

    asn: int
    path_counts: dict[str, int]
    destination_counts: dict[str, int]

    @property
    def additional_paths(self) -> int:
        """Paths gained when all MAs are concluded (MA − GRC)."""
        return self.path_counts["MA"] - self.path_counts["GRC"]

    @property
    def additional_destinations(self) -> int:
        """Destinations gained when all MAs are concluded (MA − GRC)."""
        return self.destination_counts["MA"] - self.destination_counts["GRC"]


@dataclass
class DiversityResult:
    """Full result of the Figs. 3/4 analysis."""

    records: list[ASDiversityRecord] = field(default_factory=list)

    def path_cdf(self, scenario: str) -> EmpiricalCDF:
        """CDF over ASes of the number of length-3 paths (Fig. 3 series)."""
        return EmpiricalCDF(tuple(r.path_counts[scenario] for r in self.records))

    def destination_cdf(self, scenario: str) -> EmpiricalCDF:
        """CDF over ASes of the number of nearby destinations (Fig. 4 series)."""
        return EmpiricalCDF(tuple(r.destination_counts[scenario] for r in self.records))

    def additional_path_summary(self) -> dict[str, float]:
        """Average / maximum additional paths per AS (§VI-A headline numbers)."""
        return summarize([r.additional_paths for r in self.records])

    def additional_destination_summary(self) -> dict[str, float]:
        """Average / maximum additionally reachable destinations per AS."""
        return summarize([r.additional_destinations for r in self.records])


def sample_ases(graph: ASGraph, sample_size: int, *, seed: int = 0) -> tuple[int, ...]:
    """Randomly sample ASes for the analysis (the paper samples 500)."""
    ases = sorted(graph.ases)
    if sample_size >= len(ases):
        return tuple(ases)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ases, size=sample_size, replace=False)
    return tuple(int(asn) for asn in sorted(chosen))


def analyze_as(
    graph: ASGraph,
    index: MAPathIndex,
    asn: int,
    *,
    top_n_values: tuple[int, ...] = (1, 5, 50),
    engine: PathEngine | None = None,
) -> ASDiversityRecord:
    """Compute path/destination counts for one AS under every scenario.

    ``engine`` is the compiled path engine to read GRC paths from; it
    defaults to the shared per-graph engine.  The MA scenarios read the
    AS's row slices of ``index`` as packed keys (see
    :mod:`repro.paths.ma_paths`); no path tuple is built.
    """
    if engine is None:
        engine = path_engine_for(graph)
    grc_paths = engine.paths(asn)
    grc_destinations = engine.destinations(asn)
    new = index.new_paths(asn, grc_paths)

    def with_grc(keys: np.ndarray) -> tuple[int, int]:
        return (
            len(grc_paths) + len(keys),
            len(grc_destinations.union(index.targets(keys))),
        )

    path_counts: dict[str, int] = {"GRC": len(grc_paths)}
    destination_counts: dict[str, int] = {"GRC": len(grc_destinations)}
    for n in top_n_values:
        scenario = f"MA* (Top {n})"
        path_counts[scenario], destination_counts[scenario] = with_grc(new.top_n(n))
    path_counts["MA*"], destination_counts["MA*"] = with_grc(new.direct)
    path_counts["MA"], destination_counts["MA"] = with_grc(new.all)

    return ASDiversityRecord(
        asn=asn, path_counts=path_counts, destination_counts=destination_counts
    )


def analyze_path_diversity(
    graph: ASGraph,
    *,
    sample_size: int = 500,
    seed: int = 0,
    top_n_values: tuple[int, ...] = (1, 5, 50),
    engine: PathEngine | None = None,
    index: MAPathIndex | None = None,
) -> DiversityResult:
    """Run the full Figs. 3/4 analysis over a sample of ASes.

    ``index`` defaults to the MA path index of all maximal
    mutuality-based agreements of the topology (the paper's "all
    possible MAs" case) and ``engine`` to the shared compiled path
    engine of the graph, so callers that already hold them (the
    experiment context) pay for neither twice.
    """
    if index is None:
        index = build_ma_path_index(list(enumerate_mutuality_agreements(graph)))
    if engine is None:
        engine = path_engine_for(graph)
    result = DiversityResult()
    for asn in sample_ases(graph, sample_size, seed=seed):
        result.records.append(
            analyze_as(graph, index, asn, top_n_values=top_n_values, engine=engine)
        )
    return result
