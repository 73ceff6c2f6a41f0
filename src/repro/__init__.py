"""Reproduction of *Enabling Novel Interconnection Agreements with
Path-Aware Networking Architectures* (Scherrer, Legner, Perrig, Schmid —
DSN 2021).

The package is organized in layers, bottom-up:

- :mod:`repro.topology` — AS-level topology substrate: mixed graphs with
  provider–customer and peering links, a CAIDA-compatible serialization
  format, a synthetic Internet-like topology generator, geographic
  embedding, and degree-gravity link capacities.
- :mod:`repro.core` — the compiled performance substrate: array-compiled
  topology snapshots with O(1) role tests and the batched GRC length-3
  path engine every analysis layer shares.
- :mod:`repro.economics` — the AS business model of §III-A: pricing
  functions, internal-cost functions, traffic vectors, and AS utility.
- :mod:`repro.agreements` — interconnection agreements (§III-B): classic
  peering agreements and the paper's novel mutuality-based agreements,
  together with agreement-utility computation.
- :mod:`repro.optimization` — Pareto-optimal and fair agreement
  qualification (§IV): flow-volume targets and cash compensation.
- :mod:`repro.bargaining` — the BOSCO bargaining mechanism (§V).
- :mod:`repro.routing` — routing substrates (§II): a BGP path-vector
  simulator with policy-induced oscillation gadgets and a PAN/SCION-like
  simulator with source-selected forwarding paths.
- :mod:`repro.paths` — the path-diversity analyses of §VI.
- :mod:`repro.experiments` — the harness that regenerates every figure of
  the paper's evaluation.
- :mod:`repro.api` — the typed public surface: a reusable
  :class:`~repro.api.Session`, validated request dataclasses, result
  dataclasses with schema-versioned JSON envelopes, and the one CLI
  adapter (imported on demand; ``import repro.api``).

Every package resolves the names of its ``__all__`` on first access
(:mod:`repro._lazy`), so importing a package loads none of its layers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.topology.graph": ("ASGraph",),
        "repro.topology.relationships": ("Relationship",),
        "repro.core.compiled": ("CompiledTopology", "compile_topology"),
        "repro.core.path_engine": ("PathEngine", "path_engine_for"),
        "repro.agreements.agreement": ("AccessOffer", "Agreement"),
        "repro.economics.business": ("ASBusiness",),
        "repro.economics.pricing": ("PricingFunction",),
    },
)

__version__ = "1.1.0"

__all__ = [
    "ASGraph",
    "Relationship",
    "CompiledTopology",
    "compile_topology",
    "PathEngine",
    "path_engine_for",
    "Agreement",
    "AccessOffer",
    "ASBusiness",
    "PricingFunction",
    "__version__",
]
