"""AS-level topology substrate.

Provides the mixed AS graph of §III-A (provider–customer and peering
links), CAIDA ``as-rel`` and GML serialization, a synthetic
Internet-like topology generator, a geographic embedding for the
geodistance analysis, a degree-gravity link-capacity model, and the
canonical example topologies of the paper (Fig. 1 and the BGP
stability gadgets).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.topology.bandwidth": ("LinkCapacityModel", "degree_gravity_capacities"),
        "repro.topology.caida": (
            "CaidaFormatError",
            "dump_as_rel_lines",
            "load_as_rel",
            "parse_as_rel_lines",
            "save_as_rel",
        ),
        "repro.topology.fixtures": (
            "AS_A",
            "AS_B",
            "AS_C",
            "AS_D",
            "AS_E",
            "AS_F",
            "AS_G",
            "AS_H",
            "AS_I",
            "FIGURE1_NAMES",
            "Gadget",
            "bad_gadget_topology",
            "disagree_topology",
            "figure1_sibling_gadget",
            "figure1_topology",
        ),
        "repro.topology.generator": (
            "GeneratedTopology",
            "InternetTopologyGenerator",
            "TopologyParameters",
            "generate_topology",
        ),
        "repro.topology.geography": (
            "DEFAULT_REGION_HUBS",
            "GeographicEmbedding",
            "GeoPoint",
            "SyntheticGeographyGenerator",
            "centroid",
            "haversine_km",
        ),
        "repro.topology.gml": (
            "GmlFormatError",
            "dump_gml_lines",
            "load_gml",
            "parse_gml",
            "save_gml",
        ),
        "repro.topology.graph": ("ASGraph", "TopologyError"),
        "repro.topology.relationships": ("Link", "Relationship", "Role"),
    },
)

__all__ = [
    "ASGraph",
    "TopologyError",
    "Link",
    "Relationship",
    "Role",
    "CaidaFormatError",
    "parse_as_rel_lines",
    "load_as_rel",
    "dump_as_rel_lines",
    "save_as_rel",
    "GmlFormatError",
    "parse_gml",
    "load_gml",
    "dump_gml_lines",
    "save_gml",
    "TopologyParameters",
    "InternetTopologyGenerator",
    "GeneratedTopology",
    "generate_topology",
    "GeoPoint",
    "GeographicEmbedding",
    "SyntheticGeographyGenerator",
    "haversine_km",
    "centroid",
    "DEFAULT_REGION_HUBS",
    "LinkCapacityModel",
    "degree_gravity_capacities",
    "Gadget",
    "figure1_topology",
    "figure1_sibling_gadget",
    "disagree_topology",
    "bad_gadget_topology",
    "FIGURE1_NAMES",
    "AS_A",
    "AS_B",
    "AS_C",
    "AS_D",
    "AS_E",
    "AS_F",
    "AS_G",
    "AS_H",
    "AS_I",
]
