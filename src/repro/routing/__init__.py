"""Routing substrates (§II).

A BGP-style path-vector simulator with configurable policies (the GRC
policy and the explicit-preference gadget policies), convergence /
oscillation analysis of the classical gadgets, and a PAN/SCION-like
substrate with agreement-governed segment authorization and forwarding
along source-selected paths embedded in packet headers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.routing.beaconing": (
            "BeaconingProcess",
            "PathConstructionBeacon",
            "PathServer",
            "SegmentStore",
        ),
        "repro.routing.bgp": ("BGPOutcome", "BGPSimulator"),
        "repro.routing.convergence": (
            "ConvergenceReport",
            "analyze_gadget",
            "analyze_grc",
            "degrade_by_link_failure",
        ),
        "repro.routing.forwarding": (
            "DropReason",
            "ForwardingEngine",
            "ForwardingResult",
            "Packet",
        ),
        "repro.routing.pan": ("AuthorizedSegment", "PathAwareNetwork"),
        "repro.routing.policies": (
            "GaoRexfordPolicy",
            "PreferenceListPolicy",
            "RoutingPolicy",
            "gadget_policies",
            "gao_rexford_policies",
        ),
    },
)

__all__ = [
    "RoutingPolicy",
    "GaoRexfordPolicy",
    "PreferenceListPolicy",
    "gao_rexford_policies",
    "gadget_policies",
    "BGPSimulator",
    "BGPOutcome",
    "ConvergenceReport",
    "analyze_gadget",
    "analyze_grc",
    "degrade_by_link_failure",
    "PathAwareNetwork",
    "AuthorizedSegment",
    "ForwardingEngine",
    "ForwardingResult",
    "Packet",
    "DropReason",
    "PathConstructionBeacon",
    "SegmentStore",
    "BeaconingProcess",
    "PathServer",
]
