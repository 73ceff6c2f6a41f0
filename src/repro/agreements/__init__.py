"""Interconnection agreements (§III-B): the paper's core contribution.

Classic peering agreements, the novel mutuality-based agreements enabled
by path-aware networks, traffic scenarios describing the flows an
agreement induces, agreement-utility computation, and the extension of
agreement paths to further agreements.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.agreements.agreement": (
            "AccessOffer",
            "Agreement",
            "AgreementError",
            "PathSegment",
        ),
        "repro.agreements.compliance": (
            "ComplianceReport",
            "SegmentCompliance",
            "SegmentUsage",
            "check_compliance",
            "overage_charge",
            "realized_scenario",
        ),
        "repro.agreements.extension": (
            "ExtensionAgreement",
            "SegmentOffer",
            "figure1_extension_example",
        ),
        "repro.agreements.mutuality": (
            "agreements_involving",
            "enumerate_mutuality_agreements",
            "figure1_mutuality_agreement",
            "mutuality_agreement",
        ),
        "repro.agreements.peering": ("classic_peering_agreement", "is_classic_peering"),
        "repro.agreements.scenario": ("AgreementScenario", "SegmentTraffic"),
        "repro.agreements.utility": (
            "UtilityBreakdown",
            "agreement_utility",
            "flows_with_agreement",
            "is_mutually_beneficial",
            "joint_surplus",
            "joint_utilities",
            "utility_breakdown",
        ),
    },
)

__all__ = [
    "AccessOffer",
    "Agreement",
    "AgreementError",
    "PathSegment",
    "AgreementScenario",
    "SegmentTraffic",
    "classic_peering_agreement",
    "is_classic_peering",
    "mutuality_agreement",
    "enumerate_mutuality_agreements",
    "figure1_mutuality_agreement",
    "agreements_involving",
    "SegmentOffer",
    "ExtensionAgreement",
    "figure1_extension_example",
    "UtilityBreakdown",
    "flows_with_agreement",
    "utility_breakdown",
    "agreement_utility",
    "joint_utilities",
    "joint_surplus",
    "is_mutually_beneficial",
    "SegmentUsage",
    "SegmentCompliance",
    "ComplianceReport",
    "check_compliance",
    "realized_scenario",
    "overage_charge",
]
