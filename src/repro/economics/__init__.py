"""Interconnection economics: the AS business model of §III-A.

Pricing functions ``p(f) = α·f^β`` for provider–customer links,
internal-cost functions, traffic/flow abstractions, and the AS utility
calculation ``U_X = r_X − c_X``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.economics.business": ("ASBusiness", "default_business_models"),
        "repro.economics.cost": (
            "AffineCost",
            "InternalCostFunction",
            "LinearCost",
            "PiecewiseLinearCost",
            "PowerLawCost",
            "SteppedCapacityCost",
            "ZeroCost",
        ),
        "repro.economics.pricing": (
            "CongestionPricing",
            "FlatRatePricing",
            "NinetyFifthPercentileBilling",
            "PerUsagePricing",
            "PowerLawPricing",
            "PricingFunction",
            "SettlementFree",
        ),
        "repro.economics.timeseries": (
            "BillingRule",
            "DiurnalTrafficModel",
            "billed_volume",
            "simulate_billing_period",
        ),
        "repro.economics.traffic": (
            "ENDHOSTS",
            "FlowVector",
            "NetworkFlows",
            "SegmentFlows",
            "TrafficMatrix",
            "assign_demands",
        ),
    },
)

__all__ = [
    "PricingFunction",
    "PowerLawPricing",
    "FlatRatePricing",
    "PerUsagePricing",
    "CongestionPricing",
    "SettlementFree",
    "NinetyFifthPercentileBilling",
    "InternalCostFunction",
    "ZeroCost",
    "LinearCost",
    "AffineCost",
    "PowerLawCost",
    "SteppedCapacityCost",
    "PiecewiseLinearCost",
    "ENDHOSTS",
    "FlowVector",
    "SegmentFlows",
    "TrafficMatrix",
    "NetworkFlows",
    "assign_demands",
    "ASBusiness",
    "default_business_models",
    "BillingRule",
    "DiurnalTrafficModel",
    "billed_volume",
    "simulate_billing_period",
]
