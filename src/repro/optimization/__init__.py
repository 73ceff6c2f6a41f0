"""Optimization of mutuality-based agreements (§IV).

Two qualification methods make an agreement Pareto-optimal and fair:
flow-volume targets (a nonlinear program, §IV-A) and cash compensation
(the Nash bargaining solution, §IV-B), plus a comparison harness for the
trade-offs discussed in §IV-C.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.optimization.cash": (
            "CashCompensationResult",
            "negotiate_cash_agreement",
            "optimize_cash_compensation",
        ),
        "repro.optimization.compare": ("MethodComparison", "compare_methods"),
        "repro.optimization.flow_volume": (
            "FlowVolumeResult",
            "SegmentTargets",
            "optimize_flow_volume_targets",
        ),
        "repro.optimization.nash": (
            "BargainingOutcome",
            "is_pareto_improvement",
            "nash_bargaining_solution",
            "nash_bargaining_transfer",
            "nash_product",
        ),
    },
)

__all__ = [
    "nash_product",
    "nash_bargaining_transfer",
    "nash_bargaining_solution",
    "BargainingOutcome",
    "is_pareto_improvement",
    "CashCompensationResult",
    "optimize_cash_compensation",
    "negotiate_cash_agreement",
    "SegmentTargets",
    "FlowVolumeResult",
    "optimize_flow_volume_targets",
    "MethodComparison",
    "compare_methods",
]
