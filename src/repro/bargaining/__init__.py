"""The BOSCO bargaining mechanism (§V).

Utility distributions, choice sets, threshold strategies and
equilibrium profiles, the batched :class:`NegotiationEngine` (Eqs.
14–17, Algorithm 1, best-response dynamics and Eqs. 19–20 — the one
BOSCO solver), the truthful baseline ``E[N | σ⊤]``, and the BOSCO
service that configures and supervises automated inter-AS
negotiations.  The scalar per-trial solver the engine is pinned to
lives in :mod:`repro.reference`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bargaining.baselines": (
            "PostedPriceMechanism",
            "PostedPriceOutcome",
            "optimal_posted_price",
        ),
        "repro.bargaining.choices": (
            "CANCEL",
            "ChoiceSet",
            "quantile_choice_set",
            "random_choice_set",
        ),
        "repro.bargaining.distributions": (
            "JointUtilityDistribution",
            "TruncatedNormalUtilityDistribution",
            "UniformUtilityDistribution",
            "UtilityDistribution",
            "paper_distribution_u1",
            "paper_distribution_u2",
        ),
        "repro.bargaining.efficiency": ("expected_truthful_nash_product",),
        "repro.bargaining.engine": (
            "BatchedEquilibria",
            "DistributionKernel",
            "GameBatch",
            "NegotiationEngine",
            "batched_claims",
            "kernel_for",
        ),
        "repro.bargaining.mechanism": (
            "BoscoService",
            "MechanismInformation",
            "NegotiationOutcome",
        ),
        "repro.bargaining.strategy": (
            "EquilibriumError",
            "StrategyProfile",
            "ThresholdStrategy",
        ),
    },
)

__all__ = [
    "UtilityDistribution",
    "UniformUtilityDistribution",
    "TruncatedNormalUtilityDistribution",
    "JointUtilityDistribution",
    "paper_distribution_u1",
    "paper_distribution_u2",
    "CANCEL",
    "ChoiceSet",
    "random_choice_set",
    "quantile_choice_set",
    "ThresholdStrategy",
    "StrategyProfile",
    "EquilibriumError",
    "NegotiationEngine",
    "GameBatch",
    "BatchedEquilibria",
    "DistributionKernel",
    "batched_claims",
    "kernel_for",
    "expected_truthful_nash_product",
    "BoscoService",
    "MechanismInformation",
    "NegotiationOutcome",
    "PostedPriceMechanism",
    "PostedPriceOutcome",
    "optimal_posted_price",
]
