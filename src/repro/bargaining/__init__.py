"""The BOSCO bargaining mechanism (§V).

Utility distributions, choice sets, threshold strategies and the
best-response computation of Algorithm 1, Nash equilibria of the
bargaining game, bargaining-efficiency metrics (expected Nash product,
Price of Dishonesty), and the BOSCO service that configures and
supervises automated inter-AS negotiations.
"""

from repro.bargaining.baselines import (
    PostedPriceMechanism,
    PostedPriceOutcome,
    optimal_posted_price,
)
from repro.bargaining.choices import (
    CANCEL,
    ChoiceSet,
    quantile_choice_set,
    random_choice_set,
)
from repro.bargaining.distributions import (
    JointUtilityDistribution,
    TruncatedNormalUtilityDistribution,
    UniformUtilityDistribution,
    UtilityDistribution,
    paper_distribution_u1,
    paper_distribution_u2,
)
from repro.bargaining.efficiency import (
    expected_nash_product,
    expected_truthful_nash_product,
    nash_product_value,
    price_of_dishonesty,
)
from repro.bargaining.engine import (
    BatchedEquilibria,
    DistributionKernel,
    GameBatch,
    NegotiationEngine,
    batched_claims,
    kernel_for,
)
from repro.bargaining.game import (
    BargainingGame,
    EquilibriumError,
    StrategyProfile,
    choice_probabilities,
    profile_delta,
    response_lines,
)
from repro.bargaining.mechanism import (
    BoscoService,
    MechanismInformation,
    NegotiationOutcome,
)
from repro.bargaining.strategy import (
    ThresholdStrategy,
    compute_best_response,
    truthful_like_strategy,
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
    "truthful_like_strategy",
    "compute_best_response",
    "BargainingGame",
    "StrategyProfile",
    "EquilibriumError",
    "choice_probabilities",
    "profile_delta",
    "response_lines",
    "NegotiationEngine",
    "GameBatch",
    "BatchedEquilibria",
    "DistributionKernel",
    "batched_claims",
    "kernel_for",
    "nash_product_value",
    "expected_nash_product",
    "expected_truthful_nash_product",
    "price_of_dishonesty",
    "BoscoService",
    "MechanismInformation",
    "NegotiationOutcome",
    "PostedPriceMechanism",
    "PostedPriceOutcome",
    "optimal_posted_price",
]
