"""Agreement optimization via flow-volume targets (§IV-A, Eq. 9).

The flow-volume method qualifies a mutuality-based agreement by fixing,
for every new path segment ``P``, the total flow allowance ``f^(a)_P``
and the amount of newly attracted customer traffic ``Δf^(a)_P`` so that
the Nash product of the two parties' agreement utilities is maximized
subject to

- (I)   economic viability: ``Δr ≥ Δc`` (equivalently ``u ≥ 0``) for both
        parties,
- (II)  all agreement-induced customer traffic fits into the allowance:
        ``f^(a)_P ≥ Σ_Z Δf^(a)_{Z,P}``,
- (III) attracted traffic cannot exceed customer demand:
        ``Δf^(a)_{Z,P} ≤ Δf^max_{Z,P}``.

The scenario supplied by the caller defines the *maximum available*
rerouted traffic and the demand ceilings; the optimizer scales both per
segment.  Constraint (II) holds by construction because the allowance is
parameterized as rerouted + attracted volume.  The program is solved
with SLSQP from several starting points (the objective is generally
non-concave).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.agreements.scenario import AgreementScenario, SegmentTraffic
from repro.agreements.utility import joint_utilities
from repro.economics.business import ASBusiness


@dataclass(frozen=True)
class SegmentTargets:
    """Negotiated volume targets for one path segment."""

    path: tuple[int, int, int]
    rerouted_volume: float
    attracted_volume: float

    @property
    def total_allowance(self) -> float:
        """Total flow allowance ``f^(a)_P`` for the segment."""
        return self.rerouted_volume + self.attracted_volume


@dataclass(frozen=True)
class FlowVolumeResult:
    """Outcome of the flow-volume optimization."""

    party_x: int
    party_y: int
    utility_x: float
    utility_y: float
    targets: tuple[SegmentTargets, ...]
    scenario: AgreementScenario
    concluded: bool

    @property
    def nash_product(self) -> float:
        """Nash product of the two utilities at the optimum."""
        return self.utility_x * self.utility_y

    @property
    def joint_utility(self) -> float:
        """Sum of both utilities at the optimum."""
        return self.utility_x + self.utility_y


def _scenario_from_factors(
    scenario: AgreementScenario, factors: np.ndarray
) -> AgreementScenario:
    """Scale every segment's rerouted/attracted traffic by the factor vector.

    The factor vector interleaves (rerouted_factor, attracted_factor) per
    segment in the order of ``scenario.segments``.  Attracted volumes are
    scaled relative to their demand ceilings ``Δf^max``.
    """
    scaled_segments: list[SegmentTraffic] = []
    for index, traffic in enumerate(scenario.segments):
        rerouted_factor = float(np.clip(factors[2 * index], 0.0, 1.0))
        attracted_factor = float(np.clip(factors[2 * index + 1], 0.0, 1.0))
        rerouted = {k: v * rerouted_factor for k, v in traffic.rerouted.items()}
        attracted = {
            customer: attracted_factor * traffic.attracted_limit(customer)
            for customer in set(traffic.attracted) | set(traffic.attracted_limits)
        }
        scaled_segments.append(
            SegmentTraffic(
                segment=traffic.segment,
                rerouted=rerouted,
                attracted=attracted,
                attracted_limits=dict(traffic.attracted_limits),
            )
        )
    return scenario.with_segments(scaled_segments)


def optimize_flow_volume_targets(
    scenario: AgreementScenario,
    businesses: dict[int, ASBusiness],
    *,
    restarts: int = 4,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> FlowVolumeResult:
    """Solve the flow-volume nonlinear program of Eq. (9).

    Returns the volume targets that maximize the Nash product of the two
    parties' utilities subject to both utilities being non-negative.  If
    no strictly positive allocation is viable, all targets collapse to
    zero and ``concluded`` is ``False`` — the situation §IV-C describes
    where the flow-volume method cannot conclude an agreement that cash
    compensation might still rescue.
    """
    # Deferred: importing scipy costs more than everything else
    # ``import repro.cli`` loads, and only this solver needs it.
    from scipy.optimize import minimize

    party_x, party_y = scenario.agreement.parties
    num_segments = len(scenario.segments)
    if num_segments == 0:
        empty = scenario.with_segments([])
        return FlowVolumeResult(
            party_x=party_x,
            party_y=party_y,
            utility_x=0.0,
            utility_y=0.0,
            targets=(),
            scenario=empty,
            concluded=False,
        )

    def utilities_at(factors: np.ndarray) -> tuple[float, float]:
        candidate = _scenario_from_factors(scenario, factors)
        utilities = joint_utilities(candidate, businesses)
        return utilities[party_x], utilities[party_y]

    def negative_nash_product(factors: np.ndarray) -> float:
        ux, uy = utilities_at(factors)
        return -(ux * uy)

    constraints = [
        {"type": "ineq", "fun": lambda f: utilities_at(f)[0]},
        {"type": "ineq", "fun": lambda f: utilities_at(f)[1]},
    ]
    bounds = [(0.0, 1.0)] * (2 * num_segments)

    rng = np.random.default_rng(seed)
    starts = [np.full(2 * num_segments, 0.5), np.ones(2 * num_segments)]
    for _ in range(max(0, restarts - len(starts))):
        starts.append(rng.uniform(0.0, 1.0, size=2 * num_segments))

    best_factors = np.zeros(2 * num_segments)
    best_product = -np.inf
    for start in starts:
        result = minimize(
            negative_nash_product,
            start,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-10},
        )
        candidate = np.clip(result.x, 0.0, 1.0)
        ux, uy = utilities_at(candidate)
        if ux < -tolerance or uy < -tolerance:
            continue
        product = ux * uy
        if product > best_product:
            best_product = product
            best_factors = candidate

    if not np.isfinite(best_product):
        # No feasible point found by the solver: fall back to the
        # all-zero allocation, which is always feasible (no change).
        best_factors = np.zeros(2 * num_segments)
        best_product = 0.0

    optimal_scenario = _scenario_from_factors(scenario, best_factors)
    utilities = joint_utilities(optimal_scenario, businesses)
    targets = tuple(
        SegmentTargets(
            path=traffic.segment.path,
            rerouted_volume=traffic.rerouted_volume,
            attracted_volume=traffic.attracted_volume,
        )
        for traffic in optimal_scenario.segments
    )
    total_allowance = sum(target.total_allowance for target in targets)
    concluded = (
        total_allowance > tolerance
        and utilities[party_x] >= -tolerance
        and utilities[party_y] >= -tolerance
    )
    return FlowVolumeResult(
        party_x=party_x,
        party_y=party_y,
        utility_x=utilities[party_x],
        utility_y=utilities[party_y],
        targets=targets,
        scenario=optimal_scenario,
        concluded=concluded,
    )
