"""Agreement lifecycles: negotiate → activate → meter → bill → renegotiate.

The static layers already know how to *evaluate* an agreement (utility
of an :class:`~repro.agreements.scenario.AgreementScenario`), how to
*negotiate* one (the BOSCO mechanism of §V), and how to *bill* traffic
(pricing functions and billing rules of §III-A).  This process strings
those one-shot computations into a lifecycle over virtual time:

1. **Negotiate** — build the maximal mutuality-based agreement for a
   peering pair, evaluate both parties' utilities from their demand
   levels via Eq. 7, normalize into the BOSCO utility scale, and run the
   published equilibrium strategies.  A negative apparent surplus means
   no deal; the pair retries later (demand may have shifted).  All
   pairs that come due at the same virtual instant — a billing epoch's
   worth of renegotiations, a burst of retries — are decided in **one
   batched engine call** (:meth:`BoscoService.negotiate_many`), with
   per-pair trace records emitted in request order so the metrics trace
   stays byte-identical to the per-pair event formulation.
2. **Activate** — authorize the agreement's segments on the PAN and
   start metering.
3. **Meter** — sample both directions of segment traffic from
   time-varying demand models at every metering interval.
4. **Bill** — at expiry, reduce each direction's samples to the billed
   volume under the configured billing rule and settle revenue with the
   per-usage price; the negotiated cash compensation is applied on top.
5. **Renegotiate** — the lifecycle restarts with fresh demand-dependent
   utilities, so marketplace runs show agreements coming and going.

With a resolved :class:`~repro.agents.population.Population` attached,
every AS negotiates under its own behavior profile: reports may be
shaded (dishonest/adaptive agents), transfers may be vetoed (budget
agents), billing prices carry per-agent and :class:`PriceWar`
multipliers, and realized utilities feed post-billing learning.  Pairs
preferring different BOSCO cardinalities are decided inside one flush
as order-preserving sub-batches (:func:`decide_mixed_cohort`) — still
bit-identical to the per-agent sequential reference in
:mod:`repro.reference`.  Without a
population, every code path reduces exactly to the homogeneous
marketplace, keeping seeded traces byte-identical to the historical
formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.behaviors import AgentState
from repro.agents.negotiator import CohortEntry, decide_mixed_cohort
from repro.agents.population import Population
from repro.agreements.agreement import Agreement
from repro.agreements.mutuality import mutuality_agreement
from repro.agreements.scenario import AgreementScenario, SegmentTraffic
from repro.agreements.utility import joint_utilities
from repro.bargaining.distributions import (
    JointUtilityDistribution,
    paper_distribution_u1,
)
from repro.bargaining.mechanism import BoscoService, MechanismInformation
from repro.economics.business import ASBusiness, default_business_models
from repro.economics.pricing import PerUsagePricing
from repro.economics.timeseries import BillingRule, billed_volume
from repro.economics.traffic import ENDHOSTS, FlowVector
from repro.simulation.engine import Process, SimulationEngine
from repro.simulation.network import DynamicNetwork
from repro.simulation.shocks import PriceWar
from repro.simulation.traffic import FlashCrowd, TimeVaryingDemand


@dataclass
class ActiveAgreement:
    """Book-keeping of one activated agreement term."""

    agreement: Agreement
    activated_at: float
    expires_at: float
    transfer_x_to_y: float
    #: metered per-direction traffic samples (party -> samples it sent)
    samples: dict[int, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for party in self.agreement.parties:
            self.samples.setdefault(party, [])


@dataclass
class AgreementLifecycleManager(Process):
    """Drives the lifecycle of mutuality agreements over peering pairs."""

    network: DynamicNetwork
    pairs: tuple[tuple[int, int], ...]
    term_duration: float = 24.0 * 30.0
    metering_interval: float = 1.0
    retry_delay: float = 24.0
    billing_rule: BillingRule = BillingRule.NINETY_FIFTH_PERCENTILE
    unit_price: float = 1.0
    mean_demand: float = 10.0
    num_choices: int = 10
    configuration_trials: int = 5
    seed: int = 0
    distribution: JointUtilityDistribution = field(default_factory=paper_distribution_u1)
    flash_crowds: tuple[FlashCrowd, ...] = ()
    #: Resolved heterogeneous population (None = the homogeneous
    #: marketplace, byte-identical to the historical formulation).
    population: Population | None = None
    price_wars: tuple[PriceWar, ...] = ()

    _engine: SimulationEngine | None = field(default=None, init=False)
    _mechanism: MechanismInformation | None = field(default=None, init=False)
    #: Published mechanisms keyed by choice-set cardinality ``W``.
    _mechanisms: dict[int, MechanismInformation] = field(default_factory=dict, init=False)
    _states: dict[int, AgentState] = field(default_factory=dict, init=False)
    _businesses: dict[int, ASBusiness] = field(default_factory=dict, init=False)
    _demands: dict[tuple[int, int], TimeVaryingDemand] = field(
        default_factory=dict, init=False
    )
    _active: dict[tuple[int, int], ActiveAgreement] = field(
        default_factory=dict, init=False
    )
    #: Pairs due for (re)negotiation, keyed by due time; each due time
    #: has exactly one scheduled flush event that decides its whole
    #: bucket in one batched BOSCO call.
    _due: dict[float, list[tuple[int, int]]] = field(default_factory=dict, init=False)
    negotiations: int = field(default=0, init=False)
    concluded: int = field(default=0, init=False)
    billed_terms: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # Process start
    # ------------------------------------------------------------------
    def start(self, engine: SimulationEngine) -> None:
        self._engine = engine
        self.pairs = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        self._businesses = default_business_models(self.network.base_graph)
        # One BOSCO configuration is published per choice-set
        # cardinality the population negotiates under (a homogeneous
        # marketplace publishes exactly one); every negotiation applies
        # the equilibrium strategies of its pair's mechanism (§V-B).
        service = BoscoService(self.distribution, seed=self.seed)
        widths = (
            (self.num_choices,)
            if self.population is None
            else self.population.choice_widths(self.num_choices)
        )
        for width in widths:
            mechanism = service.configure(width, trials=self.configuration_trials)
            self._mechanisms[width] = mechanism
            engine.trace.record(
                engine.now,
                "bosco_configured",
                price_of_dishonesty=mechanism.price_of_dishonesty,
                num_choices=width,
            )
        self._mechanism = self._mechanisms.get(self.num_choices, self._mechanisms[widths[0]])
        if self.population is not None:
            for pair in self.pairs:
                for party in pair:
                    if party not in self._states:
                        self._states[party] = self.population.new_state(party)
        for index, pair in enumerate(self.pairs):
            for party in pair:
                direction = (party, pair[0] if party == pair[1] else pair[1])
                self._demands[direction] = TimeVaryingDemand(
                    mean_volume=self.mean_demand,
                    seed=(self.seed, *direction),
                    flash_crowds=self.flash_crowds,
                )
            # Stagger the opening negotiations so the marketplace does not
            # fire everything in one mega-event.
            self._request_negotiation(pair, float(index) * self.metering_interval)

    # ------------------------------------------------------------------
    # 1. Negotiation
    # ------------------------------------------------------------------
    def _request_negotiation(self, pair: tuple[int, int], delay: float) -> None:
        """Queue a pair for the batched negotiation at ``now + delay``.

        The first request for a due time schedules its flush event (so
        the flush sits exactly where the pair's own negotiation event
        used to sit in the queue); later requests for the same instant
        join the bucket and are decided in the same batched call, in
        request order.  A request made *after* its instant's flush ran
        (a renegotiation scheduled by an expiry at the same timestamp)
        opens a fresh bucket with its own flush, again preserving the
        per-pair event order.

        Why joining a still-pending bucket cannot reorder the trace:
        request order equals the sequence order the per-pair events
        would have had, and the only other trace-recording events at a
        negotiation instant are expiries — which run at priority 5,
        strictly after every priority-0 flush at that instant in both
        formulations (meters and the flushes' own scheduling record
        nothing).  So merging same-instant negotiations into one call
        moves no record across another.
        """
        engine = self._engine
        assert engine is not None
        due = engine.now + delay
        bucket = self._due.get(due)
        if bucket is None:
            self._due[due] = [pair]
            engine.schedule(delay, self._negotiate_due(due))
        else:
            bucket.append(pair)

    def _pair_width(self, pair: tuple[int, int]) -> int:
        """The BOSCO cardinality a pair negotiates under (min of the two)."""
        if self.population is None:
            return self.num_choices
        return min(
            self.population.behavior_for(party).num_choices or self.num_choices
            for party in pair
        )

    def _negotiate_due(self, due: float):
        def negotiate_batch() -> None:
            engine = self._engine
            assert engine is not None and self._mechanism is not None
            pairs = self._due.pop(due, [])
            # First pass: evaluate every pair's agreement and economic
            # utilities (pure graph/demand computations, no events),
            # then apply each party's reporting behavior.
            evaluations: list[
                tuple[tuple[int, int], Agreement | None, float, float, float, float, float, int]
            ] = []
            for pair in pairs:
                self.negotiations += 1
                left, right = pair
                agreement = None
                if self.network.is_link_up(left, right):
                    agreement = mutuality_agreement(self.network.base_graph, left, right)
                if agreement is None:
                    evaluations.append((pair, None, 0.0, 0.0, 0.0, 0.0, 1.0, self.num_choices))
                    continue
                utilities = joint_utilities(self._scenario(agreement), self._businesses)
                u_left, u_right = utilities[left], utilities[right]
                reported_left, reported_right = u_left, u_right
                width = self.num_choices
                if self.population is not None:
                    width = self._pair_width(pair)
                    for party, true_utility in ((left, u_left), (right, u_right)):
                        behavior = self.population.behavior_for(party)
                        state = self._states[party]
                        state.negotiations += 1
                        state.pod_total += self._mechanisms[width].price_of_dishonesty
                        reported = behavior.reported_utility(true_utility, state)
                        state.misreport_total += abs(reported - true_utility)
                        if party == left:
                            reported_left = reported
                        else:
                            reported_right = reported
                # BOSCO strategies are defined over the published utility
                # distribution; reported utilities are normalized into its
                # support so the equilibrium thresholds apply.
                scale = max(abs(reported_left), abs(reported_right), 1e-9)
                evaluations.append(
                    (pair, agreement, u_left, u_right, reported_left, reported_right, scale, width)
                )
            # One batched engine call per mechanism decides every
            # negotiable pair; a homogeneous cohort is a single batch.
            negotiable = [entry for entry in evaluations if entry[1] is not None]
            outcomes = iter(
                decide_mixed_cohort(
                    self._mechanisms,
                    [
                        CohortEntry(key=width, utility_x=r_left / scale, utility_y=r_right / scale)
                        for _, _, _, _, r_left, r_right, scale, width in negotiable
                    ],
                )
            )
            # Second pass, in request order: record traces and act — the
            # same record/schedule sequence the per-pair events produced.
            for pair, agreement, u_left, u_right, _, _, scale, width in evaluations:
                left, right = pair
                if agreement is None:
                    engine.trace.record(
                        engine.now, "negotiation_skipped", pair=[left, right]
                    )
                    self._request_negotiation(pair, self.retry_delay)
                    continue
                outcome = next(outcomes)
                transfer = outcome.transfer_x_to_y * scale
                vetoed = False
                payer = left if transfer > 0.0 else right if transfer < 0.0 else None
                if outcome.concluded and self.population is not None and payer is not None:
                    state = self._states[payer]
                    if abs(transfer) > self.population.behavior_for(payer).max_spend(state):
                        vetoed = True
                        state.vetoed += 1
                extra: dict[str, object] = {}
                if self.population is not None:
                    extra = {
                        "profile_x": self._states[left].profile,
                        "profile_y": self._states[right].profile,
                        "width": width,
                    }
                    if vetoed:
                        extra["vetoed"] = True
                engine.trace.record(
                    engine.now,
                    "negotiation",
                    pair=[left, right],
                    utility_x=u_left,
                    utility_y=u_right,
                    concluded=outcome.concluded,
                    transfer_x_to_y=transfer,
                    **extra,
                )
                if outcome.concluded and not vetoed:
                    if self.population is not None:
                        for party in pair:
                            self._states[party].concluded += 1
                        if payer is not None:
                            self.population.behavior_for(payer).commit_spend(
                                abs(transfer), self._states[payer]
                            )
                    self._activate(agreement, transfer)
                else:
                    self._request_negotiation(pair, self.retry_delay)

        return negotiate_batch

    def _scenario(self, agreement: Agreement) -> AgreementScenario:
        """Expected-traffic scenario from current mean demand (Eq. 7).

        Each party reroutes provider traffic onto the agreement link and
        attracts fresh end-host demand; the baseline carries enough
        provider volume to make the rerouting claim consistent.
        """
        segments: list[SegmentTraffic] = []
        baseline: dict[int, FlowVector] = {}
        graph = self.network.base_graph
        for party in agreement.parties:
            party_segments = agreement.segments_for(party)[:3]
            providers = sorted(graph.providers(party))
            rerouted_per_segment = self.mean_demand / max(len(party_segments), 1)
            flows = FlowVector({ENDHOSTS: self.mean_demand * 2.0})
            if providers:
                flows.set(providers[0], self.mean_demand * 2.0)
            baseline[party] = flows
            for segment in party_segments:
                rerouted = (
                    {providers[0]: rerouted_per_segment} if providers else {}
                )
                segments.append(
                    SegmentTraffic(
                        segment=segment,
                        rerouted=rerouted,
                        attracted={ENDHOSTS: rerouted_per_segment * 0.5},
                    )
                )
        return AgreementScenario(
            agreement=agreement, segments=segments, baseline=baseline
        )

    # ------------------------------------------------------------------
    # 2.–3. Activation and metering
    # ------------------------------------------------------------------
    def _activate(self, agreement: Agreement, transfer_x_to_y: float) -> None:
        engine = self._engine
        assert engine is not None
        pair = (min(agreement.parties), max(agreement.parties))
        active = ActiveAgreement(
            agreement=agreement,
            activated_at=engine.now,
            expires_at=engine.now + self.term_duration,
            transfer_x_to_y=transfer_x_to_y,
        )
        self._active[pair] = active
        self.concluded += 1
        engine.trace.record(
            engine.now,
            "agreement_activated",
            pair=list(pair),
            expires_at=active.expires_at,
            segments=len(agreement.all_segments()),
        )
        if engine.now + self.metering_interval <= active.expires_at:
            engine.schedule(self.metering_interval, self._meter(active))
        # Priority 5: the final metering sample at the expiry instant is
        # taken before the term is billed.
        engine.schedule_at(
            active.expires_at,
            self._expire(pair, active),
            priority=5,
        )

    def _meter(self, active: ActiveAgreement):
        def meter() -> None:
            engine = self._engine
            assert engine is not None
            x, y = active.agreement.parties
            for sender, receiver in ((x, y), (y, x)):
                demand = self._demands[(sender, receiver)]
                # Metering pauses while the agreement link is down — no
                # traffic crosses a failed peering link.
                volume = (
                    demand.sample(engine.now)
                    if self.network.is_link_up(x, y)
                    else 0.0
                )
                active.samples[sender].append(volume)
            # The chain reschedules itself only while the term lasts, so
            # expired agreements leave no periodic events behind.
            if engine.now + self.metering_interval <= active.expires_at:
                engine.schedule(self.metering_interval, meter)

        return meter

    # ------------------------------------------------------------------
    # 4.–5. Billing, expiry, renegotiation
    # ------------------------------------------------------------------
    def _unit_price_for(self, party: int, now: float) -> float:
        """The unit price a party bills at (behavior + price-war scaled)."""
        if self.population is None:
            return self.unit_price
        state = self._states[party]
        price = self.unit_price * self.population.behavior_for(party).price_multiplier(state)
        for war in self.price_wars:
            price *= war.multiplier_at(now, state.region)
        return price

    def _expire(self, pair: tuple[int, int], active: ActiveAgreement):
        def expire() -> None:
            engine = self._engine
            assert engine is not None
            x, y = active.agreement.parties
            pricing_x = PerUsagePricing(self._unit_price_for(x, engine.now))
            pricing_y = PerUsagePricing(self._unit_price_for(y, engine.now))
            billed = {
                party: billed_volume(active.samples[party], self.billing_rule)
                for party in (x, y)
            }
            # Each party bills the counterparty for the traffic it carried
            # on the counterparty's behalf, at its own unit price; the
            # negotiated cash compensation settles the remaining asymmetry.
            revenue_x = pricing_x(billed[y]) - active.transfer_x_to_y
            revenue_y = pricing_y(billed[x]) + active.transfer_x_to_y
            utility_x = revenue_x - pricing_y(billed[x])
            utility_y = revenue_y - pricing_x(billed[y])
            self.billed_terms += 1
            engine.trace.record(
                engine.now,
                "billing",
                pair=list(pair),
                rule=self.billing_rule.value,
                billed_volume_x=billed[x],
                billed_volume_y=billed[y],
                samples=len(active.samples[x]),
                **{
                    f"revenue_{x}": revenue_x,
                    f"revenue_{y}": revenue_y,
                    f"utility_{x}": utility_x,
                    f"utility_{y}": utility_y,
                },
            )
            engine.trace.record(
                engine.now, "agreement_expired", pair=list(pair)
            )
            if self.population is not None:
                for party, utility in ((x, utility_x), (y, utility_y)):
                    state = self._states[party]
                    state.billed_terms += 1
                    state.utility_total += utility
                    if utility < 0.0:
                        state.defaulted_terms += 1
                    self.population.behavior_for(party).on_billing(utility, state)
            self._active.pop(pair, None)
            # Renegotiate immediately: the marketplace keeps turning.
            self._request_negotiation(pair, 0.0)

        return expire

    # ------------------------------------------------------------------
    # Per-profile metrics
    # ------------------------------------------------------------------
    def record_population_metrics(self) -> None:
        """Emit one ``profile_metrics`` trace record per behavior profile.

        Scenario runs schedule this at the horizon (priority 50, after
        every same-instant lifecycle event), so the trace closes with
        uptake, realized utility, Price of Dishonesty, and default-rate
        summaries per profile.
        """
        engine = self._engine
        if engine is None or self.population is None:
            return
        per_profile: dict[str, list[AgentState]] = {}
        for asn in sorted(self._states):
            state = self._states[asn]
            per_profile.setdefault(state.profile, []).append(state)
        for profile in sorted(per_profile):
            states = per_profile[profile]
            negotiations = sum(s.negotiations for s in states)
            concluded = sum(s.concluded for s in states)
            billed = sum(s.billed_terms for s in states)
            defaulted = sum(s.defaulted_terms for s in states)
            engine.trace.record(
                engine.now,
                "profile_metrics",
                profile=profile,
                agents=len(states),
                negotiations=negotiations,
                uptake=concluded / negotiations if negotiations else 0.0,
                vetoed=sum(s.vetoed for s in states),
                billed_terms=billed,
                default_rate=defaulted / billed if billed else 0.0,
                mean_utility=sum(s.utility_total for s in states) / billed if billed else 0.0,
                mean_pod=(
                    sum(s.pod_total for s in states) / negotiations if negotiations else 0.0
                ),
                mean_misreport=(
                    sum(s.misreport_total for s in states) / negotiations
                    if negotiations
                    else 0.0
                ),
                spend=sum(s.spend_total for s in states),
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_agreements(self) -> tuple[ActiveAgreement, ...]:
        """Currently active agreements (sorted by pair)."""
        return tuple(self._active[pair] for pair in sorted(self._active))
