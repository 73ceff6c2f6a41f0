"""Shared fixtures for the test suite.

The central fixtures are the Fig. 1 topology, default business models on
it, and the worked mutuality-agreement scenario of §III-B2 with
plausible traffic numbers — these are reused by the agreement,
optimization, and integration tests.
"""

from __future__ import annotations

import pytest

from repro.agreements import (
    AgreementScenario,
    SegmentTraffic,
    figure1_mutuality_agreement,
)
from repro.agreements.agreement import Agreement, PathSegment
from repro.economics import ENDHOSTS, FlowVector, default_business_models
from repro.topology import (
    AS_A,
    AS_B,
    AS_C,
    AS_D,
    AS_E,
    AS_F,
    AS_H,
    AS_I,
    figure1_topology,
    generate_topology,
)


@pytest.fixture(scope="session")
def figure1_graph():
    """The Fig. 1 example topology."""
    return figure1_topology()


@pytest.fixture(scope="session")
def small_topology():
    """A small synthetic Internet-like topology (deterministic seed)."""
    return generate_topology(
        num_tier1=4, num_tier2=12, num_tier3=30, num_stubs=80, seed=42
    )


@pytest.fixture(scope="session")
def medium_topology():
    """A medium synthetic topology for the path-diversity analyses."""
    return generate_topology(
        num_tier1=5, num_tier2=20, num_tier3=60, num_stubs=150, seed=7
    )


@pytest.fixture()
def agreement_inits(monkeypatch):
    """A list that grows by one per :class:`Agreement` constructed."""
    made: list[Agreement] = []
    init = Agreement.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Agreement, "__init__", counting_init)
    return made


@pytest.fixture()
def figure1_businesses(figure1_graph):
    """Default business models for every AS of the Fig. 1 topology."""
    return default_business_models(
        figure1_graph,
        transit_unit_price=1.0,
        endhost_unit_price=1.5,
        internal_unit_cost=0.1,
    )


@pytest.fixture()
def figure1_agreement(figure1_graph):
    """The §III-B2 mutuality agreement a = [D(↑{A}); E(↑{B},→{F})]."""
    return figure1_mutuality_agreement(figure1_graph)


@pytest.fixture()
def figure1_scenario(figure1_agreement):
    """A plausible traffic scenario for the Fig. 1 mutuality agreement.

    The numbers are chosen so that D benefits (it offloads a lot of
    provider traffic and attracts new customer traffic) while E initially
    loses (it forwards much of D's traffic to its own provider B) — the
    asymmetric situation the optimization methods of §IV are designed to
    resolve.
    """
    baseline_d = FlowVector(
        {AS_A: 30.0, AS_H: 20.0, ENDHOSTS: 10.0, AS_E: 5.0, AS_C: 5.0}
    )
    baseline_e = FlowVector(
        {AS_B: 25.0, AS_I: 15.0, ENDHOSTS: 10.0, AS_D: 5.0, AS_F: 5.0}
    )
    segments = [
        SegmentTraffic(
            segment=PathSegment(beneficiary=AS_D, partner=AS_E, target=AS_B),
            rerouted={AS_A: 10.0},
            attracted={ENDHOSTS: 5.0, AS_H: 3.0},
            attracted_limits={ENDHOSTS: 8.0, AS_H: 5.0},
        ),
        SegmentTraffic(
            segment=PathSegment(beneficiary=AS_D, partner=AS_E, target=AS_F),
            rerouted={AS_A: 4.0},
            attracted={AS_H: 2.0},
            attracted_limits={AS_H: 4.0},
        ),
        SegmentTraffic(
            segment=PathSegment(beneficiary=AS_E, partner=AS_D, target=AS_A),
            rerouted={AS_B: 8.0},
            attracted={ENDHOSTS: 4.0, AS_I: 2.0},
            attracted_limits={ENDHOSTS: 6.0, AS_I: 4.0},
        ),
    ]
    return AgreementScenario(
        agreement=figure1_agreement,
        segments=segments,
        baseline={AS_D: baseline_d, AS_E: baseline_e},
    )
