"""Mixed-cohort sub-batched negotiation == per-agent scalar reference.

The heterogeneous-marketplace lifecycle flushes every negotiation due
at one virtual instant through :func:`repro.agents.decide_mixed_cohort`
(order-preserving sub-batches, one batched engine call per published
mechanism).  That path is contracted **bit-identical** — never
approximately equal — to :func:`repro.reference.decide_sequential`, the
one-scalar-``negotiate``-per-entry reference.  These properties drive
both paths over random mechanism sets, cohort shapes, and utilities
drawn from the mechanisms' own distributions, comparing outcomes with
``==`` field by field.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import CohortEntry, decide_mixed_cohort
from repro.bargaining.distributions import paper_distribution_u1
from repro.bargaining.mechanism import BoscoService
from repro.reference import decide_sequential

#: Small published-mechanism pool shared across examples (configuring a
#: mechanism is the expensive part, and equality of the *decision*
#: paths is what's under test).
_SERVICE = BoscoService(paper_distribution_u1(), seed=9)
_MECHANISMS = {
    width: _SERVICE.configure(width, trials=3) for width in (3, 5, 8)
}


@st.composite
def cohorts(draw):
    size = draw(st.integers(min_value=0, max_value=24))
    return [
        CohortEntry(
            key=draw(st.sampled_from(sorted(_MECHANISMS))),
            utility_x=draw(st.floats(min_value=-1.5, max_value=1.5)),
            utility_y=draw(st.floats(min_value=-1.5, max_value=1.5)),
        )
        for _ in range(size)
    ]


class TestMixedCohortEquivalence:
    @given(entries=cohorts())
    @settings(max_examples=100, deadline=None)
    def test_sub_batched_outcomes_match_the_scalar_reference_bitwise(self, entries):
        batched = decide_mixed_cohort(_MECHANISMS, entries)
        reference = decide_sequential(_MECHANISMS, entries)
        assert len(batched) == len(reference) == len(entries)
        for fast, slow in zip(batched, reference):
            # Exact equality, field by field — floats included.
            assert fast.claim_x == slow.claim_x
            assert fast.claim_y == slow.claim_y
            assert fast.concluded == slow.concluded
            assert fast.transfer_x_to_y == slow.transfer_x_to_y
            assert fast.true_utility_x == slow.true_utility_x
            assert fast.true_utility_y == slow.true_utility_y

    @given(entries=cohorts())
    @settings(max_examples=25, deadline=None)
    def test_outcomes_stay_in_request_order(self, entries):
        outcomes = decide_mixed_cohort(_MECHANISMS, entries)
        for entry, outcome in zip(entries, outcomes):
            assert outcome.true_utility_x == entry.utility_x
            assert outcome.true_utility_y == entry.utility_y


def test_unpublished_mechanism_key_is_rejected():
    entries = [CohortEntry(key=99, utility_x=0.1, utility_y=0.2)]
    with pytest.raises(ValueError, match="unpublished"):
        decide_mixed_cohort(_MECHANISMS, entries)
    with pytest.raises(ValueError, match="unpublished"):
        decide_sequential(_MECHANISMS, entries)
