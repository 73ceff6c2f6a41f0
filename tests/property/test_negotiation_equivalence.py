"""Engine-vs-reference equivalence for the batched negotiation stack.

The :class:`~repro.bargaining.engine.NegotiationEngine` is contracted to
be **bit-identical** to the per-trial oracles of :mod:`repro.reference`
— that is what keeps seeded Fig. 2 tables and marketplace traces
byte-stable.  These property tests drive both paths from identical
seeds across random distributions, cardinalities, and trial counts,
and compare results with ``==``, never ``approx`` (extending the
core-vs-reference pattern of ``test_core_equivalence.py`` to the
bargaining layer).
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import reference
from repro.api import NegotiateRequest, Session
from repro.bargaining import engine as engine_module
from repro.bargaining.choices import ChoiceSet, random_choice_set
from repro.bargaining.distributions import (
    JointUtilityDistribution,
    TruncatedNormalUtilityDistribution,
    UniformUtilityDistribution,
    paper_distribution_u1,
    paper_distribution_u2,
)
from repro.bargaining.engine import GameBatch, NegotiationEngine, kernel_for
from repro.bargaining.mechanism import BoscoService, draw_trial_pairs
from repro.bargaining.strategy import EquilibriumError, StrategyProfile, ThresholdStrategy
from repro.reference import (
    BargainingGame,
    choice_probabilities,
    compute_best_response,
    response_lines,
    truthful_like_strategy,
)
from repro.experiments.fig2_pod import Fig2Config, Fig2Row, run_fig2


@st.composite
def joint_distributions(draw):
    low_x = draw(st.floats(min_value=-2.0, max_value=-0.1))
    high_x = draw(st.floats(min_value=0.5, max_value=2.0))
    low_y = draw(st.floats(min_value=-2.0, max_value=-0.1))
    high_y = draw(st.floats(min_value=0.5, max_value=2.0))
    return JointUtilityDistribution(
        marginal_x=UniformUtilityDistribution(low_x, high_x),
        marginal_y=UniformUtilityDistribution(low_y, high_y),
    )


_BIG = 1e300
#: Exact dyadic values (concurrent lines, ``v_Y = −v_X`` ties), the
#: signed zeros, subnormals and magnitudes next to ±1e300.
_EDGE_VALUES = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-320,
    2e-320,
    0.125,
    -0.125,
    0.25,
    -0.25,
    0.5,
    -0.5,
    0.75,
    -0.75,
    1.0,
    -1.0,
    _BIG,
    -_BIG,
    math.nextafter(_BIG, math.inf),
    math.nextafter(-_BIG, -math.inf),
)
_edge_floats = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(min_value=-1.0, max_value=1.0),
)


@st.composite
def edge_choice_sets(draw, cardinality):
    """A choice set of ``cardinality`` finite values from the edge pool."""
    values = draw(
        st.lists(
            _edge_floats,
            min_size=cardinality,
            max_size=cardinality,
            unique_by=lambda v: v + 0.0,
        )
    )
    return ChoiceSet((float("-inf"), *sorted(values)))


@st.composite
def edge_strategies(draw, choices):
    """Non-decreasing thresholds with duplicates, subnormal gaps and +∞."""
    finite = draw(
        st.lists(
            st.one_of(_edge_floats, st.just(math.inf)),
            min_size=len(choices) - 1,
            max_size=len(choices) - 1,
        )
    )
    return ThresholdStrategy(
        choices=choices, thresholds=(float("-inf"), *sorted(finite))
    )


@st.composite
def edge_response_batches(draw):
    """``B ∈ 1..12`` best-response problems at one ``W ∈ 1..25``."""
    num_choices = draw(st.integers(min_value=1, max_value=25))
    size = draw(st.integers(min_value=1, max_value=12))
    distribution = draw(
        st.sampled_from(
            [
                UniformUtilityDistribution(-1.0, 1.0),
                UniformUtilityDistribution(-0.5, 1.5),
                UniformUtilityDistribution(-_BIG, _BIG),
            ]
        )
    )
    rows = []
    for _ in range(size):
        own = draw(edge_choice_sets(num_choices))
        opponent = draw(
            st.one_of(
                edge_choice_sets(num_choices),
                # The mirror image of the own set: every claim pair sits
                # exactly on the ``v_Y ≥ −v_X`` boundary.
                st.just(ChoiceSet((float("-inf"), *sorted(-v for v in own.values[1:])))),
            )
        )
        rows.append((own, opponent, draw(edge_strategies(opponent))))
    return distribution, rows


@st.composite
def concurrent_line_batches(draw):
    """``B ∈ 1..12`` rows of ``C ∈ 1..26`` lines, many through one point.

    Lines through a shared point cross their predecessors at exactly
    the same computed value or at a neighbouring float, which is where
    the envelope's tie rule and the order of its active lines show.
    """
    count = draw(st.integers(min_value=1, max_value=26))
    size = draw(st.integers(min_value=1, max_value=12))
    slope_pool = st.sampled_from(
        [0.0, 5e-324, 1e-320, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.75, 1.0]
    )
    slopes, intercepts = [], []
    for _ in range(size):
        row = sorted(draw(st.lists(slope_pool, min_size=count, max_size=count)))
        x = draw(st.sampled_from([0.1, 0.3, -0.7, 1 / 3, 0.0, -_BIG]))
        y = draw(st.sampled_from([0.1, 0.3, -0.7, _BIG]))
        offsets = draw(
            st.lists(
                st.sampled_from([0.0, 0.0, 0.0, -0.1, -1.0, -_BIG]),
                min_size=count,
                max_size=count,
            )
        )
        slopes.append(row)
        intercepts.append([y - s * x + offset for s, offset in zip(row, offsets)])
    return slopes, intercepts


class TestSmallBatchBestResponses:
    """Batched best responses at negotiation-sized batches, float edges.

    Each row must equal the scalar pipeline ``choice_probabilities`` →
    ``response_lines`` → ``compute_best_response`` (Algorithm 1).  The
    second block size cuts the envelope's crossing table down to one
    row per block, so its multi-block path runs at these small sizes.
    """

    @pytest.mark.parametrize("block_elements", [engine_module._BLOCK_ELEMENTS, 1])
    @given(problem=edge_response_batches())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_scalar_pipeline(self, block_elements, problem):
        distribution, rows = problem
        with mock.patch.object(engine_module, "_BLOCK_ELEMENTS", block_elements):
            batched = NegotiationEngine().best_responses(
                np.array([own.values for own, _, _ in rows]),
                np.array([opponent.values for _, opponent, _ in rows]),
                np.array([strategy.thresholds for _, _, strategy in rows]),
                kernel_for(distribution),
            )
        for row, (own, opponent, strategy) in enumerate(rows):
            probabilities = choice_probabilities(strategy, distribution)
            slopes, intercepts = response_lines(own, opponent, probabilities)
            expected = compute_best_response(own, slopes, intercepts)
            assert tuple(batched[row].tolist()) == expected.thresholds

    @pytest.mark.parametrize("block_elements", [engine_module._BLOCK_ELEMENTS, 1])
    @given(lines=concurrent_line_batches())
    @example(
        # The flat run list at its edges: a row whose crossings all
        # overflow to +∞ (a slope gap of one subnormal), though its
        # first line crosses the next row's second line at 4e300; a row
        # whose C lines are all active; and a row of one active line
        # (one slope run, its maximum not first).
        lines=(
            [[0.0, 0.0, 0.0, 5e-324], [0.0, 0.25, 0.5, 1.0], [0.5, 0.5, 0.5, 0.5]],
            [[_BIG, _BIG, _BIG, 0.0], [1.0, 0.9, 0.7, 0.2], [0.1, 0.3, 0.3, 0.2]],
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_envelope_rows_equal_algorithm_1(self, block_elements, lines):
        slopes, intercepts = lines
        with mock.patch.object(engine_module, "_BLOCK_ELEMENTS", block_elements):
            batched = NegotiationEngine().envelope_thresholds(
                np.array(slopes), np.array(intercepts)
            )
        choices = ChoiceSet((float("-inf"), *map(float, range(len(slopes[0]) - 1))))
        for row, (row_slopes, row_intercepts) in enumerate(zip(slopes, intercepts)):
            expected = compute_best_response(choices, row_slopes, row_intercepts)
            assert tuple(batched[row].tolist()) == expected.thresholds


class TestEquilibriumEquivalence:
    @given(
        distribution=joint_distributions(),
        num_choices=st.integers(min_value=2, max_value=12),
        batch_size=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_equilibria_match_the_reference_bitwise(
        self, distribution, num_choices, batch_size, seed
    ):
        rng = np.random.default_rng(seed)
        pairs = [
            (
                random_choice_set(distribution.marginal_x, num_choices, rng),
                random_choice_set(distribution.marginal_y, num_choices, rng),
            )
            for _ in range(batch_size)
        ]
        batch = GameBatch.from_choice_sets(distribution, pairs)
        equilibria = NegotiationEngine().solve(batch)
        for index, (choices_x, choices_y) in enumerate(pairs):
            game = BargainingGame(
                distribution_x=distribution.marginal_x,
                distribution_y=distribution.marginal_y,
                choices_x=choices_x,
                choices_y=choices_y,
            )
            try:
                reference = game.find_equilibrium()
            except EquilibriumError:
                assert not equilibria.converged[index]
                continue
            assert equilibria.converged[index]
            profile = equilibria.profile(batch, index)
            assert profile.strategy_x.thresholds == reference.strategy_x.thresholds
            assert profile.strategy_y.thresholds == reference.strategy_y.thresholds


class TestChunkedSolve:
    """``solve`` cut into row chunks under a small geometry budget."""

    @staticmethod
    def _pairs(distribution, num_choices, batch_size, seed):
        rng = np.random.default_rng(seed)
        return [
            (
                random_choice_set(distribution.marginal_x, num_choices, rng),
                random_choice_set(distribution.marginal_y, num_choices, rng),
            )
            for _ in range(batch_size)
        ]

    @given(
        distribution=joint_distributions(),
        num_choices=st.integers(min_value=2, max_value=8),
        batch_size=st.integers(min_value=2, max_value=10),
        rows_per_chunk=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunks_equal_one_chunk_and_the_reference(
        self, distribution, num_choices, batch_size, rows_per_chunk, seed
    ):
        pairs = self._pairs(distribution, num_choices, batch_size, seed)
        batch = GameBatch.from_choice_sets(distribution, pairs)
        whole = NegotiationEngine().solve(batch)
        budget = rows_per_chunk * 2 * (num_choices + 1) ** 2
        with mock.patch.object(engine_module, "_GEOMETRY_ELEMENTS", budget):
            chunked = NegotiationEngine().solve(batch)
        for field in dataclasses.fields(whole):
            expected, actual = getattr(whole, field.name), getattr(chunked, field.name)
            assert np.array_equal(actual, expected, equal_nan=actual.dtype.kind == "f")
        for index, (choices_x, choices_y) in enumerate(pairs):
            game = BargainingGame(
                distribution_x=distribution.marginal_x,
                distribution_y=distribution.marginal_y,
                choices_x=choices_x,
                choices_y=choices_y,
            )
            try:
                reference = game.find_equilibrium()
            except EquilibriumError:
                assert not chunked.converged[index]
                continue
            profile = chunked.profile(batch, index)
            assert profile.strategy_x.thresholds == reference.strategy_x.thresholds
            assert profile.strategy_y.thresholds == reference.strategy_y.thresholds

    @pytest.mark.parametrize("budget", [98, 3 * 98, 7 * 98 - 1])
    def test_no_chunk_geometry_exceeds_the_budget(self, budget):
        distribution = paper_distribution_u1()
        batch = GameBatch.from_choice_sets(distribution, self._pairs(distribution, 6, 11, 5))
        geometries = []
        build = engine_module._claim_geometry

        def recording(own_values, opponent_values):
            geometry = build(own_values, opponent_values)
            geometries.append(geometry)
            return geometry

        with mock.patch.object(engine_module, "_GEOMETRY_ELEMENTS", budget), mock.patch.object(
            engine_module, "_claim_geometry", recording
        ):
            NegotiationEngine().solve(batch)
        # One geometry per party per start; every chunk starts once.  A
        # row's geometry holds two 7 × 7 planes, 98 elements.
        assert len(geometries) >= 2 * -(-len(batch) // (budget // 98))
        for geometry in geometries:
            assert geometry.shape[1:] == (2, 7, 7)
            assert geometry.size <= budget


class TestStragglerRow:
    """A served-shape cohort whose rows leave the lockstep batch at many rounds.

    Seed 0 of the ``serve-mixed`` request shape (u1, ``W = 20``, 10
    trials): trial 6 runs the first start to the 200-round cap and then
    converges from the second in 2 rounds, while the other rows converge
    from the first start after 28 to 66 rounds, two of them in round 32.
    Every row that leaves compacts the active rows, so each trial's
    whole search must still equal the reference's, also under a cap of
    32 rounds, where rows leave in the last round and others run out.
    """

    PAIRS = draw_trial_pairs(paper_distribution_u1(), 20, 10, seed=0)

    @staticmethod
    def _reference_search(game, max_iterations):
        """``(profile, start_index, iterations, last_delta)`` of ``find_equilibrium``."""
        for start, (strategy_x, strategy_y) in enumerate(game._default_starting_profiles()):
            profile, iterations, last_delta = game._iterate_best_responses(
                strategy_x, strategy_y, max_iterations=max_iterations, tolerance=1e-12
            )
            if profile is not None:
                return profile, start, iterations, last_delta
        return None, -1, iterations, last_delta

    @pytest.mark.parametrize("max_iterations", [200, 32])
    def test_every_trial_equals_the_reference(self, max_iterations):
        distribution = paper_distribution_u1()
        batch = GameBatch.from_choice_sets(distribution, self.PAIRS)
        equilibria = NegotiationEngine().solve(batch, max_iterations=max_iterations)
        games = [
            BargainingGame(
                distribution_x=distribution.marginal_x,
                distribution_y=distribution.marginal_y,
                choices_x=choices_x,
                choices_y=choices_y,
            )
            for choices_x, choices_y in self.PAIRS
        ]
        searches = [self._reference_search(game, max_iterations) for game in games]
        if max_iterations == 200:
            truthful_x, truthful_y = games[6]._default_starting_profiles()[0]
            capped = games[6]._iterate_best_responses(
                truthful_x, truthful_y, max_iterations=200, tolerance=1e-12
            )
            assert capped[:2] == (None, 200)
            assert [search[1] for search in searches] == [0] * 6 + [1] + [0] * 3
            assert len({search[2] for search in searches}) >= 8
        for index, (profile, start, iterations, last_delta) in enumerate(searches):
            assert equilibria.converged[index] == (profile is not None)
            assert equilibria.start_index[index] == start
            assert equilibria.iterations[index] == iterations
            assert equilibria.last_delta[index] == last_delta
            if profile is not None:
                assert equilibria.profile(batch, index) == profile


class TestCycleDetection:
    """A start stops on an exact repeat of both parties' thresholds.

    No random instance found cycles, so both solvers run one scripted
    pure best-response table: ``x`` walks ``X1 → X2 → X3`` against
    ``y``'s ``Y1 → Y2 → Y1``, where ``X3`` is ``X1`` with ``+0.0`` in
    place of ``-0.0``.  Tuple equality makes round 3 repeat round 1, so
    every start stops after 3 rounds; a detector that compared the
    zero's sign would stop after 4, and one that never stopped after
    ``max_iterations``.
    """

    X1 = (-math.inf, -0.0, 1.0)
    X2 = (-math.inf, 0.25, 1.0)
    X3 = (-math.inf, 0.0, 1.0)
    Y1 = (-math.inf, 0.5, 1.0, 2.0)
    Y2 = (-math.inf, 0.75, 1.0, 2.0)

    def _respond(self, opponent):
        """The scripted best response to ``opponent``'s thresholds."""
        if len(opponent) == len(self.Y1):
            return {self.Y1: self.X2, self.Y2: self.X3}.get(opponent, self.X1)
        return self.Y2 if opponent == self.X2 else self.Y1

    def test_engine_stops_where_the_reference_does(self):
        distribution = paper_distribution_u1()
        choices_x = ChoiceSet((-math.inf, 0.1, 0.2))
        choices_y = ChoiceSet((-math.inf, 0.1, 0.2, 0.3))

        def reference_response(game, party, opponent_strategy):
            own = game.choices_x if party == "x" else game.choices_y
            return ThresholdStrategy(own, self._respond(opponent_strategy.thresholds))

        def engine_response(engine, geometry, opponent_thresholds, opponent_kernel):
            return np.array([self._respond(tuple(row.tolist())) for row in opponent_thresholds])

        game = BargainingGame(
            distribution_x=distribution.marginal_x,
            distribution_y=distribution.marginal_y,
            choices_x=choices_x,
            choices_y=choices_y,
        )
        with mock.patch.object(BargainingGame, "best_response", reference_response):
            with pytest.raises(EquilibriumError) as raised:
                game.find_equilibrium()
        batch = GameBatch.from_choice_sets(distribution, [(choices_x, choices_y)])
        with mock.patch.object(NegotiationEngine, "_respond", engine_response):
            equilibria = NegotiationEngine().solve(batch)
        assert raised.value.iterations == 3
        assert not equilibria.converged[0]
        assert equilibria.iterations[0] == raised.value.iterations
        assert equilibria.last_delta[0] == raised.value.last_delta

    def test_a_row_keeps_its_history_when_the_batch_compacts(self):
        """Row 0 settles on ``(X, Y)`` in round 2 and leaves the batch.
        Row 1 passes through ``(X, Y)`` in round 3 and settles there in
        round 4; had it taken over row 0's history on compaction, it
        would stop on a false cycle and move on to the next start.
        """
        distribution = paper_distribution_u1()
        choices_x = ChoiceSet((-math.inf, 0.1, 0.2))
        start_0 = (-math.inf, 0.4, 0.5, 0.6)
        start_1 = (-math.inf, 0.7, 0.8, 0.9)
        x, y = (-math.inf, 0.5, 1.0), (-math.inf, 0.25, 0.5, 2.0)
        x1, y1 = (-math.inf, 0.3, 1.0), (-math.inf, 0.1, 0.5, 2.0)
        x2, y2 = (-math.inf, 0.6, 1.0), (-math.inf, 0.2, 0.5, 2.0)
        script = {start_0: x, x: y, y: x, start_1: x1, x1: y1, y1: x2, x2: y2, y2: x}

        def reference_response(game, party, opponent_strategy):
            own = game.choices_x if party == "x" else game.choices_y
            return ThresholdStrategy(own, script[opponent_strategy.thresholds])

        def engine_response(engine, geometry, opponent_thresholds, opponent_kernel):
            return np.array([script[tuple(row.tolist())] for row in opponent_thresholds])

        pairs = [(choices_x, ChoiceSet(start_0)), (choices_x, ChoiceSet(start_1))]
        batch = GameBatch.from_choice_sets(distribution, pairs)
        with mock.patch.object(NegotiationEngine, "_respond", engine_response):
            equilibria = NegotiationEngine().solve(batch)
        assert equilibria.start_index.tolist() == [0, 0]
        assert equilibria.iterations.tolist() == [2, 4]
        game = BargainingGame(
            distribution_x=distribution.marginal_x,
            distribution_y=distribution.marginal_y,
            choices_x=pairs[1][0],
            choices_y=pairs[1][1],
        )
        with mock.patch.object(BargainingGame, "best_response", reference_response):
            expected = game.find_equilibrium()
        assert equilibria.profile(batch, 1) == expected


def _always_cancel(choices):
    return ThresholdStrategy(
        choices=choices, thresholds=(-math.inf,) + (math.inf,) * (len(choices) - 1)
    )


class TestEquilibriumVerification:
    """``verify_equilibrium`` (the engine) gives the scalar game's verdict."""

    @given(
        distribution=st.one_of(
            joint_distributions(),
            st.sampled_from([paper_distribution_u1(), paper_distribution_u2()]),
        ),
        num_choices=st.sampled_from([2, 5, 10, 30]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_verdicts_equal_is_equilibrium(self, distribution, num_choices, seed):
        try:
            information = BoscoService(distribution, seed=seed).configure(
                num_choices, trials=2
            )
        except EquilibriumError:
            assume(False)
        game = BargainingGame(
            distribution_x=distribution.marginal_x,
            distribution_y=distribution.marginal_y,
            choices_x=information.choices_x,
            choices_y=information.choices_y,
        )
        equilibrium = information.equilibrium
        truthful_x = truthful_like_strategy(information.choices_x)
        truthful_y = truthful_like_strategy(information.choices_y)
        profiles = [
            equilibrium,
            StrategyProfile(truthful_x, truthful_y),
            StrategyProfile(
                _always_cancel(information.choices_x), _always_cancel(information.choices_y)
            ),
            StrategyProfile(equilibrium.strategy_x, truthful_y),
            StrategyProfile(truthful_x, equilibrium.strategy_y),
            StrategyProfile(equilibrium.strategy_y, equilibrium.strategy_x),
        ]
        assert information.verify_equilibrium()
        for profile in profiles:
            published = dataclasses.replace(information, equilibrium=profile)
            assert published.verify_equilibrium() == game.is_equilibrium(profile)

    def test_a_perturbed_profile_is_rejected(self):
        information = BoscoService(paper_distribution_u1(), seed=3).configure(10, trials=2)
        truthful = StrategyProfile(
            truthful_like_strategy(information.choices_x),
            truthful_like_strategy(information.choices_y),
        )
        assert not dataclasses.replace(information, equilibrium=truthful).verify_equilibrium()


class TestServiceEquivalence:
    @given(
        distribution=joint_distributions(),
        num_choices=st.integers(min_value=2, max_value=10),
        trials=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_pod_statistics_are_identical(
        self, distribution, num_choices, trials, seed
    ):
        rng = np.random.default_rng(seed)
        service = BoscoService(distribution, seed=seed)
        try:
            expected = reference.pod_statistics(distribution, rng, num_choices, trials)
        except EquilibriumError:
            with pytest.raises(EquilibriumError):
                service.pod_statistics(num_choices, trials=trials)
            assert service.skipped_trials == trials
            return
        assert service.pod_statistics(num_choices, trials=trials) == expected
        assert service.skipped_trials == expected["skipped_trials"]

    @given(
        num_choices=st.integers(min_value=2, max_value=10),
        trials=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_configure_picks_the_identical_mechanism(self, num_choices, trials, seed):
        distribution = paper_distribution_u1()
        expected = reference.configure(
            distribution, np.random.default_rng(seed), num_choices, trials
        )
        actual = BoscoService(distribution, seed=seed).configure(
            num_choices, trials=trials
        )
        assert actual.choices_x.values == expected.choices_x.values
        assert actual.choices_y.values == expected.choices_y.values
        assert (
            actual.equilibrium.strategy_x.thresholds
            == expected.equilibrium.strategy_x.thresholds
        )
        assert (
            actual.equilibrium.strategy_y.thresholds
            == expected.equilibrium.strategy_y.thresholds
        )
        assert actual.price_of_dishonesty == expected.price_of_dishonesty
        assert actual.expected_nash_product == expected.expected_nash_product

    def test_generic_kernel_distributions_are_identical_too(self):
        # Non-uniform marginals take the GenericKernel fallback, which
        # must be just as exact as the closed-form uniform path.
        distribution = JointUtilityDistribution(
            marginal_x=TruncatedNormalUtilityDistribution(0.1, 0.5, -1.0, 1.0),
            marginal_y=TruncatedNormalUtilityDistribution(-0.1, 0.4, -1.0, 1.0),
        )
        service = BoscoService(distribution, seed=5)
        assert service.pod_statistics(6, trials=6) == reference.pod_statistics(
            distribution, np.random.default_rng(5), 6, 6
        )


class TestFig2Equivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_fig2_tables_are_byte_identical_across_backends(self, seed):
        choice_counts = (5, 12)
        rows = []
        for name, distribution in (
            ("U(1)", paper_distribution_u1()),
            ("U(2)", paper_distribution_u2()),
        ):
            # One RNG per distribution, every W drawn from it in order —
            # the draws of run_fig2's one service per distribution.
            rng = np.random.default_rng(seed)
            for num_choices in choice_counts:
                statistics = reference.pod_statistics(distribution, rng, num_choices, 6)
                rows.append(
                    Fig2Row(
                        distribution=name,
                        num_choices=num_choices,
                        min_pod=statistics["min"],
                        mean_pod=statistics["mean"],
                        mean_equilibrium_choices=statistics["mean_equilibrium_choices"],
                    )
                )
        result = run_fig2(Fig2Config(choice_counts=choice_counts, trials=6, seed=seed))
        assert result.rows == rows


class TestSessionNegotiateEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_negotiate_matches_a_fresh_service(self, seed):
        request = NegotiateRequest(num_choices=8, trials=6, seed=seed)
        result = Session().negotiate(request)
        distribution = request.joint_distribution()
        statistics = BoscoService(distribution, seed=seed).pod_statistics(8, trials=6)
        assert result.min_pod == statistics["min"]
        assert result.mean_pod == statistics["mean"]
        assert result.max_pod == statistics["max"]
        assert result.mean_equilibrium_choices == statistics["mean_equilibrium_choices"]
        assert result.converged_trials == statistics["trials"]
        assert result.skipped_trials == statistics["skipped_trials"]
        best = BoscoService(distribution, seed=seed).configure(8, trials=6)
        assert result.best_expected_nash_product == best.expected_nash_product
