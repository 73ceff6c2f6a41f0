#!/usr/bin/env python3
"""Automated agreement negotiation with the BOSCO mechanism (§V).

Two ASes want to conclude a mutuality-based agreement but will not
reveal their true agreement utilities.  The BOSCO service estimates
utility distributions, constructs choice sets, publishes an equilibrium
of the induced bargaining game, and settles the cash compensation from
the committed claims.  The script also reproduces a single point of
Fig. 2 (the Price of Dishonesty for one choice-set size).

Run with::

    python examples/bosco_negotiation.py
"""

from __future__ import annotations

import numpy as np

from repro.bargaining import BoscoService, paper_distribution_u1


def main() -> None:
    distribution = paper_distribution_u1()
    service = BoscoService(distribution, seed=42)

    print("Configuring the BOSCO service (choice-set construction, §V-E)...")
    information = service.configure(num_choices=40, trials=20)
    print(f"  choices per party: {len(information.choices_x.finite_values)}")
    print(f"  expected Nash product of the equilibrium: {information.expected_nash_product:.4f}")
    print(
        "  truthful expected Nash product:           "
        f"{service.truthful_expected_nash_product:.4f}"
    )
    print(f"  Price of Dishonesty: {information.price_of_dishonesty:.1%}")
    print(f"  parties can verify the equilibrium: {information.verify_equilibrium()}")
    played_x = information.equilibrium.strategy_x.equilibrium_choice_indices()
    print(f"  choices actually played by party X in equilibrium: {len(played_x)}")
    print()

    print("One negotiation with private true utilities u_X = 0.62, u_Y = -0.18:")
    (outcome,) = BoscoService.negotiate_many(information, [0.62], [-0.18])
    print(f"  claims committed: v_X = {outcome.claim_x:+.3f}, v_Y = {outcome.claim_y:+.3f}")
    print(f"  concluded: {outcome.concluded}")
    if outcome.concluded:
        print(f"  cash compensation X→Y: {outcome.transfer_x_to_y:+.3f}")
        print(
            f"  after-negotiation utilities: ū_X = {outcome.post_utility_x:+.3f}, "
            f"ū_Y = {outcome.post_utility_y:+.3f}"
        )
    print()

    print("Monte-Carlo check of the §V-D properties over 2,000 negotiations:")
    rng = np.random.default_rng(7)
    samples = distribution.sample(rng, size=2000)
    results = BoscoService.negotiate_many(information, samples[:, 0], samples[:, 1])
    concluded = 0
    violations = 0
    for (true_x, true_y), result in zip(samples, results):
        if result.post_utility_x < -1e-9 or result.post_utility_y < -1e-9:
            violations += 1
        if result.concluded:
            concluded += 1
            if true_x + true_y < -1e-9:
                violations += 1
    print(f"  negotiations concluded: {concluded} / {len(samples)}")
    print(f"  individual-rationality or soundness violations: {violations}")
    print()

    print("A single Fig. 2 data point (min / mean PoD over random choice sets):")
    statistics = service.pod_statistics(num_choices=40, trials=25)
    print(
        f"  W = 40: min PoD = {statistics['min']:.3f}, mean PoD = {statistics['mean']:.3f} "
        f"(paper reports ≈0.10 minimum around W = 50)"
    )


if __name__ == "__main__":
    main()
