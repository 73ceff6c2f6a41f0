"""Bargaining efficiency under universal truthfulness (§V-C6).

The BOSCO service rates an equilibrium by the expected Nash bargaining
product it induces under the joint utility distribution (Eq. 19) and
compares it to the expected Nash product under universal truthfulness.
The *Price of Dishonesty*

``PoD(σ*) = 1 − E[N | σ*] / E[N | σ⊤]``                         (Eq. 20)

is always in ``[0, 1]`` (Theorem 3) and quantifies the efficiency loss
caused by strategic (non-truthful) claiming.  The batched
:class:`~repro.bargaining.engine.NegotiationEngine` computes ``E[N | σ*]``
and the PoD; this module holds the truthful baseline ``E[N | σ⊤]`` they
are measured against.
"""

from __future__ import annotations

import numpy as np

from repro.bargaining.distributions import JointUtilityDistribution


def expected_truthful_nash_product(
    distribution: JointUtilityDistribution,
    *,
    grid_size: int = 600,
) -> float:
    """Expected Nash product under universal truthfulness, ``E[N | σ⊤]``.

    Under truthfulness the product equals ``((u_X + u_Y)/2)²`` on the
    region ``u_X + u_Y ≥ 0`` and 0 elsewhere.  The integral is evaluated
    by midpoint quadrature on a grid over the joint support, which is
    exact enough (relative error well below 1e-3 for the paper's uniform
    distributions) and distribution-agnostic.
    """
    marginal_x = distribution.marginal_x
    marginal_y = distribution.marginal_y
    xs = np.linspace(marginal_x.lower, marginal_x.upper, grid_size + 1)
    ys = np.linspace(marginal_y.lower, marginal_y.upper, grid_size + 1)
    mid_x = (xs[:-1] + xs[1:]) / 2.0
    mid_y = (ys[:-1] + ys[1:]) / 2.0
    dx = (marginal_x.upper - marginal_x.lower) / grid_size
    dy = (marginal_y.upper - marginal_y.lower) / grid_size
    density_x = np.array([marginal_x.pdf(float(x)) for x in mid_x])
    density_y = np.array([marginal_y.pdf(float(y)) for y in mid_y])
    grid_sum = np.add.outer(mid_x, mid_y)
    payoff = np.where(grid_sum >= 0.0, (grid_sum / 2.0) ** 2, 0.0)
    weights = np.outer(density_x, density_y)
    return float(np.sum(payoff * weights) * dx * dy)
