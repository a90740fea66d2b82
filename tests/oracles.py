"""Test oracles: closed-form rate tables the package itself never needs."""

import numpy as np


def mixed_rate_table(rates, base_table: dict) -> dict:
    """Exact post-mixing Pr(output = 1 | y, s) from base rates, for the flip
    rates of a ``classify.PostprocessRates``."""
    out = {}
    for (s, y), r in base_table.items():
        a = 1.0 - rates.flip[(s, 1)]
        b = rates.flip[(s, 0)]
        out[(s, y)] = a * r + b * (1.0 - r)
    return out


def uniform_mixture_rates(rate_tables) -> dict:
    """Rate table of a uniformly random pick among classifiers: the plain
    average of their Pr(prediction = 1 | y, s) tables."""
    keys = rate_tables[0].keys()
    return {k: float(np.mean([t[k] for t in rate_tables])) for k in keys}
