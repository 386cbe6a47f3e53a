"""Firing statistics against a fixed-seed oracle trace."""

import hashlib

import numpy as np

from spikert import analysis
from spikert.matrices import PoissonBank, encode_projections
from spikert.oracle import oracle_simulate


def test_subsampled_correlations_are_pinned(small_network):
    """A 20-neuron subsample of each population: the binned trains' Pearson
    coefficients keep their bytes."""
    tr = oracle_simulate(small_network, encode_projections(small_network),
                         PoissonBank(small_network, 2, 1000), 100.0)
    stats = analysis.firing_stats(tr, corr_subsample=20)
    assert [(p.correlations.size, p.corr_excluded) for p in stats.populations] == [(190, 0)] * 2
    assert hashlib.sha256(np.concatenate([p.correlations for p in stats.populations])
                          .tobytes()).hexdigest() == (
        "79a70a3228bfc87f4030b7572f84ad14668367ba5ac248ddc4e5cbc933c8f87d")
