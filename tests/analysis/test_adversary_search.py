"""Adversary search: breaks naive devices fast, cannot break EIG."""

import pytest

from repro.analysis.adversary_search import search_agreement_attacks
from repro.graphs import complete_graph
from repro.protocols import MajorityVoteDevice, eig_devices


class TestAdversarySearch:
    def test_eig_survives_the_search(self):
        result = search_agreement_attacks(
            complete_graph(4),
            lambda g: eig_devices(g, 1),
            max_faults=1,
            rounds=2,
            attempts=120,
            seed=7,
        )
        assert not result.broken, result.describe()
        assert result.attempts == 120
        assert "survived" in result.describe()

    def test_majority_vote_falls_quickly(self):
        """Plain one-round majority is not Byzantine-tolerant even on
        K4: a two-faced or replaying adversary splits it."""
        result = search_agreement_attacks(
            complete_graph(4),
            lambda g: {u: MajorityVoteDevice() for u in g.nodes},
            max_faults=1,
            rounds=1,
            attempts=300,
            seed=3,
        )
        assert result.broken
        assert result.attack is not None
        assert "broken" in result.describe()

    def test_search_is_deterministic(self):
        def go():
            return search_agreement_attacks(
                complete_graph(4),
                lambda g: {u: MajorityVoteDevice() for u in g.nodes},
                max_faults=1,
                rounds=1,
                attempts=300,
                seed=11,
            )

        first, second = go(), go()
        assert first.attempts == second.attempts
        assert first.broken == second.broken

    def test_eig_survives_two_faults_on_k7(self):
        result = search_agreement_attacks(
            complete_graph(7),
            lambda g: eig_devices(g, 2),
            max_faults=2,
            rounds=3,
            attempts=25,
            seed=1,
        )
        assert not result.broken, result.describe()


class TestHorizonValidation:
    def test_rounds_zero_rejected_on_both_paths(self):
        # With no rounds nobody decides, which the spec would report as
        # a vacuous termination break; both sampling paths refuse it.
        for jobs in (None, 1):
            with pytest.raises(ValueError, match="rounds must be at least 1"):
                search_agreement_attacks(
                    complete_graph(4),
                    lambda g: {u: MajorityVoteDevice() for u in g.nodes},
                    max_faults=1,
                    rounds=0,
                    jobs=jobs,
                )
