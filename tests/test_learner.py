import random
from fractions import Fraction

import pytest

from ltlfmine import learner
from ltlfmine.encoding import OperatorPool
from ltlfmine.learner import (LearnConfig, SIZE_CAP, SOLVED, TIMED_OUT,
                              learn_minimal, resolve_omega,
                              trivial_perfect_formula)
from ltlfmine.sample import (loss, omega_rebalanced, omega_uniform,
                             parse_sample, weighted_loss)
from helpers import (brute_minimal_size, enumerate_formulas, random_sample)


class TestLearnMinimal:
    def test_separable_by_single_proposition(self):
        s = parse_sample("1\n---\n0\n")
        r = learn_minimal(s)
        assert r.status == SOLVED
        assert r.size == 1
        assert r.formula.to_text() == "p0"
        assert r.achieved_loss == 0

    def test_eventually_needed(self):
        s = parse_sample("0,0;0,1\n0,1;0,0\n---\n0,0\n0,0;0,0\n")
        r = learn_minimal(s)
        assert r.status == SOLVED
        assert r.size == 2
        assert loss(s, r.formula) == 0

    def test_kappa_trades_size_for_loss(self):
        # One outlier positive; kappa = 1/4 lets a single-node formula
        # misclassify it.
        s = parse_sample("1,0\n0,1\n---\n0,0\n0,0;0,0\n")
        exact = learn_minimal(s)
        relaxed = learn_minimal(s, LearnConfig(kappa=Fraction(1, 4)))
        assert relaxed.size <= exact.size
        assert relaxed.achieved_loss <= Fraction(1, 4)

    def test_achieved_loss_is_exact_weighted_loss(self):
        rng = random.Random(14)
        for _ in range(15):
            s = random_sample(rng, ("p0", "p1"), max_traces=6, max_len=4)
            r = learn_minimal(s, LearnConfig(kappa=Fraction(1, 5)))
            assert r.status == SOLVED
            assert r.achieved_loss \
                == weighted_loss(s, r.formula, omega_uniform(s))
            assert r.achieved_loss <= Fraction(1, 5)

    def test_rebalanced_weights(self):
        # 1 positive vs 3 negatives; rejecting everything costs 1/2 under
        # rebalanced weights, so kappa = 1/4 forces a real separator.
        s = parse_sample("1,1\n---\n1,0\n0,1\n0,0\n")
        r = learn_minimal(s, LearnConfig(kappa=Fraction(1, 4),
                                         weights="rebalanced"))
        assert r.status == SOLVED
        assert weighted_loss(s, r.formula, omega_rebalanced(s)) \
            <= Fraction(1, 4)

    def test_size_cap(self):
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        r = learn_minimal(s, LearnConfig(max_size=1))
        assert r.status == SIZE_CAP
        assert r.formula is None
        assert [it["size"] for it in r.iterations] == [1]

    def test_timeout_reported(self):
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        r = learn_minimal(s, LearnConfig(timeout=0.0))
        assert r.status == TIMED_OUT

    def test_timeout_checked_before_encoding(self, monkeypatch):
        built = []
        real = learner.EncodingInstance
        monkeypatch.setattr(learner, "EncodingInstance",
                            lambda *args: built.append(args) or real(*args))
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        r = learn_minimal(s, LearnConfig(timeout=0))
        assert r.status == TIMED_OUT
        assert built == []
        assert r.iterations == []

    def test_iterations_record_ascending_sizes(self):
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        r = learn_minimal(s)
        sizes = [it["size"] for it in r.iterations]
        assert sizes == list(range(1, len(sizes) + 1))
        assert all(it["status"] == "infeasible"
                   for it in r.iterations[:-1])

    @pytest.mark.parametrize("weights, kappa", [
        ("uniform", Fraction(0)), ("rebalanced", Fraction(0)),
        ("rebalanced", Fraction(1, 4))],
        ids=["uniform-0", "rebalanced-0", "rebalanced-1_4"])
    def test_minimality_against_enumeration_small(self, weights, kappa):
        formulas = enumerate_formulas(("p0", "p1"), 3)
        rng = random.Random(15)
        for _ in range(25):
            s = random_sample(rng, ("p0", "p1"), max_traces=6, max_len=4,
                              require_both_classes=weights == "rebalanced")
            omega = resolve_omega(s, weights)
            expected = brute_minimal_size(s, kappa, omega, formulas)
            r = learn_minimal(s, LearnConfig(kappa=kappa, weights=weights,
                                             max_size=3))
            if expected is None:
                assert r.status == SIZE_CAP
            else:
                assert r.status == SOLVED
                assert r.size == expected
                assert r.achieved_loss <= kappa

    def test_explicit_weights_must_sum_to_one(self):
        s = parse_sample("1\n---\n0\n")
        with pytest.raises(ValueError, match="sum"):
            resolve_omega(s, {u: Fraction(1, 3) for u in s.traces()})

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            LearnConfig(kappa=Fraction(3, 2))

    def test_constant_pool_single_class(self):
        s = parse_sample("1\n0\n---\n")
        pool = OperatorPool(s.alphabet, constants=("true", "false"))
        r = learn_minimal(s, LearnConfig(pool=pool))
        assert r.status == SOLVED
        assert r.size == 1
        assert loss(s, r.formula) == 0


class TestTrivialPerfectFormula:
    def test_always_zero_loss(self):
        rng = random.Random(16)
        for _ in range(100):
            s = random_sample(rng, ("p0", "p1"), max_traces=8, max_len=5)
            assert loss(s, trivial_perfect_formula(s)) == 0

    def test_single_class_samples(self):
        assert trivial_perfect_formula(
            parse_sample("1\n---\n")).to_text() == "true"
        assert trivial_perfect_formula(
            parse_sample("---\n0\n")).to_text() == "false"

    def test_prefix_length_discrimination(self):
        # Same symbols, different lengths: only the length separates them.
        s = parse_sample("1;1\n---\n1\n")
        f = trivial_perfect_formula(s)
        assert loss(s, f) == 0
