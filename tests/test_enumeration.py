import random
from fractions import Fraction

import pytest

from ltlfmine.enumeration import LIMIT, Enumerator
from ltlfmine.formula import CONSTANTS
from ltlfmine.learner import resolve_omega
from ltlfmine.sample import omega_uniform, weighted_loss
from helpers import (enumerate_formulas, random_sample, reference_evaluate,
                     sat_decision)

PROPS = ("p0", "p1")


@pytest.fixture(scope="module")
def reference():
    """Formulas by size from the node-table enumeration of the helpers."""
    return {
        (("p0",), ()): enumerate_formulas(("p0",), LIMIT),
        (PROPS, ()): enumerate_formulas(PROPS, LIMIT),
        (PROPS, CONSTANTS): enumerate_formulas(PROPS, LIMIT, CONSTANTS),
    }


@pytest.mark.parametrize("props, constants", [
    (("p0",), ()),
    (PROPS, ()),
    (PROPS, CONSTANTS),
], ids=["one-prop", "two-props", "constants"])
def test_levels_match_node_table_enumeration(reference, props, constants):
    # Per size, the same formulas as decoding every node table, each once.
    sample = random_sample(random.Random(1), props, 4, 4)
    enumerator = Enumerator(sample, omega_uniform(sample), bool(constants))
    for n in range(1, LIMIT + 1):
        got = [enumerator.build(key) for key, _ in enumerator.level(n)]
        assert len(got) == len(set(got))
        assert set(got) == set(reference[props, constants].get(n, []))
        assert all(f.size == n for f in got)
    # the leaves come in the encoder's label order
    assert [enumerator.keys[f] for f in enumerator.levels[1]] \
        == [(label,) for label in props + constants]


def test_signatures_hold_every_position():
    # Each formula's signature on a multi-trace layout, bit by bit, is the
    # reference valuation at that position of that trace.
    rng = random.Random(2)
    for _ in range(4):
        sample = random_sample(rng, PROPS, 5, 6)
        traces = sample.traces()
        enumerator = Enumerator(sample, omega_uniform(sample), True)
        offsets = enumerator.layout.offsets
        for n in range(1, LIMIT):
            for key, sig in enumerator.level(n):
                f = enumerator.build(key)
                assert sig <= enumerator.layout.full
                for t, u in enumerate(traces):
                    for pos in range(len(u)):
                        assert (sig >> (offsets[t] + pos)) & 1 \
                            == reference_evaluate(f, u, pos), (f, u, pos)


@pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
def test_scaled_loss_is_weighted_loss(weights):
    rng = random.Random(3)
    for _ in range(5):
        sample = random_sample(rng, PROPS, 7, 4, require_both_classes=True)
        omega = resolve_omega(sample, random_weights(rng, sample)
                              if weights == "explicit" else weights)
        enumerator = Enumerator(sample, omega)
        for n in range(1, LIMIT):
            for key, sig in enumerator.level(n):
                assert Fraction(enumerator.loss(sig), enumerator.denominator) \
                    == weighted_loss(sample, enumerator.build(key), omega)


def random_weights(rng, sample):
    raw = {u: rng.randint(1, 5) for u in sample.traces()}
    total = sum(raw.values())
    return {u: Fraction(k, total) for u, k in raw.items()}


@pytest.mark.parametrize("constants", [(), CONSTANTS],
                         ids=["default-pool", "constants"])
@pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
@pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1, 10),
                                   Fraction(1, 4)], ids=["0", "1_10", "1_4"])
def test_enumeration_sat_and_brute_force_decide_alike(reference, constants,
                                                      weights, kappa):
    # For every n <= LIMIT: a formula of size n within kappa exists by
    # enumeration iff the SAT path finds one iff brute force does.
    formulas = reference[PROPS, constants]
    with_constants = bool(constants)
    rng = random.Random(4)
    for _ in range(8):
        sample = random_sample(rng, PROPS, 8, 5,
                               require_both_classes=weights == "rebalanced")
        omega = resolve_omega(sample, random_weights(rng, sample)
                              if weights == "explicit" else weights)
        for n in range(1, LIMIT + 1):
            enumerator = Enumerator(sample, omega, with_constants)
            for m in range(1, n):
                for _ in enumerator.level(m):
                    pass
            found = enumerator.search(n, enumerator.bound(kappa), None)
            by_enumeration = found is not None
            by_sat = sat_decision(sample, omega, with_constants, kappa,
                                  n) is not None
            by_brute_force = any(weighted_loss(sample, f, omega) <= kappa
                                 for f in formulas.get(n, []))
            assert by_enumeration == by_sat == by_brute_force, (sample, n)
            if found is not None:
                f = enumerator.build(found[0])
                assert f.size == n
                assert weighted_loss(sample, f, omega) \
                    == Fraction(found[1], enumerator.denominator) <= kappa


def test_search_counts_candidates_and_stops_at_first_hit():
    sample = random_sample(random.Random(5), PROPS, 6, 4)
    enumerator = Enumerator(sample, omega_uniform(sample))
    assert enumerator.search(1, -1, None) is None
    assert enumerator.candidates == len(PROPS)
    # Everything is within kappa 1: the first size-2 formula is taken.
    found = enumerator.search(2, enumerator.bound(Fraction(1)), None)
    assert found is not None
    assert enumerator.candidates == 1


def test_levels_must_be_generated_in_order_and_once():
    sample = random_sample(random.Random(6), PROPS, 4, 3)
    enumerator = Enumerator(sample, omega_uniform(sample))
    with pytest.raises(ValueError):
        next(enumerator.level(2))
    list(enumerator.level(1))
    with pytest.raises(ValueError):
        next(enumerator.level(1))
    assert len(list(enumerator.level(2))) == 16
