import math
import random
from fractions import Fraction

import pytest

from ltlfmine import enumeration
from ltlfmine.enumeration import CHECK_EVERY, LIMIT, Enumerator
from ltlfmine.formula import CONSTANTS, UNARY_OPS
from ltlfmine.learner import learn_minimal, resolve_omega
from ltlfmine.sample import (invert_labels, omega_uniform, parse_sample,
                             weighted_loss)
from helpers import (enumerate_formulas, random_sample, random_weights,
                     read_level, reference_evaluate, reference_signatures,
                     sat_decision)

PROPS = ("p0", "p1")
# The node-table enumeration of the helpers takes about a minute at size 5
# over two propositions, so it is the oracle up to size 4 only.
BRUTE_FORCE_SIZE = 4


def search_one(enumerator, n, bound):
    """The search for the sample's own labels: the key and scaled loss of
    its formula of size n within `bound`, or None."""
    for _, key, value in enumerator.search(n, bound, [None]):
        return key, value
    return None


@pytest.fixture(scope="module")
def reference():
    """Formulas by size from the node-table enumeration of the helpers."""
    return {
        (("p0",), ()): enumerate_formulas(("p0",), BRUTE_FORCE_SIZE),
        (PROPS, ()): enumerate_formulas(PROPS, BRUTE_FORCE_SIZE),
        (PROPS, CONSTANTS): enumerate_formulas(PROPS, BRUTE_FORCE_SIZE,
                                               CONSTANTS),
    }


def distinct_signatures(f, traces) -> dict[int, bool]:
    """Node id of `f` -> whether the subformulas of that node have
    pairwise distinct reference signatures on the traces."""
    sigs = reference_signatures(f, traces)
    below, distinct = {}, {}
    for i in range(1, f.size + 1):
        node = f.node(i)
        below[i] = {i}.union(*(below[c] for c in (node.left, node.right)
                               if c))
        distinct[i] = len({sigs[j] for j in below[i]}) == len(below[i])
    return distinct


@pytest.mark.parametrize("props, constants", [
    (("p0",), ()),
    (PROPS, ()),
    (PROPS, CONSTANTS),
], ids=["one-prop", "two-props", "constants"])
def test_levels_match_node_table_enumeration(reference, props, constants):
    # Per size, against decoding every node table: each formula whose
    # children are stored is streamed once, and exactly those whose
    # subformulas have pairwise distinct signatures are stored.
    sample = random_sample(random.Random(1), props, 4, 4)
    traces = sample.traces()
    enumerator = Enumerator(sample, omega_uniform(sample), bool(constants))
    for n in range(1, BRUTE_FORCE_SIZE + 1):
        got = [enumerator.build(key) for key, _ in read_level(enumerator, n)]
        assert len(got) == len(set(got))
        assert all(f.size == n for f in got)
        streamed, stored = set(), set()
        for f in reference[props, constants].get(n, []):
            distinct = distinct_signatures(f, traces)
            root = f.node(f.root)
            if all(distinct[c] for c in (root.left, root.right) if c):
                streamed.add(f)
                if distinct[f.root]:
                    stored.add(f)
        assert set(got) == streamed
        assert enumerator.candidates == len(streamed)
        assert {enumerator.build(enumerator.keys[i])
                for i in enumerator.levels[n]} == stored
        assert enumerator.pruned == len(streamed) - len(stored)
        if n == 2:
            # p0 & p0 is streamed, not stored
            assert enumerator.pruned > 0
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
        # sizes 1-3 apply every operator to leaves and to composite formulas
        for n in range(1, 4):
            for key, sig in read_level(enumerator, n):
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
        for n in range(1, 4):
            for key, sig in read_level(enumerator, n):
                assert Fraction(enumerator.loss(sig), enumerator.denominator) \
                    == weighted_loss(sample, enumerator.build(key), omega)


@pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
def test_scaled_weights_are_the_trace_weights(weights):
    # The integer weight w_t of every trace is its weight times D, and D
    # is the lcm of the weights' denominators.
    rng = random.Random(11)
    for _ in range(40):
        sample = random_sample(rng, PROPS, 12, 5, require_both_classes=True)
        omega = resolve_omega(sample, random_weights(rng, sample)
                              if weights == "explicit" else weights)
        enumerator = Enumerator(sample, omega)
        denominator = enumerator.denominator
        assert denominator == math.lcm(*(w.denominator
                                         for w in omega.values()))
        assert len(enumerator.weights) == sample.size
        for u, w in zip(sample.traces(), enumerator.weights):
            assert isinstance(w, int)
            assert Fraction(w, denominator) == omega[u]


@pytest.mark.parametrize("constants", [(), CONSTANTS],
                         ids=["default-pool", "constants"])
@pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
@pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1, 10),
                                   Fraction(1, 4)], ids=["0", "1_10", "1_4"])
def test_enumeration_sat_and_brute_force_decide_alike(reference, constants,
                                                      weights, kappa):
    # For every n <= LIMIT up to the first feasible one, as learn_minimal
    # asks: a formula of size n within kappa exists by enumeration iff the
    # SAT path finds one, and, up to BRUTE_FORCE_SIZE, iff brute force
    # does.  The SAT path and brute force agree at every n up to
    # BRUTE_FORCE_SIZE.  Past the first feasible size the pruned search
    # need not be exact.
    formulas = reference[PROPS, constants]
    with_constants = bool(constants)
    rng = random.Random(4)
    for _ in range(8):
        sample = random_sample(rng, PROPS, 8, 5,
                               require_both_classes=weights == "rebalanced")
        omega = resolve_omega(sample, random_weights(rng, sample)
                              if weights == "explicit" else weights)
        enumerator = Enumerator(sample, omega, with_constants)
        bound = enumerator.bound(kappa)
        found = None
        for n in range(1, LIMIT + 1):
            if found is not None and n > BRUTE_FORCE_SIZE:
                break
            by_sat = sat_decision(sample, omega, with_constants, kappa,
                                  n) is not None
            if n <= BRUTE_FORCE_SIZE:
                assert by_sat == any(weighted_loss(sample, f, omega) <= kappa
                                     for f in formulas.get(n, [])), (sample, n)
            if found is not None:
                continue
            found = search_one(enumerator, n, bound)
            assert (found is not None) == by_sat, (sample, n)
            if found is not None:
                f = enumerator.build(found[0])
                assert f.size == n
                assert weighted_loss(sample, f, omega) \
                    == Fraction(found[1], enumerator.denominator) <= kappa


class Unpruned(Enumerator):
    """The enumerator with every formula stored: no signature pruning."""

    def _keep(self, keys, sigs, stored):
        for key, sig in zip(keys, sigs):
            i = len(self.keys)
            self.keys.append(key)
            self.sigs.append(sig)
            self.subs.append(frozenset({i}.union(*(self.subs[c]
                                                   for c in key[1:]))))
            self.intern[key] = i
            stored.append(i)


@pytest.mark.parametrize("constants", [(), CONSTANTS],
                         ids=["default-pool", "constants"])
@pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
def test_pruning_finds_the_unpruned_formula(constants, weights):
    # Size by size up to the first feasible one, the pruned and the
    # unpruned search decide alike and take the same formula, by text:
    # ids differ once formulas are pruned.  The pruned one tries no more,
    # and on some sample stores fewer: else the two would be one search.
    with_constants = bool(constants)
    rng = random.Random(8)
    stored_fewer = False
    for kappa in (Fraction(0), Fraction(1, 10), Fraction(1, 4)) * 2:
        sample = random_sample(rng, PROPS, 10, 6,
                               require_both_classes=weights == "rebalanced")
        omega = resolve_omega(sample, random_weights(rng, sample)
                              if weights == "explicit" else weights)
        pruned = Enumerator(sample, omega, with_constants)
        unpruned = Unpruned(sample, omega, with_constants)
        bound = pruned.bound(kappa)
        for n in range(1, LIMIT + 1):
            found = search_one(pruned, n, bound)
            expected = search_one(unpruned, n, bound)
            assert pruned.candidates <= unpruned.candidates
            stored_fewer |= len(pruned.keys) < len(unpruned.keys)
            assert (found is None) == (expected is None), (sample, n)
            if found is not None:
                assert pruned.build(found[0]).to_text() \
                    == unpruned.build(expected[0]).to_text(), (sample, n)
                assert found[1] == expected[1]
                break
    assert stored_fewer


@pytest.mark.parametrize("order", ["pairs", "second-child", "shuffled"])
def test_store_prunes_each_formula_on_its_own(order):
    # However a run of formulas is ordered, each is stored exactly when
    # its subformulas, its own id included, have pairwise distinct
    # signatures.  Sorting by the second child puts pairs with one second
    # child and different first children side by side.
    rng = random.Random(21)
    for _ in range(4):
        sample = random_sample(rng, PROPS, 8, 5, require_both_classes=True)
        enumerator = Enumerator(sample, omega_uniform(sample))
        for n in range(1, 4):
            read_level(enumerator, n)
        subs, sigs = enumerator.subs, enumerator.sigs
        formulas = [item for keys, values in enumerator._chunks(4)
                    for item in zip(keys, values)]
        if order == "second-child":
            formulas.sort(key=lambda item: item[0][2:] + item[0][1:2])
        elif order == "shuffled":
            rng.shuffle(formulas)
        expected = []
        for key, sig in formulas:
            sub = frozenset().union(*(subs[c] for c in key[1:]))
            if len({sig, *(sigs[i] for i in sub)}) == len(sub) + 1:
                expected.append(key)
        enumerator.pruned = 0
        stored = []
        enumerator._keep([key for key, _ in formulas],
                         [sig for _, sig in formulas], stored)
        assert [enumerator.keys[i] for i in stored] == expected
        assert enumerator.pruned == len(formulas) - len(expected) > 0


def one_at_a_time(enumerator, n, bound):
    """The reference search: the formulas of level n in `_chunks` order,
    `loss` for each in turn.  The first one within `bound` and its scaled
    loss, or None, then the formulas tried and pruned up to it.  Also
    checks, for every formula, the prefilter's bound w_min * count <=
    loss."""
    w_min = min(enumerator.weights)
    formulas = read_level(enumerator, n)
    losses = [enumerator.loss(sig) for _, sig in formulas]
    for (_, sig), value in zip(formulas, losses):
        wrong = (sig ^ enumerator.positives) & enumerator.layout.first
        assert w_min * wrong.bit_count() <= value
    hit = next((i for i, value in enumerate(losses) if value <= bound), None)
    tried = len(formulas) if hit is None else hit + 1
    pruned = 0
    if n < LIMIT:
        stored = {enumerator.keys[i] for i in enumerator.levels[n]}
        pruned = sum(key not in stored for key, _ in formulas[:tried])
    found = None if hit is None else (formulas[hit][0], losses[hit])
    return found, tried, pruned


@pytest.mark.parametrize("chunk", [1, 3, CHECK_EVERY])
@pytest.mark.parametrize("constants", [(), CONSTANTS],
                         ids=["default-pool", "constants"])
@pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
def test_chunked_search_matches_one_at_a_time(monkeypatch, chunk, constants,
                                              weights):
    # Size by size up to the first feasible one, the chunked search takes
    # the formula, loss and counts of the one-at-a-time reference, with
    # chunks of 1 and 3 putting hits on chunk boundaries.
    monkeypatch.setattr(enumeration, "CHECK_EVERY", chunk)
    with_constants = bool(constants)
    rng = random.Random(9)
    for kappa in (Fraction(0), Fraction(1, 10), Fraction(1, 4)) * 2:
        sample = random_sample(rng, PROPS, 8, 5,
                               require_both_classes=weights == "rebalanced")
        omega = resolve_omega(sample, random_weights(rng, sample)
                              if weights == "explicit" else weights)
        chunked = Enumerator(sample, omega, with_constants)
        reference = Enumerator(sample, omega, with_constants)
        bound = chunked.bound(kappa)
        for n in range(1, LIMIT + 1):
            found = search_one(chunked, n, bound)
            expected, tried, pruned = one_at_a_time(reference, n, bound)
            assert (chunked.candidates, chunked.pruned) == (tried, pruned), \
                (sample, n)
            assert (found is None) == (expected is None), (sample, n)
            if found is not None:
                assert chunked.build(found[0]).to_text() \
                    == reference.build(expected[0]).to_text(), (sample, n)
                assert found[1] == expected[1]
                break


@pytest.mark.parametrize("chunk", [1, 3, CHECK_EVERY])
@pytest.mark.parametrize("constants", [(), CONSTANTS],
                         ids=["default-pool", "constants"])
@pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
def test_both_polarities_match_one_at_a_time(monkeypatch, chunk, constants,
                                             weights):
    # One search over both polarities: at each polarity's hit, and at the
    # end of a level neither hit, the formula, loss and counts are those
    # of the one-at-a-time reference on the sample (polarity 0) or on
    # its label inversion (polarity 1); a level only one polarity hit is
    # completed for the other.
    monkeypatch.setattr(enumeration, "CHECK_EVERY", chunk)
    with_constants = bool(constants)
    rng = random.Random(11)
    for kappa in (Fraction(0), Fraction(1, 10), Fraction(1, 4)) * 2:
        sample = random_sample(rng, PROPS, 8, 5,
                               require_both_classes=weights == "rebalanced")
        omega = resolve_omega(sample, random_weights(rng, sample)
                              if weights == "explicit" else weights)
        both = Enumerator(sample, omega, with_constants)
        references = [Enumerator(sample, omega, with_constants),
                      Enumerator(invert_labels(sample), omega, with_constants)]
        bound = both.bound(kappa)
        waiting = [0, 1]
        for n in range(1, LIMIT + 1):
            got = {p: (both.build(key).to_text(), value, both.candidates,
                       both.pruned)
                   for p, key, value in both.search(n, bound, [None, None],
                                                    tuple(waiting))}
            for p in tuple(waiting):
                reference = references[p]
                expected, tried, pruned = one_at_a_time(reference, n, bound)
                if expected is None:
                    assert p not in got, (sample, n, p)
                    assert (both.candidates, both.pruned) == (tried, pruned)
                    continue
                assert got[p] == (reference.build(expected[0]).to_text(),
                                  expected[1], tried, pruned), (sample, n, p)
                waiting.remove(p)
            if not waiting:
                break


def test_chunks_are_level_order_cut_at_check_every(monkeypatch):
    # Level 1 (four leaves) and each unary operator's chunks are cut too.
    # Cut into chunks of 3, a level is the one a second enumerator reads
    # with chunks larger than the level.
    sample = random_sample(random.Random(10), PROPS, 5, 4)
    enumerator = Enumerator(sample, omega_uniform(sample), True)
    uncut = Enumerator(sample, omega_uniform(sample), True)
    for n in range(1, 4):
        monkeypatch.setattr(enumeration, "CHECK_EVERY", 3)
        chunks = list(enumerator._chunks(n))
        assert all(1 <= len(keys) == len(sigs) <= 3 for keys, sigs in chunks)
        streamed = [(key, sig) for keys, sigs in chunks
                    for key, sig in zip(keys, sigs)]
        read_level(enumerator, n)
        monkeypatch.setattr(enumeration, "CHECK_EVERY", len(streamed) + 1)
        assert read_level(uncut, n) == streamed
        if n > 1:
            # each unary operator starts a chunk of its own
            starts = [keys[0][0] for keys, _ in chunks]
            assert all(op in starts for op in UNARY_OPS)


def test_dag_sharing_decides_the_minimal_size():
    # X p0 and X p1 have one signature on this sample.  p1 & (X p1), p1
    # shared, has size 3 and classifies it; p1 & (X p0) has size 4.  So
    # two different formulas of one signature must both be stored.
    sample = parse_sample("alphabet: p0,p1\n0,1;1,1\n---\n"
                          "0,1;0,0\n0,0;1,1\n1,1\n")
    omega = omega_uniform(sample)
    for n in (1, 2):
        assert sat_decision(sample, omega, False, Fraction(0), n) is None
    result = learn_minimal(sample)
    assert (result.size, result.achieved_loss) == (3, 0)
    assert result.formula.to_text() == "(p1 & (X p1))"


def test_search_counts_candidates_and_stops_at_first_hit():
    sample = random_sample(random.Random(5), PROPS, 6, 4)
    enumerator = Enumerator(sample, omega_uniform(sample))
    assert search_one(enumerator, 1, -1) is None
    assert enumerator.candidates == len(PROPS)
    # Everything is within kappa 1: the first size-2 formula is taken.
    found = search_one(enumerator, 2, enumerator.bound(Fraction(1)))
    assert found is not None
    assert enumerator.candidates == 1


def test_levels_must_be_generated_in_order_and_once():
    sample = random_sample(random.Random(6), PROPS, 4, 3)
    enumerator = Enumerator(sample, omega_uniform(sample))
    with pytest.raises(ValueError):
        read_level(enumerator, 2)
    read_level(enumerator, 1)
    with pytest.raises(ValueError):
        read_level(enumerator, 1)
    assert len(read_level(enumerator, 2)) == 16
