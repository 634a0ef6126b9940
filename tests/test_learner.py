import logging
import random
import time
from fractions import Fraction

import pytest

from ltlfmine import encoding, enumeration, learner, maxsat
from ltlfmine.bench import GenSpec, generate_sample
from ltlfmine.dtree import DtConfig
from ltlfmine.encoding import EncodingInstance
from ltlfmine.formula import parse_formula
from ltlfmine.learner import (LearnConfig, SIZE_CAP, SOLVED, TIMED_OUT,
                              learn_minimal, resolve_omega)
from ltlfmine.sample import (invert_labels, omega_rebalanced,
                             omega_uniform, parse_sample, weighted_loss)
from ltlfmine.sat import SolveTimeout
from ltlfmine.sat import SatSolver
from helpers import (brute_minimal_size, decide, enumerate_formulas,
                     random_sample, random_weights, read_level, sat_decision,
                     sat_minimal)


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
        assert weighted_loss(s, r.formula, omega_uniform(s)) == 0

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

    @pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1, 10)],
                             ids=["exact", "relaxed"])
    def test_timeout_checked_before_encoding(self, monkeypatch, kappa):
        built = []
        real = learner.Encoding
        monkeypatch.setattr(
            learner, "Encoding",
            lambda *args: built.append(args) or real(*args))
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        r = learn_minimal(s, LearnConfig(kappa=kappa, timeout=0))
        assert r.status == TIMED_OUT
        assert built == []
        assert r.iterations == []

    def test_timeout_between_counterexample_rounds(self, monkeypatch):
        # The first candidate at size 1 misclassifies a trace outside T;
        # the clock jumps past the deadline while its misclassified traces
        # are read, so the decision must stop before it solves again.
        # Sizes up to enumeration.LIMIT never reach SAT in learn_minimal,
        # so this and the next test call the SAT decisions directly.
        s = parse_sample("0,0;0,1\n0,1;0,0\n---\n0,0\n0,0;0,0\n")
        deadline = time.monotonic() + 60
        real_clock = time.monotonic
        offset = [0.0]
        real_read = learner._misclassified

        def late_read(*args):
            offset[0] = 3600.0
            return real_read(*args)

        monkeypatch.setattr(time, "monotonic",
                            lambda: real_clock() + offset[0])
        monkeypatch.setattr(learner, "_misclassified", late_read)
        record = {"size": 1, "status": "timeout"}
        with pytest.raises(SolveTimeout):
            sat_decision(s, omega_uniform(s), False, Fraction(0), 1,
                         deadline=deadline, record=record)
        assert (record["size"], record["status"], record["rounds"]) \
            == (1, "timeout", 1)

    def test_iterations_record_ascending_sizes(self):
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        for kappa in (Fraction(0), Fraction(1, 10), Fraction(1, 4)):
            size, _, _, records = sat_minimal(s, omega_uniform(s), kappa, 40)
            sizes = [it["size"] for it in records]
            assert sizes == list(range(1, size + 1))
            assert all(it["status"] == "infeasible" for it in records[:-1])
            assert records[-1]["status"] == "feasible"
            encoded = [it["traces_encoded"] for it in records]
            rounds = [it["rounds"] for it in records]
            # Uniform weights scale to 1 each, over D = 4: the loss budget
            # floor(kappa * 4) is below every weight at kappa 0 and 1/10.
            if kappa * s.size < 1:
                # T only grows, by one trace per extra round.
                assert encoded == sorted(encoded)
                assert encoded[-1] <= s.size
                assert all(k >= 1 for k in rounds)
                assert sum(rounds) == len(rounds) + encoded[-1]
            else:
                assert encoded == [s.size] * len(sizes)
                assert rounds == [1] * len(sizes)

    @staticmethod
    def late_after_first_chunk(monkeypatch, size):
        """Jump the clock an hour once the first chunk of `size` has been
        searched, when the search asks for the next one."""
        real_clock = time.monotonic
        offset = [0.0]
        real_chunks = enumeration.Enumerator._chunks

        def late_chunks(self, n):
            for chunk in real_chunks(self, n):
                yield chunk
                if n == size:
                    offset[0] = 3600.0

        monkeypatch.setattr(time, "monotonic",
                            lambda: real_clock() + offset[0])
        monkeypatch.setattr(enumeration.Enumerator, "_chunks", late_chunks)

    def test_timeout_during_enumeration(self, monkeypatch):
        # The clock jumps past the deadline after the first chunk, one
        # candidate; the check before the next chunk stops the size-1 pass.
        s = parse_sample("0,0;0,1\n0,1;0,0\n---\n0,0\n0,0;0,0\n")
        self.late_after_first_chunk(monkeypatch, 1)
        monkeypatch.setattr(enumeration, "CHECK_EVERY", 1)
        r = learn_minimal(s, LearnConfig(timeout=60))
        assert r.status == TIMED_OUT
        assert r.formula is None
        assert [(it["size"], it["status"], it["candidates"])
                for it in r.iterations] == [(1, "timeout", 1)]

    def test_timeout_inside_the_streamed_level(self, monkeypatch):
        # The deadline passes after the first size-5 chunk: the search
        # stops there, part of the way through the level.
        sample = universality2_sample()
        full = enumeration.Enumerator(sample, omega_uniform(sample))
        for n in range(1, 5):
            read_level(full, n)
        level_five = len(read_level(full, 5))
        self.late_after_first_chunk(monkeypatch, 5)
        r = learn_minimal(sample, LearnConfig(timeout=60))
        assert r.status == TIMED_OUT
        last = r.iterations[-1]
        assert (last["size"], last["status"]) == (5, "timeout")
        assert 0 < last["candidates"] < level_five

    def test_records_name_the_decision(self, caplog):
        # Sizes up to enumeration.LIMIT are enumerated: candidates counted,
        # no trace encoded.
        s = parse_sample("0,0;0,1\n0,1;0,0\n---\n0,0\n0,0;0,0\n")
        for kappa in (Fraction(0), Fraction(1, 10)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="ltlfmine.learner"):
                r = learn_minimal(s, LearnConfig(kappa=kappa))
            assert r.status == SOLVED
            assert r.size <= enumeration.LIMIT
            assert all(it["decision"] == "enumerated"
                       and it["candidates"] > 0 and it["traces_encoded"] == 0
                       and it["rounds"] == 0 for it in r.iterations)
            logged = [rec for rec in caplog.records
                      if rec.name == "ltlfmine.learner"]
            assert len(logged) == len(r.iterations)
            assert all(rec.levelno == logging.DEBUG
                       and "(enumerated)" in rec.getMessage()
                       for rec in logged)

    def test_size_five_is_enumerated(self):
        # The learn-exact benchmark's universality2@20 sample needs size 5,
        # the last size enumeration decides: no trace reaches SAT.
        r = learn_minimal(universality2_sample())
        assert (r.status, r.size, r.achieved_loss) == (SOLVED, 5, 0)
        assert [it["size"] for it in r.iterations] == [1, 2, 3, 4, 5]
        assert all(it["candidates"] > 0 and it["traces_encoded"] == 0
                   and it["rounds"] == 0 for it in r.iterations)

    def test_records_count_the_pruned_formulas(self, monkeypatch, caplog):
        # Over four propositions, levels 3 and 4 are built from the
        # pruned levels below them, and each drops formulas of its own.
        # Size 5 stores nothing only while it is the last enumerated size.
        monkeypatch.setattr(enumeration, "LIMIT", 5)
        with caplog.at_level(logging.DEBUG, logger="ltlfmine.learner"):
            r = learn_minimal(universality2_sample())
        _, _, three, four, five = r.iterations
        assert (three["candidates"], four["candidates"]) == (368, 5600)
        assert three["pruned"] > 0 and four["pruned"] > 0
        # size 5 is streamed and stored for no later size
        assert five["pruned"] == 0
        logged = [rec.getMessage() for rec in caplog.records
                  if rec.name == "ltlfmine.learner"]
        assert f"{four['pruned']} pruned" in logged[3]

    def test_size_six_is_handed_to_sat(self, monkeypatch, caplog):
        # Size 6 reaches SAT only past a LIMIT of 5.
        monkeypatch.setattr(enumeration, "LIMIT", 5)
        s = size_six_sample()
        for kappa in (Fraction(0), Fraction(1, 40)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="ltlfmine.learner"):
                r = learn_minimal(s, LearnConfig(kappa=kappa))
            assert r.status == SOLVED
            assert r.size == 6
            assert r.achieved_loss <= kappa
            assert weighted_loss(s, r.formula, omega_uniform(s)) \
                == r.achieved_loss
            assert [it["size"] for it in r.iterations] == [1, 2, 3, 4, 5, 6]
            assert [it["decision"] for it in r.iterations] \
                == ["enumerated"] * 5 + ["sat"]
            enumerated, last = r.iterations[:5], r.iterations[5]
            assert all(it["status"] == "infeasible" and it["candidates"] > 0
                       for it in enumerated)
            assert last["status"] == "feasible"
            assert last["candidates"] == 0
            assert last["traces_encoded"] > 0 and last["rounds"] >= 1
            logged = [rec.getMessage() for rec in caplog.records
                      if rec.name == "ltlfmine.learner"]
            assert ["(sat)" in line for line in logged] \
                == [False] * 5 + [True]

    def test_relaxed_size_six_decides_on_the_learners_solver(
            self, monkeypatch):
        # kappa 1/40 on 20 traces of weight 1/20: D = 20 and the loss
        # budget floor(20 / 40) = 0 is below every weight, so no trace may
        # be misclassified.  Each round is one maxsat.solve_decision with
        # nothing counted, target 0 and the root literals of T, in the
        # order its traces joined, assumed; no WCNF instance is built.
        # Size 6 reaches SAT only past a LIMIT of 5.
        monkeypatch.setattr(enumeration, "LIMIT", 5)
        monkeypatch.setattr(encoding.EncodingInstance, "__init__", refuse)
        instances, added = [], []

        class Recording(learner.Encoding):
            def __init__(self, *args):
                super().__init__(*args)
                instances.append(self)

            def add_traces(self, ts):
                ts = list(ts)
                added.extend(ts)
                super().add_traces(ts)

        monkeypatch.setattr(learner, "Encoding", Recording)
        calls = record_decisions(monkeypatch)
        r = learn_minimal(size_six_sample(),
                          LearnConfig(kappa=Fraction(1, 40)))
        assert (r.status, r.size, r.achieved_loss) == (SOLVED, 6, 0)
        last = r.iterations[-1]
        assert last["rounds"] == len(calls) == len(added) + 1
        assert last["traces_encoded"] == len(added)
        # sizes 1-5 are enumerated: one instance, of size 6
        [instance] = instances
        for k, (solver, softs, target, assumptions) in enumerate(calls):
            assert solver is instance.sink
            assert (softs, target) == ([], 0)
            assert assumptions == [instance.root_literal(t)
                                   for t in added[:k]]

    def test_counted_size_six_is_one_decision(self, monkeypatch):
        # 12 traces of weight 1/12 at kappa 1/12: D = 12 and the loss
        # budget 1 allows one misclassified trace, so every trace is
        # counted with weight 1 and the target is 12 - 1 = 11.
        # Size 6 reaches SAT only past a LIMIT of 5.
        monkeypatch.setattr(enumeration, "LIMIT", 5)
        s = generate_sample(GenSpec("absence3", num_traces=12,
                                    max_trace_length=4, seed=0))
        assert s.size == 12
        monkeypatch.setattr(encoding.EncodingInstance, "__init__", refuse)
        calls = record_decisions(monkeypatch)
        r = learn_minimal(s, LearnConfig(kappa=Fraction(1, 12)))
        assert (r.status, r.size) == (SOLVED, 6)
        assert r.achieved_loss <= Fraction(1, 12)
        assert weighted_loss(s, r.formula, omega_uniform(s)) \
            == r.achieved_loss
        assert len(calls) == 1
        solver, softs, target, assumptions = calls[0]
        assert isinstance(solver, SatSolver)
        assert [w for _, w in softs] == [1] * 12 and target == 11
        assert assumptions == []
        assert r.iterations[-1]["traces_encoded"] == 12

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

    def test_explicit_weights_must_cover_the_sample(self):
        s = parse_sample("1\n---\n0\n")
        u, v = s.traces()
        for weights in ({u: Fraction(1)},
                        {u: Fraction(1, 2), v: Fraction(1, 4),
                         (frozenset(), frozenset()): Fraction(1, 4)}):
            with pytest.raises(ValueError, match="domain"):
                resolve_omega(s, weights)
            with pytest.raises(ValueError, match="domain"):
                learn_minimal(s, LearnConfig(weights=weights))

    def test_explicit_weights_must_sum_to_one(self):
        s = parse_sample("1\n---\n0\n")
        with pytest.raises(ValueError, match="sum"):
            resolve_omega(s, {u: Fraction(1, 3) for u in s.traces()})

    def test_unknown_weights_name_rejected(self):
        s = parse_sample("1\n---\n0\n")
        with pytest.raises(ValueError, match="'uniform', 'rebalanced'"):
            learn_minimal(s, LearnConfig(weights="rebalance"))

    def test_float_weights_become_exact_fractions(self):
        # 0.25 is a binary fraction, so the loss is exactly 1/2; 0.3 and
        # 0.7 are not, and their exact values do not sum to 1.
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        quarter = {u: 0.25 for u in s.traces()}
        assert resolve_omega(s, quarter) == {u: Fraction(1, 4)
                                             for u in s.traces()}
        r = learn_minimal(s, LearnConfig(kappa=Fraction(1, 2),
                                         weights=quarter, max_size=1))
        assert r.status == SOLVED
        assert type(r.achieved_loss) is Fraction
        assert r.achieved_loss == Fraction(1, 2)
        pair = parse_sample("1\n---\n0\n")
        u, v = pair.traces()
        with pytest.raises(ValueError, match="sum to exactly 1"):
            learn_minimal(pair, LearnConfig(weights={u: 0.3, v: 0.7}))

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            LearnConfig(kappa=Fraction(3, 2))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    @pytest.mark.parametrize("field", ["kappa", "dt_kappa", "min_score",
                                       "weight"])
    def test_non_finite_values_are_value_errors(self, field, value):
        # Fraction(inf) raises OverflowError, not the ValueError that
        # every other out-of-range value raises.
        s = parse_sample("1\n---\n0\n")
        u, v = s.traces()
        build = {"kappa": lambda: LearnConfig(kappa=value),
                 "dt_kappa": lambda: DtConfig(kappa=value),
                 "min_score": lambda: DtConfig(min_score=value),
                 "weight": lambda: resolve_omega(s, {u: value, v: 0.5})}
        with pytest.raises(ValueError):
            build[field]()

    @pytest.mark.parametrize("max_size", [2.5, 0])
    def test_max_size_must_be_a_positive_integer(self, max_size):
        # A float size would only fail later, in range() at the first size.
        with pytest.raises(ValueError, match="max_size"):
            LearnConfig(max_size=max_size)

    @pytest.mark.parametrize("timeout", [float("nan"), -1.0])
    def test_timeout_must_be_none_or_nonnegative(self, timeout):
        # time.monotonic() >= deadline is never true for a NaN deadline.
        with pytest.raises(ValueError, match="timeout"):
            LearnConfig(timeout=timeout)

    def test_constant_pool_single_class(self):
        s = parse_sample("1\n0\n---\n")
        r = learn_minimal(s, LearnConfig(with_constants=True))
        assert r.status == SOLVED
        assert r.size == 1
        assert weighted_loss(s, r.formula, omega_uniform(s)) == 0


def refuse(*args, **kwargs):
    raise AssertionError("the learner built an EncodingInstance")


def record_decisions(monkeypatch):
    """Wrap `maxsat.solve_decision`, where the learner looks it up; the
    returned list gets (solver, softs, target, assumptions) per call,
    copied when the call is made."""
    calls = []
    real = maxsat.solve_decision

    def decide(solver, softs, target, deadline=None, assumptions=()):
        calls.append((solver, list(softs), target, list(assumptions)))
        return real(solver, softs, target, deadline=deadline,
                    assumptions=assumptions)

    monkeypatch.setattr(maxsat, "solve_decision", decide)
    return calls


def universality2_sample():
    # The learn-exact benchmark's sample: minimal size 5 at kappa 0.
    return generate_sample(GenSpec("universality2", num_traces=20, seed=0))


def size_six_sample():
    # 20 traces of absence3 up to length 6: no formula of size <= 5
    # separates them.
    return generate_sample(GenSpec("absence3", num_traces=20,
                                   max_trace_length=6, seed=0))


def outcome(result):
    """What a search decided, its per-size records without their times."""
    records = [{k: v for k, v in it.items() if k != "seconds"}
               for it in result.iterations]
    text = result.formula and result.formula.to_text()
    return result.status, text, result.size, result.achieved_loss, records


class TestInverse:
    """`learn_minimal(sample, config, inverse=True)` searches both label
    polarities in one pass; each must come out as its own call would."""

    @pytest.mark.parametrize("chunk", [1, enumeration.CHECK_EVERY])
    @pytest.mark.parametrize("limit", [enumeration.LIMIT, 2],
                             ids=["enumerated", "sat-past-2"])
    @pytest.mark.parametrize("constants", [False, True],
                             ids=["default-pool", "constants"])
    def test_one_pass_matches_two_calls(self, monkeypatch, chunk, limit,
                                        constants):
        # Against learn_minimal on the sample and on its inversion, under
        # rebalanced weights: formula text, loss, status and the per-size
        # records.  Past a LIMIT of 2 the larger sizes are SAT decisions.
        # A sample whose polarities differ in size runs again with the
        # size cap at the smaller one, so the other is capped.
        monkeypatch.setattr(enumeration, "CHECK_EVERY", chunk)
        monkeypatch.setattr(enumeration, "LIMIT", limit)
        rng = random.Random(43)
        seen = set()
        for _ in range(15):
            s = random_sample(rng, ("p0", "p1"), 6, 4,
                              require_both_classes=True)
            kappa = rng.choice([Fraction(0), Fraction(1, 10), Fraction(1, 4)])
            caps = [40]
            while caps:
                config = LearnConfig(kappa=kappa, weights="rebalanced",
                                     with_constants=constants,
                                     max_size=caps.pop())
                both = learn_minimal(s, config, inverse=True)
                first = learn_minimal(s, config)
                assert outcome(both) == outcome(first), s
                if first.status != SOLVED:
                    assert both.inverse is None
                    seen.add("polarity 0 capped")
                    continue
                second = learn_minimal(invert_labels(s), config)
                assert outcome(both.inverse) == outcome(second), s
                if second.status != SOLVED:
                    seen.add("polarity 1 capped")
                elif second.size != first.size and config.max_size == 40:
                    seen.add("sizes differ")
                    caps.append(min(first.size, second.size))
                if max(first.size, second.size or 0) > limit:
                    seen.add("past LIMIT")
        expected = {"polarity 0 capped", "polarity 1 capped", "sizes differ"}
        if limit < enumeration.LIMIT:
            expected.add("past LIMIT")
        assert seen >= expected

    @pytest.mark.parametrize("late, status", [(20.0, SOLVED),
                                              (70.0, TIMED_OUT)])
    def test_inversion_budget_starts_when_the_sample_is_solved(
            self, monkeypatch, late, status):
        # p0 classifies the sample at size 1; its inversion needs (! p0),
        # size 2.  The clock jumps 50 s while p0 is checked and `late`
        # seconds more as size 2 starts: the inversion's 60 s budget runs
        # from p0's solution, not from the start.
        s = parse_sample("1\n---\n0\n")
        real_clock = time.monotonic
        offset = [0.0]
        real_read = learner._misclassified
        real_chunks = enumeration.Enumerator._chunks

        def late_read(*args):
            offset[0] += 50.0
            return real_read(*args)

        def late_chunks(self, n):
            if n == 2:
                offset[0] += late
            yield from real_chunks(self, n)

        monkeypatch.setattr(time, "monotonic",
                            lambda: real_clock() + offset[0])
        monkeypatch.setattr(learner, "_misclassified", late_read)
        monkeypatch.setattr(enumeration.Enumerator, "_chunks", late_chunks)
        r = learn_minimal(s, LearnConfig(timeout=60), inverse=True)
        assert (r.status, r.formula.to_text()) == (SOLVED, "p0")
        assert r.inverse.status == status
        if status == SOLVED:
            assert r.inverse.formula.to_text() == "(! p0)"

    def test_inversion_is_not_decided_past_a_failed_search(self,
                                                           monkeypatch):
        # Every size is a SAT decision (LIMIT 0).  When the sample's
        # search hits the size cap its inversion is neither built nor
        # searched; when it is solved the inversion is built once.
        inverted = []
        monkeypatch.setattr(enumeration, "LIMIT", 0)
        monkeypatch.setattr(learner, "invert_labels",
                            lambda s: inverted.append(s) or invert_labels(s))
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        r = learn_minimal(s, LearnConfig(max_size=1), inverse=True)
        assert (r.status, r.inverse, inverted) == (SIZE_CAP, None, [])
        r = learn_minimal(parse_sample("1\n---\n0\n"), inverse=True)
        assert (r.formula.to_text(), r.inverse.formula.to_text()) \
            == ("p0", "(! p0)")
        assert [it["decision"] for it in r.inverse.iterations] \
            == ["sat", "sat"]
        assert len(inverted) == 1

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("polarity", [0, 1])
    def test_scaled_loss_off_by_one_is_an_enumerator_bug(self, monkeypatch,
                                                         polarity, delta):
        # p0, the first formula, misclassifies 2 of the 4 traces on either
        # polarity: scaled loss 2 of D = 4.  The re-check sums the weights
        # of the traces `truth` misclassifies, so an enumerator that is
        # one off for either polarity fails it, kappa 1 or not.
        s = parse_sample("1,0;1,1\n0,1\n---\n0,0\n1,0\n")
        config = LearnConfig(kappa=1)
        r = learn_minimal(s, config, inverse=True)
        for result in (r, r.inverse):
            assert (result.formula.to_text(), result.achieved_loss) \
                == ("p0", Fraction(1, 2))
        search = enumeration.Enumerator.search

        def off_by_one(self, n, bound, deadlines, polarities=(0,)):
            for p, key, value in search(self, n, bound, deadlines,
                                        polarities):
                yield p, key, value + delta if p == polarity else value

        monkeypatch.setattr(enumeration.Enumerator, "search", off_by_one)
        claimed = Fraction(2 + delta, 4)
        with pytest.raises(RuntimeError, match=f"has loss 1/2, not {claimed} "
                           ".*enumerator bug"):
            learn_minimal(s, config, inverse=True)


class TestSatGuards:
    """Each check on a SAT-found formula raises `RuntimeError` when the
    solver, the decoder or the loss reader is wrong."""

    @pytest.mark.parametrize("delta", [1, -1])
    def test_counted_weight_off_by_one(self, monkeypatch, delta):
        # At kappa 1/2 two of the four traces may be misclassified, so
        # every trace is counted and the decision reports the satisfied
        # weight, which must match the formula's own loss.
        s = parse_sample("1,0;1,1\n0,1\n---\n0,0\n1,0\n")
        solve = maxsat.solve_decision

        def off_by_one(*args, **kwargs):
            result = solve(*args, **kwargs)
            if result.status == maxsat.FEASIBLE:
                result.weight += delta
            return result

        assert sat_decision(s, omega_uniform(s), False, Fraction(1, 2), 1) \
            is not None
        monkeypatch.setattr(maxsat, "solve_decision", off_by_one)
        with pytest.raises(RuntimeError, match="loss"):
            sat_decision(s, omega_uniform(s), False, Fraction(1, 2), 1)

    def test_decoded_formula_misclassifies_an_encoded_trace(self,
                                                            monkeypatch):
        # T holds the positive trace; a decoder that returns (! p0)
        # misclassifies it.
        s = parse_sample("1\n---\n0\n")
        monkeypatch.setattr(encoding.Encoding, "decode_model",
                            lambda self, assignment: parse_formula("(! p0)"))
        with pytest.raises(RuntimeError, match="misclassifies an encoded "
                                               "trace"):
            sat_decision(s, omega_uniform(s), False, Fraction(0), 1, [0])

    def test_hard_unsat_is_an_encoder_bug(self, monkeypatch):
        s = parse_sample("1\n---\n0\n")
        monkeypatch.setattr(
            maxsat, "solve_decision",
            lambda *args, **kwargs: maxsat.MaxSatSolution(maxsat.HARD_UNSAT))
        for kappa in (Fraction(0), Fraction(1, 2)):
            with pytest.raises(RuntimeError, match="hard constraints "
                                                   "unsatisfiable"):
                sat_decision(s, omega_uniform(s), False, kappa, 1)

    def test_wrong_loss_of_an_inverted_formula(self, monkeypatch):
        # Every size is a SAT decision (LIMIT 0), and kappa 1/4 counts
        # every trace.  Once the inverted sample is built, the sample's
        # evaluation reads trace 0 wrong, so the loss of the formula SAT
        # finds for the inversion disagrees with the solver's.
        s = parse_sample("1,0;1,1\n0,1\n---\n0,0\n1,0\n")
        config = LearnConfig(kappa=Fraction(1, 4))
        monkeypatch.setattr(enumeration, "LIMIT", 0)
        r = learn_minimal(s, config, inverse=True)
        assert (r.status, r.inverse.status) == (SOLVED, SOLVED)
        armed = []
        monkeypatch.setattr(learner, "invert_labels",
                            lambda s: armed.append(s) or invert_labels(s))
        truth = type(s).truth

        def misread(self, formula):
            values = truth(self, formula)
            return [1 - values[0]] + values[1:] if armed else values

        monkeypatch.setattr(type(s), "truth", misread)
        with pytest.raises(RuntimeError, match="loss"):
            learn_minimal(s, config, inverse=True)
        assert len(armed) == 1


class TestExactPath:
    """kappa = 0 encodes a growing subset T of the traces into one SAT
    solver per size; its answers must match the full MaxSAT instance.
    Sizes up to `enumeration.LIMIT` never reach SAT in `learn_minimal`,
    so these tests call the per-size decisions directly."""

    @pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
    def test_matches_first_feasible_full_instance(self, weights):
        rng = random.Random(17)
        for _ in range(20):
            s = random_sample(rng, ("p0", "p1"), max_traces=6, max_len=4,
                              require_both_classes=weights == "rebalanced")
            w = random_weights(rng, s) if weights == "explicit" else weights
            omega = resolve_omega(s, w)
            expected = None
            for n in range(1, 5):
                inst = EncodingInstance(n, s, omega)
                if decide(inst.wcnf, Fraction(1)).status == maxsat.FEASIBLE:
                    expected = n
                    break
            size, formula, achieved, records = sat_minimal(
                s, omega, Fraction(0), 4)
            if expected is None:
                assert size is None
                assert len(records) == 4
            else:
                assert size == expected
                assert formula.size == expected
                assert achieved == 0
                assert weighted_loss(s, formula, omega) == 0

    @pytest.mark.parametrize("weights", ["uniform", "rebalanced", "explicit"])
    def test_budget_below_every_weight_matches_full_instance(self, weights):
        # At a kappa just below the smallest trace weight no trace may be
        # misclassified, so kappa > 0 takes the T-growing decisions; each
        # size must be decided as the full MaxSAT instance decides it,
        # and learn_minimal must return the kappa-0 size and loss.
        rng = random.Random(17)
        for _ in range(20):
            s = random_sample(rng, ("p0", "p1"), max_traces=6, max_len=4,
                              require_both_classes=weights == "rebalanced")
            w = random_weights(rng, s) if weights == "explicit" else weights
            omega = resolve_omega(s, w)
            kappa = min(omega.values()) * Fraction(999, 1000)
            encoded = []
            for n in range(1, 5):
                inst = EncodingInstance(n, s, omega)
                expected = decide(inst.wcnf, 1 - kappa).status
                found = sat_decision(s, omega, False, kappa, n, encoded)
                assert (found is not None) == (expected == maxsat.FEASIBLE)
                if found is not None:
                    formula, achieved = found
                    assert achieved == 0
                    assert weighted_loss(s, formula, omega) == 0
            exact = learn_minimal(s, LearnConfig(weights=w, max_size=6))
            relaxed = learn_minimal(s, LearnConfig(kappa=kappa, weights=w,
                                                   max_size=6))
            assert (relaxed.status, relaxed.size, relaxed.achieved_loss) \
                == (exact.status, exact.size, exact.achieved_loss)

    def test_counterexample_outside_subset_adds_a_round(self):
        # F p1 needs two nodes; at size 2 the first candidate over the
        # traces carried from size 1 misclassifies another trace.
        s = parse_sample("0,0;0,1\n0,1;0,0\n---\n0,0\n0,0;0,0\n")
        size, formula, _, records = sat_minimal(s, omega_uniform(s),
                                                Fraction(0), 4)
        assert size == 2
        assert weighted_loss(s, formula, omega_uniform(s)) == 0
        first, last = records
        assert last["rounds"] > 1
        assert last["traces_encoded"] > first["traces_encoded"]
        assert last["traces_encoded"] < s.size

    def test_nonpositive_explicit_weight_rejected(self):
        s = parse_sample("1\n---\n0\n0;0\n")
        u, v, w = s.traces()
        with pytest.raises(ValueError, match="positive"):
            learn_minimal(s, LearnConfig(weights={u: Fraction(1, 2),
                                                  v: Fraction(1, 2),
                                                  w: Fraction(0)}))

