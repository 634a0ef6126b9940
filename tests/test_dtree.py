import hashlib
import inspect
import logging
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ltlfmine import dtree, enumeration, learner
from ltlfmine.bench import GenSpec, spec_sample
from ltlfmine.dtree import (DtConfig, Inner, Leaf, evaluate_tree,
                            infer_split_formula, learn_tree, parse_tree,
                            positive_fraction, pure_label, score_r,
                            serialize_tree, split, tree_loss,
                            tree_to_formula)
from ltlfmine.formula import parse_formula
from ltlfmine.learner import SIZE_CAP, SOLVED, LearnResult
from ltlfmine.sample import (LabeledSample, SampleError, make_sample,
                             omega_uniform, parse_sample, weighted_loss)
from helpers import random_formula, random_sample, random_trace


def sym(*props):
    return frozenset(props)


class TestStopping:
    def test_stop_when_nearly_pure(self):
        s = parse_sample("1\n---\n")
        assert pure_label(s, Fraction(0)) == 1

    def test_stop_respects_kappa(self):
        # 1 positive, 19 negatives: p1 = 1/20 <= kappa
        rows = "1\n---\n" + "\n".join("0;" + "0;" * i + "0" for i in range(19))
        s = parse_sample(rows + "\n")
        assert pure_label(s, Fraction(1, 100)) is None
        assert pure_label(s, Fraction(1, 20)) == 0

    def test_mixed_sample_has_no_label(self):
        s = parse_sample("1\n---\n0\n")
        assert pure_label(s, Fraction(0)) is None


class TestScores:
    def test_score_r_of_perfect_formula(self):
        s = parse_sample("1,0\n---\n0,0\n0,1\n")
        f = parse_formula("p0", s.alphabet)
        assert score_r(s, f) == 1

    def test_score_r_of_false_on_imbalanced_sample(self):
        # 1 positive, 99 negatives: rejecting everything is 99% accurate
        # but its rebalanced score is exactly 1/2.
        entries = [((sym("p0"),), 1)]
        entries += [((sym(), frozenset([f"x{i}"])), 0) for i in range(99)]
        alphabet = ("p0",) + tuple(f"x{i}" for i in range(99))
        s = make_sample(alphabet, entries)
        f = parse_formula("false")
        assert score_r(s, f) == Fraction(1, 2)

    def test_score_r_symmetric_under_negation(self):
        rng = random.Random(31)
        for _ in range(50):
            s = random_sample(rng, ("p0", "p1"), max_traces=8, max_len=4,
                              require_both_classes=True)
            f = random_formula(rng, s.alphabet, depth=3)
            g = parse_formula(f"! ({f.to_text()})", s.alphabet)
            assert score_r(s, f) == score_r(s, g)


class TestSplit:
    def test_split_partitions_sample(self):
        s = parse_sample("1,0\n0,1\n---\n0,0\n1,1\n")
        f = parse_formula("p0", s.alphabet)
        sat, unsat = split(s, f)
        assert sat.size + unsat.size == s.size
        assert all(f.satisfies(u) for u in sat.traces())
        assert not any(f.satisfies(u) for u in unsat.traces())

    def test_a_proposition_outside_the_alphabet_holds_nowhere(self):
        s = parse_sample("alphabet: p\n1\n---\n0\n")
        f = parse_formula("F q")
        assert weighted_loss(s, f, omega_uniform(s)) == Fraction(1, 2)
        assert score_r(s, f) == Fraction(1, 2)
        assert s.truth(f) == [0, 0]
        # Such a formula is no split: its satisfied part has no traces.
        with pytest.raises(SampleError, match="no traces"):
            split(s, f)
        assert tree_loss(s, Inner(f, Leaf(0), Leaf(1))) == Fraction(1, 2)

    def test_high_score_split_nonempty_both_sides(self):
        rng = random.Random(32)
        checked = 0
        while checked < 100:
            s = random_sample(rng, ("p0", "p1"), max_traces=10, max_len=4,
                              require_both_classes=True)
            f = random_formula(rng, s.alphabet, depth=3)
            if score_r(s, f) <= Fraction(1, 2):
                continue
            checked += 1
            sat, unsat = split(s, f)
            assert sat.size > 0 and unsat.size > 0

    def test_infer_split_reaches_min_score(self):
        rng = random.Random(33)
        config = DtConfig(min_score=Fraction(3, 5))
        for _ in range(10):
            s = random_sample(rng, ("p0", "p1"), max_traces=8, max_len=4,
                              require_both_classes=True)
            f = infer_split_formula(s, config)
            assert score_r(s, f) >= Fraction(3, 5)


class TestLearnTree:
    def test_pure_sample_is_single_leaf(self):
        s = parse_sample("1\n0\n---\n")
        r = learn_tree(s, DtConfig())
        assert r.tree == Leaf(1)
        assert r.status == "solved"
        assert r.nodes_expanded == 0

    def test_loss_below_kappa(self):
        rng = random.Random(34)
        for _ in range(10):
            s = random_sample(rng, ("p0", "p1"), max_traces=10, max_len=4)
            r = learn_tree(s, DtConfig(kappa=Fraction(1, 20)))
            assert r.status == "solved"
            assert tree_loss(s, r.tree) <= Fraction(1, 20)

    def test_depth_cap_flagged(self):
        rng = random.Random(35)
        for _ in range(20):
            s = random_sample(rng, ("p0", "p1"), max_traces=12, max_len=5,
                              require_both_classes=True)
            r = learn_tree(s, DtConfig(max_depth=1))
            if r.status == "depth-capped":
                break
        else:
            pytest.fail("expected at least one depth-capped run")

    def test_size_cap_gives_majority_leaf(self):
        # The root splits on a; its a-side, {a} positive and {a, b}
        # negative, needs !b, past a size cap of 1, so it becomes a
        # majority leaf (a tie goes to accept) instead of failing.
        s = parse_sample("alphabet: a,b\n1,0\n---\n1,1\n0,0\n0,1\n")
        r = learn_tree(s, DtConfig(max_size=1))
        assert r.status == SIZE_CAP
        assert r.tree == Inner(parse_formula("a"), Leaf(1), Leaf(0))
        assert r.nodes_expanded == 1
        r = learn_tree(s, DtConfig(max_size=2))
        assert r.status == "solved" and tree_loss(s, r.tree) == 0

    def test_size_cap_on_the_root(self, monkeypatch):
        # No single proposition scores 4/5 on this sample, so the first
        # search hits the cap.  The split search is one learner call; its
        # inversion is enumerated beside it or, past LIMIT (every size at
        # LIMIT 0), not searched at all: the inverted sample is never
        # built.
        calls, inverted = [], []
        real = dtree.learn_minimal
        monkeypatch.setattr(
            dtree, "learn_minimal",
            lambda *args, **kwargs: calls.append(args) or real(*args,
                                                               **kwargs))
        real_invert = learner.invert_labels
        monkeypatch.setattr(learner, "invert_labels",
                            lambda s: inverted.append(s) or real_invert(s))
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        for limit in (enumeration.LIMIT, 0):
            monkeypatch.setattr(enumeration, "LIMIT", limit)
            calls.clear()
            r = learn_tree(s, DtConfig(max_size=1))
            assert (r.status, r.tree, r.nodes_expanded) \
                == (SIZE_CAP, Leaf(1), 0)
            assert (len(calls), inverted) == (1, [])

    @pytest.mark.parametrize("splits", [("a", None, "b"), ("a", "b", None)],
                             ids=["size-cap-first", "depth-cap-first"])
    def test_size_cap_outranks_depth_cap(self, monkeypatch, splits):
        # Every part of the sample is impure.  The root splits on a; of
        # the two depth-1 nodes, built solid side first, one's split
        # search hits the size cap (None) and the other splits on b into
        # depth-2 nodes past max_depth 2.  Each split search is one
        # scripted learner call, which gives both polarities' formulas.
        s = parse_sample("alphabet: a,b\n1,1;0,0\n1,0\n0,1\n0,0\n---\n"
                         "1,1;0,1\n1,0;0,0\n0,1;0,0\n0,0;0,0\n")
        answers = iter(splits)

        def scripted(sample, config, inverse=False):
            assert inverse
            text = next(answers)
            if text is None:
                return LearnResult(SIZE_CAP)
            found = LearnResult(SOLVED, parse_formula(text, s.alphabet), 1,
                                Fraction(0))
            found.inverse = LearnResult(
                SOLVED, parse_formula(f"! {text}", s.alphabet), 2,
                Fraction(0))
            return found

        monkeypatch.setattr(dtree, "learn_minimal", scripted)
        r = learn_tree(s, DtConfig(max_depth=2))
        assert r.status == SIZE_CAP
        assert r.nodes_expanded == 2
        assert next(answers, "spent") == "spent"

    def test_timeout_keeps_the_tree_built_so_far(self, monkeypatch):
        # Once the root is split the clock runs an hour per reading, so
        # the next split search times out.  The root stays; its pure solid
        # part is a leaf as before, and the part whose search timed out a
        # majority leaf.
        sample, _ = spec_sample(GenSpec("existence2", 20, 10, 0, 0.1))
        config = DtConfig(kappa=Fraction(1, 20), node_timeout=60)
        full = learn_tree(sample, config).tree
        real_clock, real_learn = time.monotonic, dtree.learn_minimal
        offset, step = [0.0], [0.0]

        def clock():
            offset[0] += step[0]
            return real_clock() + offset[0]

        def learn(*args, **kwargs):
            result = real_learn(*args, **kwargs)
            step[0] = 3600.0
            return result

        monkeypatch.setattr(time, "monotonic", clock)
        monkeypatch.setattr(dtree, "learn_minimal", learn)
        r = learn_tree(sample, config)
        assert (r.status, r.nodes_expanded) == ("timed-out", 1)
        rest = split(sample, full.formula)[1]
        majority = Leaf(int(positive_fraction(rest) >= Fraction(1, 2)))
        assert isinstance(full.right, Inner)
        assert r.tree == Inner(full.formula, full.left, majority)

    def test_one_debug_line_per_split(self, caplog):
        sample, _ = spec_sample(GenSpec("existence2", 20, 10, 0, 0.1))
        with caplog.at_level(logging.DEBUG, logger="ltlfmine.dtree"):
            r = learn_tree(sample, DtConfig(kappa=Fraction(1, 20)))
        lines = [rec.getMessage() for rec in caplog.records
                 if rec.name == "ltlfmine.dtree"]
        assert len(lines) == r.nodes_expanded == 4
        assert lines[0] == ("split of 20 traces: sizes 3 and 4, losses 1/11 "
                            "and 1/11, score 10/11")

    def test_deep_induction_needs_no_recursion(self, monkeypatch):
        # Each split peels off the first trace, a pure part, so the tree
        # is a chain 399 nodes deep, built under a recursion limit 60
        # frames above the caller's.
        depth = 399
        entries = tuple(((frozenset(),) * (i + 1), i % 2)
                        for i in range(depth + 1))
        sample = LabeledSample(("p0",), entries)
        p0 = parse_formula("p0")

        def peel(s, formula):
            return (LabeledSample(s.alphabet, s.entries[:1]),
                    LabeledSample(s.alphabet, s.entries[1:]))

        monkeypatch.setattr(dtree, "infer_split_formula", lambda s, c: p0)
        monkeypatch.setattr(dtree, "split", peel)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            r = learn_tree(sample, DtConfig(kappa=Fraction(0),
                                            max_depth=depth))
        finally:
            sys.setrecursionlimit(limit)
        assert (r.status, r.nodes_expanded) == ("solved", depth)
        expected = "".join(f'(node "p0" (leaf {"true" if i % 2 else "false"}) '
                           for i in range(depth))
        expected += "(leaf true)" + ")" * depth
        assert serialize_tree(r.tree) == expected

    def test_timeout_status(self):
        s = parse_sample("1,0\n0,1\n---\n1,1\n0,0\n")
        r = learn_tree(s, DtConfig(node_timeout=0.0))
        assert r.status == "timed-out"

    @pytest.mark.parametrize("bad", [{"max_depth": -1}, {"max_size": 0},
                                     {"max_size": -3},
                                     {"kappa": Fraction(-1, 10)},
                                     {"kappa": Fraction(3, 2)},
                                     {"node_timeout": float("nan")},
                                     {"node_timeout": -0.5},
                                     {"max_depth": 2.5}, {"max_size": 2.5}])
    def test_config_rejects_bad_counts(self, bad):
        with pytest.raises(ValueError):
            DtConfig(**bad)

    def test_config_accepts_the_least_counts(self):
        # Depth 0 is a single leaf; size 1 allows one proposition.
        s = parse_sample("1\n0\n---\n")
        r = learn_tree(s, DtConfig(max_depth=0, max_size=1))
        assert r.tree == Leaf(1) and r.status == "solved"


class TestTreeFormulaAgreement:
    def fig_tree(self):
        f1 = parse_formula("F p0")
        f2 = parse_formula("G p1")
        return Inner(f1, Inner(f2, Leaf(1), Leaf(0)), Leaf(1))

    def test_conversion_shape(self):
        # accepting paths: (f1 and f2) and (not f1)
        f = tree_to_formula(self.fig_tree())
        assert f.to_text() == "(((F p0) & (G p1)) | (! (F p0)))"

    def test_single_true_leaf(self):
        assert tree_to_formula(Leaf(1)).to_text() == "true"
        assert tree_to_formula(Leaf(0)).to_text() == "false"

    def test_agreement_randomized(self):
        rng = random.Random(36)
        props = ("p0", "p1")

        def random_tree(depth):
            if depth == 0 or rng.random() < 0.4:
                return Leaf(rng.randint(0, 1))
            return Inner(random_formula(rng, props, 2),
                         random_tree(depth - 1), random_tree(depth - 1))

        for _ in range(100):
            tree = random_tree(3)
            f = tree_to_formula(tree)
            for _ in range(5):
                u = random_trace(rng, props, 5)
                assert evaluate_tree(tree, u) == f.satisfies(u)


# SHA-256 of `serialize_tree`, a newline and `tree_to_formula` of the tree
# learned at kappa 1/20 and min_score 4/5 on `spec_sample(GenSpec(pattern,
# traces, 10, 0, noise))`: the five samples of the learn-dt benchmark
# workload, and existence2@50 with 20% noise, whose split formulas reach
# sizes 4 and 5.
GOLDEN_TREES = {
    ("existence2", 20, 0.1):
        "42c21a5bef37eaedd7bc31f49cf75766ae2c535dd7f0e2ccf2909052238601f2",
    ("universality1", 50, 0.1):
        "16f390e1b769d7c47fe54b5bc5ee0e8a8b234018e862db0e836108e33f52532f",
    ("universality3", 20, 0.1):
        "cc42103c9d5127b93011315f0884923d1d1347b7f484ceeeb252b0bd8eaacea6",
    ("existence2", 20, 0.0):
        "ab0b22832eb8b86f0ed31d79bbab2e92527ce9be9e6d60ab8194add83016d82e",
    ("universality2", 20, 0.0):
        "01822ea2aa38b19056907218025e0d96018279c1a0993fd08fe16f825b311de5",
    ("existence2", 50, 0.2):
        "16c1266b09c66e32b8a5ac445fc12ec87401fd991f4322b4a388f65bd422ad1d",
}


@pytest.mark.parametrize("pattern, traces, noise", list(GOLDEN_TREES))
def test_tree_texts_are_unchanged(pattern, traces, noise):
    sample, _ = spec_sample(GenSpec(pattern, traces, 10, 0, noise))
    tree = learn_tree(sample, DtConfig(kappa=Fraction(1, 20),
                                       min_score=Fraction(4, 5))).tree
    text = serialize_tree(tree) + "\n" + tree_to_formula(tree).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() \
        == GOLDEN_TREES[pattern, traces, noise], text


class TestSerialization:
    def test_round_trip(self):
        tree = Inner(parse_formula("F p0"),
                     Leaf(1),
                     Inner(parse_formula("(p0 U p1)"), Leaf(0), Leaf(1)))
        text = serialize_tree(tree)
        assert parse_tree(text) == tree

    def test_leaf_format(self):
        assert serialize_tree(Leaf(1)) == "(leaf true)"
        assert serialize_tree(Leaf(0)) == "(leaf false)"

    def test_node_format(self):
        tree = Inner(parse_formula("G p0"), Leaf(1), Leaf(0))
        assert serialize_tree(tree) == \
            '(node "(G p0)" (leaf true) (leaf false))'

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_tree("(branch)")
        with pytest.raises(ValueError):
            parse_tree("(leaf true) extra")
        for text in ("(leaf maybe)", "(leaf)", "(leaf 1)",
                     '(node "p0" (leaf yes) (leaf true))'):
            with pytest.raises(ValueError):
                parse_tree(text)

    def test_whitespace_between_tokens_is_optional_or_free(self):
        assert parse_tree('(node"p0" (leaf true) (leaf false))') == \
            Inner(parse_formula("p0"), Leaf(1), Leaf(0))
        assert parse_tree("( leaf  true )") == Leaf(1)
        assert parse_tree(' \n(node "p0"\t(leaf true)(leaf false)) ') == \
            Inner(parse_formula("p0"), Leaf(1), Leaf(0))

    def test_parse_rejects_wrong_subtree_counts(self):
        for text in ('(node "p0" (leaf true) (leaf false) (leaf true))',
                     '(node "p0" (leaf true))', "(leaf true))", ")",
                     '(node "p0" (leaf true) (leaf false)))'):
            with pytest.raises(ValueError):
                parse_tree(text)

    def test_deep_chain_parses_prints_and_converts(self):
        # 5000 levels are far past the interpreter's recursion limit.
        # Each dashed edge leads one level down; the one accepting leaf
        # is at the bottom, so the conversion has a single path.
        depth = 5000
        text = '(node "p0" (leaf false) ' * depth + "(leaf true)" + \
            ")" * depth
        tree = parse_tree(text)
        assert serialize_tree(tree) == text
        expected = "(! p0)"
        for _ in range(depth - 1):
            expected = f"({expected} & (! p0))"
        assert tree_to_formula(tree).to_text() == expected


@st.composite
def trees(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    props = ("p0", "p1")

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return Leaf(rng.randint(0, 1))
        return Inner(random_formula(rng, props, rng.randint(0, 3)),
                     build(depth - 1), build(depth - 1))

    return build(draw(st.integers(0, 6)))


@settings(max_examples=150, deadline=None)
@given(trees())
def test_serialize_parse_round_trip(tree):
    text = serialize_tree(tree)
    assert serialize_tree(parse_tree(text)) == text
