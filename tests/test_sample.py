import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from ltlfmine import sample as samplemod
from ltlfmine.formula import BINARY_OPS, CONSTANTS, UNARY_OPS, parse_formula
from ltlfmine.sample import (LabeledSample, SampleError, format_trace,
                             invert_labels, make_sample,
                             omega_rebalanced, omega_uniform, parse_sample,
                             scaled_weights, weighted_loss)
from helpers import random_formula, random_sample

BASIC = "1,0;1,1\n0,1\n---\n0,0\n1,0\n"


def sym(*props):
    return frozenset(props)


class TestParsing:
    def test_widths_infer_alphabet(self):
        s = parse_sample(BASIC)
        assert s.alphabet == ("p0", "p1")
        assert len(s.positives()) == 2
        assert len(s.negatives()) == 2

    def test_explicit_alphabet_header(self):
        s = parse_sample("alphabet: a,b\n1,0\n---\n0,1\n")
        assert s.alphabet == ("a", "b")
        assert s.positives() == [(sym("a"),)]
        assert s.negatives() == [(sym("b"),)]

    def test_comments_and_blank_lines_ignored(self):
        s = parse_sample("# header\n\n1,0\n# mid\n---\n\n0,0\n")
        assert s.size == 2

    def test_trailing_section_after_second_separator_ignored(self, caplog):
        with caplog.at_level("WARNING"):
            s = parse_sample("1,0\n---\n0,0\n---\n1,1\n")
        assert s.size == 2
        assert any("second" in r.message for r in caplog.records)

    def test_round_trip_is_fixed_point(self):
        text = parse_sample(BASIC).to_text()
        assert parse_sample(text).to_text() == text

    def test_bad_bit_rejected(self):
        with pytest.raises(SampleError, match="invalid bit"):
            parse_sample("1,2\n---\n0,0\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(SampleError, match="expected 2 bits"):
            parse_sample("1,0\n---\n0,0,1\n")

    def test_empty_sample_rejected(self):
        with pytest.raises(SampleError):
            parse_sample("# nothing\n---\n")

    def test_conflicting_labels_rejected(self):
        with pytest.raises(SampleError, match="both labels"):
            parse_sample("1,0\n---\n1,0\n")

    def test_exact_duplicates_collapsed(self):
        s = parse_sample("1,0\n1,0\n---\n0,0\n")
        assert s.size == 2

    def test_format_trace(self):
        assert format_trace((sym("a"), sym("a", "b")), ("a", "b")) == "1,0;1,1"


class TestValidation:
    def test_repeated_trace_rejected(self):
        u, v = (sym("p"),), (sym(),)
        with pytest.raises(SampleError, match="twice"):
            LabeledSample(("p",), ((u, 1), (u, 1), (v, 0)))

    def test_empty_trace_rejected(self):
        with pytest.raises(SampleError, match="empty"):
            LabeledSample(("p",), (((), 1),))

    @pytest.mark.parametrize("build", [
        lambda: LabeledSample(("p",), ()),
        lambda: make_sample(("p",), []),
    ], ids=["LabeledSample", "make_sample"])
    def test_sample_without_traces_rejected(self, build):
        # Uniform weights divide by the number of traces, so a sample
        # without one would fail later with ZeroDivisionError.
        with pytest.raises(SampleError, match="no traces"):
            build()

    def test_unknown_proposition_rejected(self):
        with pytest.raises(SampleError, match="not in alphabet"):
            LabeledSample(("p",), (((sym("q"),), 1),))

    def test_bad_label_rejected(self):
        with pytest.raises(SampleError, match="label"):
            LabeledSample(("p",), (((sym("p"),), 2),))

    def test_clashing_proposition_rejected(self):
        for name in CONSTANTS + UNARY_OPS + BINARY_OPS:
            with pytest.raises(SampleError, match=re.escape(
                    f"proposition name {name!r} does not read back")):
                LabeledSample(("p", name), (((sym("p"),), 1),))

    @pytest.mark.parametrize("name", ["1a", "p q", "(p)", "p-q", "p,", ""])
    def test_unreadable_proposition_rejected(self, name):
        with pytest.raises(SampleError, match="does not read back"):
            LabeledSample((name,), (((sym(),), 1),))

    @pytest.mark.parametrize("header", ["1a,q", "p q,r", "X,q", "q,true"])
    def test_unreadable_header_rejected(self, header):
        with pytest.raises(SampleError, match="does not read back"):
            parse_sample(f"alphabet: {header}\n1,0\n---\n0,1\n")

    def test_repeated_proposition_rejected(self):
        with pytest.raises(SampleError, match="twice"):
            LabeledSample(("p", "q", "p"), (((sym("p"),), 1),))
        with pytest.raises(SampleError, match="twice"):
            parse_sample("alphabet: a,a\n1,0\n---\n0,0\n")

    @pytest.mark.parametrize("text, line", [
        ("alphabet: a,b\nalphabet: c,d\n1,0\n---\n0,1\n", 2),
        ("alphabet: a,b\nalphabet: a,b\n1,0\n---\n0,1\n", 2),
        ("1,0\nalphabet: a,b\n---\n0,1\n", 2),
        ("alphabet: a,b\n1,0\n---\n# late\nalphabet: a,b\n0,1\n", 5),
        ("alphabet:\n1,0\n---\n0,1\n", 1),
        ("# no names\nalphabet: ,\n1,0\n---\n0,1\n", 2)],
        ids=["second", "repeated", "after-trace", "after-separator",
             "empty", "only-commas"])
    def test_misplaced_or_empty_header_rejected(self, text, line):
        with pytest.raises(SampleError, match=f"^line {line}: the alphabet "
                                              "header"):
            parse_sample(text)

    def test_header_after_separator_before_any_trace(self):
        s = parse_sample("---\nalphabet: a,b\n0,1\n")
        assert s.alphabet == ("a", "b") and s.negatives() == [(sym("b"),)]

    def test_readable_names_accepted(self):
        names = ("a", "_x", "p_1", "Xy", "trueish", "Fp", "UU")
        s = LabeledSample(names, (((sym("Xy"),), 1),))
        for name in names:
            assert parse_formula(name, s.alphabet).propositions() == {name}

    def test_alphabet_checked_once(self, monkeypatch):
        calls = []

        def counting(text, *args):
            calls.append(text)
            return parse_formula(text, *args)

        monkeypatch.setattr(samplemod, "parse_formula", counting)
        names = ("once_a", "once_b")
        for label in (0, 1, 0):
            LabeledSample(names, (((sym("once_a"),), label),))
        assert calls == list(names)


class TestLossAndWeights:
    def test_loss_counts_misclassified_fraction(self):
        s = parse_sample(BASIC)
        f = parse_formula("F p1", s.alphabet)
        # f accepts both positives and rejects both negatives
        assert weighted_loss(s, f, omega_uniform(s)) == 0
        g = parse_formula("p0", s.alphabet)
        # g accepts one positive and one negative: 2 of 4 wrong
        assert weighted_loss(s, g, omega_uniform(s)) == Fraction(1, 2)

    def test_uniform_weights_reduce_to_loss(self):
        rng = random.Random(5)
        for _ in range(50):
            s = random_sample(rng, ("p0", "p1"), max_traces=8, max_len=5)
            f = random_formula(rng, s.alphabet, depth=3)
            wrong = sum(value != b for value, (_, b)
                        in zip(s.truth(f), s.entries))
            assert weighted_loss(s, f, omega_uniform(s)) \
                == Fraction(wrong, s.size)

    def test_weights_sum_to_one(self):
        rng = random.Random(6)
        for _ in range(50):
            s = random_sample(rng, ("p0", "p1"), max_traces=8, max_len=5,
                              require_both_classes=True)
            assert sum(omega_uniform(s).values()) == 1
            assert sum(omega_rebalanced(s).values()) == 1

    def test_rebalanced_puts_half_mass_per_class(self):
        s = parse_sample("1\n---\n0\n1;0\n0;1\n")
        w = omega_rebalanced(s)
        assert w[(sym("p0"),)] == Fraction(1, 2)
        for u in s.negatives():
            assert w[u] == Fraction(1, 6)

    def test_rebalanced_needs_both_classes(self):
        s = parse_sample("1\n---\n")
        with pytest.raises(SampleError):
            omega_rebalanced(s)

    def test_weighted_loss_checks_domain(self):
        s = parse_sample(BASIC)
        f = parse_formula("p0", s.alphabet)
        with pytest.raises(SampleError):
            weighted_loss(s, f, {})

    def test_invert_labels(self):
        s = parse_sample(BASIC)
        inv = invert_labels(s)
        assert set(inv.positives()) == set(s.negatives())
        assert set(inv.negatives()) == set(s.positives())
        f = parse_formula("p0", s.alphabet)
        assert weighted_loss(s, f, omega_uniform(s)) \
            + weighted_loss(inv, f, omega_uniform(inv)) == 1

    def test_sample_pickles_after_its_table_is_built(self):
        s = parse_sample(BASIC)
        f = parse_formula("F p1", s.alphabet)
        assert s.truth(f) == [1, 1, 0, 0]
        again = pickle.loads(pickle.dumps(s))
        assert again == s and again.truth(f) == [1, 1, 0, 0]

    def test_explicit_weights(self):
        s = parse_sample("1\n---\n0\n")
        pos, neg = s.positives()[0], s.negatives()[0]
        omega = {pos: Fraction(9, 10), neg: Fraction(1, 10)}
        f = parse_formula("false", s.alphabet)  # misclassifies the positive
        assert weighted_loss(s, f, omega) == Fraction(9, 10)

    def test_scaled_weights(self):
        # The scale is the lcm of the denominators, and each weight scales
        # to the integer it stands for.
        weights = [Fraction(1, 4), Fraction(1, 6), Fraction(7, 12)]
        assert scaled_weights(weights) == (12, [3, 2, 7])
        assert scaled_weights([]) == (1, [])
        rng = random.Random(12)
        for _ in range(200):
            weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 30))
                       for _ in range(rng.randint(1, 8))]
            lcm = math.lcm(*(w.denominator for w in weights))
            scale, scaled = scaled_weights(weights)
            assert scale == lcm
            assert [Fraction(w, scale) for w in scaled] == weights


def test_make_sample_preserves_order():
    a, b = (sym("p"),), (sym(),)
    s = make_sample(("p",), [(a, 1), (b, 0), (a, 1)])
    assert s.entries == ((a, 1), (b, 0))
