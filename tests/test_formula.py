import random

import pytest
from hypothesis import given, settings, strategies as st

from ltlfmine.formula import (Formula, FormulaBuilder, Layout,
                              LtlSyntaxError, UnknownPropositionError, arity,
                              parse_formula, proposition_bits)
from ltlfmine.sample import make_sample
from helpers import random_formula, random_trace, reference_evaluate


def trace_bits(f: Formula, trace) -> list[int]:
    """`f`'s value at each position of `trace`: the bits of its signature
    on a layout of that one trace."""
    signature = f.signature(Layout((len(trace),)), proposition_bits(trace))
    return [(signature >> pos) & 1 for pos in range(len(trace))]


def naive_eval(f: Formula, i: int, trace, pos: int) -> bool:
    # Straight transcription of the finite-trace semantics, tree-recursive
    # and memo-free, used as an oracle for the memoized evaluator.
    node = f.node(i)
    op = node.op
    last = len(trace) - 1
    if op == "prop":
        return node.name in trace[pos]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "!":
        return not naive_eval(f, node.left, trace, pos)
    if op == "X":
        return pos < last and naive_eval(f, node.left, trace, pos + 1)
    if op == "F":
        return any(naive_eval(f, node.left, trace, t)
                   for t in range(pos, last + 1))
    if op == "G":
        return all(naive_eval(f, node.left, trace, t)
                   for t in range(pos, last + 1))
    if op == "|":
        return (naive_eval(f, node.left, trace, pos)
                or naive_eval(f, node.right, trace, pos))
    if op == "&":
        return (naive_eval(f, node.left, trace, pos)
                and naive_eval(f, node.right, trace, pos))
    if op == "->":
        return (not naive_eval(f, node.left, trace, pos)
                or naive_eval(f, node.right, trace, pos))
    assert op == "U"
    return any(
        naive_eval(f, node.right, trace, t)
        and all(naive_eval(f, node.left, trace, s) for s in range(pos, t))
        for t in range(pos, last + 1))


class TestStructure:
    def test_shared_subformula_counted_once(self):
        f = parse_formula("(p U G q) | F G q")
        assert f.size == 6  # G q appears twice but is one node

    def test_sharing_example_size_five(self):
        f = parse_formula("(p U X q) | X q")
        assert f.size == 5

    def test_root_is_last_node_and_children_smaller(self):
        f = parse_formula("(p U G q) | F G q")
        assert f.root == f.size
        for i in range(1, f.size + 1):
            node = f.node(i)
            assert node.left < i and node.right < i

    def test_single_proposition(self):
        f = parse_formula("p")
        assert f.size == 1
        assert f.to_text() == "p"

    def test_numbering_is_left_first_post_order(self):
        f = parse_formula("(p U G q) | F G q")
        assert [(n.op, n.name, n.left, n.right) for n in f.nodes] == [
            ("prop", "p", 0, 0), ("prop", "q", 0, 0), ("G", None, 2, 0),
            ("U", None, 1, 3), ("F", None, 3, 0), ("|", None, 4, 5)]

    def test_canonical_numbering_is_structure_only(self):
        # The same formula built in different construction orders gets
        # identical node arrays.
        a = parse_formula("(p & q) | (q & p)")
        b1 = FormulaBuilder()
        q = b1.add("q")
        p = b1.add("p")
        left = b1.add("&", p, q)
        right = b1.add("&", q, p)
        b = b1.finish(b1.add("|", left, right))
        assert a == b
        assert hash(a) == hash(b)

    def test_propositions(self):
        assert parse_formula("(p U G q) | F G q").propositions() == {"p", "q"}


class TestBuilderAdd:
    @pytest.mark.parametrize("label, count", [
        ("&", 1), ("!", 0), ("p", 1), ("true", 1), ("U", 0)])
    def test_wrong_child_count_raises(self, label, count):
        builder = FormulaBuilder()
        x = builder.add("x")
        with pytest.raises(ValueError):
            builder.add(label, *[x] * count)

    def test_equal_label_and_children_give_same_id(self):
        builder = FormulaBuilder()
        p, q = builder.add("p"), builder.add("q")
        assert builder.add("p") == p
        assert builder.add("true") == builder.add("true") != p
        assert builder.add("U", p, q) == builder.add("U", p, q)
        assert builder.add("U", q, p) != builder.add("U", p, q)
        assert builder.add("X", p) == builder.add("X", p) != builder.add("F", p)

    def test_no_children_gives_constant_or_proposition(self):
        builder = FormulaBuilder()
        f = builder.finish(builder.add("&", builder.add("false"),
                                       builder.add("p")))
        assert [(n.op, n.name, n.label) for n in f.nodes] == [
            ("false", None, "false"), ("prop", "p", "p"), ("&", None, "&")]

    @pytest.mark.parametrize("text", ["U", "p & U", "(U U U)"])
    def test_operator_name_is_not_a_proposition(self, text):
        with pytest.raises(LtlSyntaxError):
            parse_formula(text)


class TestParser:
    def test_round_trip_canonical_text(self):
        texts = ["p", "(! p)", "(p U (G q))", "((p U (G q)) | (F (G q)))",
                 "(p -> (q -> p))", "true", "false", "(X (X p))"]
        for text in texts:
            assert parse_formula(text).to_text() == text

    def test_precedence(self):
        assert (parse_formula("a -> b | c & d U e").to_text()
                == "(a -> (b | (c & (d U e))))")
        assert (parse_formula("! a U b").to_text() == "((! a) U b)")

    def test_right_associativity(self):
        assert (parse_formula("a -> b -> c").to_text() == "(a -> (b -> c))")
        assert (parse_formula("a U b U c").to_text() == "(a U (b U c))")

    def test_left_associativity(self):
        assert parse_formula("a | b | c").to_text() == "((a | b) | c)"
        assert parse_formula("a & b & c").to_text() == "((a & b) & c)"

    def test_unary_chain(self):
        assert parse_formula("!X F G p").to_text() == "(! (X (F (G p))))"

    def test_syntax_error_carries_position(self):
        with pytest.raises(LtlSyntaxError) as exc:
            parse_formula("p | | q")
        assert exc.value.position == 4

    def test_bad_character_is_reported_before_grammar_errors(self):
        # The whole text is scanned first: "#" at 2, not the "&" at 0
        # that no operand precedes.
        with pytest.raises(LtlSyntaxError) as exc:
            parse_formula("& #")
        assert exc.value.position == 2

    def test_unbalanced_paren(self):
        with pytest.raises(LtlSyntaxError):
            parse_formula("(p | q")

    def test_alphabet_enforced(self):
        with pytest.raises(UnknownPropositionError):
            parse_formula("p | r", alphabet=("p", "q"))
        parse_formula("p | q", alphabet=("p", "q"))

    def test_deep_chain_prints_parses_and_converts(self):
        # 1500 nested X are far past the interpreter's recursion limit.
        from ltlfmine.dtree import Inner, Leaf, tree_to_formula

        depth = 1500
        builder = FormulaBuilder()
        node = builder.add("p")
        for _ in range(depth):
            node = builder.add("X", node)
        chain = builder.finish(node)
        text = chain.to_text()
        assert text == "(X " * depth + "p" + ")" * depth
        assert parse_formula(text) == chain
        assert parse_formula("X " * depth + "p") == chain
        assert tree_to_formula(Inner(chain, Leaf(1), Leaf(0))) == chain


class TestSemantics:
    def sym(self, *props):
        return frozenset(props)

    def test_strong_next_false_at_last_position(self):
        f = parse_formula("X p")
        assert f.satisfies((self.sym("p"),)) == 0
        assert f.satisfies((self.sym(), self.sym("p"))) == 1

    def test_until_requires_witness(self):
        f = parse_formula("p U q")
        assert f.satisfies((self.sym("p"), self.sym("p"))) == 0
        assert f.satisfies((self.sym("p"), self.sym("q"))) == 1
        assert f.satisfies((self.sym("q"),)) == 1  # right arg immediately

    def test_until_left_must_hold_strictly_before(self):
        f = parse_formula("p U q")
        assert f.satisfies((self.sym(), self.sym("q"))) == 0

    def test_globally_and_eventually(self):
        g = parse_formula("G p")
        e = parse_formula("F p")
        tr = (self.sym("p"), self.sym(), self.sym("p"))
        assert g.satisfies(tr) == 0
        assert e.satisfies(tr) == 1
        assert g.satisfies((self.sym("p"), self.sym("p"))) == 1

    def test_matches_naive_semantics_randomized(self):
        rng = random.Random(11)
        props = ("p", "q")
        for _ in range(300):
            f = random_formula(rng, props, depth=4)
            trace = random_trace(rng, props, max_len=6)
            assert trace_bits(f, trace) == [
                int(naive_eval(f, f.root, trace, pos))
                for pos in range(len(trace))]


@st.composite
def formula_texts(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    return random_formula(rng, ("p", "q", "r"), depth=draw(st.integers(0, 5)))


LABELS = {"leaf": ["p", "q", "true", "false"], "unary": list("!XFG"),
          "binary": ["|", "&", "->", "U"]}


@st.composite
def formulas_with_constants(draw):
    builder = FormulaBuilder()
    nodes = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["leaf", "unary", "binary"])
                    if nodes else st.just("leaf"))
        label = draw(st.sampled_from(LABELS[kind]))
        children = [draw(st.sampled_from(nodes)) for _ in range(arity(label))]
        nodes.append(builder.add(label, *children))
    return builder.finish(nodes[-1])


traces = st.lists(st.frozensets(st.sampled_from(["p", "q"])),
                  min_size=1, max_size=9).map(tuple)


@settings(max_examples=300, deadline=None)
@given(formulas_with_constants(), traces)
def test_evaluate_matches_reference_at_every_position(f, trace):
    assert trace_bits(f, trace) == [reference_evaluate(f, trace, pos)
                                    for pos in range(len(trace))]


@st.composite
def samples(draw):
    """A labeled sample over p, or over p and q, so that a formula's q may
    lie outside the alphabet."""
    alphabet = draw(st.sampled_from([("p",), ("p", "q")]))
    labels = {}
    for trace, label in draw(st.lists(st.tuples(traces, st.integers(0, 1)),
                                      min_size=1, max_size=6)):
        labels.setdefault(tuple(symbol & frozenset(alphabet)
                                for symbol in trace), label)
    return make_sample(alphabet, labels.items())


@settings(max_examples=300, deadline=None)
@given(formulas_with_constants(), samples())
def test_sample_signature_matches_evaluate_and_reference(f, sample):
    truth = sample.truth(f)
    signature = f.signature(sample.layout, sample.holds)
    assert 0 <= signature <= sample.layout.full
    for (u, _), value, offset in zip(sample.entries, truth,
                                     sample.layout.offsets):
        assert value == reference_evaluate(f, u, 0) == f.satisfies(u)
        assert [(signature >> (offset + pos)) & 1
                for pos in range(len(u))] == trace_bits(f, u)


def test_deep_formula_evaluates_without_recursion():
    builder = FormulaBuilder()
    node = builder.add("p")
    for _ in range(1500):
        node = builder.add("X", node)
    f = builder.finish(node)
    assert f.size == 1501
    p = frozenset(["p"])
    assert f.satisfies((frozenset(),) * 1500 + (p,)) == 1
    assert f.satisfies((p,) * 1500) == 0
    assert trace_bits(f, (frozenset(),) * 1501 + (p,))[:2] == [0, 1]


@settings(max_examples=150, deadline=None)
@given(formula_texts())
def test_parse_print_round_trip(f):
    assert parse_formula(f.to_text()) == f


@settings(max_examples=150, deadline=None)
@given(formula_texts())
def test_canonicalization_idempotent(f):
    again = Formula._from_nodes(list(f.nodes), f.root)
    assert again.nodes == f.nodes


@settings(max_examples=200, deadline=None)
@given(formulas_with_constants())
def test_rebuilding_with_add_and_from_tree_gives_equal_formula(f):
    builder = FormulaBuilder()
    ids: list[int] = []
    for node in f.nodes:
        ids.append(builder.add(node.label, *(ids[c - 1] for c in
                                             (node.left, node.right) if c)))
    assert builder.finish(ids[-1]) == f
