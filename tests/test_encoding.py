import itertools
import random
import tracemalloc
import types
from fractions import Fraction

import pytest

from ltlfmine.bench import GenSpec, generate_sample, spec_sample
from ltlfmine import encoding, maxsat
from ltlfmine.encoding import Encoding, EncodingError, EncodingInstance
from ltlfmine.formula import (FormulaBuilder, arity, leaf_labels,
                              parse_formula)
from ltlfmine.maxsat import FEASIBLE
from ltlfmine.sample import (omega_uniform, parse_sample, weighted_loss)
from ltlfmine.sat import SatSolver
from helpers import decide, find_optimum, random_sample, solver_with
from test_acceptance import random_structure_assumptions

BASIC = "1,0;1,1\n0,1\n---\n0,0\n1,0\n"


def instance_for(text, n, with_constants=False):
    sample = parse_sample(text)
    return EncodingInstance(n, sample, omega_uniform(sample), with_constants)


OPERATORS = ("!", "X", "F", "G", "|", "&", "->", "U")


class TestOperatorPool:
    """The labels of the search: the sample's propositions, the constants
    if asked for, then the fixed operators, in this order, which is also
    the order of each node's label variables."""

    def test_default_pool_labels(self):
        assert leaf_labels(("p", "q"), False) == ("p", "q")
        inst = instance_for(BASIC, 2)
        assert inst.leaves == ("p0", "p1")
        assert inst.labels == ("p0", "p1") + OPERATORS
        for i in (1, 2):
            assert [inst.x[(i, lab)] for lab in inst.labels] \
                == list(range(1 + 10 * (i - 1), 1 + 10 * i))

    def test_constants_optional(self):
        assert leaf_labels(("p",), True) == ("p", "true", "false")
        inst = instance_for(BASIC, 2, with_constants=True)
        assert inst.leaves == ("p0", "p1", "true", "false")
        assert inst.labels == ("p0", "p1", "true", "false") + OPERATORS
        for i in (1, 2):
            assert [inst.x[(i, lab)] for lab in inst.labels] \
                == list(range(1 + 12 * (i - 1), 1 + 12 * i))

    def test_empty_alphabet_needs_constants(self):
        assert leaf_labels((), True) == ("true", "false")
        with pytest.raises(ValueError, match="proposition or the constants"):
            leaf_labels((), False)


class TestStructuralClauses:
    def test_label_clause_count_n3_ten_labels(self):
        # one at-least-one clause plus C(10,2) pairwise exclusions per
        # node: 3 * (1 + 45) = 138; the only other clause over label
        # variables alone is the first-node nullary clause.
        inst = instance_for(BASIC, 3)
        assert len(inst.labels) == 10
        label_vars = set(inst.x.values())
        first = sorted(inst.x[(1, p)] for p in inst.leaves)
        count = sum(1 for c in inst.wcnf.hard
                    if all(abs(lit) in label_vars for lit in c)
                    and sorted(c) != first)
        assert count == 138

    def test_child_clause_counts(self):
        inst = instance_for(BASIC, 3)
        # node 2: 1 choice, node 3: 2 choices -> ALO 2 clauses each side,
        # AMO only for node 3 (one pair) each side
        for table in (inst.l, inst.r):
            child_vars = set(table.values())
            own = [c for c in inst.wcnf.hard
                   if all(abs(lit) in child_vars for lit in c)]
            assert sum(1 for c in own if all(lit > 0 for lit in c)) == 2
            assert sum(1 for c in own if all(lit < 0 for lit in c)) == 1

    def test_first_node_nullary(self):
        inst = instance_for(BASIC, 2)
        first = sorted(inst.x[(1, p)] for p in inst.leaves)
        assert first in [sorted(c) for c in inst.wcnf.hard]

    def test_size_one_has_no_child_variables(self):
        inst = instance_for(BASIC, 1)
        assert inst.l == {} and inst.r == {}

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            instance_for(BASIC, 0)


def hard_solver(inst):
    solver = solver_with(inst.wcnf.nvars)
    for c in inst.wcnf.hard:
        solver.add_clause(c)
    return solver


class TestModels:
    def test_hard_clauses_satisfiable(self):
        for n in (1, 2, 3):
            inst = instance_for(BASIC, n)
            assert hard_solver(inst).solve()

    def test_decode_known_structure(self):
        inst = instance_for(BASIC, 2)
        f = parse_formula("F p1", ("p0", "p1"))
        solver = hard_solver(inst)
        assert solver.solve(inst.structure_assumptions(f))
        assert inst.decode_model(solver.model()) == f

    def test_clamped_structure_valuations_match_semantics(self):
        rng = random.Random(21)
        sample = parse_sample(BASIC)
        inst = EncodingInstance(3, sample, omega_uniform(sample))
        solver = hard_solver(inst)
        for text in ("p0 U p1", "! (X p0)", "F (G p1)", "G (p0 -> p0)"):
            f = parse_formula(text, sample.alphabet)
            assert f.size == 3
            assert solver.solve(inst.structure_assumptions(f))
            model = solver.model()
            assert inst.decode_model(model) == f
            signature = f.signature(sample.layout, sample.holds)
            for t, trace in enumerate(inst.traces):
                for tau in range(len(trace)):
                    assert model[inst.y[(t, inst.n, tau)]] == bool(
                        (signature >> (sample.layout.offsets[t] + tau)) & 1)

    def test_decode_drops_unreachable_nodes(self):
        # Node 2 is a well-formed node the root does not reach.
        inst = instance_for(BASIC, 3)
        solver = hard_solver(inst)
        assert solver.solve([inst.x[(1, "p1")], inst.x[(2, "!")],
                             inst.x[(3, "F")], inst.l[(3, 1)]])
        assert inst.decode_model(solver.model()) == \
            parse_formula("F p1", ("p0", "p1"))

    def test_decode_rejects_broken_unreachable_node(self):
        inst = instance_for(BASIC, 3)
        solver = hard_solver(inst)
        assert solver.solve([inst.x[(1, "p1")], inst.x[(3, "F")],
                             inst.l[(3, 1)]])
        model = solver.model()
        model[inst.x[(2, "p0")]] = model[inst.x[(2, "p1")]] = True
        with pytest.raises(EncodingError, match="node 2"):
            inst.decode_model(model)

    def test_decode_rejects_ambiguous_assignment(self):
        inst = instance_for(BASIC, 1)
        bad = {v: True for v in range(1, inst.wcnf.nvars + 1)}
        with pytest.raises(EncodingError):
            inst.decode_model(bad)

    def test_soft_clauses_weighted_by_omega(self):
        sample = parse_sample(BASIC)
        inst = EncodingInstance(1, sample, omega_uniform(sample))
        assert len(inst.wcnf.soft) == sample.size
        assert all(w == Fraction(1, 4) for _, w in inst.wcnf.soft)
        # positive traces get the positive root literal, negatives negated
        for t, (trace, label) in enumerate(sample.entries):
            clause, _ = inst.wcnf.soft[t]
            expected = inst.y[(t, 1, 0)]
            assert clause == [expected if label == 1 else -expected]

    def test_omega_domain_checked(self):
        sample = parse_sample(BASIC)
        with pytest.raises(ValueError):
            EncodingInstance(1, sample, {})


class TestOptimalAgainstEnumeration:
    def test_soft_weight_is_one_minus_loss(self):
        rng = random.Random(33)
        for _ in range(20):
            sample = random_sample(rng, ("p0", "p1"), max_traces=6,
                                   max_len=4)
            omega = omega_uniform(sample)
            for n in (1, 2):
                inst = EncodingInstance(n, sample, omega)
                optimum, model = find_optimum(inst.wcnf)
                f = inst.decode_model(model)
                assert weighted_loss(sample, f, omega) == 1 - optimum

    def test_constants_in_pool_allow_trivial_formulas(self):
        sample = parse_sample("1\n0\n---\n")  # all positive
        inst = EncodingInstance(1, sample, omega_uniform(sample),
                                with_constants=True)
        result = decide(inst.wcnf, Fraction(1))
        assert result.status == FEASIBLE
        assert inst.decode_model(result.assignment).to_text() in (
            "true", "p0")


def chosen_child(model, table, i):
    hits = [j for j in range(1, i) if model[table[(i, j)]]]
    assert len(hits) == 1
    return hits[0]


def node_formulas(inst, model):
    """Node id -> the formula of that node's sub-DAG, read off the model's
    label and child variables."""
    builder = FormulaBuilder()
    ids = {}
    for i in range(1, inst.n + 1):
        label = inst.node_label(model, i)
        ids[i] = builder.add(label, *(
            ids[chosen_child(model, table, i)]
            for table in (inst.l, inst.r)[:arity(label)]))
    return {i: builder.finish(ids[i]) for i in ids}


class TestChannels:
    @pytest.mark.parametrize("constants", [False, True],
                             ids=["props", "constants"])
    def test_every_node_and_channel_matches_semantics(self, constants):
        # Under random structures, every node's valuation variable equals
        # its sub-DAG evaluated at every position, and every channel
        # variable equals its chosen child's valuation (for nullary and
        # unary nodes too, whose child slots the semantics ignore).
        rng = random.Random(42)
        for _ in range(40):
            sample = random_sample(rng, ("p0", "p1"), max_traces=4,
                                   max_len=4)
            n = rng.randint(2, 5)
            inst = EncodingInstance(n, sample, omega_uniform(sample),
                                    constants)
            solver = hard_solver(inst)
            for _ in range(5):
                assert solver.solve(random_structure_assumptions(rng, inst))
                model = solver.model()
                formulas = node_formulas(inst, model)
                signatures = {i: f.signature(sample.layout, sample.holds)
                              for i, f in formulas.items()}
                children = {i: (chosen_child(model, inst.l, i),
                                chosen_child(model, inst.r, i))
                            for i in range(2, n + 1)}
                for t, trace in enumerate(inst.traces):
                    for tau in range(len(trace)):
                        bit = sample.layout.offsets[t] + tau
                        for i in range(1, n + 1):
                            assert model[inst.y[(t, i, tau)]] \
                                == bool((signatures[i] >> bit) & 1)
                        for i, (j, k) in children.items():
                            assert model[inst.left[(t, i, tau)]] \
                                == model[inst.y[(t, j, tau)]]
                            assert model[inst.right[(t, i, tau)]] \
                                == model[inst.y[(t, k, tau)]]

    def test_channel_variables_exist_only_for_inner_nodes(self):
        inst = instance_for(BASIC, 3)
        keys = {(t, i, tau) for t, trace in enumerate(inst.traces)
                for i in (2, 3) for tau in range(len(trace))}
        assert set(inst.left) == keys and set(inst.right) == keys


@pytest.mark.parametrize("conj", [False, True], ids=["or", "and"])
@pytest.mark.parametrize("lengths", [(), (2,), (1,), (2, 2), (2, 1)])
def test_define_states_the_definition(lengths, conj):
    # Over fresh variables (own along two positions, inputs of the given
    # lengths), with the guard the negated label variable 1, the clauses
    # hold exactly when label -> (own <-> the or/and of the inputs) at
    # each position that every signal reaches.
    own = [2, 3]
    inputs, nvars = [], 3
    for length in lengths:
        inputs.append(list(range(nvars + 1, nvars + 1 + length)))
        nvars += length
    clauses = []
    sink = types.SimpleNamespace(_add=clauses.append)
    encoding.Encoding._define(sink, -1, encoding._signal(own),
                              [encoding._signal(s) for s in inputs], conj)
    combine = all if conj else any
    for bits in itertools.product((False, True), repeat=nvars):
        value = dict(zip(range(1, nvars + 1), bits))
        holds = all(any(value[abs(v)] == (v > 0) for v in c)
                    for c in clauses)
        defined = all(value[own[tau]] == combine(value[s[tau]]
                                                 for s in inputs)
                      for tau in range(min((2,) + lengths)))
        assert holds == (not value[1] or defined)


def test_hard_clause_count_stays_quadratic_in_size():
    # universality2 at 50 traces, n = 8: one copy of each operator's
    # semantics per (left, right) pair of children took 630,703 hard
    # clauses; channelling takes 91,745.
    sample = generate_sample(GenSpec("universality2", 50, seed=0))
    inst = EncodingInstance(8, sample, omega_uniform(sample))
    assert len(inst.wcnf.hard) <= 150_000


def test_var_comments_cover_all_variables():
    sample = parse_sample(BASIC)
    inst = EncodingInstance(2, sample, omega_uniform(sample),
                            var_comments=True)
    described = {int(line.split()[2]) for line in inst.wcnf.comments
                 if line.startswith("c var ")}
    assert described == set(range(1, inst.wcnf.nvars + 1))
    kinds = {line.split()[3] for line in inst.wcnf.comments
             if line.startswith("c var ")}
    assert kinds == {"x", "l", "r", "y", "L", "R"}


def test_literals_shared_per_trace():
    # Each negated literal is one object per trace, shared by the clause
    # tuples that hold it: about 90 bytes per hard clause on CPython
    # 3.10-3.13, against 125-131 with a new int per clause.
    sample = generate_sample(GenSpec("universality2", 20, seed=0))
    omega = omega_uniform(sample)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = EncodingInstance(6, sample, omega)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / len(inst.wcnf.hard) <= 105


@pytest.mark.parametrize("constants", [(), ("true", "false")])
def test_encoding_over_a_solver_sends_the_full_instance_clauses(constants):
    sent = []

    class Recording(SatSolver):
        def add_clause(self, lits):
            sent.append(lits)
            super().add_clause(lits)

    sample = generate_sample(GenSpec("universality2", 8, seed=0))
    solver = Recording()
    encoded = Encoding(4, sample, bool(constants), solver)
    assert encoded.leaves == sample.alphabet + constants
    encoded.add_traces(range(len(encoded.traces)))
    full = EncodingInstance(4, sample, omega_uniform(sample), bool(constants))
    assert sent == full.wcnf.hard
    assert all(type(c) is tuple for c in sent)
    assert solver.nvars == full.wcnf.nvars


def test_traces_added_after_a_totalizer_get_fresh_variables():
    # The encoder and the totalizer number variables through the sink
    # they share: a trace encoded after a decision over counted roots
    # lies above the totalizer's outputs, and keeps its semantics.
    sample, _ = spec_sample(GenSpec("absence3", 6, 4, 0, 0))
    solver = SatSolver()
    inst = Encoding(3, sample, False, solver)
    inst.add_traces([0, 1])
    encoded = solver.nvars
    softs = [(inst.root_literal(t), 1) for t in (0, 1)]
    assert maxsat.solve_decision(solver, softs, 2).status == FEASIBLE
    totalized = solver.nvars
    assert totalized > encoded
    inst.add_traces([2])
    trace2 = [v for table in (inst.y, inst.left, inst.right)
              for key, v in table.items() if key[0] == 2]
    assert min(trace2) > totalized
    assert max(trace2) == solver.nvars
    for text in ("G (! p0)", "p0 U p1", "X (F p1)", "p1 | p2"):
        f = parse_formula(text, sample.alphabet)
        assert solver.solve(inst.structure_assumptions(f))
        assert solver.model()[inst.y[(2, 3, 0)]] == sample.truth(f)[2]
