"""Shared test oracles: exhaustive formula enumeration and brute-force
weighted MaxSAT, both independent of the code under test's search logic,
a loader that puts a `WeightedCnf` in front of `maxsat.solve_decision`,
and a reader of one enumeration level through `Enumerator.search`."""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from ltlfmine.formula import (BINARY_OPS, EVENTUALLY, FALSE, GLOBALLY,
                              IMPLIES, NEXT, NOT, OR, AND, PROP, TRUE,
                              UNARY_OPS, UNTIL, Formula, FormulaBuilder, arity)
from ltlfmine import maxsat
from ltlfmine.maxsat import (FEASIBLE, HARD_UNSAT, INFEASIBLE, WeightedCnf,
                             check_hard, clause_satisfied,
                             recompute_soft_weight)
from ltlfmine.sat import SatSolver
from ltlfmine.sample import LabeledSample, Trace, make_sample


@functools.cache
def enumerate_formulas(props, max_n, constants=()):
    """All distinct canonical formulas representable by a syntax DAG with
    at most max_n nodes over the propositions, the constants and every
    operator, grouped by exact size.  Cached, as several test modules ask
    for the same sizes: callers must not modify the result.

    Enumerates every node table (per node: a label, plus children with
    smaller ids), decodes the root, and dedupes.  A table of size n can
    decode to a smaller formula (sharing, unreachable nodes), so sizes are
    taken from the canonical formula, not the table.
    """
    labels = list(props) + list(constants)

    def node_options(i):
        opts = [(p, 0, 0) for p in labels]
        for op in UNARY_OPS:
            opts += [(op, j, 0) for j in range(1, i)]
        for op in BINARY_OPS:
            opts += [(op, j, k) for j in range(1, i) for k in range(1, i)]
        return opts

    by_size: dict[int, list[Formula]] = {}
    seen = set()
    for n in range(1, max_n + 1):
        for combo in itertools.product(*(node_options(i)
                                         for i in range(1, n + 1))):
            builder = FormulaBuilder()
            ids = {}
            for i, (label, j, k) in enumerate(combo, start=1):
                ids[i] = builder.add(label, *(ids[c] for c in (j, k) if c))
            f = builder.finish(ids[n])
            if f.nodes not in seen:
                seen.add(f.nodes)
                by_size.setdefault(f.size, []).append(f)
    return by_size


def reference_evaluate(f: Formula, trace, position: int) -> int:
    """Finite-trace valuation by memoized recursion over (node, position):
    the reference for the bits of `Formula.signature`."""
    return reference_valuation(f, trace)(f.root, position)


def reference_signatures(f: Formula, traces) -> dict[int, tuple]:
    """Node id -> the node's reference valuation at every position of
    every trace, in order: its signature on the traces."""
    values = [reference_valuation(f, u) for u in traces]
    return {i: tuple(value(i, pos) for value, u in zip(values, traces)
                     for pos in range(len(u)))
            for i in range(1, f.size + 1)}


def reference_valuation(f: Formula, trace):
    """value(node id, position) on `trace`, memoized."""
    memo: dict[tuple[int, int], int] = {}
    last = len(trace) - 1

    def value(i: int, pos: int) -> int:
        key = (i, pos)
        if key in memo:
            return memo[key]
        node = f.node(i)
        op = node.op
        if op == PROP:
            val = 1 if node.name in trace[pos] else 0
        elif op == TRUE:
            val = 1
        elif op == FALSE:
            val = 0
        elif op == NOT:
            val = 1 - value(node.left, pos)
        elif op == NEXT:
            val = 0 if pos == last else value(node.left, pos + 1)
        elif op == EVENTUALLY:
            val = int(any(value(node.left, j) for j in range(pos, last + 1)))
        elif op == GLOBALLY:
            val = int(all(value(node.left, j) for j in range(pos, last + 1)))
        elif op == OR:
            val = max(value(node.left, pos), value(node.right, pos))
        elif op == AND:
            val = min(value(node.left, pos), value(node.right, pos))
        elif op == IMPLIES:
            val = max(1 - value(node.left, pos), value(node.right, pos))
        else:
            assert op == UNTIL
            val = 0
            for j in range(pos, last + 1):
                if value(node.right, j):
                    val = 1
                    break
                if not value(node.left, j):
                    break
        memo[key] = val
        return val

    return value


def solver_with(nvars: int) -> SatSolver:
    """A fresh `SatSolver` with variables 1..nvars numbered, for clauses
    written with raw literals."""
    solver = SatSolver()
    for _ in range(nvars):
        solver.new_var()
    return solver


def load_decision(wcnf: WeightedCnf):
    """`wcnf` in a fresh SAT solver: (solver, softs, D) for
    `maxsat.solve_decision`, with every hard clause added and the soft
    weights scaled to integers by their denominator D.  A unit soft
    clause is its own soft literal; a longer one gets a fresh variable s
    and the hard clause s -> clause."""
    denom, scaled = maxsat.scaled_soft(wcnf)
    solver = solver_with(wcnf.nvars)
    for clause in wcnf.hard:
        solver.add_clause(clause)
    softs = []
    for clause, weight in scaled:
        if len(clause) == 1:
            lit = clause[0]
        else:
            lit = solver.new_var()
            solver.add_clause(list(clause) + [-lit])
        softs.append((lit, weight))
    return solver, softs, denom


def decide(wcnf: WeightedCnf, target: Fraction):
    """`maxsat.solve_decision` on a fresh load of `wcnf` for satisfied soft
    weight >= `target`."""
    solver, softs, denom = load_decision(wcnf)
    return maxsat.solve_decision(solver, softs, math.ceil(target * denom))


def achievable_sums(wcnf: WeightedCnf) -> list[Fraction]:
    """Every sum of a subset of the soft weights, ascending."""
    sums = {Fraction(0)}
    for _, w in wcnf.soft:
        sums |= {s + w for s in sums}
    return sorted(sums)


def pin_optimum(wcnf: WeightedCnf, optimum: Fraction) -> dict:
    """Assert that `optimum` is the largest satisfiable soft weight: the
    decision at it is FEASIBLE, with a model that satisfies every hard
    clause and weighs at least that much, and the decision at the next
    achievable sum above it is INFEASIBLE.  Returns the model."""
    result = decide(wcnf, optimum)
    assert result.status == FEASIBLE
    assert check_hard(wcnf, result.assignment)
    assert recompute_soft_weight(wcnf, result.assignment) >= optimum
    above = [s for s in achievable_sums(wcnf) if s > optimum]
    if above:
        assert decide(wcnf, above[0]).status == INFEASIBLE
    return result.assignment


def find_optimum(wcnf: WeightedCnf):
    """(largest satisfiable soft weight, a model reaching it) by decisions
    at the achievable sums from the top down, or None when the hard
    clauses are unsatisfiable."""
    for s in reversed(achievable_sums(wcnf)):
        result = decide(wcnf, s)
        if result.status == HARD_UNSAT:
            return None
        if result.status == FEASIBLE:
            assert check_hard(wcnf, result.assignment)
            assert recompute_soft_weight(wcnf, result.assignment) == s
            return s, result.assignment
    raise AssertionError("the decision at weight 0 must be feasible")


def sat_decision(sample, omega, with_constants, kappa, n, encoded=None,
                 deadline=None, record=None):
    """The learner's SAT-side decision of size n, `_decide_sat`, called
    directly, with T the trace subset `encoded`.  A formula and its loss,
    or None."""
    from ltlfmine import learner
    from ltlfmine.enumeration import Enumerator

    record = {} if record is None else record
    record.setdefault("traces_encoded", 0)
    record.setdefault("rounds", 0)
    return learner._decide_sat(
        sample, omega, with_constants,
        Enumerator(sample, omega, with_constants), kappa,
        [] if encoded is None else encoded, n, deadline, record)


def read_level(enumerator, n):
    """(key, signature) of every formula of size n, in `_chunks` order,
    read by a search with bound -1 that records each chunk `_chunks`
    hands it.  No scaled loss is at most -1, so the search passes over
    every chunk and stores it whole, as any search does the chunks before
    its first hit."""
    streamed = []
    chunks = type(enumerator)._chunks

    def recorded(m):
        for keys, sigs in chunks(enumerator, m):
            streamed.extend(zip(keys, sigs))
            yield keys, sigs

    enumerator._chunks = recorded
    try:
        assert list(enumerator.search(n, -1, [None])) == []
    finally:
        del enumerator._chunks
    return streamed


def sat_minimal(sample, omega, kappa, max_size, with_constants=False):
    """The learner's loop over sizes 1..max_size with every size decided
    by `sat_decision`, T carried across sizes: (size, formula, loss,
    per-size records), size None when no size up to max_size is
    feasible."""
    encoded, records = [], []
    for n in range(1, max_size + 1):
        record = {"size": n, "status": "timeout"}
        records.append(record)
        found = sat_decision(sample, omega, with_constants, kappa, n, encoded,
                             record=record)
        if found is not None:
            return n, found[0], found[1], records
    return None, None, None, records


def brute_minimal_size(sample, kappa, omega, formulas_by_size):
    """Smallest formula size with weighted loss <= kappa, by enumeration."""
    from ltlfmine.sample import weighted_loss

    for n in sorted(formulas_by_size):
        for f in formulas_by_size[n]:
            if weighted_loss(sample, f, omega) <= kappa:
                return n
    return None


def brute_maxsat(wcnf: WeightedCnf):
    """Exhaustive optimum: (best soft weight, assignment) or None if the
    hard clauses are unsatisfiable.  Only for small variable counts."""
    best = None
    for bits in itertools.product([False, True], repeat=wcnf.nvars):
        assignment = {v: bits[v - 1] for v in range(1, wcnf.nvars + 1)}
        if not all(clause_satisfied(c, assignment) for c in wcnf.hard):
            continue
        weight = sum((w for c, w in wcnf.soft
                      if clause_satisfied(c, assignment)), Fraction(0))
        if best is None or weight > best[0]:
            best = (weight, assignment)
    return best


def random_trace(rng: random.Random, props, max_len) -> Trace:
    return tuple(
        frozenset(p for p in props if rng.random() < 0.5)
        for _ in range(rng.randint(1, max_len)))


def random_sample(rng: random.Random, props, max_traces, max_len,
                  require_both_classes=False) -> LabeledSample:
    while True:
        entries = [(random_trace(rng, props, max_len), rng.randint(0, 1))
                   for _ in range(rng.randint(1, max_traces))]
        labels: dict[Trace, int] = {}
        for u, b in entries:
            labels.setdefault(u, b)
        sample = make_sample(props, [(u, labels[u]) for u, _ in entries])
        if not require_both_classes:
            return sample
        if sample.positives() and sample.negatives():
            return sample


def random_weights(rng: random.Random, sample: LabeledSample) -> dict:
    """Explicit trace weights summing to 1, each k/total for k in 1..5."""
    raw = {u: rng.randint(1, 5) for u in sample.traces()}
    total = sum(raw.values())
    return {u: Fraction(k, total) for u, k in raw.items()}


def random_formula(rng: random.Random, props, depth) -> Formula:
    builder = FormulaBuilder()

    def build(d) -> int:
        if d == 0 or rng.random() < 0.3:
            return builder.add(rng.choice(list(props)))
        op = rng.choice(UNARY_OPS + BINARY_OPS)
        return builder.add(op, *(build(d - 1) for _ in range(arity(op))))

    return builder.finish(build(depth))
