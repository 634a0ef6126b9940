import itertools
import types

import pytest

from ltlfmine import cnf
from ltlfmine.cnf import totalizer
from ltlfmine.sat import SatSolver
from helpers import solver_with


def unit(lits):
    return [(lit, 1) for lit in lits]


class TestTotalizer:
    def check_exhaustive(self, weights):
        # One output per nonzero subset sum, and under every input
        # assignment the clauses force o_s to [true inputs weigh >= s].
        n = len(weights)
        solver = solver_with(n)
        lits = list(range(1, n + 1))
        outs = totalizer(list(zip(lits, weights)), solver)
        sums = {sum(c) for k in range(1, n + 1)
                for c in itertools.combinations(weights, k)}
        assert [s for s, _ in outs] == sorted(sums)
        for bits in itertools.product([False, True], repeat=n):
            assumptions = [v if bits[v - 1] else -v for v in lits]
            weight = sum(w for w, b in zip(weights, bits) if b)
            for s, out in outs:
                forced = out if weight >= s else -out
                assert solver.solve(assumptions + [forced])
                assert not solver.solve(assumptions + [-forced])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_counts_exactly(self, n):
        self.check_exhaustive([1] * n)

    @pytest.mark.parametrize("weights", [
        [5, 3], [3, 5], [2, 2, 3], [1, 1, 2, 2, 2], [1, 2, 4, 8],
        [4, 4, 4], [7, 1, 3, 1, 5, 2], [6, 10, 15, 6]])
    def test_weighted_sums_exactly(self, weights):
        self.check_exhaustive(weights)

    def test_unit_weights_match_cardinality_totalizer(self):
        # Unit counters need no chain clauses: lower and upper direction
        # per pair of child counts, nothing else.
        clauses = []
        counter = itertools.count(9)
        sink = types.SimpleNamespace(new_var=lambda: next(counter),
                                     add_clause=clauses.append)
        outs = totalizer(unit(range(1, 9)), sink)
        assert [s for s, _ in outs] == list(range(1, 9))
        assert len(clauses) == 2 * sum((a + 1) * (b + 1) - 1
                                       for a, b in [(1, 1)] * 4
                                       + [(2, 2)] * 2 + [(4, 4)])

    def test_two_weights_stay_small(self):
        # Rebalanced trace weights on 101 positives and 399 negatives:
        # each weight gets its own counter, so only the root mixes them,
        # with 102 * 400 pairs of child sums.  Splitting the weight-sorted
        # leaves by count would put about 3.8M pairs at the root.
        clauses = []
        counter = itertools.count(501)
        leaves = [(v, 399) for v in range(1, 102)]
        leaves += [(v, 101) for v in range(102, 501)]
        sink = types.SimpleNamespace(new_var=lambda: next(counter),
                                     add_clause=clauses.append)
        outs = totalizer(leaves, sink)
        assert [s for s, _ in outs] == sorted(
            {399 * a + 101 * b for a in range(102) for b in range(400)} - {0})
        assert len(clauses) < 400_000

    def test_empty_input(self):
        solver = SatSolver()
        assert totalizer([], solver) == []

    def test_node_pair_cap_enforced(self, monkeypatch):
        # Two leaves of weights 1 and 2 merge into a node of (1+1)*(1+1)
        # pairs of child sums, over a cap of 3.
        monkeypatch.setattr(cnf, "MAX_NODE_PAIRS", 3)
        solver = solver_with(2)
        with pytest.raises(ValueError, match="too many"):
            totalizer([(1, 1), (2, 2)], solver)

    def test_nonpositive_weight_rejected(self):
        solver = SatSolver()
        with pytest.raises(ValueError):
            totalizer([(1, 0)], solver)

    def test_output_assumption_forces_count(self):
        # Assuming o_k must force at least k true inputs in every model.
        n = 6
        solver = solver_with(n)
        outs = totalizer(unit(range(1, n + 1)), solver)
        for k, out in outs:
            assert solver.solve([out])
            model = solver.model()
            assert sum(model[v] for v in range(1, n + 1)) >= k

    def test_negative_input_literals(self):
        # Counting falsified variables works the same way.
        n = 4
        solver = solver_with(n)
        outs = totalizer(unit(-v for v in range(1, n + 1)), solver)
        assert solver.solve([outs[2][1], 1])  # >= 3 of them false, var 1 true
        model = solver.model()
        assert sum(not model[v] for v in range(1, n + 1)) >= 3
        assert model[1]
