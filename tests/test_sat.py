import itertools
import random
import time

import pytest

from ltlfmine.sat import SatSolver, SolveTimeout, _luby, check_deadline
from helpers import solver_with


def test_luby_sequence():
    assert [_luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def brute_sat(nvars, clauses, assumptions=()):
    for bits in itertools.product([False, True], repeat=nvars):
        def val(lit):
            return bits[abs(lit) - 1] == (lit > 0)
        if all(val(a) for a in assumptions) and \
                all(any(val(l) for l in c) for c in clauses):
            return True
    return False


def random_cnf(rng, nvars, nclauses, width=3):
    return [
        [rng.choice([-1, 1]) * rng.randint(1, nvars)
         for _ in range(rng.randint(1, width))]
        for _ in range(nclauses)]


class TestBasics:
    def test_empty_is_sat(self):
        assert SatSolver().solve()

    def test_unit_propagation(self):
        s = solver_with(2)
        s.add_clause([1])
        s.add_clause([-1, 2])
        assert s.solve()
        assert s.model()[1] and s.model()[2]

    def test_contradictory_units(self):
        s = solver_with(1)
        s.add_clause([1])
        s.add_clause([-1])
        assert not s.solve()

    def test_empty_clause(self):
        s = SatSolver()
        s.add_clause([])
        assert not s.solve()

    def test_tautology_skipped(self):
        s = solver_with(1)
        s.add_clause([1, -1])
        assert s.solve()

    def test_duplicate_literals_collapsed(self):
        s = solver_with(1)
        s.add_clause([1, 1, 1])
        assert s.solve()
        assert s.model()[1]

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            solver_with(1).add_clause([1, 0])

    def test_only_numbered_variables_accepted(self):
        # `new_var` is the one allocator: a literal it did not number is
        # rejected, in a clause and as an assumption alike.
        s = SatSolver()
        with pytest.raises(ValueError,
                           match="literal 1 outside variables 1..0"):
            s.add_clause([1])
        with pytest.raises(ValueError,
                           match="literal 1 outside variables 1..0"):
            s.solve([1])
        assert s.new_var() == 1
        s.add_clause([1])
        assert s.solve([1])
        with pytest.raises(ValueError,
                           match="literal -2 outside variables 1..1"):
            s.solve([-2])
        with pytest.raises(ValueError):
            s.add_clause([1, 0])

    def test_pigeonhole_3_into_2_unsat(self):
        # var(p, h) = pigeon p in hole h
        s = solver_with(6)
        v = lambda p, h: 2 * p + h + 1
        for p in range(3):
            s.add_clause([v(p, 0), v(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    s.add_clause([-v(p1, h), -v(p2, h)])
        assert not s.solve()


class TestAssumptions:
    def build_xor_chain(self):
        # x1 xor x2 = x3 via clauses
        s = solver_with(3)
        s.add_clause([-1, -2, -3])
        s.add_clause([1, 2, -3])
        s.add_clause([1, -2, 3])
        s.add_clause([-1, 2, 3])
        return s

    def test_assumptions_restrict(self):
        s = self.build_xor_chain()
        assert s.solve([1, 2])
        assert not s.model()[3]
        assert s.solve([1, 2, 3]) is False
        # Solver must remain usable after assumption failure.
        assert s.solve([1, -2, 3])

    def test_assumption_conflicting_with_units(self):
        s = solver_with(1)
        s.add_clause([1])
        assert not s.solve([-1])
        assert s.solve([1])
        assert s.solve([])

    def test_randomized_against_brute_force(self):
        rng = random.Random(42)
        for round_ in range(200):
            nvars = rng.randint(1, 8)
            clauses = random_cnf(rng, nvars, rng.randint(1, 20))
            assumptions = [rng.choice([-1, 1]) * v
                           for v in rng.sample(range(1, nvars + 1),
                                               rng.randint(0, nvars))]
            solver = solver_with(nvars)
            for c in clauses:
                solver.add_clause(c)
            got = solver.solve(assumptions)
            assert got == brute_sat(nvars, clauses, assumptions)
            if got:
                model = solver.model()
                def val(lit):
                    return model[abs(lit)] == (lit > 0)
                assert all(any(val(l) for l in c) for c in clauses)
                assert all(val(a) for a in assumptions)

    def test_dense_randomized_against_brute_force(self):
        # Few variables, many clauses: watch lists grow long enough for
        # propagation to visit only the watches whose blocker is not true.
        rng = random.Random(43)
        for round_ in range(150):
            nvars = rng.randint(4, 9)
            clauses = [[rng.choice([-1, 1]) * v
                        for v in rng.sample(range(1, nvars + 1), 3)]
                       for _ in range(rng.randint(3 * nvars, 5 * nvars))]
            assumptions = [rng.choice([-1, 1]) * v
                           for v in rng.sample(range(1, nvars + 1),
                                               rng.randint(0, 2))]
            solver = solver_with(nvars)
            for c in clauses:
                solver.add_clause(c)
            got = solver.solve(assumptions)
            assert got == brute_sat(nvars, clauses, assumptions)
            if got:
                model = solver.model()
                def val(lit):
                    return model[abs(lit)] == (lit > 0)
                assert all(any(val(l) for l in c) for c in clauses)
                assert all(val(a) for a in assumptions)

    def test_incremental_solving_with_clause_additions(self):
        rng = random.Random(7)
        nvars = 10
        solver = solver_with(nvars)
        clauses = []
        for _ in range(60):
            c = random_cnf(rng, nvars, 1)[0]
            clauses.append(c)
            solver.add_clause(c)
            assert solver.solve() == brute_sat(nvars, clauses)
            if solver.unsat:
                break

    @pytest.mark.parametrize("seed", range(40))
    def test_growth_after_sat_under_assumptions(self, seed):
        # The exact learner's pattern: after each satisfiable solve, fresh
        # variables and clauses over old and new ones arrive, and one more
        # assumption joins the list; the solver is never rebuilt.
        rng = random.Random(seed)
        nvars = rng.randint(1, 3)
        solver = solver_with(nvars)
        clauses = random_cnf(rng, nvars, rng.randint(0, 4))
        for c in clauses:
            solver.add_clause(c)
        assumptions = []
        for _ in range(8):
            got = solver.solve(assumptions)
            assert got == brute_sat(nvars, clauses, assumptions)
            if solver.unsat:
                assert not brute_sat(nvars, clauses)
            if got:
                model = solver.model()
                def val(lit):
                    return model[abs(lit)] == (lit > 0)
                assert all(any(val(l) for l in c) for c in clauses)
                assert all(val(a) for a in assumptions)
            elif solver.unsat:
                break
            added = rng.randint(0, 2)
            for _ in range(added):
                solver.new_var()
            nvars += added
            for c in random_cnf(rng, nvars, rng.randint(1, 4)):
                clauses.append(c)
                solver.add_clause(c)
            assumptions.append(rng.choice([-1, 1]) * rng.randint(1, nvars))
        # Without assumptions, False means the clauses alone are UNSAT.
        satisfiable = brute_sat(nvars, clauses)
        assert solver.solve() == satisfiable
        assert solver.unsat == (not satisfiable)


class _OrderChecked(SatSolver):
    """A solver that checks, after every backtrack, that each unassigned
    variable has an `order` entry keyed by its current activity, so that
    an empty heap in `_pick_branch_var` means every variable is assigned."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def _backtrack(self, target_level):
        super()._backtrack(target_level)
        entries = set(self.order)
        for v in range(1, self.nvars + 1):
            if self.value[2 * v] == -1:
                assert (-self.activity[v], v) in entries, v
        self.checks += 1


class TestBranchOrder:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("var_inc", [1.0, 1e100])
    def test_unassigned_variables_keep_a_current_entry(self, seed, var_inc):
        # Random 3-SAT near the threshold, grown between solves (new
        # variables included) as in the learner.  Near 1e100 the first
        # bumps rescale every activity and rebuild the heap.
        rng = random.Random(seed)
        solver = _OrderChecked()
        solver.var_inc = var_inc
        clauses = []
        for nvars in (30, 40, 50, 60):
            while solver.nvars < nvars:
                solver.new_var()
            for _ in range(int(4.26 * nvars) - len(clauses)):
                clause = [rng.choice([-1, 1]) * v
                          for v in rng.sample(range(1, nvars + 1), 3)]
                clauses.append(clause)
                solver.add_clause(clause)
            assumptions = [rng.choice([-1, 1]) * rng.randint(1, nvars)]
            if solver.solve(assumptions):
                model = solver.model()
                assert all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in clauses + [assumptions])
        assert solver.checks > 10
        if var_inc > 1:
            assert solver.var_inc < 1e50  # rescaled by 1e-100


def test_check_deadline():
    check_deadline(None)
    with pytest.raises(SolveTimeout):
        check_deadline(time.monotonic())
    check_deadline(time.monotonic() + 60)


def test_deadline_raises_timeout():
    # A hard random instance; with an already-expired deadline the solver
    # must raise at the first conflict.
    rng = random.Random(1)
    s = solver_with(56)
    v = lambda p, h: 7 * p + h + 1
    for p in range(8):
        s.add_clause([v(p, h) for h in range(7)])
    for h in range(7):
        for p1 in range(8):
            for p2 in range(p1 + 1, 8):
                s.add_clause([-v(p1, h), -v(p2, h)])
    with pytest.raises(SolveTimeout):
        s.solve(deadline=time.monotonic() - 1)
