import io
import random
import time
from fractions import Fraction

import pytest

from ltlfmine import maxsat
from ltlfmine.maxsat import (FEASIBLE, HARD_UNSAT, INFEASIBLE, WeightedCnf,
                             check_hard, export_wcnf, import_model,
                             parse_wcnf, recompute_soft_weight,
                             solve_decision)
from helpers import brute_maxsat, decide, load_decision, pin_optimum


def random_wcnf(rng, max_vars=8, max_hard=12, max_soft=6):
    nvars = rng.randint(1, max_vars)
    wcnf = WeightedCnf(nvars)
    for _ in range(rng.randint(0, max_hard)):
        clause = [rng.choice([-1, 1]) * rng.randint(1, nvars)
                  for _ in range(rng.randint(1, 3))]
        wcnf.add_clause(clause)
    for _ in range(rng.randint(1, max_soft)):
        clause = [rng.choice([-1, 1]) * rng.randint(1, nvars)
                  for _ in range(rng.randint(1, 2))]
        wcnf.add_soft(clause, Fraction(rng.randint(1, 5),
                                       rng.randint(1, 10)))
    return wcnf


class TestSolveOptimal:
    """The optimum, pinned by a FEASIBLE decision at it and an INFEASIBLE
    one at the next achievable sum above it."""

    def test_trivial_all_satisfiable(self):
        wcnf = WeightedCnf(2)
        wcnf.add_soft([1], Fraction(1, 2))
        wcnf.add_soft([2], Fraction(1, 2))
        pin_optimum(wcnf, Fraction(1))

    def test_conflicting_units(self):
        wcnf = WeightedCnf(1)
        wcnf.add_soft([1], Fraction(2, 3))
        wcnf.add_soft([-1], Fraction(1, 3))
        assert pin_optimum(wcnf, Fraction(2, 3))[1] is True

    def test_hard_unsat(self):
        wcnf = WeightedCnf(1)
        wcnf.add_clause([1])
        wcnf.add_clause([-1])
        wcnf.add_soft([1], Fraction(1))
        assert decide(wcnf, Fraction(0)).status == HARD_UNSAT

    def test_hard_constraints_respected(self):
        wcnf = WeightedCnf(2)
        wcnf.add_clause([-1, -2])
        wcnf.add_soft([1], Fraction(1, 2))
        wcnf.add_soft([2], Fraction(1, 2))
        assert check_hard(wcnf, pin_optimum(wcnf, Fraction(1, 2)))

    def test_non_unit_soft_clauses(self):
        wcnf = WeightedCnf(3)
        wcnf.add_clause([-1])
        wcnf.add_soft([1, 2], Fraction(1, 4))
        wcnf.add_soft([1, 3], Fraction(1, 4))
        wcnf.add_soft([-2, -3], Fraction(1, 2))
        # With 1 forced false, at most one of the first two softs can be
        # satisfied alongside the third: optimum 1/4 + 1/2.
        pin_optimum(wcnf, Fraction(3, 4))

    def test_matches_brute_force_randomized(self):
        rng = random.Random(9)
        for _ in range(150):
            wcnf = random_wcnf(rng)
            expected = brute_maxsat(wcnf)
            if expected is None:
                assert decide(wcnf, Fraction(0)).status == HARD_UNSAT
            else:
                pin_optimum(wcnf, expected[0])


class TestSolveDecision:
    def test_feasible_target(self):
        wcnf = WeightedCnf(1)
        wcnf.add_soft([1], Fraction(2, 3))
        wcnf.add_soft([-1], Fraction(1, 3))
        result = decide(wcnf, Fraction(1, 2))
        assert result.status == FEASIBLE
        assert result.weight == 2  # 2/3 at denominator 3
        assert recompute_soft_weight(wcnf, result.assignment) \
            >= Fraction(1, 2)

    def test_infeasible_target(self):
        wcnf = WeightedCnf(1)
        wcnf.add_soft([1], Fraction(2, 3))
        wcnf.add_soft([-1], Fraction(1, 3))
        assert decide(wcnf, Fraction(9, 10)).status == INFEASIBLE

    def test_target_above_total_weight(self):
        wcnf = WeightedCnf(1)
        wcnf.add_soft([1], Fraction(1, 2))
        assert decide(wcnf, Fraction(2)).status == INFEASIBLE

    def test_zero_target_reduces_to_hard_sat(self):
        wcnf = WeightedCnf(1)
        wcnf.add_clause([1])
        wcnf.add_soft([-1], Fraction(1))
        result = decide(wcnf, Fraction(0))
        assert result.status == FEASIBLE
        assert result.weight == 0

    def test_hard_unsat_distinguished_from_infeasible(self):
        wcnf = WeightedCnf(1)
        wcnf.add_clause([1])
        wcnf.add_clause([-1])
        wcnf.add_soft([1], Fraction(1))
        assert decide(wcnf, Fraction(1, 2)).status == HARD_UNSAT

    def test_agrees_with_optimum_randomized(self):
        rng = random.Random(10)
        for _ in range(100):
            wcnf = random_wcnf(rng)
            expected = brute_maxsat(wcnf)
            target = Fraction(rng.randint(0, 4), 4) * sum(
                w for _, w in wcnf.soft)
            result = decide(wcnf, target)
            if expected is None:
                assert result.status == HARD_UNSAT
            elif expected[0] >= target:
                assert result.status == FEASIBLE
                assert check_hard(wcnf, result.assignment)
                assert recompute_soft_weight(wcnf, result.assignment) \
                    >= target
            else:
                assert result.status == INFEASIBLE

    def test_many_distinct_weights_fail_promptly(self):
        # 30 power-of-two weights give 2^30 - 1 distinct sums: the
        # totalizer refuses the root node instead of enumerating them.
        wcnf = WeightedCnf(30)
        for v in range(1, 31):
            wcnf.add_soft([v], Fraction(2 ** (v - 1), 2 ** 30 - 1))
        started = time.monotonic()
        with pytest.raises(ValueError, match="distinct"):
            decide(wcnf, Fraction(1, 2))
        assert time.monotonic() - started < 30

    def test_decides_in_the_callers_solver(self):
        # The totalizer goes into the solver that holds the hard clauses.
        wcnf = WeightedCnf(2)
        wcnf.add_clause([-1, -2])
        wcnf.add_soft([1], Fraction(2, 3))
        wcnf.add_soft([-2], Fraction(1, 3))
        solver, softs, denom = load_decision(wcnf)
        nvars, nclauses = solver.nvars, len(solver.clauses)
        result = solve_decision(solver, softs, 3)
        assert (denom, result.status, result.weight) == (3, FEASIBLE, 3)
        assert solver.nvars > nvars and len(solver.clauses) > nclauses
        assert result.assignment[1] and not result.assignment[2]

    def test_assumptions_hold_in_both_solves(self):
        # Under -2 only x1 (weight 1 of 3) can hold, so the first solve
        # falls short of 2 and the solve under the totalizer output must
        # keep the assumption.
        wcnf = WeightedCnf(2)
        wcnf.add_clause([-1, -2])
        wcnf.add_soft([1], Fraction(1, 3))
        wcnf.add_soft([2], Fraction(2, 3))

        def decide_under(target, assumptions):
            solver, softs, _ = load_decision(wcnf)
            return solve_decision(solver, softs, target,
                                  assumptions=assumptions)

        assert decide_under(2, []).status == FEASIBLE
        assert decide_under(2, [-2]).status == INFEASIBLE
        result = decide_under(1, [-2])
        assert (result.status, result.weight) == (FEASIBLE, 1)
        assert result.assignment[1] and not result.assignment[2]

    def test_refuted_assumptions_are_infeasible_not_hard_unsat(self):
        wcnf = WeightedCnf(1)
        wcnf.add_clause([1])
        solver, softs, _ = load_decision(wcnf)
        assert softs == []
        assert solve_decision(solver, softs, 0,
                              assumptions=[-1]).status == INFEASIBLE
        result = solve_decision(solver, softs, 0)
        assert (result.status, result.assignment[1]) == (FEASIBLE, True)


class TestWcnfFormat:
    def build(self):
        wcnf = WeightedCnf(3)
        wcnf.add_clause([1, -2])
        wcnf.add_clause([2, 3])
        wcnf.add_soft([1], Fraction(1, 3))
        wcnf.add_soft([-3], Fraction(1, 6))
        return wcnf

    def test_export_format(self):
        buf = io.StringIO()
        export_wcnf(self.build(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "c weight-scale 6"
        assert lines[1] == "p wcnf 3 4 4"  # scaled softs are 2 and 1, top 4
        assert lines[2] == "4 1 -2 0"
        assert lines[4] == "2 1 0"

    def test_round_trip(self):
        wcnf = self.build()
        buf = io.StringIO()
        export_wcnf(wcnf, buf)
        back = parse_wcnf(buf.getvalue())
        assert back.nvars == wcnf.nvars
        assert back.hard == wcnf.hard
        assert back.soft == wcnf.soft

    def test_round_trip_preserves_solution(self):
        rng = random.Random(12)
        for _ in range(25):
            wcnf = random_wcnf(rng)
            buf = io.StringIO()
            export_wcnf(wcnf, buf)
            back = parse_wcnf(buf.getvalue())
            expected = brute_maxsat(wcnf)
            for instance in (wcnf, back):
                if expected is None:
                    assert decide(instance, Fraction(0)).status == HARD_UNSAT
                else:
                    pin_optimum(instance, expected[0])

    def test_import_model_v_lines(self):
        wcnf = self.build()
        model = import_model("s OPTIMUM FOUND\nv 1 2 -3 0\n", wcnf)
        assert model == {1: True, 2: True, 3: False}

    def test_import_model_bare_ints(self):
        wcnf = self.build()
        model = import_model("1 -2 3", wcnf)
        assert model[1] and not model[2] and model[3]

    def test_import_model_rejects_hard_violation(self):
        wcnf = self.build()
        with pytest.raises(ValueError, match="hard"):
            import_model("v -1 2 -3 0", wcnf)

    def test_import_model_rejects_empty(self):
        with pytest.raises(ValueError, match="no literals"):
            import_model("c nothing\n", self.build())

    def test_import_model_rejects_unknown_variable(self):
        with pytest.raises(ValueError, match="outside"):
            import_model("v 1 -2 7 0", WeightedCnf(2))

    def test_import_model_rejects_both_signs(self):
        with pytest.raises(ValueError, match="both signs"):
            import_model("1 -1 2", WeightedCnf(2))

    def test_import_model_rejects_bit_string(self):
        # MaxSAT-Evaluation-style "v 0110" is not a list of literals.
        with pytest.raises(ValueError, match="outside"):
            import_model("v 0110\n", WeightedCnf(4))

    def test_import_model_accepts_repeated_literal(self):
        model = import_model("v 1 1 -2 0", WeightedCnf(2))
        assert model == {1: True, 2: False}

    def test_parse_rejects_short_p_line(self):
        with pytest.raises(ValueError, match="malformed p-line"):
            parse_wcnf("p wcnf 2 1\n1 2 0\n")

    def test_parse_rejects_literal_beyond_nvars(self):
        with pytest.raises(ValueError, match="outside variables 1..2"):
            parse_wcnf("p wcnf 2 2 3\n3 9 0\n1 1 0\n")
        with pytest.raises(ValueError, match="literal -3 outside"):
            parse_wcnf("p wcnf 2 1 3\n3 1 -3 0\n")
        with pytest.raises(ValueError, match="literal 0 outside"):
            parse_wcnf("p wcnf 2 1 3\n3 1 0 2 0\n")

    def test_parse_rejects_clause_count_other_than_declared(self):
        with pytest.raises(ValueError, match="2 clauses, but the p-line "
                                             "declares 5"):
            parse_wcnf("p wcnf 2 5 3\n3 2 0\n1 1 0\n")
        with pytest.raises(ValueError, match="declares 1"):
            parse_wcnf("p wcnf 2 1 3\n3 2 0\n1 1 0\n")

    def test_parse_accepts_declared_counts(self):
        wcnf = parse_wcnf("c weight-scale 2\np wcnf 2 3 3\n3 -1 2 0\n"
                          "3 0\n1 1 0\n")
        assert wcnf.nvars == 2
        assert wcnf.hard == [(-1, 2), ()]
        assert wcnf.soft == [([1], Fraction(1, 2))]

    @pytest.mark.parametrize("text, message", [
        ("c weight-scale 0\np wcnf 1 1 2\n1 1 0\n", "weight scale 0 "),
        ("c weight-scale -2\np wcnf 1 1 2\n1 1 0\n", "weight scale -2 "),
        ("p wcnf 1 2 5\n-3 1 0\n5 -1 0\n", "soft weight -3 "),
        ("p wcnf 1 2 5\n0 1 0\n5 -1 0\n", "soft weight 0 "),
        ("p wcnf 1 1 2\np wcnf 2 1 3\n1 1 0\n", "second p-line")],
        ids=["zero-scale", "negative-scale", "negative-soft", "zero-soft",
             "second-p-line"])
    def test_parse_rejects_malformed_input(self, text, message):
        # Input from outside: a weight scale or soft weight below 1, or
        # a second p-line, which would reset nvars and top.
        with pytest.raises(ValueError, match=message):
            parse_wcnf(text)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedCnf(1).add_soft([1], Fraction(0))

    def test_clause_sink(self):
        # The clause sink protocol: new_var numbers the variables after
        # nvars, and add_clause stores a tuple, the given one itself.
        wcnf = WeightedCnf(5)
        assert wcnf.new_var() == 6
        assert wcnf.new_var() == 7
        assert wcnf.nvars == 7
        clause = (1, -2)
        wcnf.add_clause(clause)
        wcnf.add_clause([3])
        wcnf.add_clause(range(4, 6))
        assert wcnf.hard == [(1, -2), (3,), (4, 5)]
        assert wcnf.hard[0] is clause
        assert all(type(c) is tuple for c in wcnf.hard)

    def test_hard_literal_beyond_nvars_rejected(self):
        # Stored, literal 5 was exported as "p wcnf 1 2 2 / 2 5 0 / 1 1 0",
        # a file parse_wcnf rejects; the sink rejects it as SatSolver does,
        # stores nothing, and what it holds reads back.
        wcnf = WeightedCnf(1)
        with pytest.raises(ValueError, match="literal 5 outside variables "
                                             r"1\.\.1"):
            wcnf.add_clause([5])
        for clause in ([1, -2], [0]):
            with pytest.raises(ValueError, match="outside variables"):
                wcnf.add_clause(clause)
        wcnf.add_soft([1], Fraction(1))
        assert wcnf.hard == []
        assert parse_wcnf(export_text(wcnf)).soft == [([1], Fraction(1))]

    @pytest.mark.parametrize("lit", [2, -2, 0])
    def test_soft_literal_beyond_nvars_rejected(self, lit):
        wcnf = WeightedCnf(1)
        with pytest.raises(ValueError, match=f"literal {lit} outside "
                                             r"variables 1\.\.1"):
            wcnf.add_soft([1, lit], Fraction(1))
        assert wcnf.soft == []


def reference_export(wcnf):
    """One line per clause, built clause by clause: the format
    `export_wcnf` must reproduce byte for byte."""
    denom, scaled = maxsat.scaled_soft(wcnf)
    top = sum(s for _, s in scaled) + 1
    lines = [f"c weight-scale {denom}"]
    lines += wcnf.comments
    lines.append(f"p wcnf {wcnf.nvars} {len(wcnf.hard) + len(scaled)} {top}")
    for clause in wcnf.hard:
        lines.append(f"{top} " + " ".join(map(str, clause)) + " 0")
    for clause, sw in scaled:
        lines.append(f"{sw} " + " ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def export_text(wcnf):
    buf = io.StringIO()
    export_wcnf(wcnf, buf)
    return buf.getvalue()


def mixed_wcnf(rng, nhard):
    """Hard clauses of length 0-6, some appended as lists and some as
    tuples, with duplicate and complementary literals; soft weights over
    several denominators; comment lines."""
    nvars = rng.randint(1, 30)
    wcnf = WeightedCnf(nvars)
    wcnf.comments = [f"c note {k}" for k in range(rng.randint(0, 3))]
    for _ in range(nhard):
        clause = [rng.choice([-1, 1]) * rng.randint(1, nvars)
                  for _ in range(rng.randint(0, 6))]
        if clause and rng.random() < 0.2:
            clause.append(rng.choice([clause[0], -clause[0]]))
        kind = rng.randrange(3)
        if kind == 0:
            wcnf.add_clause(clause)
        else:
            wcnf.hard.append(clause if kind == 1 else tuple(clause))
    for _ in range(rng.randint(0, 5)):
        clause = [rng.choice([-1, 1]) * rng.randint(1, nvars)
                  for _ in range(rng.randint(0, 3))]
        wcnf.add_soft(clause, Fraction(rng.randint(1, 9),
                                       rng.choice([1, 2, 3, 7, 10])))
    return wcnf


class TestExportBytes:
    def test_random_instances_match_reference(self):
        rng = random.Random(5)
        for _ in range(200):
            wcnf = mixed_wcnf(rng, rng.randint(0, 40))
            assert export_text(wcnf) == reference_export(wcnf)

    def test_every_clause_length(self):
        wcnf = WeightedCnf(6)
        for k in range(7):
            wcnf.add_clause(range(1, k + 1))
            wcnf.hard.append(list(range(-1, -k - 1, -1)))
        wcnf.add_soft([2], Fraction(1, 4))
        text = export_text(wcnf)
        assert text == reference_export(wcnf)
        assert "\n2  0\n" in text  # the empty clause, weight top = 2

    def test_slice_boundaries(self, monkeypatch):
        rng = random.Random(13)
        for width in (1, 2, 7):
            monkeypatch.setattr(maxsat, "WRITE_SLICE", width)
            for nhard in (0, width - 1, width, width + 1, 3 * width + 2):
                wcnf = mixed_wcnf(rng, nhard)
                assert export_text(wcnf) == reference_export(wcnf)

    def test_more_clauses_than_one_slice_to_a_path(self, tmp_path):
        wcnf = mixed_wcnf(random.Random(21), 2 * maxsat.WRITE_SLICE + 5)
        path = tmp_path / "big.wcnf"
        export_wcnf(wcnf, str(path))
        assert path.read_bytes() == reference_export(wcnf).encode("utf-8")

    def test_encoding_instance_with_var_comments(self, tmp_path):
        from ltlfmine.encoding import EncodingInstance
        from ltlfmine.sample import omega_uniform, parse_sample
        sample = parse_sample("1,0;1,1\n0,1\n---\n0,0\n1,0\n")
        inst = EncodingInstance(3, sample, omega_uniform(sample),
                                var_comments=True)
        expected = reference_export(inst.wcnf)
        assert export_text(inst.wcnf) == expected
        path = tmp_path / "inst.wcnf"
        export_wcnf(inst.wcnf, path)
        assert path.read_text(encoding="utf-8") == expected

    def test_encoding_instance_across_slices(self, monkeypatch):
        from ltlfmine.encoding import EncodingInstance
        from ltlfmine.sample import omega_uniform, parse_sample
        sample = parse_sample("1,0;1,1\n0,1\n---\n0,0\n1,0\n")
        inst = EncodingInstance(3, sample, omega_uniform(sample),
                                with_constants=True)
        monkeypatch.setattr(maxsat, "WRITE_SLICE", 7)
        assert len(inst.wcnf.hard) % 7  # the last slice is a short one
        assert export_text(inst.wcnf) == reference_export(inst.wcnf)

    def test_parse_back_gives_tuples(self):
        rng = random.Random(34)
        for _ in range(50):
            wcnf = mixed_wcnf(rng, rng.randint(0, 30))
            back = parse_wcnf(export_text(wcnf))
            assert all(type(c) is tuple for c in back.hard)
            assert back.hard == [tuple(c) for c in wcnf.hard]
            assert back.nvars == wcnf.nvars
