"""Partial weighted MaxSAT decisions on top of the CDCL core, and the
DIMACS WCNF format.

A decision takes a `SatSolver` that already holds the hard clauses,
soft literals with positive integer weights, and optional assumptions.
One generalized totalizer over the soft literals, emitted into the same
solver, yields an output o_s per achievable weight sum s; assuming o_s
forces satisfied weight >= s.  A decision makes one solve under the
assumptions and, if its model falls short of the target, at most one
more solve under the assumptions plus o_s for the smallest s that meets
the target.  With no soft literals and target 0 it is one plain SAT call
under the assumptions.

`WeightedCnf` holds an instance as clause tuples with rational soft
weights, for WCNF export and import only.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .cnf import totalizer
from .sample import scaled_weights
from .sat import SatSolver, SolveTimeout

__all__ = [
    "WeightedCnf", "MaxSatSolution", "SolveTimeout",
    "FEASIBLE", "INFEASIBLE", "HARD_UNSAT", "solve_decision",
    "export_wcnf", "parse_wcnf", "import_model",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
HARD_UNSAT = "hard-unsat"

WRITE_SLICE = 16384  # hard clauses per write in export_wcnf


@dataclass
class WeightedCnf:
    """Hard clauses plus weighted soft clauses over variables 1..nvars.

    A clause sink (see `cnf`): `new_var` raises `nvars` by one and
    returns it, and `add_clause` stores a hard clause as a tuple of ints,
    as `parse_wcnf` does; it and `add_soft` reject a literal outside
    1..nvars, as `SatSolver` does, so the export reads back."""

    nvars: int
    hard: list = field(default_factory=list)              # list[tuple[int, ...]]
    soft: list = field(default_factory=list)              # list[(clause, Fraction)]
    comments: list = field(default_factory=list)          # extra "c" lines for export

    def add_clause(self, clause: Sequence[int]) -> None:
        self.hard.append(self._checked(tuple(clause)))

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def add_soft(self, clause: Sequence[int], weight: Fraction) -> None:
        if weight <= 0:
            raise ValueError("soft weights must be positive")
        self.soft.append((self._checked(list(clause)), Fraction(weight)))

    def _checked(self, clause):
        for lit in clause:
            if not 0 < abs(lit) <= self.nvars:
                raise ValueError(f"literal {lit} outside variables "
                                 f"1..{self.nvars}")
        return clause


@dataclass
class MaxSatSolution:
    status: str
    assignment: dict = field(default_factory=dict)  # var -> bool, all solver vars
    weight: int = 0                                 # satisfied soft weight


def clause_satisfied(clause: Sequence[int], assignment: dict) -> bool:
    return any(assignment.get(abs(l), False) == (l > 0) for l in clause)


def recompute_soft_weight(wcnf: WeightedCnf, assignment: dict) -> Fraction:
    return sum((w for clause, w in wcnf.soft
                if clause_satisfied(clause, assignment)), Fraction(0))


def check_hard(wcnf: WeightedCnf, assignment: dict) -> bool:
    return all(clause_satisfied(c, assignment) for c in wcnf.hard)


def scaled_soft(wcnf: WeightedCnf) -> tuple[int, list[tuple[list, int]]]:
    """The weight scale D, the lcm of the soft weights' denominators, and
    the soft clauses with weights times D."""
    denom, scaled = scaled_weights([w for _, w in wcnf.soft])
    return denom, [(clause, sw) for (clause, _), sw in zip(wcnf.soft, scaled)]


def solve_decision(solver: SatSolver, softs: Sequence[tuple[int, int]],
                   target: int, deadline: Optional[float] = None,
                   assumptions: Sequence[int] = ()) -> MaxSatSolution:
    """A model of the clauses in `solver` and the `assumptions` whose true
    soft literals weigh at least `target`.

    `softs` are `(literal, positive int weight)` pairs over the solver's
    variables.  The totalizer over them goes into `solver` itself, after
    each soft literal's saved phase is set to satisfy it.  The status is
    FEASIBLE (with the model and its soft weight), INFEASIBLE (the
    assumptions refuted included), or HARD_UNSAT when the clauses alone
    are unsatisfiable; past `deadline` the solver raises `SolveTimeout`."""
    for lit, _ in softs:
        solver.saved_phase[abs(lit)] = 1 if lit > 0 else 0
    outs = totalizer(softs, solver)
    # A solve under the assumptions alone is cheap and, with phases biased
    # toward the soft literals, often meets the target outright; it also
    # detects hard unsatisfiability.
    if not solver.solve(assumptions, deadline=deadline):
        return MaxSatSolution(HARD_UNSAT if solver.unsat else INFEASIBLE)
    found = _weighed(solver, softs)
    if found.weight >= target:
        return found
    k = bisect.bisect_left(outs, target, key=lambda out: out[0])
    if k == len(outs) or not solver.solve([*assumptions, outs[k][1]],
                                          deadline=deadline):
        return MaxSatSolution(INFEASIBLE)
    found = _weighed(solver, softs)
    if found.weight < outs[k][0]:
        raise RuntimeError("totalizer output did not bound the soft weight "
                           "(encoder bug)")
    return found


def _weighed(solver: SatSolver, softs) -> MaxSatSolution:
    model = solver.model()
    return MaxSatSolution(FEASIBLE, model, sum(
        w for lit, w in softs if model[abs(lit)] == (lit > 0)))


# -- DIMACS WCNF interchange ------------------------------------------------

def export_wcnf(wcnf: WeightedCnf, target) -> None:
    """Write DIMACS WCNF: soft weights scaled to integers by the lcm D of
    their denominators (recorded as `c weight-scale <D>`), hard weight =
    top.

    The header goes out first, then the hard clauses in slices of
    WRITE_SLICE, so the whole file is never held as one string.  Each
    slice is formatted by one `%`: its format string joins, one line per
    clause, the template for that clause's length, and its arguments are
    the slice's literals in order.  The bytes are unchanged from joining
    one line per clause, `<weight> <lits> 0`, the empty clause's
    `<top>  0` included."""
    if hasattr(target, "write"):
        _write_wcnf(wcnf, target)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            _write_wcnf(wcnf, handle)


def _write_wcnf(wcnf: WeightedCnf, handle) -> None:
    denom, scaled = scaled_soft(wcnf)
    top = sum(s for _, s in scaled) + 1
    hard = wcnf.hard
    header = [f"c weight-scale {denom}", *wcnf.comments,
              f"p wcnf {wcnf.nvars} {len(hard) + len(scaled)} {top}", ""]
    handle.write("\n".join(header))
    # f"{top} " + " ".join(lits) + " 0" with the literals left to `%`, so
    # the empty clause is "<top>  0"
    formats = [f"{top} " + " ".join(["%d"] * k) + " 0"
               for k in range(max(map(len, hard), default=0) + 1)]
    for start in range(0, len(hard), WRITE_SLICE):
        chunk = hard[start:start + WRITE_SLICE]
        template = "\n".join(map(formats.__getitem__, map(len, chunk)))
        handle.write(template % tuple(itertools.chain.from_iterable(chunk)))
        handle.write("\n")
    handle.write("".join(f"{sw} " + " ".join(map(str, clause)) + " 0\n"
                         for clause, sw in scaled))


def parse_wcnf(text: str) -> WeightedCnf:
    """Read back the WCNF format written by `export_wcnf`.

    Each soft weight w reads back as the exact fraction w / D, D the
    `c weight-scale` (1 if absent).  The weight scale must be positive,
    the p-line must come once, every literal's variable must lie in
    1..nvars, every soft weight must be positive, and the clause count
    must be the p-line's."""
    denom = 1
    top = None
    nclauses = 0
    wcnf = WeightedCnf(0)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("c weight-scale "):
            denom = int(line.split()[2])
            if denom < 1:
                raise ValueError(f"weight scale {denom} is not positive")
            continue
        if line.startswith("c"):
            continue
        if line.startswith("p wcnf"):
            if top is not None:
                raise ValueError("second p-line")
            parts = line.split()
            if len(parts) != 5 or not all(x.isdigit() for x in parts[2:]):
                raise ValueError(f"malformed p-line {line!r}: expected "
                                 "'p wcnf <nvars> <nclauses> <top>'")
            wcnf.nvars, nclauses, top = map(int, parts[2:])
            continue
        parts = [int(x) for x in line.split()]
        if parts[-1] != 0:
            raise ValueError("clause line must end with 0")
        weight, clause = parts[0], parts[1:-1]
        if top is None:
            raise ValueError("clause before p-line")
        if weight >= top:
            wcnf.add_clause(clause)
        elif weight > 0:
            wcnf.add_soft(clause, Fraction(weight, denom))
        else:
            raise ValueError(f"soft weight {weight} is not positive")
    count = len(wcnf.hard) + len(wcnf.soft)
    if count != nclauses:
        raise ValueError(f"{count} clauses, but the p-line declares "
                         f"{nclauses}")
    return wcnf


def import_model(text: str, wcnf: WeightedCnf) -> dict:
    """Parse a model's text (space-separated signed ints, optionally on
    `v`-prefixed lines) and validate it against the hard clauses.

    Every literal's variable must lie in 1..nvars and no variable may be
    given both signs; variables the model leaves out are false."""
    assignment = {v: False for v in range(1, wcnf.nvars + 1)}
    given: set[int] = set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("v "):
            line = line[2:]
        elif line.startswith(("c", "s", "o")):
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                continue
            var = abs(lit)
            if var > wcnf.nvars:
                raise ValueError(f"model literal {lit} is outside the "
                                 f"instance's variables 1..{wcnf.nvars}")
            if -lit in given:
                raise ValueError(f"model gives variable {var} both signs")
            given.add(lit)
            assignment[var] = lit > 0
    if not given:
        raise ValueError("model file contains no literals")
    if not check_hard(wcnf, assignment):
        raise ValueError("imported model violates a hard clause")
    return assignment
