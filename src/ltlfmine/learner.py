"""Minimal-size formula learning by iterative deepening.

For each candidate size n the learner only needs the decision question
"is there a size-n formula with weighted loss <= kappa"; it stops at the
first n where the answer is yes, which makes the returned size minimal.
The trace weights are scaled to integers w_t by their common denominator
D, so the question reads "misclassified weight <= B" with the loss
budget B = floor(kappa * D).  Each size has one decision path:

* n <= enumeration.LIMIT (5): every formula of size n is enumerated
  with its bitset signature on the whole sample, and the first whose
  weighted loss is <= kappa is taken (`enumeration`).  A formula with
  two subformulas of one signature is not stored for the next size:
  a smaller formula has its loss, and the smaller sizes are refuted
  before n is decided.  No instance is built; `candidates` counts the
  formulas tried and `pruned` those not stored.
* larger n: SAT decisions (`maxsat.solve_decision`) on one solver per
  size, into which `encoding.Encoding` writes the structural clauses
  and the clauses of the encoded traces.  The budget decides what the
  solver is told about the traces:
  - B >= the smallest w_t: some trace may be misclassified.  Every trace
    is encoded, its root literal is a soft literal of weight w_t, and
    the target is sum(w_t) - B.  One decision answers the size.
  - B < every w_t (kappa = 0 included): no trace may be misclassified,
    so nothing is counted, the target is 0, and the learner keeps a
    subset T of the sample, empty at first, whose traces are encoded and
    whose root literals are the assumptions.  INFEASIBLE means no size-n
    formula classifies T correctly, so none classifies the whole sample
    correctly either: the size is infeasible, and T carries over to
    n + 1.  A model decodes to a formula whose misclassified traces are
    read once on the whole sample; none ends the search, and otherwise
    the first of them joins T and the same solver decides again.
    Clauses are only ever added, so its learned clauses stay valid.
    Each round adds a trace, so a size takes at most |S| + 1 rounds.

Both paths search formulas over the sample's propositions and the
operators ! X F G | & -> U, with `true` and `false` as further leaves
when `with_constants` is set.  Either path hands the formula it accepts
and its scaled loss to one re-check (`_recheck`): the enumerator's loss,
the unsatisfied soft weight when every trace is counted, or 0 with T.
The formula's size must be n; the weights w_t of the traces it
misclassifies on the sample, read from `sample.truth` and not from the
enumerator's signatures, must sum to that loss in integers (D minus
them for the label inversion); and the loss must be at most B.  It
becomes a `Fraction` there, once, for the result.

A decision-tree split needs the smallest formula of the sample and that
of its label inversion (`learn_minimal(..., inverse=True)`).  The
enumerated sizes of the two are one pass over each level; past `LIMIT`
each is decided as above, the sample first, then the inverted sample.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import maxsat
from .encoding import Encoding
from .enumeration import LIMIT, Enumerator
from .formula import Formula
from .sample import (LabeledSample, WeightFn, _check_domain, exact,
                     invert_labels, omega_rebalanced, omega_uniform)
from .sample import weighted_loss  # noqa: F401  perfbench/tracing.py wraps it
from .sat import SatSolver, SolveTimeout, check_deadline

SOLVED = "solved"
SIZE_CAP = "size-cap"
TIMED_OUT = "timed-out"

log = logging.getLogger(__name__)


@dataclass
class LearnConfig:
    kappa: Fraction = Fraction(0)
    weights: Union[str, WeightFn] = "uniform"  # "uniform" | "rebalanced" | explicit
    with_constants: bool = False  # true and false as leaves
    max_size: int = 40
    timeout: Optional[float] = None  # wall-clock seconds for the whole run

    def __post_init__(self):
        self.kappa = exact(self.kappa)
        if not 0 <= self.kappa <= 1:
            raise ValueError("kappa must lie in [0, 1]")
        if not isinstance(self.max_size, int) or self.max_size < 1:
            raise ValueError("max_size must be an integer of at least 1")
        if self.timeout is not None and not self.timeout >= 0:  # NaN too
            raise ValueError("timeout must be None or at least 0")


@dataclass
class LearnResult:
    status: str
    formula: Optional[Formula] = None
    size: Optional[int] = None
    achieved_loss: Optional[Fraction] = None
    iterations: list = field(default_factory=list)  # per-size statistics
    inverse: Optional["LearnResult"] = None  # learn_minimal(inverse=True)


def resolve_omega(sample: LabeledSample, weights) -> WeightFn:
    if weights == "uniform":
        return omega_uniform(sample)
    if weights == "rebalanced":
        return omega_rebalanced(sample)
    if isinstance(weights, str):
        raise ValueError(f"unknown weights {weights!r}: expected 'uniform', "
                         "'rebalanced' or a weight per trace")
    _check_domain(sample, weights)
    weights = {u: exact(w) for u, w in weights.items()}
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise ValueError("explicit trace weights must sum to exactly 1")
    if any(w <= 0 for w in weights.values()):
        raise ValueError("explicit trace weights must be positive")
    return weights


def _decide_sat(sample, with_constants, weights, bound, encoded, n,
                deadline, record):
    """SAT decisions on one size-n solver over the scaled trace `weights`:
    every trace counted when the loss budget `bound` allows a
    misclassified trace, else the traces of `encoded` (T) assumed
    correctly classified, with T grown by counterexamples and carried
    over to the next size.  A formula and its scaled loss, for `_recheck`,
    or None."""
    solver = SatSolver()
    instance = Encoding(n, sample, with_constants, solver)
    if bound >= min(weights):
        instance.add_traces(range(sample.size))
        softs = [(instance.root_literal(t), w) for t, w in enumerate(weights)]
        target = sum(weights) - bound
    else:
        for t in encoded:
            instance.add_traces([t])
        softs, target = [], 0
    roots = [instance.root_literal(t) for t in encoded]
    while True:
        record["traces_encoded"] = sample.size if softs else len(encoded)
        check_deadline(deadline)
        record["rounds"] += 1
        result = maxsat.solve_decision(solver, softs, target,
                                       deadline=deadline, assumptions=roots)
        if result.status == maxsat.HARD_UNSAT:
            raise RuntimeError("hard constraints unsatisfiable; "
                               "this indicates an encoder bug")
        if result.status != maxsat.FEASIBLE:
            record["status"] = result.status
            return None
        formula = instance.decode_model(result.assignment)
        wrong = _misclassified(sample, formula)
        if not set(encoded).isdisjoint(wrong):
            raise RuntimeError("decoded formula misclassifies an encoded "
                               "trace; this indicates an encoder bug")
        if softs or not wrong:
            record["status"] = maxsat.FEASIBLE
            # Counted, the loss is the unsatisfied weight; with T, none.
            return formula, (sum(weights) - result.weight if softs else 0)
        # Every trace outweighs the budget, so a misclassified one, which
        # lies outside T, rules the formula out: the first joins T.
        t = wrong[0]
        encoded.append(t)
        instance.add_traces([t])
        roots.append(instance.root_literal(t))


def _misclassified(sample, formula) -> list[int]:
    """The traces of `sample` that `formula` misclassifies, by index."""
    truth = sample.truth(formula)
    return [t for t, (_, b) in enumerate(sample.entries) if truth[t] != b]


def _recheck(sample, weights, bound, record, formula, scaled, inverted):
    """The loss of `formula`, accepted by `record`'s decision with scaled
    loss `scaled` on `sample` (its label inversion if `inverted`), once
    checked as the module docstring says."""
    denominator = sum(weights)  # omega sums to 1, its scaled weights to D
    recomputed = sum(weights[t] for t in _misclassified(sample, formula))
    if inverted:
        # A trace misclassified on one sample is classified correctly on
        # the other.
        recomputed = denominator - recomputed
    n, decision = record["size"], record["decision"]
    if formula.size != n or recomputed != scaled or scaled > bound:
        culprit = ("enumerator" if decision == "enumerated"
                   else "encoder or solver")
        raise RuntimeError(
            f"{decision} formula {formula.to_text()} of size {formula.size} "
            f"has loss {Fraction(recomputed, denominator)}, not "
            f"{Fraction(scaled, denominator)} at size {n} within "
            f"{Fraction(bound, denominator)}; this indicates an {culprit} "
            "bug")
    return Fraction(scaled, denominator)


def _new_record(result: LearnResult, n: int, decision: str) -> dict:
    """A size's record, appended to `result`; a size the deadline stops
    keeps its "timeout" status."""
    record = {"size": n, "decision": decision, "status": "timeout",
              "seconds": 0.0, "traces_encoded": 0, "rounds": 0,
              "candidates": 0, "pruned": 0}
    result.iterations.append(record)
    return record


def _close(record: dict, started: float) -> None:
    """Time a size's record from `started` and log it."""
    record["seconds"] = time.monotonic() - started
    log.debug("size %(size)d (%(decision)s): %(status)s, "
              "%(candidates)d candidates, %(pruned)d pruned, "
              "%(traces_encoded)d traces encoded, %(rounds)d "
              "rounds, %(seconds).3f s", record)


def _deadline(timeout: Optional[float]) -> Optional[float]:
    return None if timeout is None else time.monotonic() + timeout


def learn_minimal(sample: LabeledSample, config: Optional[LearnConfig] = None,
                  inverse: bool = False) -> LearnResult:
    """Smallest formula with weighted loss <= kappa.

    With `inverse`, the smallest formula of `invert_labels(sample)` under
    the same trace weights is searched as well, polarity 1 beside this
    search's polarity 0, and becomes the result's `inverse` when this
    search is solved.  The enumerated sizes of both are one pass over each
    level (`Enumerator.search`), which finds each polarity's formula in
    the order, and with the per-size records, of a search of its own;
    past `LIMIT` polarity 0 is decided first, then polarity 1 on the
    inverted sample, and polarity 1 not at all when polarity 0 is not
    solved.  `timeout` bounds polarity 0 from the start and polarity 1
    from the moment polarity 0 is solved."""
    config = config or LearnConfig()
    omega = resolve_omega(sample, config.weights)
    enumerator = Enumerator(sample, omega, config.with_constants)
    weights, bound = enumerator.weights, enumerator.bound(config.kappa)
    results = [LearnResult(SIZE_CAP) for _ in range(1 + inverse)]
    deadlines = [_deadline(config.timeout), None]
    waiting = list(range(len(results)))  # polarities without a formula

    def solved(p, record, formula, scaled):
        result = results[p]
        result.status, result.formula = SOLVED, formula
        result.size = formula.size
        result.achieved_loss = _recheck(sample, weights, bound, record,
                                        formula, scaled, p)
        waiting.remove(p)
        if p == 0:
            deadlines[1] = _deadline(config.timeout)

    try:
        for n in range(1, min(LIMIT, config.max_size) + 1):
            if not waiting:
                break
            check_deadline(deadlines[waiting[0]])
            started = time.monotonic()
            records = {p: _new_record(results[p], n, "enumerated")
                       for p in waiting}
            try:
                for p, key, scaled in enumerator.search(n, bound, deadlines,
                                                        tuple(waiting)):
                    record = records.pop(p)
                    record["candidates"] = enumerator.candidates
                    record["pruned"] = enumerator.pruned
                    record["status"] = maxsat.FEASIBLE
                    _close(record, started)
                    solved(p, record, enumerator.build(key), scaled)
                for record in records.values():
                    record["status"] = maxsat.INFEASIBLE
            finally:
                for record in records.values():
                    record["candidates"] = enumerator.candidates
                    record["pruned"] = enumerator.pruned
                    _close(record, started)
        for p in tuple(waiting):
            labeled = invert_labels(sample) if p else sample
            encoded: list[int] = []  # T, carried over from size to size
            for n in range(LIMIT + 1, config.max_size + 1):
                check_deadline(deadlines[p])
                started = time.monotonic()
                record = _new_record(results[p], n, "sat")
                try:
                    found = _decide_sat(labeled, config.with_constants,
                                        weights, bound, encoded, n,
                                        deadlines[p], record)
                finally:
                    _close(record, started)
                if found is not None:
                    solved(p, record, *found)
                    break
            if p in waiting:  # the size cap
                break
    except SolveTimeout:
        for p in waiting:
            results[p].status = TIMED_OUT
    if inverse and results[0].status == SOLVED:
        results[0].inverse = results[1]
    return results[0]
