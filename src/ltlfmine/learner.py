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
    n + 1.  A model decodes to a formula that is checked on the whole
    sample with the exact loss; loss <= kappa ends the search, and
    otherwise the first misclassified trace joins T and the same solver
    decides again.  Clauses are only ever added, so its learned clauses
    stay valid.  Each round adds a trace, so a size takes at most
    |S| + 1 rounds.

Both paths search formulas over the sample's propositions and the
operators ! X F G | & -> U, with `true` and `false` as further leaves
when `with_constants` is set.  Every path recomputes the exact weighted
loss of the formula it accepts; the enumerated one also checks the
formula's size.
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
from .sample import (LabeledSample, WeightFn, _check_domain, omega_rebalanced,
                     omega_uniform, weighted_loss)
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
        self.kappa = Fraction(self.kappa)
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


def resolve_omega(sample: LabeledSample, weights) -> WeightFn:
    if weights == "uniform":
        return omega_uniform(sample)
    if weights == "rebalanced":
        return omega_rebalanced(sample)
    if isinstance(weights, str):
        raise ValueError(f"unknown weights {weights!r}: expected 'uniform', "
                         "'rebalanced' or a weight per trace")
    _check_domain(sample, weights)
    # Exact weights: a float such as 0.5 becomes the fraction it stores.
    weights = {u: Fraction(w) for u, w in weights.items()}
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise ValueError("explicit trace weights must sum to exactly 1")
    if any(w <= 0 for w in weights.values()):
        raise ValueError("explicit trace weights must be positive")
    return weights


def _decide_sat(sample, omega, with_constants, enumerator, kappa, encoded,
                n, deadline, record):
    """SAT decisions on one size-n solver, with the trace weights scaled
    by `enumerator`: every trace counted when the loss budget allows a
    misclassified trace, else the traces of `encoded` (T) assumed
    correctly classified, with T grown by counterexamples and carried
    over to the next size.  A formula with weighted loss <= kappa and its
    loss, or None."""
    bound = enumerator.bound(kappa)
    weights = enumerator.weights
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
    entries = sample.entries
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
        truth = sample.truth(formula)
        if any(truth[t] != entries[t][1] for t in encoded):
            raise RuntimeError("decoded formula misclassifies an encoded "
                               "trace; this indicates an encoder bug")
        achieved = weighted_loss(sample, formula, omega)
        if softs:
            # Every trace is counted: the loss is the unsatisfied weight.
            unsatisfied = Fraction(sum(weights) - result.weight,
                                   enumerator.denominator)
            if achieved != unsatisfied or achieved > kappa:
                raise RuntimeError(f"decoded loss {achieved}, unsatisfied "
                                   f"soft weight {unsatisfied}, not equal "
                                   f"and within {kappa}")
        if achieved <= kappa:
            record["status"] = maxsat.FEASIBLE
            return formula, achieved
        # Every trace outweighs the budget, so some trace outside T is
        # misclassified.
        t = next(t for t, ((_, b), value) in enumerate(zip(entries, truth))
                 if value != b)
        encoded.append(t)
        instance.add_traces([t])
        roots.append(instance.root_literal(t))


def _decide_enumerated(sample, omega, enumerator, kappa, n, deadline,
                       record):
    """Every formula of size n, in turn: the first with weighted loss <=
    kappa and its loss, or None."""
    try:
        found = enumerator.search(n, enumerator.bound(kappa), deadline)
    finally:
        record["candidates"] = enumerator.candidates
        record["pruned"] = enumerator.pruned
    if found is None:
        record["status"] = maxsat.INFEASIBLE
        return None
    key, scaled = found
    formula = enumerator.build(key)
    achieved = Fraction(scaled, enumerator.denominator)
    recomputed = weighted_loss(sample, formula, omega)
    if formula.size != n or recomputed != achieved or achieved > kappa:
        raise RuntimeError(
            f"enumerated formula {formula.to_text()} of size {formula.size} "
            f"has loss {recomputed}, not {achieved} at size {n} within "
            f"{kappa}; this indicates an enumerator bug")
    record["status"] = maxsat.FEASIBLE
    return formula, achieved


def learn_minimal(sample: LabeledSample,
                  config: Optional[LearnConfig] = None) -> LearnResult:
    """Smallest formula with weighted loss <= kappa."""
    config = config or LearnConfig()
    omega = resolve_omega(sample, config.weights)
    kappa = config.kappa
    enumerator = Enumerator(sample, omega, config.with_constants)
    encoded: list[int] = []  # T, carried over from size to size
    deadline = (None if config.timeout is None
                else time.monotonic() + config.timeout)
    iterations = []
    try:
        for n in range(1, config.max_size + 1):
            check_deadline(deadline)
            started = time.monotonic()
            # A size the deadline stops keeps its "timeout" status.
            record = {"size": n, "decision": "enumerated", "status": "timeout",
                      "seconds": 0.0, "traces_encoded": 0, "rounds": 0,
                      "candidates": 0, "pruned": 0}
            iterations.append(record)
            try:
                if n <= LIMIT:
                    found = _decide_enumerated(sample, omega, enumerator,
                                               kappa, n, deadline, record)
                else:
                    record["decision"] = "sat"
                    found = _decide_sat(sample, omega, config.with_constants,
                                        enumerator, kappa, encoded, n,
                                        deadline, record)
            finally:
                record["seconds"] = time.monotonic() - started
                log.debug("size %(size)d (%(decision)s): %(status)s, "
                          "%(candidates)d candidates, %(pruned)d pruned, "
                          "%(traces_encoded)d traces encoded, %(rounds)d "
                          "rounds, %(seconds).3f s", record)
            if found is not None:
                formula, achieved = found
                return LearnResult(SOLVED, formula, formula.size, achieved,
                                   iterations)
    except SolveTimeout:
        return LearnResult(TIMED_OUT, iterations=iterations)
    return LearnResult(SIZE_CAP, iterations=iterations)

