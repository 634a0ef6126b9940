"""Minimal-size formula learning by iterative deepening.

For each candidate size n the learner only needs the decision question
"is there a size-n formula with weighted loss <= kappa", i.e. satisfied
soft weight >= 1 - kappa; it stops at the first n where the answer is
yes, which makes the returned size minimal.  Each size has one decision
path, chosen by the size, then by kappa:

* n <= enumeration.LIMIT (4): every formula of size n over the operator
  pool is enumerated with its bitset signature on the whole sample, and
  the first whose weighted loss is <= kappa is taken (`enumeration`).
  No instance is built, and `candidates` counts the formulas tried.
* larger n, kappa > 0: one MaxSAT decision (`maxsat.solve_decision`)
  on the size-n instance with every trace encoded into one SAT solver;
  the root literals, weighted by the trace weights scaled to integers
  by their common denominator D, are the soft literals, and the target
  is ceil((1 - kappa) * D).
* larger n, kappa = 0: trace weights are positive, so every trace must
  be classified correctly and the question is plain SAT.  The learner
  keeps a subset T of the sample, empty at first.  Per size, one SAT
  solver holds the structural clauses and the clauses of the traces in
  T, whose root literals are assumed.  UNSAT means no size-n formula
  classifies T correctly, so none classifies the whole sample S
  correctly either: the size is infeasible, and T carries over to n + 1.
  A model decodes to a formula that is checked on S with the exact loss;
  loss 0 ends the search, and otherwise the first misclassified trace
  joins T and the same solver solves again.  Clauses are only ever
  added, so its learned clauses stay valid.  Each round adds a trace, so
  a size takes at most |S| + 1 rounds.

Every path recomputes the exact weighted loss of the formula it accepts;
the enumerated one also checks the formula's size.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import maxsat
from .encoding import IncrementalInstance, OperatorPool, default_pool
from .enumeration import LIMIT, Enumerator
from .formula import Formula
from .sample import (LabeledSample, WeightFn, omega_rebalanced, omega_uniform,
                     scaled_weights, weighted_loss)
from .sat import SolveTimeout

SOLVED = "solved"
SIZE_CAP = "size-cap"
TIMED_OUT = "timed-out"

log = logging.getLogger(__name__)


@dataclass
class LearnConfig:
    kappa: Fraction = Fraction(0)
    weights: Union[str, WeightFn] = "uniform"  # "uniform" | "rebalanced" | explicit
    pool: Optional[OperatorPool] = None
    max_size: int = 40
    timeout: Optional[float] = None  # wall-clock seconds for the whole run

    def __post_init__(self):
        self.kappa = Fraction(self.kappa)
        if not 0 <= self.kappa <= 1:
            raise ValueError("kappa must lie in [0, 1]")
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")


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
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise ValueError("explicit trace weights must sum to exactly 1")
    if any(w <= 0 for w in weights.values()):
        raise ValueError("explicit trace weights must be positive")
    return weights


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds left before `deadline`; raises SolveTimeout when none are."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise SolveTimeout()
    return left


def _decide_relaxed(sample, omega, pool, kappa, n, deadline, record):
    """One MaxSAT decision on the size-n instance with every trace
    encoded, over the trace weights scaled to integers by their common
    denominator D: a formula with weighted loss <= kappa and its loss, or
    None."""
    denominator, weights = scaled_weights(sample, omega)
    instance = IncrementalInstance(n, sample, pool)
    instance.add_traces(range(sample.size))
    record["traces_encoded"] = sample.size
    record["rounds"] = 1
    softs = [(instance.root_literal(t), w) for t, w in enumerate(weights)]
    # the complement of `Enumerator.bound`: loss <= kappa is satisfied
    # weight >= ceil((1 - kappa) * D)
    target = math.ceil((1 - kappa) * denominator)
    _remaining(deadline)
    result = maxsat.solve_decision(instance.solver, softs, target,
                                   deadline=deadline)
    record["status"] = result.status
    if result.status == maxsat.HARD_UNSAT:
        raise RuntimeError(
            "hard constraints unsatisfiable; this indicates an encoder bug")
    if result.status != maxsat.FEASIBLE:
        return None
    formula = instance.decode_model(result.assignment)
    achieved = 1 - Fraction(result.weight, denominator)
    recomputed = weighted_loss(sample, formula, omega)
    if recomputed != achieved or achieved > kappa:
        raise RuntimeError(f"decoded loss {recomputed}, 1 - soft weight "
                           f"{achieved}, not equal and within {kappa}")
    return formula, achieved


def _decide_exact(sample, omega, pool, encoded, n, deadline, record):
    """Size n with every trace of `encoded` (T) assumed correctly
    classified; T grows by counterexamples and carries over to the next
    size.  A formula with loss 0 on the whole sample and its loss, or
    None."""
    instance = IncrementalInstance(n, sample, pool)
    solver = instance.solver
    for t in encoded:
        instance.add_traces([t])
    roots = [instance.root_literal(t) for t in encoded]
    entries = sample.entries
    record["traces_encoded"] = len(encoded)
    while True:
        _remaining(deadline)
        record["rounds"] += 1
        if not solver.solve(roots, deadline=deadline):
            if solver.unsat:
                raise RuntimeError("hard constraints unsatisfiable; "
                                   "this indicates an encoder bug")
            record["status"] = maxsat.INFEASIBLE
            return None
        formula = instance.decode_model(solver.model())
        if any(formula.satisfies(entries[t][0]) != entries[t][1]
               for t in encoded):
            raise RuntimeError("decoded formula misclassifies an encoded "
                               "trace; this indicates an encoder bug")
        achieved = weighted_loss(sample, formula, omega)
        if achieved == 0:
            record["status"] = maxsat.FEASIBLE
            return formula, achieved
        # Weights are positive, so some trace outside T is misclassified.
        t = next(t for t, (u, b) in enumerate(entries)
                 if formula.satisfies(u) != b)
        encoded.append(t)
        instance.add_traces([t])
        roots.append(instance.root_literal(t))
        record["traces_encoded"] = len(encoded)


def _decide_enumerated(sample, omega, enumerator, kappa, n, deadline,
                       record):
    """Every formula of size n, in turn: the first with weighted loss <=
    kappa and its loss, or None."""
    try:
        found = enumerator.search(n, enumerator.bound(kappa),
                                  lambda: _remaining(deadline))
    finally:
        record["candidates"] = enumerator.candidates
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
    """Smallest formula over the operator pool with weighted loss <= kappa."""
    config = config or LearnConfig()
    omega = resolve_omega(sample, config.weights)
    pool = config.pool or default_pool(sample.alphabet)
    enumerated = functools.partial(_decide_enumerated, sample, omega,
                                   Enumerator(sample, omega, pool),
                                   config.kappa)
    if config.kappa == 0:
        solved = functools.partial(_decide_exact, sample, omega, pool, [])
    else:
        solved = functools.partial(_decide_relaxed, sample, omega, pool,
                                   config.kappa)
    deadline = (None if config.timeout is None
                else time.monotonic() + config.timeout)
    iterations = []
    for n in range(1, config.max_size + 1):
        started = time.monotonic()
        if deadline is not None and started >= deadline:
            return LearnResult(TIMED_OUT, iterations=iterations)
        record = {"size": n, "status": "timeout", "seconds": 0.0,
                  "traces_encoded": 0, "rounds": 0, "candidates": 0}
        decision = "enumerated" if n <= LIMIT else "sat"
        decide = enumerated if n <= LIMIT else solved
        try:
            found = decide(n, deadline, record)
        except SolveTimeout:
            found = None
        record["seconds"] = time.monotonic() - started
        iterations.append(record)
        log.debug("size %d (%s): %s, %d candidates, %d traces encoded, "
                  "%d rounds, %.3f s", n, decision, record["status"],
                  record["candidates"], record["traces_encoded"],
                  record["rounds"], record["seconds"])
        if record["status"] == "timeout":
            return LearnResult(TIMED_OUT, iterations=iterations)
        if found is not None:
            formula, achieved = found
            return LearnResult(SOLVED, formula, formula.size, achieved,
                               iterations)
    return LearnResult(SIZE_CAP, iterations=iterations)

