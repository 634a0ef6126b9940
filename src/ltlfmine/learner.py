"""Minimal-size formula learning by iterative deepening over the MaxSAT
encoding.

For each candidate size n the learner only needs the decision question
"is there a size-n formula with weighted loss <= kappa", i.e. satisfied
soft weight >= 1 - kappa; it stops at the first n where the answer is
yes, which makes the returned size minimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import maxsat
from .encoding import EncodingInstance, OperatorPool, default_pool
from .formula import Formula, FormulaBuilder
from .sample import (LabeledSample, WeightFn, omega_rebalanced, omega_uniform,
                     weighted_loss)
from .sat import SolveTimeout

SOLVED = "solved"
SIZE_CAP = "size-cap"
TIMED_OUT = "timed-out"


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
    return weights


def learn_minimal(sample: LabeledSample,
                  config: Optional[LearnConfig] = None) -> LearnResult:
    """Smallest formula over the operator pool with weighted loss <= kappa."""
    config = config or LearnConfig()
    omega = resolve_omega(sample, config.weights)
    pool = config.pool or default_pool(sample.alphabet)
    target = 1 - config.kappa
    deadline = (None if config.timeout is None
                else time.monotonic() + config.timeout)
    iterations = []
    for n in range(1, config.max_size + 1):
        started = time.monotonic()
        if deadline is not None and started >= deadline:
            return LearnResult(TIMED_OUT, iterations=iterations)
        instance = EncodingInstance(n, sample, omega, pool)
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            return LearnResult(TIMED_OUT, iterations=iterations)
        try:
            result = maxsat.solve_decision(instance.wcnf, target,
                                           timeout=remaining)
        except SolveTimeout:
            iterations.append({"size": n, "status": "timeout",
                               "seconds": time.monotonic() - started})
            return LearnResult(TIMED_OUT, iterations=iterations)
        elapsed = time.monotonic() - started
        iterations.append({"size": n, "status": result.status,
                           "seconds": elapsed})
        if result.status == maxsat.HARD_UNSAT:
            raise RuntimeError(
                "hard constraints unsatisfiable; this indicates an encoder bug")
        if result.status == maxsat.FEASIBLE:
            formula = instance.decode_model(result.assignment)
            achieved = 1 - result.satisfied_soft_weight
            recomputed = weighted_loss(sample, formula, omega)
            if recomputed != achieved:
                raise RuntimeError(
                    f"decoded loss {recomputed} != 1 - soft weight {achieved}")
            return LearnResult(SOLVED, formula, formula.size, achieved,
                               iterations)
    return LearnResult(SIZE_CAP, iterations=iterations)


def trivial_perfect_formula(sample: LabeledSample) -> Formula:
    """A (large) formula with loss exactly 0, built from per-pair
    discriminators under chains of next-operators.

    Used as a termination witness and as a test oracle; the learner never
    returns it.
    """
    builder = FormulaBuilder()
    positives = sample.positives()
    negatives = sample.negatives()
    if not negatives:
        return builder.finish(builder.const(True))
    if not positives:
        return builder.finish(builder.const(False))

    def discriminator(u, v) -> int:
        # A formula true on u and false on v.
        for k in range(min(len(u), len(v))):
            if u[k] != v[k]:
                p = sorted(u[k] ^ v[k])[0]
                node = builder.prop(p)
                if p not in u[k]:
                    node = builder.unary("!", node)
                for _ in range(k):
                    node = builder.unary("X", node)
                return node
        # Same symbols on the common prefix; lengths must differ.
        shorter = min(len(u), len(v))
        node = builder.const(True)
        for _ in range(shorter):
            node = builder.unary("X", node)
        # node now means "length > shorter".
        if len(u) > len(v):
            return node
        return builder.unary("!", node)

    disjuncts = []
    for u in positives:
        conjuncts = [discriminator(u, v) for v in negatives]
        acc = conjuncts[0]
        for c in conjuncts[1:]:
            acc = builder.binary("&", acc, c)
        disjuncts.append(acc)
    acc = disjuncts[0]
    for d in disjuncts[1:]:
        acc = builder.binary("|", acc, d)
    return builder.finish(acc)
