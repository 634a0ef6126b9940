"""Decision trees over LTLf formulas.

Inner nodes carry a non-trivial formula; the solid (left) subtree covers
traces satisfying it, the dashed (right) subtree the rest.  Splitting
formulas come from the minimal-formula learner run under rebalanced trace
weights, once on the sample and once with labels inverted, keeping the
candidate with the higher rebalanced score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .formula import Formula, FormulaBuilder
from .learner import (SOLVED, LearnConfig, LearnResult, TIMED_OUT,
                      learn_minimal)
from .encoding import OperatorPool
from .sample import (LabeledSample, invert_labels, omega_rebalanced,
                     weighted_loss)
from .sat import SolveTimeout

log = logging.getLogger(__name__)

DEPTH_CAPPED = "depth-capped"


@dataclass(frozen=True)
class Leaf:
    label: int  # 1 = accept, 0 = reject


@dataclass(frozen=True)
class Inner:
    formula: Formula
    left: "DecisionTree"   # solid edge: formula satisfied
    right: "DecisionTree"  # dashed edge: formula falsified


DecisionTree = Union[Leaf, Inner]


@dataclass
class DtConfig:
    kappa: Fraction = Fraction(1, 20)
    min_score: Fraction = Fraction(4, 5)
    pool: Optional[OperatorPool] = None
    max_size: int = 40
    max_depth: int = 20
    node_timeout: Optional[float] = None  # seconds per learner invocation

    def __post_init__(self):
        self.kappa = Fraction(self.kappa)
        self.min_score = Fraction(self.min_score)
        if not Fraction(1, 2) < self.min_score <= 1:
            raise ValueError("min_score must lie in (0.5, 1]")
        if self.max_depth < 0:
            raise ValueError("max_depth must be at least 0")
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")
        if self.min_score >= 1 - self.kappa:
            log.warning("min_score %s >= 1 - kappa %s: splits may not beat "
                        "the stopping criterion", self.min_score, self.kappa)


@dataclass
class TreeResult:
    tree: DecisionTree
    status: str  # SOLVED | DEPTH_CAPPED | TIMED_OUT
    nodes_expanded: int = 0


# -- stopping criterion ------------------------------------------------------

def positive_fraction(sample: LabeledSample) -> Fraction:
    return Fraction(len(sample.positives()), sample.size)


def pure_label(sample: LabeledSample, kappa: Fraction) -> Optional[int]:
    """0 when at most a kappa fraction of `sample` is positive, 1 when at
    most that much is negative, else None: the sample must be split."""
    p1 = positive_fraction(sample)
    if p1 <= kappa:
        return 0
    if 1 - p1 <= kappa:
        return 1
    return None


# -- scores ------------------------------------------------------------------

def score_r(sample: LabeledSample, formula: Formula) -> Fraction:
    wl = weighted_loss(sample, formula, omega_rebalanced(sample))
    return max(wl, 1 - wl)


# -- splitting ---------------------------------------------------------------

def split(sample: LabeledSample,
          formula: Formula) -> tuple[LabeledSample, LabeledSample]:
    sat, unsat = [], []
    for u, b in sample.entries:
        (sat if formula.satisfies(u) else unsat).append((u, b))
    return (LabeledSample(sample.alphabet, tuple(sat)),
            LabeledSample(sample.alphabet, tuple(unsat)))


def infer_split_formula(sample: LabeledSample, config: DtConfig) -> Formula:
    """The higher-scoring of two minimal formulas, one per label polarity.

    Runs the learner on the sample and on its label inversion, each under
    its own rebalanced weights with loss threshold 1 - min_score, and
    keeps the result with the higher rebalanced score on the sample,
    preferring the non-inverted one on ties.  That formula need not be
    the smallest one with score >= min_score: the other polarity's
    formula may be smaller and score lower.
    """
    threshold = 1 - config.min_score

    def run(s: LabeledSample) -> LearnResult:
        cfg = LearnConfig(kappa=threshold, weights="rebalanced",
                          pool=config.pool, max_size=config.max_size,
                          timeout=config.node_timeout)
        return learn_minimal(s, cfg)

    first = run(sample)
    second = run(invert_labels(sample))
    for result in (first, second):
        if result.status == TIMED_OUT:
            raise SolveTimeout()
        if result.status != SOLVED:
            raise RuntimeError(f"split search failed: {result.status}")
    s1 = score_r(sample, first.formula)
    s2 = score_r(sample, second.formula)
    chosen = second.formula if s2 > s1 else first.formula
    if max(s1, s2) < config.min_score:
        raise RuntimeError("no split formula reaches min_score; "
                           "this indicates a learner bug")
    return chosen


# -- tree construction -------------------------------------------------------

def learn_tree(sample: LabeledSample, config: DtConfig) -> TreeResult:
    """Top-down induction: stop on class-purity, else split on an inferred
    formula and recurse on both parts."""
    expanded = 0
    capped = False

    def build(s: LabeledSample, depth: int) -> DecisionTree:
        nonlocal expanded, capped
        label = pure_label(s, config.kappa)
        if label is not None:
            return Leaf(label)
        if depth >= config.max_depth:
            capped = True
            return Leaf(1 if positive_fraction(s) >= Fraction(1, 2) else 0)
        formula = infer_split_formula(s, config)
        expanded += 1
        s1, s2 = split(s, formula)
        return Inner(formula, build(s1, depth + 1), build(s2, depth + 1))

    try:
        tree = build(sample, 0)
    except SolveTimeout:
        return TreeResult(Leaf(1), TIMED_OUT, expanded)
    status = DEPTH_CAPPED if capped else SOLVED
    return TreeResult(tree, status, expanded)


# -- evaluation and conversion ----------------------------------------------

def evaluate_tree(tree: DecisionTree, trace) -> int:
    node = tree
    while isinstance(node, Inner):
        node = node.left if node.formula.satisfies(trace) else node.right
    return node.label


def tree_loss(sample: LabeledSample, tree: DecisionTree) -> Fraction:
    wrong = sum(1 for u, b in sample.entries if evaluate_tree(tree, u) != b)
    return Fraction(wrong, sample.size)


def _copy_into(builder: FormulaBuilder, f: Formula) -> int:
    """Add `f`'s nodes to `builder` in node order; the id of its root."""
    ids: list[int] = []
    for node in f.nodes:
        children = (ids[c - 1] for c in (node.left, node.right) if c)
        ids.append(builder.add(node.label, *children))
    return ids[-1]


def tree_to_formula(tree: DecisionTree) -> Formula:
    """Disjunction over root-to-accepting-leaf paths of the conjunctions of
    node formulas, negated along dashed edges."""
    builder = FormulaBuilder()
    paths: list[list[int]] = []

    def walk(node: DecisionTree, prefix: list[int]) -> None:
        if isinstance(node, Leaf):
            if node.label == 1:
                paths.append(list(prefix))
            return
        lit = _copy_into(builder, node.formula)
        walk(node.left, prefix + [lit])
        walk(node.right, prefix + [builder.add("!", lit)])

    walk(tree, [])
    if not paths:
        return builder.finish(builder.add("false"))
    disjuncts = []
    for path in paths:
        if not path:  # root itself is an accepting leaf
            return builder.finish(builder.add("true"))
        acc = path[0]
        for term in path[1:]:
            acc = builder.add("&", acc, term)
        disjuncts.append(acc)
    acc = disjuncts[0]
    for d in disjuncts[1:]:
        acc = builder.add("|", acc, d)
    return builder.finish(acc)


# -- serialization -----------------------------------------------------------

def serialize_tree(tree: DecisionTree) -> str:
    if isinstance(tree, Leaf):
        return f"(leaf {'true' if tree.label else 'false'})"
    return (f'(node "{tree.formula.to_text()}" '
            f"{serialize_tree(tree.left)} {serialize_tree(tree.right)})")


def parse_tree(text: str, alphabet=None) -> DecisionTree:
    from .formula import parse_formula

    pos = [0]

    def skip_ws():
        while pos[0] < len(text) and text[pos[0]].isspace():
            pos[0] += 1

    def expect(token: str):
        skip_ws()
        if not text.startswith(token, pos[0]):
            raise ValueError(f"expected {token!r} at offset {pos[0]}")
        pos[0] += len(token)

    def word() -> str:
        skip_ws()
        start = pos[0]
        while pos[0] < len(text) and (text[pos[0]].isalnum() or text[pos[0]] == "_"):
            pos[0] += 1
        return text[start:pos[0]]

    def quoted() -> str:
        expect('"')
        start = pos[0]
        end = text.index('"', start)
        pos[0] = end + 1
        return text[start:end]

    def node() -> DecisionTree:
        expect("(")
        kind = word()
        if kind == "leaf":
            label = word()
            if label not in ("true", "false"):
                raise ValueError(f"leaf label {label!r} is not true or false")
            expect(")")
            return Leaf(1 if label == "true" else 0)
        if kind != "node":
            raise ValueError(f"unknown node kind {kind!r}")
        formula = parse_formula(quoted(), alphabet)
        left = node()
        right = node()
        expect(")")
        return Inner(formula, left, right)

    result = node()
    skip_ws()
    if pos[0] != len(text):
        raise ValueError("trailing text after tree")
    return result
