"""Decision trees over LTLf formulas.

Inner nodes carry a non-trivial formula; the solid (left) subtree covers
traces satisfying it, the dashed (right) subtree the rest.  Splitting
formulas come from one minimal-formula learner call per split, under
rebalanced trace weights, which searches the sample and its label
inversion in one enumeration pass; the candidate with the higher
rebalanced score, read off the learner's exact losses, is kept.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .formula import Formula, FormulaBuilder, parse_formula
from .learner import (SIZE_CAP, SOLVED, LearnConfig, TIMED_OUT,
                      learn_minimal)
from .sample import LabeledSample, exact, omega_rebalanced, weighted_loss
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
    """Tree induction settings.  `kappa` bounds a leaf's impurity and
    `max_depth` caps the depth; the other four fields set each split
    search through the `LearnConfig` that `learner_config` builds, which
    also checks them.  `node_timeout` bounds a split search: its sample
    polarity from the start, its inverted one from the moment the first
    is solved, so each gets the whole budget."""

    kappa: Fraction = Fraction(1, 20)
    min_score: Fraction = Fraction(4, 5)
    with_constants: bool = False  # true and false as leaves
    max_size: int = 40
    max_depth: int = 20
    node_timeout: Optional[float] = None  # seconds per polarity of a split

    def __post_init__(self):
        self.kappa = exact(self.kappa)
        self.min_score = exact(self.min_score)
        if not 0 <= self.kappa <= 1:
            raise ValueError("kappa must lie in [0, 1]")
        if not Fraction(1, 2) < self.min_score <= 1:
            raise ValueError("min_score must lie in (0.5, 1]")
        if not isinstance(self.max_depth, int) or self.max_depth < 0:
            raise ValueError("max_depth must be an integer of at least 0")
        self.learner_config()
        if self.min_score >= 1 - self.kappa:
            log.warning("min_score %s >= 1 - kappa %s: splits may not beat "
                        "the stopping criterion", self.min_score, self.kappa)

    def learner_config(self) -> LearnConfig:
        """The learner settings of a split search: loss threshold
        1 - min_score under rebalanced weights, with the constants, size
        cap and time budget of this config."""
        return LearnConfig(kappa=1 - self.min_score, weights="rebalanced",
                           with_constants=self.with_constants,
                           max_size=self.max_size, timeout=self.node_timeout)


@dataclass
class TreeResult:
    tree: DecisionTree
    status: str  # SOLVED | DEPTH_CAPPED | SIZE_CAP | TIMED_OUT
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
    for entry, value in zip(sample.entries, sample.truth(formula)):
        (sat if value else unsat).append(entry)
    return (LabeledSample(sample.alphabet, tuple(sat)),
            LabeledSample(sample.alphabet, tuple(unsat)))


def infer_split_formula(sample: LabeledSample,
                        config: DtConfig) -> Optional[Formula]:
    """The higher-scoring of two minimal formulas, one per label polarity,
    or None if either search hits `max_size`.

    One learner call searches the sample and its label inversion, each
    under its own rebalanced weights (the same weight per trace) with loss
    threshold 1 - min_score, and keeps the formula with the higher
    rebalanced score on the sample, preferring the non-inverted one on
    ties.  The scores come from the learner's exact losses: a formula of
    loss l scores max(l, 1 - l), and the inversion's formula has loss
    1 - l on the sample when l is its loss on the inversion.  That formula
    need not be the smallest one with score >= min_score: the other
    polarity's formula may be smaller and score lower.  The inversion is
    not decided past the enumerated sizes when the first search hits the
    size cap or times out.
    """
    first = learn_minimal(sample, config.learner_config(), inverse=True)
    second = first.inverse
    if first.status == TIMED_OUT or (second and second.status == TIMED_OUT):
        raise SolveTimeout()
    if second is None or second.formula is None:
        return None
    s1 = max(first.achieved_loss, 1 - first.achieved_loss)
    s2 = max(second.achieved_loss, 1 - second.achieved_loss)
    log.debug("split of %d traces: sizes %d and %d, losses %s and %s, "
              "score %s", sample.size, first.size, second.size,
              first.achieved_loss, second.achieved_loss, max(s1, s2))
    if max(s1, s2) < config.min_score:
        raise RuntimeError("no split formula reaches min_score; "
                           "this indicates a learner bug")
    return second.formula if s2 > s1 else first.formula


# -- tree construction -------------------------------------------------------

def learn_tree(sample: LabeledSample, config: DtConfig) -> TreeResult:
    """Top-down induction: stop on class-purity, else split on an inferred
    formula and induce both parts, the solid part first, depth first.
    Parts wait on an explicit stack, so `max_depth` is not bounded by the
    recursion limit.

    A node at `max_depth`, or whose split search hits `max_size`, becomes
    a majority leaf; the status is then SIZE_CAP if any node hit the size
    cap, else DEPTH_CAPPED.  A split search that times out ends the
    induction: that part and every impure part still waiting become
    majority leaves, the nodes already split stay, and the status is
    TIMED_OUT."""
    expanded = 0
    status = SOLVED
    # A part still to induce is (sample, depth); a formula marks a node
    # whose two subtrees are the last two entries of `done`.
    stack: list[Union[tuple[LabeledSample, int], Formula]] = [(sample, 0)]
    done: list[DecisionTree] = []
    while stack:
        item = stack.pop()
        if isinstance(item, Formula):
            right = done.pop()
            done.append(Inner(item, done.pop(), right))
            continue
        s, depth = item
        label = pure_label(s, config.kappa)
        if label is not None:
            done.append(Leaf(label))
            continue
        formula = None
        if depth >= config.max_depth:
            if status == SOLVED:
                status = DEPTH_CAPPED
        elif status != TIMED_OUT:
            try:
                formula = infer_split_formula(s, config)
                if formula is None:
                    status = SIZE_CAP
            except SolveTimeout:
                status = TIMED_OUT
        if formula is None:
            done.append(Leaf(1 if positive_fraction(s) >= Fraction(1, 2)
                             else 0))
            continue
        expanded += 1
        s1, s2 = split(s, formula)
        stack += [formula, (s2, depth + 1), (s1, depth + 1)]
    return TreeResult(done.pop(), status, expanded)


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
    node formulas, negated along dashed edges.  Paths are walked left
    first over an explicit stack, so tree depth is not bounded by the
    recursion limit."""
    builder = FormulaBuilder()
    if isinstance(tree, Leaf):
        return builder.finish(builder.add("true" if tree.label else "false"))
    disjunction = None
    # (subtree, conjunction of the literals on the path to it)
    stack: list[tuple[DecisionTree, Optional[int]]] = [(tree, None)]
    while stack:
        node, conj = stack.pop()
        if isinstance(node, Inner):
            lit = _copy_into(builder, node.formula)
            for child, term in ((node.right, builder.add("!", lit)),
                                (node.left, lit)):
                stack.append((child, term if conj is None
                              else builder.add("&", conj, term)))
        elif node.label == 1:
            disjunction = (conj if disjunction is None
                           else builder.add("|", disjunction, conj))
    if disjunction is None:
        disjunction = builder.add("false")
    return builder.finish(disjunction)


# -- serialization -----------------------------------------------------------

def serialize_tree(tree: DecisionTree) -> str:
    """`(leaf true|false)` or `(node "<formula>" <solid> <dashed>)`,
    written over an explicit stack of subtrees and closing texts."""
    parts: list[str] = []
    stack: list[Union[DecisionTree, str]] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"(leaf {'true' if item.label else 'false'})")
        else:
            parts.append(f'(node "{item.formula.to_text()}" ')
            stack += [")", item.right, " ", item.left]
    return "".join(parts)


# One token per match, after any whitespace: a whole leaf (group 1 its
# label), a node's head up to its quoted formula (group 2 the formula),
# or a node's closing ")" (group 3).
_TREE_TOKEN = re.compile(
    r'\s*(?:\(\s*leaf\s+(true|false)\s*\)|\(\s*node\s*"([^"]*)"|(\)))')


def parse_tree(text: str, alphabet=None) -> DecisionTree:
    """The tree `serialize_tree` writes as `text`, any whitespace allowed
    between tokens.  Nodes whose ")" is still to come wait on an explicit
    stack, so tree depth is not bounded by the recursion limit."""
    open_nodes: list[tuple[Formula, list[DecisionTree]]] = []
    pos = 0
    while True:
        match = _TREE_TOKEN.match(text, pos)
        # ")" must follow a node's second subtree, and a subtree may not.
        second_done = bool(open_nodes) and len(open_nodes[-1][1]) == 2
        if match is None or (match[3] is not None) != second_done:
            raise ValueError(f"unexpected text at offset {pos}")
        pos = match.end()
        label, quoted, _ = match.groups()
        if quoted is not None:
            open_nodes.append((parse_formula(quoted, alphabet), []))
            continue
        if label is not None:
            done = Leaf(1 if label == "true" else 0)
        else:
            formula, (left, right) = open_nodes.pop()
            done = Inner(formula, left, right)
        if not open_nodes:
            break
        open_nodes[-1][1].append(done)
    if text[pos:].strip():
        raise ValueError(f"trailing text after tree at offset {pos}")
    return done
