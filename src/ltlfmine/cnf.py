"""Generalized totalizer: a weighted sum over literals as CNF.

Literals are signed DIMACS-style integers throughout.  The encoding is
the generalized totalizer of Joshi, Martins and Manquinho ("Generalized
totalizer encoding for pseudo-Boolean constraints", CP 2015), made
two-sided so that an output can be assumed to force a lower bound.

Every clause emitter, this totalizer and `encoding.Encoding`, writes
into a clause sink: an object with `new_var()`, which returns the next
unused variable, and `add_clause(clause)`.  The sink is the one
allocator of its variables, so emitters that share a sink never share a
variable.  `sat.SatSolver` and `maxsat.WeightedCnf` are the sinks; both
reject a literal whose variable their `new_var` did not number, and
`encoding.EncodingInstance` appends to a `WeightedCnf`'s list directly.
"""

from __future__ import annotations

from typing import Sequence

# A node enumerates every pair of child sums; past this many pairs the
# instance has too many distinct weight sums to be encoded this way.
MAX_NODE_PAIRS = 4_000_000


def totalizer(inputs: Sequence[tuple[int, int]], sink
              ) -> list[tuple[int, int]]:
    """Build a two-sided totalizer over `(literal, positive int weight)`
    pairs into the clause `sink`, which numbers its output variables.

    Returns `(s, o_s)` for every distinct nonzero sum `s` of input
    weights, ascending.  Given the emitted clauses, `o_s` is true iff the
    true inputs weigh at least `s`, so assuming `o_s` forces weight >= s.
    Each distinct weight gets its own cardinality totalizer, and the group
    roots are merged in a balanced tree in weight order; with unit weights
    this is the classic cardinality totalizer.  Raises `ValueError` before
    emitting a node with more than `MAX_NODE_PAIRS` pairs of child sums.
    """
    if any(w <= 0 for _, w in inputs):
        raise ValueError("totalizer weights must be positive")
    groups: dict[int, list[list[tuple[int, int]]]] = {}
    for lit, w in inputs:
        groups.setdefault(w, []).append([(w, lit)])
    # Splitting a mix of k and m leaves of two weights by count gives a
    # node with about (k+1)(m+1) sums; splitting at group boundaries keeps
    # every node within a group a unit counter.
    roots = [_merge_all(groups[w], sink) for w in sorted(groups)]
    return _merge_all(roots, sink) if roots else []


def _unit_step(outs: list[tuple[int, int]]):
    """The weight w if the sums are exactly w, 2w, 3w, ..., else None."""
    w = outs[0][0]
    if all(s == k * w for k, (s, _) in enumerate(outs, start=1)):
        return w
    return None


def _merge_all(nodes, sink) -> list[tuple[int, int]]:
    """Merge the `(sum, output)` lists of `nodes` in a balanced tree."""
    if len(nodes) == 1:
        return nodes[0]
    half = len(nodes) // 2
    return _merge(_merge_all(nodes[:half], sink),
                  _merge_all(nodes[half:], sink), sink)


def _merge(a, b, sink) -> list[tuple[int, int]]:
    if (len(a) + 1) * (len(b) + 1) > MAX_NODE_PAIRS:
        raise ValueError("too many distinct soft-weight sums for a totalizer")
    step = _unit_step(a)
    unit = step is not None and step == _unit_step(b)
    a = [(0, 0)] + a
    b = [(0, 0)] + b
    sums = sorted({x + y for x, _ in a for y, _ in b} - {0})
    outs = {s: sink.new_var() for s in sums}
    successor = dict(zip([0] + sums, sums))
    for i, (x, ox) in enumerate(a):
        for j, (y, oy) in enumerate(b):
            # Lower direction: the true inputs reach x + y, so o_{x+y}.
            if i + j >= 1:
                clause = [outs[x + y]]
                if i:
                    clause.append(-ox)
                if j:
                    clause.append(-oy)
                sink.add_clause(clause)
            # Upper direction: the children weigh at most x and y, so the
            # next sum above x + y is out of reach.
            if x + y in successor:
                clause = [-outs[successor[x + y]]]
                if i + 1 < len(a):
                    clause.append(a[i + 1][1])
                if j + 1 < len(b):
                    clause.append(b[j + 1][1])
                sink.add_clause(clause)
    if not unit:
        # With unequal steps "at most x + y" excludes more than the next
        # sum: with weights {5, 3} and only the 3 true, o_8 would be
        # free.  Chaining o_s -> o_prev(s) makes every larger output
        # false as well; unit counters already imply it.
        for lo, hi in zip(sums, sums[1:]):
            sink.add_clause([-outs[hi], outs[lo]])
    return [(s, outs[s]) for s in sums]
