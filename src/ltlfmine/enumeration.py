"""Exhaustive decision of the smallest formula sizes over bitset
signatures.

All traces of the sample are laid end to end in one int, the sample's
own `Layout`, so a formula's truth values at every position of every
trace are one int, its signature, and each operator is a few big-int
operations, the ones `Formula.signature` applies.  The leaves' signatures
are the sample's proposition bits.  A trace is misclassified when the
bit of its position 0 is set in `(signature ^ positives) & first`, and
the loss, scaled by the weights' common denominator D, is one popcount
per distinct weight.

Formulas are enumerated level by level in DAG size, the number of
distinct subformulas (as `Formula` counts it after hash-consing): a
unary `op(f)` has size |f| + 1, a binary `op(f, g)` has size
|sub(f) | sub(g)| + 1, so `p & p` has size 2.  Levels below the size
being decided are stored with each formula's signature and subformula
set; the level being decided is streamed and stored only when a later
level will need it.

A formula is stored only if its subformulas have pairwise distinct
signatures.  If two distinct subformulas f and g of a formula φ share
one, with f not a subformula of g, replacing f by g everywhere keeps
every signature above them, since an operator's value at a position
depends only on its children's values on the same trace; so φ has a
smaller formula with the same loss.  Once every smaller size is refuted,
no formula of size n within the loss bound holds such a pair, so none
of its subformulas is dropped and the streamed level still holds it.
Two *different* formulas with one signature are both kept: they can
differ in what they share inside a larger one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .encoding import leaf_labels
from .formula import BINARY_OPS, TRUE, UNARY_OPS, Formula, FormulaBuilder
from .sample import LabeledSample, WeightFn, scaled_weights
from .sat import check_deadline

LIMIT = 5          # sizes up to LIMIT are decided by enumeration
CHECK_EVERY = 4096  # candidates between two calls of the deadline check


class Enumerator:
    """Formulas over the sample's propositions, `true` and `false` if
    `with_constants`, and the operators ! X F G | & -> U, by size, with
    their signatures on the sample and their weighted losses."""

    def __init__(self, sample: LabeledSample, omega: WeightFn,
                 with_constants: bool = False):
        layout = self.layout = sample.layout
        starts = layout.offsets
        self.positives = layout.bits(
            starts[t] for t, (_, b) in enumerate(sample.entries) if b)
        self.denominator, self.weights = scaled_weights(
            [omega[u] for u in sample.traces()])
        groups: dict[int, list[int]] = {}
        for t, w in enumerate(self.weights):
            groups.setdefault(w, []).append(starts[t])
        self.groups = [(w, layout.bits(ones))
                       for w, ones in sorted(groups.items())]
        # Stored formulas, by id: key, signature and subformula ids.  A key
        # is a label and its children's ids, as `FormulaBuilder.add` takes
        # them: (p,), (constant,), (op, f) or (op, f, g).
        self.keys: list[tuple] = []
        self.sigs: list[int] = []
        self.subs: list[frozenset] = []
        self.intern: dict[tuple, int] = {}
        self.levels: dict[int, list[int]] = {}
        self.candidates = 0
        self.pruned = 0
        # false, like a proposition that holds nowhere, has no bits.
        bits = {TRUE: layout.full, **sample.holds}
        self.leaves = [((p,), bits.get(p, 0))
                       for p in leaf_labels(sample.alphabet, with_constants)]

    def loss(self, sig: int) -> int:
        """Weighted loss of a signature, times the denominator."""
        wrong = (sig ^ self.positives) & self.layout.first
        if not wrong:
            return 0
        return sum(w * (wrong & mask).bit_count() for w, mask in self.groups)

    def bound(self, kappa: Fraction) -> int:
        """The largest scaled loss that is at most kappa."""
        return math.floor(kappa * self.denominator)

    def search(self, n: int, bound: int, deadline: Optional[float]):
        """The key and scaled loss of the first formula of size n whose
        scaled loss is at most `bound`, or None.  `self.candidates` counts
        the formulas whose loss was computed and `self.pruned` the ones
        of them not stored for the next size; the deadline is checked
        before the first and after every CHECK_EVERY of them, and
        `SolveTimeout` stops the search.

        None is exact only when no size below n has a formula within
        `bound` on this sample (module docstring): the formulas of size
        n built on formulas that were not stored are never tried."""
        loss, every = self.loss, CHECK_EVERY
        count = 0
        for key, sig in self.level(n):
            if count % every == 0:
                self.candidates = count
                check_deadline(deadline)
            count += 1
            value = loss(sig)
            if value <= bound:
                self.candidates = count
                return key, value
        self.candidates = count
        return None

    def level(self, n: int):
        """(key, signature) of every formula of size n whose children are
        stored, once each.  Sizes 1..n-1 must have been generated in full
        before; size n is stored for the next one unless n is LIMIT, its
        formulas with two subformulas of one signature left out and
        counted in `self.pruned`."""
        if sorted(self.levels) != list(range(1, n)):
            raise ValueError(f"sizes below {n} must be enumerated in full, "
                             f"and only once")
        store = n < LIMIT
        stored = []
        self.pruned = 0
        for key, sig in self._generate(n):
            if store:
                i = self._store(key, sig)
                if i is None:
                    self.pruned += 1
                else:
                    stored.append(i)
            yield key, sig
        if store:
            self.levels[n] = stored

    def _generate(self, n: int):
        if n == 1:
            yield from self.leaves
            return
        sigs, layout = self.sigs, self.layout
        for op in UNARY_OPS:
            apply = layout.unary[op]
            for f in self.levels[n - 1]:
                yield (op, f), apply(sigs[f])
        binary = [(op, layout.binary[op]) for op in BINARY_OPS]
        for f, g in self._pairs(n - 1):
            a, b = sigs[f], sigs[g]
            for op, apply in binary:
                yield (op, f, g), apply(a, b)

    def _store(self, key: tuple, sig: int) -> Optional[int]:
        """The new id of the formula, or None, storing nothing, when two
        of its subformulas have one signature."""
        sub = set()
        for child in key[1:]:
            sub |= self.subs[child]
        seen = {self.sigs[j] for j in sub}
        seen.add(sig)
        if len(seen) <= len(sub):
            return None
        i = len(self.keys)
        sub.add(i)
        self.keys.append(key)
        self.sigs.append(sig)
        self.subs.append(frozenset(sub))
        self.intern[key] = i
        return i

    def _pairs(self, s: int):
        """Ordered pairs (f, g) of stored formulas with s subformulas
        between them: each f, then each g with s - |f| subformulas
        outside f's, built up from f's subformulas."""
        for a in range(1, s + 1):
            for f in self.levels[a]:
                for g in self._extend(self.subs[f], s - a):
                    yield f, g

    def _extend(self, inside: frozenset, k: int):
        """Stored formulas with exactly k subformulas outside `inside`, a
        set of stored formulas closed under subformulas; each once."""
        if k == 0:
            yield from inside
            return
        intern = self.intern
        if k == 1:
            for leaf in self.levels[1]:
                if leaf not in inside:
                    yield leaf
        for h in self._extend(inside, k - 1):
            for op in UNARY_OPS:
                g = intern.get((op, h))
                if g is not None and g not in inside:
                    yield g
        for m in range(k):
            for h in self._extend(inside, m):
                around = inside | self.subs[h] if m else inside
                for h2 in self._extend(around, k - 1 - m):
                    for op in BINARY_OPS:
                        g = intern.get((op, h, h2))
                        if g is not None and g not in inside:
                            yield g

    def build(self, key: tuple) -> Formula:
        """The formula of a key from `level` or `search`."""
        builder = FormulaBuilder()

        def node(key) -> int:
            return builder.add(key[0], *(node(self.keys[c]) for c in key[1:]))

        return builder.finish(node(key))
