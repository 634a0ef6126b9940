"""Exhaustive decision of the smallest formula sizes over bitset
signatures.

All traces of the sample are laid end to end in one int, the sample's
own `Layout`, so a formula's truth values at every position of every
trace are one int, its signature, and each operator is a few big-int
operations, the ones `Formula.signature` applies.  The leaves' signatures
are the sample's proposition bits.  A trace is misclassified when the
bit of its position 0 is set in `(signature ^ positives) & first`, and
the loss, scaled by the weights' common denominator D, is one popcount
per distinct weight, in integers.

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
differ in what they share inside a larger one.  The store tests a chunk
in one loop, with no call per formula.  A stored formula's subformulas
already have distinct signatures, so a unary formula is pruned when its
signature is one of its child's subformulas', and a binary one when the
union of its children's subformulas has two of one signature or one
equal to its own; the binary operators over one pair of children come
in a row and share that union and its signatures.

A level is produced in chunks of at most CHECK_EVERY formulas, in one
fixed order, each chunk's signatures from one comprehension over the
layout's operators.  The search takes each chunk's misclassified trace
counts in a second comprehension.  With w_min the smallest scaled
weight, a formula's scaled loss is at least w_min times its count, so a
formula whose count exceeds `bound // w_min` cannot be within the bound,
and a chunk with no smaller count is rejected whole; only the formulas
left get the exact loss.  The chunk is stored up to and including the
first hit, so the counts of formulas tried and pruned are those of a
search one formula at a time.

One pass can also search the label inversion of the sample, as a second
polarity.  The inversion has the same layout and signatures, so the same
formulas in the same order and the same pruning, and when the weights
sum to 1 a formula's scaled loss on it is D minus its scaled loss on the
sample, and its misclassified count is the number of traces minus its
count.  A chunk is passed over only when neither polarity has a count
within the bound; it is stored up to the last hit it needs, and a level
in which only one polarity hits is completed and stored for the other.
Each polarity's formula and counts are those of a search of its own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Optional

from .encoding import leaf_labels
from .formula import BINARY_OPS, TRUE, UNARY_OPS, Formula, FormulaBuilder
from .sample import LabeledSample, WeightFn, scaled_weights
from .sat import check_deadline

LIMIT = 5          # sizes up to LIMIT are decided by enumeration
CHECK_EVERY = 256  # candidates per chunk, one deadline check each


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

    def search(self, n: int, bound: int, deadlines: list,
               polarities: tuple = (0,)):
        """Yield (polarity, key, scaled loss) for the first formula of size
        n whose scaled loss is at most `bound`, for each of `polarities`
        (0 the sample, 1 its label inversion; module docstring) as the
        level reaches it, and stop once each has one.  The level is read
        in chunks: a chunk with no count within `bound // w_min` for an
        open polarity is passed over, and in any other the formulas within
        it get the exact loss, in order.

        When a formula is yielded, `self.candidates` counts the formulas
        tried up to it and `self.pruned` the ones of them not stored for
        the next size, as that polarity's search one formula at a time
        would; once the level is exhausted they count all of it.  Before
        each chunk the deadline of the first open polarity,
        `deadlines[polarity]`, is checked, and `SolveTimeout` stops the
        search; the caller may change `deadlines` while a formula is
        yielded.

        Sizes 1..n-1 must have been searched to the end of their levels,
        and n not yet, else ValueError.  Unless n is LIMIT, each formula
        tried is stored for size n+1, or counted in `self.pruned` when two
        of its subformulas have one signature, and once the level is
        exhausted it is the one size n+1 builds on.

        That a polarity gets no formula is exact only when no size below n
        has a formula within `bound` for it (module docstring): the
        formulas of size n built on formulas that were not stored are
        never tried."""
        if sorted(self.levels) != list(range(1, n)):
            raise ValueError(f"sizes below {n} must be enumerated in full, "
                             f"and only once")
        stored = [] if n < LIMIT else None  # the last level is not stored
        positives, first = self.positives, self.layout.first
        cap = bound // self.groups[0][0]  # groups ascend by weight
        waiting = list(polarities)
        self.candidates = self.pruned = 0
        for keys, sigs in self._chunks(n):
            check_deadline(deadlines[waiting[0]])
            counts = [((sig ^ positives) & first).bit_count() for sig in sigs]
            hits = sorted(filter(None, [self._first(counts, sigs, bound, cap, p)
                                        for p in waiting]))
            # Count and store the chunk up to each hit before yielding it,
            # then the rest while a polarity is open.
            done = 0
            for j, p, value in [*hits, (len(keys) - 1, None, None)]:
                self.candidates += j + 1 - done
                if stored is not None:
                    self._keep(keys[done:j + 1], sigs[done:j + 1], stored)
                done = j + 1
                if p is not None:
                    waiting.remove(p)
                    yield p, keys[j], value
                    if not waiting:
                        return
            # Drop this chunk before `_chunks` builds the next one.
            del keys, sigs, counts, hits
        if stored is not None:
            self.levels[n] = stored

    def _first(self, counts: list, sigs: list, bound: int, cap: int,
               polarity: int) -> Optional[tuple[int, int, int]]:
        """The index in a chunk of its first formula within `bound` for
        `polarity`, the polarity and that formula's scaled loss, or None.
        Only a formula misclassifying at most `cap` traces of its
        polarity's sample, so at least `traces - cap` of the sample for
        polarity 1, gets the exact loss."""
        if polarity:
            least = len(self.weights) - cap
            if max(counts) < least:
                return None
            near = [i for i, count in enumerate(counts) if count >= least]
        else:
            if min(counts) > cap:
                return None
            near = [i for i, count in enumerate(counts) if count <= cap]
        for j in near:
            value = self.loss(sigs[j])
            if polarity:
                value = self.denominator - value
            if value <= bound:
                return j, polarity, value
        return None

    def _chunks(self, n: int):
        """(keys, signatures) of the formulas of size n whose children are
        stored, in chunks of at most CHECK_EVERY: the leaves, then each
        unary operator over level n-1, then each pair of `_pairs` with
        the binary operators in turn.  A chunk's signatures come from one
        comprehension over the layout's operators."""
        every = CHECK_EVERY
        if n == 1:
            for i in range(0, len(self.leaves), every):
                part = self.leaves[i:i + every]
                yield [key for key, _ in part], [sig for _, sig in part]
            return
        sigs, layout = self.sigs, self.layout
        below = self.levels[n - 1]
        for op in UNARY_OPS:
            apply = layout.unary[op]
            for i in range(0, len(below), every):
                part = below[i:i + every]
                yield [(op, f) for f in part], [apply(sigs[f]) for f in part]
        applies = [layout.binary[op] for op in BINARY_OPS]
        pairs = self._pairs(n - 1)
        # Whole pairs, enough for one chunk, then cut to chunk size.
        while part := list(islice(pairs, -(-every // len(BINARY_OPS)))):
            keys = [(op, f, g) for f, g in part for op in BINARY_OPS]
            values = [apply(sigs[f], sigs[g])
                      for f, g in part for apply in applies]
            for i in range(0, len(keys), every):
                yield keys[i:i + every], values[i:i + every]
            # Drop these before the next pairs are built.
            del part, keys, values

    def _keep(self, keys: list, sigs: list, stored: list) -> None:
        """Store a run of formulas in order, each new id into `stored`, or
        count it in `self.pruned` and store nothing when two of its
        subformulas have one signature (module docstring).  One pair of
        children's union and signatures serve the formulas over it in a
        row."""
        all_keys, all_sigs, subs = self.keys, self.sigs, self.subs
        intern = self.intern
        sig_of = all_sigs.__getitem__
        i = start = len(all_keys)
        f = g = None
        for key, sig in zip(keys, sigs):
            if len(key) == 3:
                if key[2] != g or key[1] != f:
                    _, f, g = key
                    union = subs[f] | subs[g]
                    below = set(map(sig_of, union))
                    clash = len(below) < len(union)
                if clash or sig in below:
                    continue
                sub = union
            elif len(key) == 2:
                sub = subs[key[1]]
                if sig in map(sig_of, sub):
                    continue
            else:
                sub = frozenset()
            all_keys.append(key)
            all_sigs.append(sig)
            subs.append(sub | {i})
            intern[key] = i
            stored.append(i)
            i += 1
        self.pruned += len(keys) - (i - start)

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
        """The formula of a key, as `search` yields it."""
        builder = FormulaBuilder()

        def node(key) -> int:
            return builder.add(key[0], *(node(self.keys[c]) for c in key[1:]))

        return builder.finish(node(key))
