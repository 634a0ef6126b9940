"""Reduction of formula search to partial weighted MaxSAT.

For a target DAG size n and a labeled sample, the instance contains:

* structural hard clauses fixing one label per node, from the sample's
  propositions, `true` and `false` when constants are asked for
  (`formula.leaf_labels`), and the operators ! X F G | & -> U, and one
  left/right child (with smaller id) per non-leaf node;
* channel clauses: per trace t, node i >= 2 and position tau, the
  variables L(t,i,tau) and R(t,i,tau) equal the valuation of the chosen
  left and right child, l(i,j) -> (L <-> y_j) and r(i,k) -> (R <-> y_k);
* semantic hard clauses defining, per trace and position, the valuation
  variable y of every node from L and R, stated once per node and
  operator and guarded by the operator's label variable alone (temporal
  operators use the one-step suffix recurrences, so the clause count
  stays linear in the trace length); every channel, constant and
  operator except U is one definition, own <-> the disjunction or the
  conjunction of at most two signals (`_define`), U keeps a loop of its
  own, and X, F, G and U add the clauses of the last position, where
  the recurrence has no successor;
* one unit soft clause per trace asserting correct classification at the
  root, weighted by the trace weight function.

Channel and semantic clauses together number O(n^2 * sum |u|) over the
traces u, instead of one copy of every operator's semantics per pair of
children, O(n^3 * |ops| * sum |u|).

Models of the hard clauses decode to LTLf formulas; the satisfied soft
weight of a model equals one minus the weighted loss of the decoded
formula.

`Encoding` writes into a clause sink given to it (see `cnf`) and takes
every variable from it, as `cnf.totalizer` does, so a trace encoded
after a totalizer over the root literals gets variables of its own.
The learner's sink is a `SatSolver`, the only copy of the clauses, to
which it adds traces in batches; `EncodingInstance` fills a
`WeightedCnf` with every trace and the soft clauses, for WCNF export.
Every encoder literal comes from `new_var`, so its sink appends to the
hard clauses without `WeightedCnf.add_clause`'s literal check.  From a
fresh sink both number variables and order clauses alike.

The clause tuples share their literal objects: per trace, each node's
valuation literals and their negations, each inner node's L and R
literals and their negations, and each guard (a negated label or select
variable) are built once and put into every clause that holds them.
CPython caches only small ints, so a literal negated per clause would be
a new int object in each clause: the full instance would take 125-131
bytes per hard clause instead of about 90 (tracemalloc, CPython
3.10-3.13).
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from . import formula as F
from .formula import Formula, FormulaBuilder, leaf_labels
from .maxsat import WeightedCnf
from .sample import LabeledSample, Trace, WeightFn, _check_domain


class EncodingError(RuntimeError):
    """A model violates the encoder's exactly-one invariants."""


def _signal(lits: list[int]) -> tuple[list[int], list[int]]:
    """A signal along a trace: its literals and their negations."""
    return lits, [-v for v in lits]


def _exactly_one(assignment: dict, choices, i: int, kind: str):
    """The one choice, of (item, variable) pairs, whose variable
    `assignment` sets true: node i's label or child."""
    hits = [item for item, v in choices if assignment.get(v, False)]
    if len(hits) != 1:
        raise EncodingError(
            f"node {i} has {len(hits)} {kind} set; encoder invariant broken")
    return hits[0]


class Encoding:
    """The size-n structure: label and child variables, structural
    clauses, decoding, and the per-trace clauses of `add_traces`.

    Each variable comes from `sink.new_var()` and each clause goes to
    `sink.add_clause` as a tuple of ints.  Clauses are only ever added,
    so clauses a solver sink learned stay valid.
    """

    def __init__(self, n: int, sample: LabeledSample, with_constants: bool,
                 sink):
        if n < 1:
            raise ValueError("target size must be at least 1")
        self.n = n
        self.sample = sample
        self.leaves = leaf_labels(sample.alphabet, with_constants)
        self.labels = self.leaves + F.UNARY_OPS + F.BINARY_OPS
        self.traces: list[Trace] = sample.traces()
        self.x: dict[tuple[int, str], int] = {}
        self.l: dict[tuple[int, int], int] = {}
        self.r: dict[tuple[int, int], int] = {}
        self.y: dict[tuple[int, int, int], int] = {}  # (trace idx, node, pos)
        # (trace idx, node >= 2, pos) -> the chosen left / right child's
        # valuation there
        self.left: dict[tuple[int, int, int], int] = {}
        self.right: dict[tuple[int, int, int], int] = {}
        self.sink = sink
        self._add = sink.add_clause
        self._add_structure()

    # -- variables ---------------------------------------------------------

    def add_traces(self, ts) -> None:
        """Encode the sample traces `ts`: valuation variables for every
        trace in `ts`, then channel variables for every trace in `ts`,
        then each trace's semantic clauses in turn."""
        ts = list(ts)
        n, new_var = self.n, self.sink.new_var
        for t in ts:
            for i in range(1, n + 1):
                for tau in range(len(self.traces[t])):
                    self.y[(t, i, tau)] = new_var()
        for t in ts:
            for i in range(2, n + 1):
                for tau in range(len(self.traces[t])):
                    self.left[(t, i, tau)] = new_var()
                    self.right[(t, i, tau)] = new_var()
        for t in ts:
            self._emit_semantic(t)

    # -- structure ---------------------------------------------------------

    def _add_structure(self) -> None:
        """The label and child variables, then their clauses."""
        n, labels, new_var = self.n, self.labels, self.sink.new_var
        for i in range(1, n + 1):
            for label in labels:
                self.x[(i, label)] = new_var()
        for i in range(2, n + 1):
            for j in range(1, i):
                self.l[(i, j)] = new_var()
            for j in range(1, i):
                self.r[(i, j)] = new_var()
        add = self._add
        for i in range(1, n + 1):
            add(tuple(self.x[(i, lab)] for lab in labels))
            for a in range(len(labels)):
                for b in range(a + 1, len(labels)):
                    add((-self.x[(i, labels[a])], -self.x[(i, labels[b])]))
        for i in range(2, n + 1):
            add(tuple(self.l[(i, j)] for j in range(1, i)))
            add(tuple(self.r[(i, j)] for j in range(1, i)))
            for a in range(1, i):
                for b in range(a + 1, i):
                    add((-self.l[(i, a)], -self.l[(i, b)]))
                    add((-self.r[(i, a)], -self.r[(i, b)]))
        add(tuple(self.x[(1, lab)] for lab in self.leaves))
        # Unary nodes mirror the left child in the right-child slot, which
        # removes spurious model multiplicity.
        for i in range(2, self.n + 1):
            for op in F.UNARY_OPS:
                for j in range(1, i):
                    add((-self.x[(i, op)], -self.l[(i, j)], self.r[(i, j)]))

    # -- semantic clauses --------------------------------------------------

    def _emit_semantic(self, t: int) -> None:
        trace = self.traces[t]
        m = len(trace)
        add, define = self._add, self._define
        x, y = self.x, self.y
        # per node, its valuation along the trace
        val = {i: _signal([y[(t, i, tau)] for tau in range(m)])
               for i in range(1, self.n + 1)}
        for i in range(1, self.n + 1):
            ys, nys = val[i]
            for p in self.leaves:
                g = -x[(i, p)]
                if p in F.CONSTANTS:
                    # true is the empty conjunction, false the empty
                    # disjunction
                    define(g, val[i], (), conj=p == F.TRUE)
                    continue
                for symbol, yv, nyv in zip(trace, ys, nys):
                    add((g, yv) if p in symbol else (g, nyv))
        for i in range(2, self.n + 1):
            left = _signal([self.left[(t, i, tau)] for tau in range(m)])
            right = _signal([self.right[(t, i, tau)] for tau in range(m)])
            for j in range(1, i):
                define(-self.l[(i, j)], left, (val[j],))
                define(-self.r[(i, j)], right, (val[j],))
            own = ys, nys = val[i]
            ls, nls = left
            not_left = nls, ls
            for op in F.UNARY_OPS:
                g = -x[(i, op)]
                if op == F.NOT:
                    define(g, own, (not_left,))
                elif op == F.NEXT:
                    # y_i(tau) <-> L(tau+1), and false at the last position
                    define(g, own, ((ls[1:], nls[1:]),))
                    add((g, nys[-1]))
                else:
                    # y_i(tau) <-> L(tau) or/and y_i(tau+1), y_i <-> L last
                    define(g, own, (left, (ys[1:], nys[1:])),
                           conj=op == F.GLOBALLY)
                    add((g, nys[-1], ls[-1]))
                    add((g, ys[-1], nls[-1]))
            for op in F.BINARY_OPS:
                g = -x[(i, op)]
                if op != F.UNTIL:
                    define(g, own, (not_left if op == F.IMPLIES else left,
                                    right), conj=op == F.AND)
                    continue
                # y_i(tau) <-> R(tau) or (L(tau) and y_i(tau+1)), and
                # y_i <-> R at the last position
                rs, nrs = right
                for yi, nyi, a, na, b, nb, yin, nyin in zip(
                        ys, nys, ls, nls, rs, nrs, ys[1:], nys[1:]):
                    add((g, nyi, b, a))
                    add((g, nyi, b, yin))
                    add((g, yi, nb))
                    add((g, yi, na, nyin))
                add((g, nys[-1], rs[-1]))
                add((g, ys[-1], nrs[-1]))

    def _define(self, g, own, inputs, conj=False) -> None:
        """The clauses of -g -> (own <-> the disjunction of `inputs`), or
        of their conjunction if `conj`, at every position all the signals
        reach.  The guard g is a negated label or select variable, each
        signal a pair (literals, negated literals) from `_signal`, and
        `inputs` holds at most two.  The conjunction is the De Morgan
        dual: not own <-> the disjunction of the negated inputs."""
        add = self._add
        # conj swaps each signal's two lists by name: building swapped
        # pairs per call emitted G and & a quarter slower
        ys, nys = own[::-1] if conj else own
        if not inputs:
            for nyi in nys:
                add((g, nyi))
        elif len(inputs) == 1:
            (ls, nls), = inputs
            if conj:
                ls, nls = nls, ls
            for yi, nyi, a, na in zip(ys, nys, ls, nls):
                add((g, nyi, a))
                add((g, yi, na))
        else:
            (ls, nls), (rs, nrs) = inputs
            if conj:
                ls, nls, rs, nrs = nls, ls, nrs, rs
            for yi, nyi, a, na, b, nb in zip(ys, nys, ls, nls, rs, nrs):
                add((g, nyi, a, b))
                add((g, yi, na))
                add((g, yi, nb))

    def root_literal(self, t: int) -> int:
        """The literal stating that the root classifies trace t correctly."""
        root_y = self.y[(t, self.n, 0)]
        return root_y if self.sample.entries[t][1] == 1 else -root_y

    # -- decoding ----------------------------------------------------------

    def node_label(self, assignment: dict, i: int) -> str:
        return _exactly_one(assignment, [(lab, self.x[(i, lab)])
                                         for lab in self.labels],
                            i, "labels")

    def _child(self, assignment: dict, table, i: int) -> int:
        return _exactly_one(assignment, [(j, table[(i, j)])
                                         for j in range(1, i)],
                            i, "children")

    def decode_model(self, assignment: dict) -> Formula:
        """The formula a model encodes.  Nodes are decoded in id order, so
        every child is built before its parent; `finish` keeps only what
        the root reaches."""
        builder = FormulaBuilder()
        built = [0]  # built[i]: the builder id of node i
        for i in range(1, self.n + 1):
            label = self.node_label(assignment, i)
            children = [built[self._child(assignment, table, i)]
                        for table in (self.l, self.r)[:F.arity(label)]]
            built.append(builder.add(label, *children))
        return builder.finish(built[self.n])

    # -- helpers for tests and external tooling ----------------------------

    def structure_assumptions(self, f: Formula) -> list[int]:
        """Unit assumptions clamping the instance to the given formula's
        structure (the formula must have exactly n nodes)."""
        if f.size != self.n:
            raise ValueError("formula size must equal the instance size")
        lits = []
        for i in range(1, self.n + 1):
            node = f.node(i)
            lits.append(self.x[(i, node.label)])
            if node.left:
                lits.append(self.l[(i, node.left)])
            if node.right:
                lits.append(self.r[(i, node.right)])
            elif node.left:  # unary: right mirrors left
                lits.append(self.r[(i, node.left)])
        return lits


class EncodingInstance(Encoding):
    """The size-n search instance with every trace, as a `WeightedCnf`
    with one soft clause per trace, for WCNF export."""

    def __init__(self, n: int, sample: LabeledSample, omega: WeightFn,
                 with_constants: bool = False, var_comments: bool = False):
        self.wcnf = WeightedCnf(0)
        super().__init__(n, sample, with_constants, SimpleNamespace(
            new_var=self.wcnf.new_var, add_clause=self.wcnf.hard.append))
        self.add_traces(range(len(self.traces)))
        if var_comments:
            self.wcnf.comments.extend(
                f"c var {v} {tag} {' '.join(map(str, key))}"
                for tag, table in (("x", self.x), ("l", self.l),
                                   ("r", self.r), ("y", self.y),
                                   ("L", self.left), ("R", self.right))
                for key, v in table.items())
        _check_domain(sample, omega)
        for t, trace in enumerate(self.traces):
            self.wcnf.add_soft([self.root_literal(t)],
                               Fraction(omega[trace]))
