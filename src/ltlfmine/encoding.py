"""Reduction of formula search to partial weighted MaxSAT.

For a target DAG size n and a labeled sample, the instance contains:

* structural hard clauses fixing one operator label per node and one
  left/right child (with smaller id) per non-leaf node;
* channel clauses: per trace t, node i >= 2 and position tau, the
  variables L(t,i,tau) and R(t,i,tau) equal the valuation of the chosen
  left and right child, l(i,j) -> (L <-> y_j) and r(i,k) -> (R <-> y_k);
* semantic hard clauses defining, per trace and position, the valuation
  variable y of every node from L and R, stated once per node and
  operator and guarded by the operator's label variable alone (temporal
  operators use the one-step suffix recurrences, so the clause count
  stays linear in the trace length); each operator's clauses are one
  loop over the trace positions, plus, for X, F, G and U, the clauses
  of the last position, where the recurrence has no successor;
* one unit soft clause per trace asserting correct classification at the
  root, weighted by the trace weight function.

Channel and semantic clauses together number O(n^2 * sum |u|) over the
traces u, instead of one copy of every operator's semantics per pair of
children, O(n^3 * |ops| * sum |u|).

Models of the hard clauses decode to LTLf formulas; the satisfied soft
weight of a model equals one minus the weighted loss of the decoded
formula.

`IncrementalInstance` streams the structural clauses into a SAT solver
and adds traces to it in batches: the learner decides every size >= 5
on it, and the solver it fills is the only copy of the clauses.
`EncodingInstance` builds the same clauses, numbered alike, as a
`WeightedCnf` with the soft clauses, for WCNF export.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import formula as F
from .formula import Formula, FormulaBuilder
from .maxsat import WeightedCnf
from .sat import SatSolver
from .sample import LabeledSample, Trace, WeightFn, _check_domain


class EncodingError(RuntimeError):
    """A model violates the encoder's exactly-one invariants."""


@dataclass(frozen=True)
class OperatorPool:
    """The operator set the search ranges over (propositions included)."""

    alphabet: tuple[str, ...]
    unary: tuple[str, ...] = F.UNARY_OPS
    binary: tuple[str, ...] = F.BINARY_OPS
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        reserved = set(F.UNARY_OPS) | set(F.BINARY_OPS) | set(F.CONSTANTS)
        clash = reserved & set(self.alphabet)
        if clash:
            raise ValueError(f"proposition names clash with operators: {clash}")
        for kind, ops, known in (("unary", self.unary, F.UNARY_OPS),
                                 ("binary", self.binary, F.BINARY_OPS),
                                 ("constant", self.constants, F.CONSTANTS)):
            unknown = [op for op in ops if op not in known]
            if unknown:
                raise ValueError(f"unsupported {kind} operators: {unknown}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("operator pool lists a label twice")
        if not self.nullary:
            raise ValueError("operator pool needs at least one nullary operator")

    @property
    def nullary(self) -> tuple[str, ...]:
        return self.alphabet + self.constants

    @property
    def labels(self) -> tuple[str, ...]:
        return self.nullary + self.unary + self.binary


def default_pool(alphabet) -> OperatorPool:
    return OperatorPool(tuple(alphabet))


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


class _Skeleton:
    """The size-n structure: label and child variables, structural
    clauses, decoding, and the per-trace emitters.

    Clauses, tuples of ints, go to the sink `self._add`, set by the
    subclass before it emits anything, and `_reserve(nvars)` is told the
    variable count once `add_traces` has allocated a batch, before their
    clauses.  The full instance and the incremental one both encode
    traces with `add_traces`, so they number variables and order clauses
    alike.
    """

    def __init__(self, n: int, sample: LabeledSample,
                 pool: Optional[OperatorPool]):
        if n < 1:
            raise ValueError("target size must be at least 1")
        self.n = n
        self.sample = sample
        self.pool = pool or default_pool(sample.alphabet)
        self.traces: list[Trace] = sample.traces()
        self._next = 1
        self.x: dict[tuple[int, str], int] = {}
        self.l: dict[tuple[int, int], int] = {}
        self.r: dict[tuple[int, int], int] = {}
        self.y: dict[tuple[int, int, int], int] = {}  # (trace idx, node, pos)
        # (trace idx, node >= 2, pos) -> the chosen left / right child's
        # valuation there
        self.left: dict[tuple[int, int, int], int] = {}
        self.right: dict[tuple[int, int, int], int] = {}
        self._add = None
        self._allocate_structure()

    # -- variables ---------------------------------------------------------

    def _fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    def _allocate_structure(self) -> None:
        n, pool = self.n, self.pool
        for i in range(1, n + 1):
            for label in pool.labels:
                self.x[(i, label)] = self._fresh()
        for i in range(2, n + 1):
            for j in range(1, i):
                self.l[(i, j)] = self._fresh()
            for j in range(1, i):
                self.r[(i, j)] = self._fresh()

    def add_traces(self, ts) -> None:
        """Encode the sample traces `ts`: valuation variables for every
        trace in `ts`, then channel variables for every trace in `ts`,
        then each trace's semantic clauses in turn."""
        ts = list(ts)
        n = self.n
        for t in ts:
            for i in range(1, n + 1):
                for tau in range(len(self.traces[t])):
                    self.y[(t, i, tau)] = self._fresh()
        for t in ts:
            for i in range(2, n + 1):
                for tau in range(len(self.traces[t])):
                    self.left[(t, i, tau)] = self._fresh()
                    self.right[(t, i, tau)] = self._fresh()
        self._reserve(self._next - 1)
        for t in ts:
            self._emit_semantic(t)

    # -- structural clauses ------------------------------------------------

    def _emit_structural(self) -> None:
        n, labels = self.n, self.pool.labels
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
        add(tuple(self.x[(1, lab)] for lab in self.pool.nullary))
        # Unary nodes mirror the left child in the right-child slot, which
        # removes spurious model multiplicity.
        for i in range(2, self.n + 1):
            for op in self.pool.unary:
                for j in range(1, i):
                    add((-self.x[(i, op)], -self.l[(i, j)], self.r[(i, j)]))

    # -- semantic clauses --------------------------------------------------

    def _emit_semantic(self, t: int) -> None:
        trace = self.traces[t]
        m = len(trace)
        add = self._add
        x, y = self.x, self.y
        # per node, its valuation along the trace
        val = {i: _signal([y[(t, i, tau)] for tau in range(m)])
               for i in range(1, self.n + 1)}
        for i in range(1, self.n + 1):
            own, neg_own = val[i]
            for p in self.pool.alphabet:
                g = -x[(i, p)]
                for symbol, yv, nyv in zip(trace, own, neg_own):
                    add((g, yv) if p in symbol else (g, nyv))
            for c in self.pool.constants:
                g = -x[(i, c)]
                for yv in (own if c == F.TRUE else neg_own):
                    add((g, yv))
        for i in range(2, self.n + 1):
            left = _signal([self.left[(t, i, tau)] for tau in range(m)])
            right = _signal([self.right[(t, i, tau)] for tau in range(m)])
            for j in range(1, i):
                self._channel(-self.l[(i, j)], left, val[j])
                self._channel(-self.r[(i, j)], right, val[j])
            for op in self.pool.unary:
                self._unary_semantics(op, -x[(i, op)], val[i], left)
            for op in self.pool.binary:
                self._binary_semantics(op, -x[(i, op)], val[i], left, right)

    # The emitters below take each signal along the trace as a pair
    # (literals, negated literals) from `_signal`, and the guard as the
    # negated label or select literal.

    def _channel(self, g, channel, child) -> None:
        """g -> (channel <-> child) at every position."""
        add = self._add
        for c, nc, yj, nyj in zip(*channel, *child):
            add((g, nc, yj))
            add((g, c, nyj))

    def _unary_semantics(self, op, g, own, left) -> None:
        """Clauses, guarded by the literal g, giving own = op(left)."""
        add = self._add
        (ys, nys), (ls, nls) = own, left
        if op == F.NOT:
            for yi, nyi, a, na in zip(ys, nys, ls, nls):
                add((g, nyi, na))
                add((g, yi, a))
            return
        if op == F.NEXT:
            # y_i(tau) <-> L(tau+1), and false at the last position
            for yi, nyi, an, nan in zip(ys, nys, ls[1:], nls[1:]):
                add((g, nyi, an))
                add((g, yi, nan))
            add((g, nys[-1]))
            return
        if op == F.EVENTUALLY:
            # y_i(tau) <-> L(tau) or y_i(tau+1)
            for yi, nyi, a, na, yin, nyin in zip(ys, nys, ls, nls,
                                                  ys[1:], nys[1:]):
                add((g, nyi, a, yin))
                add((g, yi, na))
                add((g, yi, nyin))
        else:
            # G: y_i(tau) <-> L(tau) and y_i(tau+1)
            for yi, nyi, a, na, yin, nyin in zip(ys, nys, ls, nls,
                                                  ys[1:], nys[1:]):
                add((g, yi, na, nyin))
                add((g, nyi, a))
                add((g, nyi, yin))
        # F and G at the last position: y_i <-> L
        add((g, nys[-1], ls[-1]))
        add((g, ys[-1], nls[-1]))

    def _binary_semantics(self, op, g, own, left, right) -> None:
        """Clauses, guarded by the literal g, giving own = left op right."""
        add = self._add
        (ys, nys), (ls, nls), (rs, nrs) = own, left, right
        if op == F.OR:
            for yi, nyi, a, na, b, nb in zip(ys, nys, ls, nls, rs, nrs):
                add((g, nyi, a, b))
                add((g, yi, na))
                add((g, yi, nb))
        elif op == F.AND:
            for yi, nyi, a, na, b, nb in zip(ys, nys, ls, nls, rs, nrs):
                add((g, yi, na, nb))
                add((g, nyi, a))
                add((g, nyi, b))
        elif op == F.IMPLIES:
            for yi, nyi, a, na, b, nb in zip(ys, nys, ls, nls, rs, nrs):
                add((g, nyi, na, b))
                add((g, yi, a))
                add((g, yi, nb))
        else:
            # U: y_i(tau) <-> R(tau) or (L(tau) and y_i(tau+1)), and
            # y_i <-> R at the last position
            for yi, nyi, a, na, b, nb, yin, nyin in zip(
                    ys, nys, ls, nls, rs, nrs, ys[1:], nys[1:]):
                add((g, nyi, b, a))
                add((g, nyi, b, yin))
                add((g, yi, nb))
                add((g, yi, na, nyin))
            add((g, nys[-1], rs[-1]))
            add((g, ys[-1], nrs[-1]))

    def root_literal(self, t: int) -> int:
        """The literal stating that the root classifies trace t correctly."""
        root_y = self.y[(t, self.n, 0)]
        return root_y if self.sample.entries[t][1] == 1 else -root_y

    # -- decoding ----------------------------------------------------------

    def node_label(self, assignment: dict, i: int) -> str:
        return _exactly_one(assignment, [(lab, self.x[(i, lab)])
                                         for lab in self.pool.labels],
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


class EncodingInstance(_Skeleton):
    """The size-n search instance as a `WeightedCnf`, for WCNF export."""

    def __init__(self, n: int, sample: LabeledSample, omega: WeightFn,
                 pool: Optional[OperatorPool] = None,
                 var_comments: bool = False):
        super().__init__(n, sample, pool)
        self.wcnf = WeightedCnf(self._next - 1)
        self._add = self.wcnf.hard.append
        self._emit_structural()
        self.add_traces(range(len(self.traces)))
        if var_comments:
            self.wcnf.comments.extend(self._var_map_comments())
        self._emit_satisfaction(omega)

    def _reserve(self, nvars: int) -> None:
        self.wcnf.nvars = nvars

    def _var_map_comments(self) -> list[str]:
        return [f"c var {v} {tag} {' '.join(map(str, key))}"
                for tag, table in (("x", self.x), ("l", self.l),
                                   ("r", self.r), ("y", self.y),
                                   ("L", self.left), ("R", self.right))
                for key, v in table.items()]

    def _emit_satisfaction(self, omega: WeightFn) -> None:
        _check_domain(self.sample, omega)
        for t, trace in enumerate(self.traces):
            self.wcnf.add_soft([self.root_literal(t)],
                               Fraction(omega[trace]))


class IncrementalInstance(_Skeleton):
    """The size-n structure in a SAT solver, with traces added in
    batches: their variables and hard clauses go straight into `solver`,
    and their root literals are for the caller to assume or weigh.
    Clauses are only ever added, so clauses the solver learned stay
    valid."""

    def __init__(self, n: int, sample: LabeledSample,
                 pool: Optional[OperatorPool] = None):
        super().__init__(n, sample, pool)
        self.solver = SatSolver()
        self._reserve(self._next - 1)
        self._add = self.solver.add_clause
        self._emit_structural()

    def _reserve(self, nvars: int) -> None:
        self.solver.ensure_var(nvars)
