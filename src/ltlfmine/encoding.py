"""Reduction of formula search to partial weighted MaxSAT.

For a target DAG size n and a labeled sample, the instance contains:

* structural hard clauses fixing one operator label per node and one
  left/right child (with smaller id) per non-leaf node;
* semantic hard clauses defining, per trace and position, the valuation
  variable of every node from its children's valuations (temporal
  operators use the one-step suffix recurrences, so the clause count
  stays linear in the trace length);
* one unit soft clause per trace asserting correct classification at the
  root, weighted by the trace weight function.

Models of the hard clauses decode to LTLf formulas; the satisfied soft
weight of a model equals one minus the weighted loss of the decoded
formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import formula as F
from .formula import Formula, FormulaBuilder
from .maxsat import WeightedCnf
from .sample import LabeledSample, Trace, WeightFn


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
        if not self.nullary:
            raise ValueError("operator pool needs at least one nullary operator")

    @property
    def nullary(self) -> tuple[str, ...]:
        return self.alphabet + self.constants

    @property
    def labels(self) -> tuple[str, ...]:
        return self.nullary + self.unary + self.binary

    def is_nullary(self, label: str) -> bool:
        return label in self.alphabet or label in self.constants


def default_pool(alphabet) -> OperatorPool:
    return OperatorPool(tuple(alphabet))


class EncodingInstance:
    """Variables and clauses of the size-n search instance."""

    def __init__(self, n: int, sample: LabeledSample, omega: WeightFn,
                 pool: Optional[OperatorPool] = None,
                 var_comments: bool = False):
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
        self._allocate()
        self.wcnf = WeightedCnf(self._next - 1)
        if var_comments:
            self.wcnf.comments.extend(self._var_map_comments())
        self._emit_structural()
        for t in range(len(self.traces)):
            self._emit_semantic(t)
        self._emit_satisfaction(omega)

    # -- variables ---------------------------------------------------------

    def _fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    def _allocate(self) -> None:
        n, pool = self.n, self.pool
        for i in range(1, n + 1):
            for label in pool.labels:
                self.x[(i, label)] = self._fresh()
        for i in range(2, n + 1):
            for j in range(1, i):
                self.l[(i, j)] = self._fresh()
            for j in range(1, i):
                self.r[(i, j)] = self._fresh()
        for t, trace in enumerate(self.traces):
            for i in range(1, n + 1):
                for tau in range(len(trace)):
                    self.y[(t, i, tau)] = self._fresh()

    def _var_map_comments(self) -> list[str]:
        lines = []
        for (i, label), v in self.x.items():
            lines.append(f"c var {v} x {i} {label}")
        for (i, j), v in self.l.items():
            lines.append(f"c var {v} l {i} {j}")
        for (i, j), v in self.r.items():
            lines.append(f"c var {v} r {i} {j}")
        for (t, i, tau), v in self.y.items():
            lines.append(f"c var {v} y {t} {i} {tau}")
        return lines

    # -- structural clauses ------------------------------------------------

    def _emit_structural(self) -> None:
        n, labels = self.n, self.pool.labels
        add = self.wcnf.add_hard
        for i in range(1, n + 1):
            add([self.x[(i, lab)] for lab in labels])
            for a in range(len(labels)):
                for b in range(a + 1, len(labels)):
                    add([-self.x[(i, labels[a])], -self.x[(i, labels[b])]])
        for i in range(2, n + 1):
            add([self.l[(i, j)] for j in range(1, i)])
            add([self.r[(i, j)] for j in range(1, i)])
            for a in range(1, i):
                for b in range(a + 1, i):
                    add([-self.l[(i, a)], -self.l[(i, b)]])
                    add([-self.r[(i, a)], -self.r[(i, b)]])
        add([self.x[(1, lab)] for lab in self.pool.nullary])
        # Unary nodes mirror the left child in the right-child slot, which
        # removes spurious model multiplicity.
        for i in range(2, self.n + 1):
            for op in self.pool.unary:
                for j in range(1, i):
                    add([-self.x[(i, op)], -self.l[(i, j)], self.r[(i, j)]])

    # -- semantic clauses --------------------------------------------------

    def _emit_semantic(self, t: int) -> None:
        trace = self.traces[t]
        m = len(trace)
        add = self.wcnf.add_hard
        x, l, r, y = self.x, self.l, self.r, self.y
        for i in range(1, self.n + 1):
            for p in self.pool.alphabet:
                xp = x[(i, p)]
                for tau in range(m):
                    yv = y[(t, i, tau)]
                    add([-xp, yv] if p in trace[tau] else [-xp, -yv])
            for c in self.pool.constants:
                xc = x[(i, c)]
                sign = 1 if c == F.TRUE else -1
                for tau in range(m):
                    add([-xc, sign * y[(t, i, tau)]])
        for i in range(2, self.n + 1):
            for j in range(1, i):
                for op in self.pool.unary:
                    a = [-x[(i, op)], -l[(i, j)]]
                    self._unary_semantics(op, a, t, i, j, m)
            for j in range(1, i):
                for k in range(1, i):
                    for op in self.pool.binary:
                        a = [-x[(i, op)], -l[(i, j)], -r[(i, k)]]
                        self._binary_semantics(op, a, t, i, j, k, m)

    def _unary_semantics(self, op, a, t, i, j, m) -> None:
        add, y = self.wcnf.add_hard, self.y
        for tau in range(m):
            yi = y[(t, i, tau)]
            yj = y[(t, j, tau)]
            last = tau == m - 1
            if op == F.NOT:
                add(a + [-yi, -yj])
                add(a + [yi, yj])
            elif op == F.NEXT:
                if last:
                    add(a + [-yi])
                else:
                    yjn = y[(t, j, tau + 1)]
                    add(a + [-yi, yjn])
                    add(a + [yi, -yjn])
            elif op == F.EVENTUALLY:
                # y_i(tau) <-> y_j(tau) or y_i(tau+1)
                if last:
                    add(a + [-yi, yj])
                    add(a + [yi, -yj])
                else:
                    yin = y[(t, i, tau + 1)]
                    add(a + [-yi, yj, yin])
                    add(a + [yi, -yj])
                    add(a + [yi, -yin])
            elif op == F.GLOBALLY:
                # y_i(tau) <-> y_j(tau) and y_i(tau+1)
                if last:
                    add(a + [-yi, yj])
                    add(a + [yi, -yj])
                else:
                    yin = y[(t, i, tau + 1)]
                    add(a + [yi, -yj, -yin])
                    add(a + [-yi, yj])
                    add(a + [-yi, yin])
            else:
                raise ValueError(f"unsupported unary operator {op!r}")

    def _binary_semantics(self, op, a, t, i, j, k, m) -> None:
        add, y = self.wcnf.add_hard, self.y
        for tau in range(m):
            yi = y[(t, i, tau)]
            yj = y[(t, j, tau)]
            yk = y[(t, k, tau)]
            if op == F.OR:
                add(a + [-yi, yj, yk])
                add(a + [yi, -yj])
                add(a + [yi, -yk])
            elif op == F.AND:
                add(a + [yi, -yj, -yk])
                add(a + [-yi, yj])
                add(a + [-yi, yk])
            elif op == F.IMPLIES:
                add(a + [-yi, -yj, yk])
                add(a + [yi, yj])
                add(a + [yi, -yk])
            elif op == F.UNTIL:
                # y_i(tau) <-> y_k(tau) or (y_j(tau) and y_i(tau+1))
                if tau == m - 1:
                    add(a + [-yi, yk])
                    add(a + [yi, -yk])
                else:
                    yin = y[(t, i, tau + 1)]
                    add(a + [-yi, yk, yj])
                    add(a + [-yi, yk, yin])
                    add(a + [yi, -yk])
                    add(a + [yi, -yj, -yin])
            else:
                raise ValueError(f"unsupported binary operator {op!r}")

    # -- soft clauses ------------------------------------------------------

    def _emit_satisfaction(self, omega: WeightFn) -> None:
        if set(omega) != set(self.traces):
            raise ValueError("weight function domain does not match sample")
        for t, (trace, label) in enumerate(self.sample.entries):
            root_y = self.y[(t, self.n, 0)]
            lit = root_y if label == 1 else -root_y
            self.wcnf.add_soft([lit], Fraction(omega[trace]))

    # -- decoding ----------------------------------------------------------

    def node_label(self, assignment: dict, i: int) -> str:
        hits = [lab for lab in self.pool.labels
                if assignment.get(self.x[(i, lab)], False)]
        if len(hits) != 1:
            raise EncodingError(
                f"node {i} has {len(hits)} labels set; encoder invariant broken")
        return hits[0]

    def _child(self, assignment: dict, table, i: int) -> int:
        hits = [j for j in range(1, i) if assignment.get(table[(i, j)], False)]
        if len(hits) != 1:
            raise EncodingError(
                f"node {i} has {len(hits)} children set; encoder invariant broken")
        return hits[0]

    def decode_model(self, assignment: dict) -> Formula:
        builder = FormulaBuilder()
        memo: dict[int, int] = {}

        def build(i: int) -> int:
            if i in memo:
                return memo[i]
            label = self.node_label(assignment, i)
            if self.pool.is_nullary(label):
                if label in F.CONSTANTS:
                    out = builder.const(label == F.TRUE)
                else:
                    out = builder.prop(label)
            elif label in self.pool.unary:
                out = builder.unary(label, build(self._child(assignment, self.l, i)))
            else:
                left = build(self._child(assignment, self.l, i))
                right = build(self._child(assignment, self.r, i))
                out = builder.binary(label, left, right)
            memo[i] = out
            return out

        return builder.finish(build(self.n))

    # -- helpers for tests and external tooling ----------------------------

    def structure_assumptions(self, f: Formula) -> list[int]:
        """Unit assumptions clamping the instance to the given formula's
        structure (the formula must have exactly n nodes)."""
        if f.size != self.n:
            raise ValueError("formula size must equal the instance size")
        lits = []
        for i in range(1, self.n + 1):
            node = f.node(i)
            label = node.name if node.op == F.PROP else node.op
            lits.append(self.x[(i, label)])
            if node.left:
                lits.append(self.l[(i, node.left)])
            if node.right:
                lits.append(self.r[(i, node.right)])
            elif node.left:  # unary: right mirrors left
                lits.append(self.r[(i, node.left)])
        return lits

