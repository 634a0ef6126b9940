"""LTLf formulas as maximally-shared syntax DAGs, with parsing, printing
and finite-trace evaluation.

A formula is stored as an array of nodes numbered 1..n where the root is
node n and every node's children have strictly smaller identifiers.  Two
structurally equal subformulas are always represented by the same node,
so the node count equals the number of unique subformulas.

The semantics has one code path, `Formula.signature`, on traces laid end
to end in a `Layout`: a sample's traces, or the one trace of `satisfies`.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, NamedTuple, Optional

# Operator symbols.  Propositions are nullary operators tagged PROP and
# carry their name separately.
PROP = "prop"
TRUE = "true"
FALSE = "false"
NOT = "!"
NEXT = "X"
EVENTUALLY = "F"
GLOBALLY = "G"
OR = "|"
AND = "&"
IMPLIES = "->"
UNTIL = "U"

UNARY_OPS = (NOT, NEXT, EVENTUALLY, GLOBALLY)
BINARY_OPS = (OR, AND, IMPLIES, UNTIL)
CONSTANTS = (TRUE, FALSE)


def arity(op: str) -> int:
    if op in UNARY_OPS:
        return 1
    if op in BINARY_OPS:
        return 2
    return 0


def leaf_labels(alphabet, with_constants: bool) -> tuple[str, ...]:
    """The nullary labels of a formula search: the propositions of
    `alphabet`, then `true` and `false` if `with_constants`.  The
    operators are always `UNARY_OPS` and `BINARY_OPS`."""
    leaves = tuple(alphabet) + (CONSTANTS if with_constants else ())
    if not leaves:
        raise ValueError("the search needs a proposition or the constants")
    return leaves


class LtlSyntaxError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownPropositionError(ValueError):
    pass


class Node(NamedTuple):
    op: str
    name: Optional[str] = None  # proposition name when op == PROP
    left: int = 0               # child node ids, 0 = absent
    right: int = 0

    @property
    def label(self) -> str:
        """The proposition name, else the operator."""
        return self.name if self.op == PROP else self.op


class FormulaBuilder:
    """Hash-consing constructor for syntax DAGs.

    Node ids are assigned in creation order, so children always have
    smaller ids than their parents.
    """

    def __init__(self):
        self._intern: dict[Node, int] = {}  # in id order

    def add(self, label: str, *children: int) -> int:
        """The id of the node `label` over `children`, which must number
        `arity(label)`.  With no children, `true` and `false` are the
        constants and any other label is a proposition."""
        if len(children) != arity(label):
            raise ValueError(f"{label!r} takes {arity(label)} children, "
                             f"got {len(children)}")
        if children or label in CONSTANTS:
            node = Node(label, None, *children)
        else:
            node = Node(PROP, label)
        idx = self._intern.get(node)
        if idx is None:
            idx = self._intern[node] = len(self._intern) + 1
        return idx

    def finish(self, root: int) -> "Formula":
        return Formula._from_nodes(list(self._intern), root)


class Formula:
    """An immutable LTLf formula in canonical syntax-DAG form."""

    __slots__ = ("nodes", "_text")

    def __init__(self, nodes: tuple[Node, ...]):
        self.nodes = nodes
        self._text = None

    @classmethod
    def _from_nodes(cls, nodes: list[Node], root: int) -> "Formula":
        # Renumber the sub-DAG reachable from `root` in left-first
        # post-order; this makes the numbering a function of structure
        # alone (canonicalization is idempotent).  Iterative, so deep
        # formulas need no deep recursion.
        order: list[int] = []
        seen: set[int] = set()
        stack = [(root, False)]
        while stack:
            i, children_done = stack.pop()
            if children_done:
                order.append(i)
                continue
            if i in seen:
                continue
            seen.add(i)
            node = nodes[i - 1]
            stack.append((i, True))
            if node.right:
                stack.append((node.right, False))
            if node.left:
                stack.append((node.left, False))
        remap = {old: new for new, old in enumerate(order, start=1)}
        renumbered = tuple(
            Node(n.op, n.name,
                 remap[n.left] if n.left else 0,
                 remap[n.right] if n.right else 0)
            for n in (nodes[i - 1] for i in order)
        )
        return cls(renumbered)

    # -- structure ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> int:
        return len(self.nodes)

    def node(self, i: int) -> Node:
        return self.nodes[i - 1]

    def propositions(self) -> set[str]:
        return {n.name for n in self.nodes if n.op == PROP}

    def __eq__(self, other) -> bool:
        return isinstance(other, Formula) and self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(self.nodes)

    def __repr__(self) -> str:
        return f"Formula({self.to_text()!r})"

    # -- printing ----------------------------------------------------------

    def to_text(self) -> str:
        """Fully parenthesized canonical form; parse_formula round-trips.
        Node texts are built in node order, children first, so deep
        formulas need no deep recursion."""
        if self._text is None:
            texts: list[str] = []
            for node in self.nodes:
                if not node.left:
                    text = node.label
                elif not node.right:
                    text = f"({node.op} {texts[node.left - 1]})"
                else:
                    text = (f"({texts[node.left - 1]} {node.op} "
                            f"{texts[node.right - 1]})")
                texts.append(text)
            self._text = texts[-1]
        return self._text

    # -- semantics ---------------------------------------------------------

    def signature(self, layout: Layout, holds) -> int:
        """The formula's truth values at every position of `layout`, one
        bit each: its signature.  `holds` maps each proposition to its
        bits on `layout`; a proposition it does not map holds nowhere.

        Next is strong (false at the last position); Until requires its
        right argument to hold at some position, with the left argument
        holding strictly before.  Each node's signature is one int,
        computed in node order with `Layout`'s primitives.
        """
        values: list[int] = []
        for node in self.nodes:
            op = node.op
            if op == PROP:
                value = holds.get(node.name, 0)
            elif op == TRUE:
                value = layout.full
            elif op == FALSE:
                value = 0
            elif op in layout.unary:
                value = layout.unary[op](values[node.left - 1])
            elif op in layout.binary:
                value = layout.binary[op](values[node.left - 1],
                                          values[node.right - 1])
            else:
                raise ValueError(f"unknown operator {op!r}")
            values.append(value)
        return values[-1]

    def satisfies(self, trace) -> int:
        """1 if the formula holds at the first position of `trace`, else
        0: bit 0 of its signature on the trace alone."""
        return self.signature(_trace_layout(len(trace)),
                              proposition_bits(trace)) & 1


# -- bitset semantics -------------------------------------------------------

class Layout:
    """Traces laid end to end in one int, one bit per position.

    Trace t occupies the bits from its offset on, position 0 lowest, so a
    formula's truth values at every position of every trace form one int,
    its signature.  `unary` and `binary` map each operator to its
    primitive on signatures; every signature lies under `full`.
    """

    def __init__(self, lengths):
        offsets, total = [], 0
        for length in lengths:
            offsets.append(total)
            total += length
        self.offsets = offsets
        self.total = total
        self.full = (1 << total) - 1
        self.first = self.bits(offsets)
        self.notlast = self.full ^ self.bits(
            off + length - 1 for off, length in zip(offsets, lengths))
        # (k, positions whose k-th successor is in the same trace) for
        # k = 1, 2, 4, ... below the longest trace: the doubling steps of
        # the suffix scans.
        self.steps = []
        k, mask, longest = 1, self.notlast, max(lengths, default=0)
        while k < longest:
            self.steps.append((k, mask))
            mask &= mask >> k
            k *= 2
        full = self.full
        self.unary = {NOT: lambda a: full ^ a, NEXT: self.next,
                      EVENTUALLY: self.eventually, GLOBALLY: self.globally}
        self.binary = {OR: lambda a, b: a | b, AND: lambda a, b: a & b,
                       IMPLIES: lambda a, b: (full ^ a) | b,
                       UNTIL: self.until}

    def bits(self, ones) -> int:
        """The int whose set bits are the positions `ones`."""
        digits = bytearray(b"0" * self.total)
        for pos in ones:
            digits[self.total - 1 - pos] = 49  # ord("1")
        return int(digits, 2) if digits else 0

    def next(self, a: int) -> int:
        return (a >> 1) & self.notlast

    def eventually(self, a: int) -> int:
        # Segmented suffix OR: after the step of shift k, a position
        # covers the next 2k positions of its trace.
        for k, mask in self.steps:
            a |= (a >> k) & mask
        return a

    def globally(self, a: int) -> int:
        return self.full ^ self.eventually(self.full ^ a)

    def until(self, a: int, b: int) -> int:
        # b U-holds at i iff b | (a & r(i+1)); doubling composes these
        # steps: `a` holds where a holds on the whole covered span.
        for k, mask in self.steps:
            b |= a & (b >> k) & mask
            a &= (a >> k) & mask
        return b


def proposition_bits(symbols) -> dict[str, int]:
    """Each proposition that holds somewhere -> its bits: the positions
    whose symbol holds it, `symbols` giving one symbol per position of a
    `Layout` in order."""
    holds: dict[str, int] = {}
    bit = 1
    for symbol in symbols:
        for name in symbol:
            holds[name] = holds.get(name, 0) | bit
        bit <<= 1
    return holds


@functools.lru_cache(maxsize=256)
def _trace_layout(length: int) -> Layout:
    return Layout((length,))


# -- parser -----------------------------------------------------------------


# One token per match, after any whitespace: "->", a punctuation
# character or a word (group 1), else a character no token starts with
# (group 2).
_TOKEN = re.compile(r"\s*(?:(->|[()!|&]|\w+)|(\S))")


def _tokens(text: str) -> list[tuple[str, int]]:
    """The (token, position) pairs of `text`, ending in ("<end>", len).
    The whole text is scanned before parsing, so a bad character is
    reported before any error of the grammar."""
    tokens = []
    for match in _TOKEN.finditer(text):
        token, bad = match.groups()
        if bad is not None:
            raise LtlSyntaxError(f"unexpected character {bad!r}",
                                 match.start(2))
        tokens.append((token, match.start(1)))
    tokens.append(("<end>", len(text)))
    return tokens


# binary operator -> (precedence, right-associative); prefix operators
# bind tighter than any of them
_BINARY = {IMPLIES: (1, True), OR: (2, False), AND: (3, False),
           UNTIL: (4, True)}
_PREFIX = (NOT, NEXT, EVENTUALLY, GLOBALLY)


class _Parser:
    """Operator precedence with  ->  <  |  <  &  <  U  <  unary, over an
    explicit stack of pending operators and parentheses, so nesting depth
    is not bounded by the recursion limit."""

    def __init__(self, text: str, alphabet: Optional[Iterable[str]],
                 builder: FormulaBuilder):
        self.toks = iter(_tokens(text))
        self.alphabet = None if alphabet is None else set(alphabet)
        self.b = builder
        self.operands: list[int] = []
        self.pending: list[str] = []    # operators and "(" not yet applied

    def parse(self) -> int:
        pending = self.pending
        while True:
            # an operand: prefix operators and "(" up to an atom
            tok, pos = next(self.toks)
            while tok in _PREFIX or tok == "(":
                pending.append(tok)
                tok, pos = next(self.toks)
            self.operands.append(self._atom(tok, pos))
            # then ")"s, up to a binary operator or the end
            while True:
                tok, pos = next(self.toks)
                if tok in _BINARY:
                    self._reduce(*_BINARY[tok])
                    pending.append(tok)
                    break
                self._reduce(0, False)
                if tok == ")" and pending:
                    pending.pop()
                elif tok == "<end>" and not pending:
                    return self.operands[-1]
                elif pending:
                    raise LtlSyntaxError("expected ')'", pos)
                else:
                    raise LtlSyntaxError(f"unexpected token {tok!r}", pos)

    def _reduce(self, precedence: int, right_assoc: bool) -> None:
        """Apply the pending operators, back to the innermost "(", that
        bind tighter than a binary operator of `precedence`."""
        pending, operands = self.pending, self.operands
        while pending and pending[-1] != "(":
            op = pending[-1]
            if op in _BINARY:
                prec = _BINARY[op][0]
                if prec < precedence or (prec == precedence and right_assoc):
                    return
            k = arity(op)
            operands[-k:] = [self.b.add(op, *operands[-k:])]
            pending.pop()

    def _atom(self, tok: str, pos: int) -> int:
        if tok == "<end>":
            raise LtlSyntaxError("unexpected end of input", pos)
        if not (tok[0].isalpha() or tok[0] == "_") or arity(tok):
            raise LtlSyntaxError(f"expected a proposition, got {tok!r}", pos)
        if (self.alphabet is not None and tok not in CONSTANTS
                and tok not in self.alphabet):
            raise UnknownPropositionError(
                f"proposition {tok!r} not in alphabet {sorted(self.alphabet)}")
        return self.b.add(tok)


def parse_formula(text: str, alphabet: Optional[Iterable[str]] = None) -> Formula:
    """Parse formula text into a maximally shared, canonically numbered DAG.

    Grammar: prefix unary `! X F G`, infix binary `| & -> U`, atoms,
    constants `true`/`false`, parentheses.  When `alphabet` is given,
    every atom must belong to it.
    """
    builder = FormulaBuilder()
    root = _Parser(text, alphabet, builder).parse()
    return builder.finish(root)
