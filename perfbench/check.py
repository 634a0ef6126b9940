"""Verdict checks that share no code with the program under test.

The evaluator walks the nodes of a returned formula (``op``, ``name``,
``left``, ``right``, children numbered below their parents) and computes
finite-trace semantics by its own backward scans; it never calls
``Formula.evaluate`` or ``Formula.satisfies``.  Sizes are counted as the
number of structurally distinct subformulas reachable from the root, and
WCNF files are parsed back line by line without ``maxsat.parse_wcnf``.
"""

from __future__ import annotations

from fractions import Fraction


class VerdictError(Exception):
    """A returned result failed an independent check."""


def _values(nodes, trace) -> list:
    """Truth value of every node at every position of ``trace``."""
    length = len(trace)
    vals = [None]
    for node in nodes:
        op = node.op
        a = vals[node.left] if node.left else None
        b = vals[node.right] if node.right else None
        if op == "prop":
            v = [node.name in symbol for symbol in trace]
        elif op == "true":
            v = [True] * length
        elif op == "false":
            v = [False] * length
        elif op == "!":
            v = [not x for x in a]
        elif op == "&":
            v = [x and y for x, y in zip(a, b)]
        elif op == "|":
            v = [x or y for x, y in zip(a, b)]
        elif op == "->":
            v = [(not x) or y for x, y in zip(a, b)]
        elif op == "X":  # strong next: false at the last position
            v = a[1:] + [False]
        else:
            v = [False] * length
            later = {"F": False, "G": True, "U": False}[op]
            for i in range(length - 1, -1, -1):
                if op == "F":
                    later = a[i] or later
                elif op == "G":
                    later = a[i] and later
                else:
                    later = b[i] or (a[i] and later)
                v[i] = later
        vals.append(v)
    return vals


def holds(formula, trace) -> bool:
    """Whether ``formula`` holds at position 0 of ``trace``."""
    return _values(formula.nodes, trace)[-1][0]


def distinct_size(formula) -> int:
    """Number of structurally distinct subformulas under the root."""
    keys = [None]
    for node in formula.nodes:
        keys.append((node.op, node.name,
                     keys[node.left] if node.left else None,
                     keys[node.right] if node.right else None))
    seen = set()
    stack = [len(formula.nodes)]
    while stack:
        i = stack.pop()
        if keys[i] in seen:
            continue
        seen.add(keys[i])
        node = formula.nodes[i - 1]
        stack.extend(c for c in (node.left, node.right) if c)
    return len(seen)


def formula_loss(entries, formula) -> Fraction:
    """Uniform-weight loss of ``formula`` on (trace, label) pairs."""
    wrong = sum(1 for trace, label in entries
                if holds(formula, trace) != bool(label))
    return Fraction(wrong, len(entries))


def tree_label(tree, trace) -> int:
    node = tree
    while hasattr(node, "formula"):
        node = node.left if holds(node.formula, trace) else node.right
    return node.label


def inner_nodes(tree) -> int:
    if not hasattr(tree, "formula"):
        return 0
    return 1 + inner_nodes(tree.left) + inner_nodes(tree.right)


def check_formula(result, entries, kappa: Fraction, size: int) -> None:
    """A learner result is solved, within kappa, exactly reported and of
    the recorded minimal size."""
    if result.status != "solved" or result.formula is None:
        raise VerdictError(f"status {result.status!r}, expected 'solved'")
    loss = formula_loss(entries, result.formula)
    if loss > kappa:
        raise VerdictError(f"loss {loss} exceeds kappa {kappa}")
    if result.achieved_loss != loss:
        raise VerdictError(f"reported loss {result.achieved_loss} "
                           f"!= evaluated loss {loss}")
    found = distinct_size(result.formula)
    if found != size or result.size != size:
        raise VerdictError(f"size {found} (reported {result.size}) "
                           f"!= recorded minimal size {size}")


def check_tree(result, entries, kappa: Fraction) -> int:
    """A tree result is solved and within kappa; returns its inner nodes."""
    if result.status != "solved":
        raise VerdictError(f"tree status {result.status!r}, expected 'solved'")
    wrong = sum(1 for trace, label in entries
                if tree_label(result.tree, trace) != label)
    loss = Fraction(wrong, len(entries))
    if loss > kappa:
        raise VerdictError(f"tree loss {loss} exceeds kappa {kappa}")
    return inner_nodes(result.tree)


def check_wcnf(path, nvars: int, hard: int, soft: int) -> None:
    """The exported file parses back: one p-line whose counts match the
    clause lines, every clause ends in 0 with literals in range, and the
    hard/soft split and variable count match the encoded instance.  Reads
    in bounded chunks so that checking adds little to the peak memory."""
    header = top = None
    clauses = seen_hard = soft_total = 0
    pending: list = []

    def check_literals():
        values = [int(x) for x in b" ".join(pending).split()]
        if values and max(max(values), -min(values)) > header[0]:
            raise VerdictError("a literal is beyond nvars")
        pending.clear()

    with open(path, "rb") as handle:
        for line in handle:
            if line.startswith(b"c"):
                continue
            if header is None:
                if not line.startswith(b"p wcnf "):
                    raise VerdictError("missing p-line before the clauses")
                header = [int(x) for x in line.split()[2:]]
                if len(header) != 3:
                    raise VerdictError(f"malformed p-line {line!r}")
                top = b"%d" % header[2]
                continue
            weight, _, rest = line.rstrip(b"\n").partition(b" ")
            if not rest.endswith(b" 0") and rest != b"0":
                raise VerdictError(f"clause {line[:40]!r} does not end in 0")
            clauses += 1
            if weight == top:
                seen_hard += 1
            else:
                soft_total += int(weight)
            pending.append(rest)
            if len(pending) >= 10_000:
                check_literals()
    if header is None:
        raise VerdictError("missing p-line")
    check_literals()
    got = (header[0], header[1], seen_hard, clauses - seen_hard, header[2])
    want = (nvars, clauses, hard, soft, soft_total + 1)
    if got != want:
        raise VerdictError("WCNF (nvars, p-line clauses, hard, soft, top) "
                           f"{got} != expected {want}")
