"""Labeled trace samples: file I/O, weight functions and loss computation.

Weights and losses are exact `Fraction`s at the surface, so threshold
comparisons ("soft weight >= 1 - kappa") are immune to float
accumulation error.  The searches scale the weights to integers by their
common denominator (`scaled_weights`) and sum those.

A sample keeps one table, its `Layout` and each proposition's bits on
it, from which every evaluation of a formula on the sample reads.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .formula import (PROP, Formula, Layout, LtlSyntaxError, Node,
                      parse_formula, proposition_bits)

log = logging.getLogger(__name__)

# A trace is a finite sequence of symbols; each symbol is the set of
# propositions holding at that position.
Trace = tuple[frozenset, ...]
WeightFn = dict  # Trace -> Fraction, summing to exactly 1


class SampleError(ValueError):
    pass


@functools.lru_cache(maxsize=256)
def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    """Every name must be read back by `parse_formula` as that one
    proposition, so no operator, constant or non-word, and none may be
    listed twice.  Cached: a decision tree builds many samples over one
    alphabet."""
    for p in alphabet:
        try:
            readback = parse_formula(p).nodes
        except LtlSyntaxError:
            readback = None
        if readback != (Node(PROP, p),):
            raise SampleError(f"proposition name {p!r} does not read back "
                              f"as that proposition in a formula")
    if len(set(alphabet)) != len(alphabet):
        raise SampleError(f"alphabet {list(alphabet)} lists a name twice")


@dataclass(frozen=True)
class LabeledSample:
    """Labeled traces over a fixed alphabet, at least one, each once."""

    alphabet: tuple[str, ...]
    entries: tuple[tuple[Trace, int], ...]

    def __post_init__(self):
        _check_alphabet(tuple(self.alphabet))
        if not self.entries:
            raise SampleError("sample contains no traces")
        labels: dict[Trace, int] = {}
        props = set(self.alphabet)
        for trace, label in self.entries:
            if len(trace) == 0:
                raise SampleError("empty traces are not allowed")
            if label not in (0, 1):
                raise SampleError(f"label must be 0 or 1, got {label!r}")
            if trace in labels:
                raise SampleError(
                    f"trace {format_trace(trace, self.alphabet)} appears "
                    + ("twice" if labels[trace] == label
                       else "with both labels"))
            labels[trace] = label
            for symbol in trace:
                unknown = symbol - props
                if unknown:
                    raise SampleError(
                        f"propositions {sorted(unknown)} not in alphabet")

    @property
    def size(self) -> int:
        return len(self.entries)

    def positives(self) -> list[Trace]:
        return [u for u, b in self.entries if b == 1]

    def negatives(self) -> list[Trace]:
        return [u for u, b in self.entries if b == 0]

    def traces(self) -> list[Trace]:
        return [u for u, _ in self.entries]

    @functools.cached_property
    def layout(self) -> Layout:
        """The traces laid end to end, in entry order."""
        return Layout([len(u) for u, _ in self.entries])

    @functools.cached_property
    def holds(self) -> dict[str, int]:
        """Each proposition that holds somewhere in the sample -> its bits
        on `layout`."""
        return proposition_bits(symbol for u, _ in self.entries
                                for symbol in u)

    def truth(self, formula: Formula) -> list[int]:
        """The formula's value on each trace, in entry order."""
        signature = formula.signature(self.layout, self.holds)
        return [(signature >> start) & 1 for start in self.layout.offsets]

    def __getstate__(self):
        # The table is rebuilt on first use: its Layout does not pickle.
        return {"alphabet": self.alphabet, "entries": self.entries}

    def to_text(self) -> str:
        """Canonical serialization; `parse_sample` round-trips it exactly."""
        lines = ["alphabet: " + ",".join(self.alphabet)]
        lines += [format_trace(u, self.alphabet) for u in self.positives()]
        lines.append("---")
        lines += [format_trace(u, self.alphabet) for u in self.negatives()]
        return "\n".join(lines) + "\n"


def make_sample(alphabet: Iterable[str],
                entries: Iterable[tuple[Trace, int]]) -> LabeledSample:
    """Build a sample, collapsing exact duplicate (trace, label) pairs."""
    seen = set()
    unique = []
    for trace, label in entries:
        key = (trace, label)
        if key not in seen:
            seen.add(key)
            unique.append(key)
    return LabeledSample(tuple(alphabet), tuple(unique))


def format_trace(trace: Trace, alphabet: Iterable[str]) -> str:
    return ";".join(
        ",".join("1" if p in symbol else "0" for p in alphabet)
        for symbol in trace)


def parse_trace_row(row: str, alphabet: tuple[str, ...], lineno: int) -> Trace:
    symbols = []
    for chunk in row.split(";"):
        bits = chunk.split(",")
        if len(bits) != len(alphabet):
            raise SampleError(
                f"line {lineno}: expected {len(alphabet)} bits per symbol, "
                f"got {len(bits)}")
        symbol = set()
        for bit, prop in zip(bits, alphabet):
            bit = bit.strip()
            if bit == "1":
                symbol.add(prop)
            elif bit != "0":
                raise SampleError(f"line {lineno}: invalid bit {bit!r}")
        symbols.append(frozenset(symbol))
    if not symbols or row.strip() == "":
        raise SampleError(f"line {lineno}: empty trace")
    return tuple(symbols)


def parse_sample(text: str) -> LabeledSample:
    """Parse the sample file format.

    Format: an optional `alphabet: p0,p1,...` header (once, before the
    first trace, naming at least one proposition), positive trace rows
    (symbols separated by `;`, bit vectors separated by `,`), a `---`
    separator, then negative rows.  `#` starts a comment.  Anything after
    a second `---` is ignored with a warning (compatibility sections).
    """
    alphabet: tuple[str, ...] = ()
    entries: list[tuple[Trace, int]] = []
    section = 1  # 1 = positives, 0 = negatives
    seen_separators = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("alphabet:"):
            # A header read or an alphabet inferred from a trace before.
            if alphabet:
                raise SampleError(f"line {lineno}: the alphabet header must "
                                  "come once, before the first trace")
            alphabet = tuple(
                p.strip() for p in line[len("alphabet:"):].split(",") if p.strip())
            if not alphabet:
                raise SampleError(f"line {lineno}: the alphabet header "
                                  "names no proposition")
            continue
        if line == "---":
            seen_separators += 1
            if seen_separators == 1:
                section = 0
                continue
            log.warning("ignoring trailing sections after second '---' "
                        "(line %d)", lineno)
            break
        if not alphabet:
            width = len(line.split(";")[0].split(","))
            alphabet = tuple(f"p{k}" for k in range(width))
        trace = parse_trace_row(line, alphabet, lineno)
        entries.append((trace, section))
    return make_sample(alphabet, entries)


def load_sample(path) -> LabeledSample:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sample(handle.read())


# -- loss and weights -------------------------------------------------------

def weighted_loss(sample: LabeledSample, formula: Formula,
                  omega: WeightFn) -> Fraction:
    """Total weight of the misclassified traces under `omega`."""
    _check_domain(sample, omega)
    total = Fraction(0)
    for (u, b), value in zip(sample.entries, sample.truth(formula)):
        if value != b:
            total += omega[u]
    return total


def exact(value) -> Fraction:
    """`value` as an exact `Fraction`, a float as the fraction it stores.
    NaN and the infinities are a ValueError, like any out-of-range value
    (`Fraction` raises OverflowError for an infinity)."""
    try:
        return Fraction(value)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None


def scaled_weights(weights: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The weight scale D, the lcm of the weights' denominators, and each
    weight times D, in order.  A weight n/d is scaled as n * (D // d), in
    integers."""
    denominator = math.lcm(*(w.denominator for w in weights))
    return denominator, [w.numerator * (denominator // w.denominator)
                         for w in weights]


def omega_uniform(sample: LabeledSample) -> WeightFn:
    w = Fraction(1, sample.size)
    return {u: w for u, _ in sample.entries}


def omega_rebalanced(sample: LabeledSample) -> WeightFn:
    """Half the weight mass on each class, split uniformly within class."""
    npos = len(sample.positives())
    nneg = len(sample.negatives())
    if npos == 0 or nneg == 0:
        raise SampleError("rebalanced weights need both classes present")
    wpos = Fraction(1, 2 * npos)
    wneg = Fraction(1, 2 * nneg)
    return {u: (wpos if b == 1 else wneg) for u, b in sample.entries}


def invert_labels(sample: LabeledSample) -> LabeledSample:
    return LabeledSample(
        sample.alphabet,
        tuple((u, 1 - b) for u, b in sample.entries))


def _check_domain(sample: LabeledSample, omega: WeightFn) -> None:
    if set(omega) != set(sample.traces()):
        raise SampleError("weight function domain does not match the sample")
