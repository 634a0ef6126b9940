"""Benchmark sample generation from a catalog of common temporal
patterns, with optional label noise."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .formula import Formula, parse_formula
from .sample import LabeledSample, Trace, make_sample

# Catalog of target formulas, grouped by family.  Alphabet is p0..p{k-1}
# with k the highest proposition index used plus one.
PATTERNS: dict[str, str] = {
    "absence1": "G(!p0)",
    "absence2": "F(p1) -> (!p0 U p1)",
    "absence3": "G(p1 -> G(!p0))",
    "existence1": "F(p0)",
    "existence2": "G(!p0) | F(p0 & F(p1))",
    "existence3": "G(p0 & (!p1 -> (!p1 U (p2 & !p1))))",
    "universality1": "G(p0)",
    "universality2": "F(p1) -> (p0 U p1)",
    "universality3": "G(p1 -> G(p0))",
    "disjunction1": "G(!p0) | F(p0 & F(p1)) | G(!p3) | F(p2 & F(p3))",
    "disjunction2": "F(p2) | F(p0) | F(p1)",
    "disjunction3": ("G(p0 & (!p1 -> (!p1 U (p2 & !p1)))) | "
                    "G(p3 & (!p4 -> (!p4 U (p5 & !p4))))"),
}


class GenerationError(RuntimeError):
    """Too few distinct traces exist for the spec or for one of its
    classes, or the sampling budget ran out before both classes were
    filled."""


def pattern_alphabet(name: str) -> tuple[str, ...]:
    formula = parse_formula(PATTERNS[name])
    width = 1 + max(int(p[1:]) for p in formula.propositions())
    return tuple(f"p{k}" for k in range(width))


def pattern_formula(name: str) -> Formula:
    return parse_formula(PATTERNS[name], pattern_alphabet(name))


@dataclass(frozen=True)
class GenSpec:
    pattern: str                       # catalog name
    num_traces: int = 50
    max_trace_length: int = 10
    seed: int = 0
    noise_rate: float = 0.0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}; "
                             f"known: {sorted(PATTERNS)}")
        if self.num_traces < 2:
            raise ValueError("need at least 2 traces (one per class)")
        if self.max_trace_length < 1:
            raise ValueError("max_trace_length must be at least 1")
        if not 0 <= self.noise_rate <= 1:
            raise ValueError("noise_rate must lie in [0, 1]")


_MAX_ATTEMPTS = 10 ** 6


def _random_trace(rng: random.Random, alphabet, max_length: int) -> Trace:
    length = rng.randint(1, max_length)
    return tuple(
        frozenset(p for p in alphabet if rng.random() < 0.5)
        for _ in range(length))


def generate_sample(spec: GenSpec) -> LabeledSample:
    """Rejection-sample a consistent labeled sample: every positive trace
    satisfies the pattern, every negative falsifies it.  Deterministic for
    a fixed spec (seed included)."""
    # Two propositions beyond what the pattern constrains: without free
    # propositions some patterns admit too few distinct traces in one
    # class to fill it without duplicates.
    width = max(len(pattern_alphabet(spec.pattern)) + 2, 3)
    alphabet = tuple(f"p{k}" for k in range(width))
    target = parse_formula(PATTERNS[spec.pattern], alphabet)
    # distinct traces up to max length, counted as far as the draws reach
    distinct = 0
    for length in range(1, spec.max_trace_length + 1):
        distinct += 2 ** (width * length)
        if distinct >= max(spec.num_traces, _MAX_ATTEMPTS):
            break
    if distinct < spec.num_traces:
        raise GenerationError(
            f"{spec.num_traces} traces asked for, but only {distinct} "
            f"distinct traces of length at most {spec.max_trace_length} "
            f"exist over {width} propositions")
    rng = random.Random(spec.seed)
    pos_target = spec.num_traces // 2
    neg_target = spec.num_traces - pos_target
    positives: dict[Trace, None] = {}
    negatives: dict[Trace, None] = {}
    for attempt in range(_MAX_ATTEMPTS):
        if len(positives) >= pos_target and len(negatives) >= neg_target:
            break
        if attempt == distinct:
            # More draws than traces: list them all and count each class.
            symbols = [frozenset(itertools.compress(alphabet, bits))
                       for bits in itertools.product((0, 1), repeat=width)]
            exist = sum(target.satisfies(u)
                        for length in range(1, spec.max_trace_length + 1)
                        for u in itertools.product(symbols, repeat=length))
            for name, count, wanted in (
                    ("positive", exist, pos_target),
                    ("negative", distinct - exist, neg_target)):
                if count < wanted:
                    raise GenerationError(
                        f"{wanted} {name} traces asked for, but only "
                        f"{count} of length at most {spec.max_trace_length} "
                        f"exist over {width} propositions")
        trace = _random_trace(rng, alphabet, spec.max_trace_length)
        if target.satisfies(trace):
            if len(positives) < pos_target:
                positives[trace] = None
        elif len(negatives) < neg_target:
            negatives[trace] = None
    else:
        raise GenerationError(
            f"could not fill both classes for {spec.pattern} within "
            f"{_MAX_ATTEMPTS} attempts")
    entries = [(u, 1) for u in positives] + [(u, 0) for u in negatives]
    return make_sample(alphabet, entries)


def inject_noise(sample: LabeledSample, rate: float,
                 seed: int) -> tuple[LabeledSample, int]:
    """Flip the labels of k traces chosen uniformly without replacement,
    with k itself drawn uniformly from {0, ..., floor(rate * |S|)}.

    Returns the noisy sample and k.
    """
    if not 0 <= rate <= 1:
        raise ValueError("rate must lie in [0, 1]")
    rng = random.Random(seed)
    k_max = math.floor(rate * sample.size)
    k = rng.randint(0, k_max) if k_max > 0 else 0
    flipped = set(rng.sample(range(sample.size), k))
    entries = tuple((u, 1 - b if idx in flipped else b)
                    for idx, (u, b) in enumerate(sample.entries))
    return LabeledSample(sample.alphabet, entries), k


def spec_sample(spec: GenSpec) -> tuple[LabeledSample, Optional[int]]:
    """The sample `spec` describes: `generate_sample`, then, for a positive
    noise rate, `inject_noise` at the spec's seed.  Returns the sample and
    the number of flipped labels, None without noise."""
    sample = generate_sample(spec)
    if spec.noise_rate > 0:
        return inject_noise(sample, spec.noise_rate, spec.seed)
    return sample, None


def render_sample_file(sample: LabeledSample, spec: GenSpec,
                       flip_count: Optional[int] = None) -> str:
    """Sample file text with header comments recording provenance."""
    lines = [
        f"# pattern: {spec.pattern}",
        f"# pattern_formula: {PATTERNS[spec.pattern]}",
        f"# seed: {spec.seed}",
        f"# num_traces: {spec.num_traces}",
        f"# max_trace_length: {spec.max_trace_length}",
        f"# noise_rate: {spec.noise_rate if flip_count is not None else 0.0}",
    ]
    if flip_count is not None:
        lines.append(f"# labels_flipped: {flip_count}")
    return "\n".join(lines) + "\n" + sample.to_text()
