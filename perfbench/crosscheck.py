"""Record the benchmark's reference data and cross-check it once.

    python3 perfbench/crosscheck.py      # from the repository root

Writes perfbench/reference.json:

* ``samples``: the SHA-256 of every generated sample's text, checked by
  every pass so that a change to the generator cannot silently change a
  workload;
* ``sizes``: the minimal formula size the learner finds on each sample of
  the two ``learn`` workloads, checked on every verdict;
* ``enumeration``: every recorded size of at most 4, confirmed by
  enumerating all formulas up to that size (all node tables, as the
  test oracle does) with a bitmask evaluator of its own: no smaller
  formula meets kappa and one of the recorded size does;
* ``pattern_bound``: each recorded size is at most the size of the
  pattern formula wherever the pattern itself meets kappa.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import catalog  # noqa: E402
import check  # noqa: E402
import ltlfmine  # noqa: E402

UNARY = ("!", "X", "F", "G")
BINARY = ("|", "&", "->", "U")
ENUMERATION_LIMIT = 4


def terms_by_size(props, max_n):
    """Distinct formulas, as nested tuples, of each DAG size <= max_n:
    decode every node table (per node a label and children with smaller
    ids) and count distinct subterms."""
    def options(i):
        opts = [(p, 0, 0) for p in props]
        opts += [(op, j, 0) for op in UNARY for j in range(1, i)]
        opts += [(op, j, k) for op in BINARY
                 for j in range(1, i) for k in range(1, i)]
        return opts

    by_size: dict = {}
    seen = set()
    for n in range(1, max_n + 1):
        for table in itertools.product(*(options(i) for i in range(1, n + 1))):
            terms = [None]
            for label, j, k in table:
                if j == 0:
                    terms.append(("prop", label))
                elif k == 0:
                    terms.append((label, terms[j]))
                else:
                    terms.append((label, terms[j], terms[k]))
            root = terms[n]
            if root not in seen:
                seen.add(root)
                by_size.setdefault(len(subterms(root)), []).append(root)
    return by_size


def subterms(term) -> set:
    found = {term}
    for child in term[1:]:
        if isinstance(child, tuple):
            found |= subterms(child)
    return found


class BitEvaluator:
    """Valuations as one int per trace: bit i is the value at position i."""

    def __init__(self, traces):
        self.traces = traces
        self.full = [(1 << len(u)) - 1 for u in traces]
        self.memo: dict = {}

    def value(self, term) -> tuple:
        if term in self.memo:
            return self.memo[term]
        op = term[0]
        if op == "prop":
            out = tuple(sum(1 << i for i, s in enumerate(u) if term[1] in s)
                        for u in self.traces)
        else:
            a = self.value(term[1])
            b = self.value(term[2]) if len(term) == 3 else None
            out = tuple(self._apply(op, a[t], b[t] if b else 0, self.full[t])
                        for t in range(len(self.traces)))
        self.memo[term] = out
        return out

    @staticmethod
    def _apply(op, a, b, full):
        if op == "!":
            return full ^ a
        if op == "X":
            return a >> 1
        if op == "F":
            return (1 << a.bit_length()) - 1
        if op == "G":
            return full ^ ((1 << (full ^ a).bit_length()) - 1)
        if op == "|":
            return a | b
        if op == "&":
            return a & b
        if op == "->":
            return (full ^ a) | b
        out, later = 0, 0   # "U": scan from the last position backwards
        for i in range(full.bit_length() - 1, -1, -1):
            later = (b >> i) & 1 or ((a >> i) & 1 and later)
            out |= later << i
        return out


def loss_of(evaluator, term, labels) -> Fraction:
    values = evaluator.value(term)
    wrong = sum(1 for v, b in zip(values, labels) if (v & 1) != b)
    return Fraction(wrong, len(labels))


def enumerate_check(sample, kappa, size) -> int:
    """Raise unless ``size`` is the minimal size meeting kappa; returns the
    number of formulas examined."""
    by_size = terms_by_size(sample.alphabet, size)
    evaluator = BitEvaluator([u for u, _ in sample.entries])
    labels = [b for _, b in sample.entries]
    for n in range(1, size + 1):
        hit = any(loss_of(evaluator, t, labels) <= kappa
                  for t in by_size.get(n, []))
        if hit != (n == size):
            raise SystemExit(f"enumeration disagrees at size {n} "
                             f"(recorded minimal size {size})")
    return sum(len(v) for v in by_size.values())


def main() -> int:
    reference = {"samples": {}, "sizes": {}, "enumeration": {},
                 "pattern_bound": {}}
    for name, workload in catalog.WORKLOADS.items():
        samples = catalog.base_samples(workload, ltlfmine.bench)
        for sample_id, sample in samples.items():
            reference["samples"][sample_id] = catalog.fingerprint(sample)
            if workload.kind != "learn":
                continue
            config = ltlfmine.LearnConfig(kappa=workload.kappa,
                                          timeout=catalog.BUDGET_S)
            result = ltlfmine.learn_minimal(sample, config)
            size = check.distinct_size(result.formula)
            check.check_formula(result, sample.entries, workload.kappa, size)
            reference["sizes"][sample_id] = size
            pattern = ltlfmine.bench.pattern_formula(sample_id.split("@")[0])
            loss = check.formula_loss(sample.entries, pattern)
            meets = loss <= workload.kappa
            if meets and size > check.distinct_size(pattern):
                raise SystemExit(f"{sample_id}: size {size} exceeds the "
                                 "pattern formula's size")
            reference["pattern_bound"][sample_id] = {
                "pattern_size": check.distinct_size(pattern),
                "pattern_meets_kappa": meets}
            if size <= ENUMERATION_LIMIT:
                formulas = enumerate_check(sample, workload.kappa, size)
                reference["enumeration"][sample_id] = {
                    "size": size, "formulas_examined": formulas}
            print(f"{name} {sample_id}: size {size} "
                  f"({result.formula.to_text()})", file=sys.stderr)
    with open(catalog.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
