"""The four benchmark workloads and the inputs they are built from.

Every workload runs the same fixed samples on every seed: the pattern
catalog at sample seed 0, with ``inject_noise(rate=0.1, seed=0)`` where an
instance is noisy.  The CDCL search time of one sample swings by 2-4x
with its sample seed, its noise seed or merely its trace order, so inputs
that changed with the workload seed would give a seed-to-seed spread of
``wall_s`` far wider than any useful regression bound.  The workload seed
therefore decides only what leaves the work unchanged: the order in
which instances run and, for ``encode-export`` (which never solves), the
order of the traces and a renaming of the propositions instead.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

BUDGET_S = 60.0          # per instance; a timeout is charged all of it
SAMPLE_SEED = 0
NOISE_RATE = 0.1
NOISE_SEED = 0


@dataclass(frozen=True)
class Instance:
    pattern: str
    traces: int
    noisy: bool = False
    size: int = 0        # encoding size, for encode-export only

    @property
    def sample_id(self) -> str:
        noise = "~noise" if self.noisy else ""
        return f"{self.pattern}@{self.traces}{noise}"

    @property
    def id(self) -> str:
        return self.sample_id + (f"/n{self.size}" if self.size else "")


@dataclass(frozen=True)
class Workload:
    kind: str            # "learn" | "tree" | "export"
    kappa: Fraction
    instances: tuple


def _learn(*specs, noisy=False):
    return tuple(Instance(p, n, noisy) for p, n in specs)


WORKLOADS = {
    "learn-exact": Workload("learn", Fraction(0), _learn(
        ("universality2", 20), ("universality3", 20), ("absence1", 50),
        ("absence2", 20), ("existence1", 50))),
    "learn-noisy": Workload("learn", Fraction(1, 10), _learn(
        ("absence2", 50), ("universality2", 50), ("universality3", 20),
        ("existence2", 20), ("absence1", 50), ("existence1", 50),
        noisy=True)),
    "learn-dt": Workload("tree", Fraction(1, 20), _learn(
        ("existence2", 20), ("universality1", 50), ("universality3", 20),
        noisy=True) + _learn(("existence2", 20), ("universality2", 20))),
    "encode-export": Workload("export", Fraction(0), tuple(
        Instance(p, 50, size=n)
        for p in ("universality2", "existence2") for n in range(4, 9))),
}
DT_MIN_SCORE = Fraction(4, 5)


def fingerprint(sample) -> str:
    return hashlib.sha256(sample.to_text().encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def base_samples(workload: Workload, bench) -> dict:
    """sample id -> the fixed sample, generated through ``bench`` (the
    program's generator module, looked up at call time)."""
    samples = {}
    for inst in workload.instances:
        if inst.sample_id in samples:
            continue
        sample = bench.generate_sample(
            bench.GenSpec(inst.pattern, inst.traces, seed=SAMPLE_SEED))
        if inst.noisy:
            sample, _ = bench.inject_noise(sample, NOISE_RATE, NOISE_SEED)
        samples[inst.sample_id] = sample
    return samples


def instance_order(workload: Workload, seed: int) -> list:
    order = list(range(len(workload.instances)))
    # The encoder's peak memory depends on what ran before the largest
    # instance (up to 5% here), so encode-export keeps its order.
    if workload.kind != "export":
        random.Random(seed).shuffle(order)
    return order


def relabel(sample, seed: int, make_sample):
    """The same sample up to trace order and proposition names."""
    rng = random.Random(seed)
    names = list(sample.alphabet)
    rename = dict(zip(names, rng.sample(names, len(names))))
    entries = [(tuple(frozenset(rename[p] for p in symbol) for symbol in u), b)
               for u, b in sample.entries]
    rng.shuffle(entries)
    return make_sample(sample.alphabet, entries)
