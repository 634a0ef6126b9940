import math
import random
from fractions import Fraction

import pytest

from ltlfmine import bench
from ltlfmine.bench import (GenSpec, GenerationError, PATTERNS,
                            generate_sample, inject_noise, pattern_alphabet,
                            pattern_formula, render_sample_file,
                            spec_sample)
from ltlfmine.formula import parse_formula
from ltlfmine.sample import omega_uniform, parse_sample, weighted_loss


class TestCatalog:
    def test_all_patterns_parse(self):
        for name in PATTERNS:
            assert pattern_formula(name).size >= 1

    def test_alphabet_widths(self):
        assert pattern_alphabet("absence1") == ("p0",)
        assert pattern_alphabet("existence3") == ("p0", "p1", "p2")
        assert pattern_alphabet("disjunction3") == tuple(
            f"p{k}" for k in range(6))

    def test_catalog_has_twelve_patterns(self):
        assert len(PATTERNS) == 12
        families = {"absence", "existence", "universality", "disjunction"}
        for name in PATTERNS:
            assert name.rstrip("123") in families


class TestGeneration:
    def test_deterministic_for_fixed_spec(self):
        spec = GenSpec("universality1", num_traces=20, seed=5)
        assert generate_sample(spec) == generate_sample(spec)

    def test_different_seeds_differ(self):
        a = generate_sample(GenSpec("universality1", num_traces=20, seed=1))
        b = generate_sample(GenSpec("universality1", num_traces=20, seed=2))
        assert a != b

    def test_labels_consistent_with_pattern(self):
        for name in ("absence2", "existence2", "disjunction2"):
            spec = GenSpec(name, num_traces=30, max_trace_length=8, seed=3)
            sample = generate_sample(spec)
            target = parse_formula(PATTERNS[name], sample.alphabet)
            assert weighted_loss(sample, target, omega_uniform(sample)) == 0

    def test_classes_balanced(self):
        sample = generate_sample(GenSpec("existence1", num_traces=21, seed=4))
        assert len(sample.positives()) == 10
        assert len(sample.negatives()) == 11

    def test_trace_lengths_respected(self):
        spec = GenSpec("absence1", num_traces=30, max_trace_length=4, seed=6)
        sample = generate_sample(spec)
        assert all(1 <= len(u) <= 4 for u in sample.traces())

    def test_alphabet_padded_to_three(self):
        sample = generate_sample(GenSpec("absence1", num_traces=10, seed=0))
        assert sample.alphabet == ("p0", "p1", "p2")

    def test_impossible_class_raises(self, monkeypatch):
        # max length 1 over the 3-proposition alphabet: 8 distinct traces,
        # fewer than the 20 asked for, which is known before any draw.
        def no_draw(*args):
            raise AssertionError("a trace was drawn")

        monkeypatch.setattr(bench, "_random_trace", no_draw)
        spec = GenSpec("absence1", num_traces=20, max_trace_length=1,
                       seed=0)
        with pytest.raises(GenerationError, match="20 traces .* only 8 "):
            generate_sample(spec)

    def test_too_small_class_raises_once_draws_outnumber_traces(
            self, monkeypatch):
        # absence3 at max length 1: 16 traces over four propositions, but
        # only 4 negatives of the 6 asked for.  Once the draws outnumber
        # the traces, the whole space is counted and the spec refused.
        draws = []
        draw = bench._random_trace

        def counted(*args):
            draws.append(None)
            return draw(*args)

        monkeypatch.setattr(bench, "_random_trace", counted)
        spec = GenSpec("absence3", num_traces=12, max_trace_length=1,
                       seed=0)
        with pytest.raises(GenerationError,
                           match="6 negative traces .* only 4 "):
            generate_sample(spec)
        assert len(draws) <= 16

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GenSpec("no-such-pattern")
        with pytest.raises(ValueError):
            GenSpec("absence1", num_traces=1)
        with pytest.raises(ValueError):
            GenSpec("absence1", noise_rate=1.5)


class TestNoise:
    def test_zero_rate_is_identity(self):
        sample = generate_sample(GenSpec("existence1", num_traces=20, seed=7))
        noisy, k = inject_noise(sample, 0.0, seed=7)
        assert k == 0
        assert noisy == sample

    def test_flip_count_bounded(self):
        sample = generate_sample(GenSpec("existence1", num_traces=40, seed=8))
        for seed in range(20):
            noisy, k = inject_noise(sample, 0.05, seed=seed)
            assert 0 <= k <= math.floor(0.05 * sample.size)
            flipped = sum(
                1 for (u, b), (v, c) in zip(sample.entries, noisy.entries)
                if u == v and b != c)
            assert flipped == k

    def test_deterministic(self):
        sample = generate_sample(GenSpec("existence1", num_traces=40, seed=9))
        assert inject_noise(sample, 0.05, 1) == inject_noise(sample, 0.05, 1)

    def test_noise_increases_loss_when_flipping(self):
        sample = generate_sample(GenSpec("universality1", num_traces=60,
                                         max_trace_length=8, seed=10))
        target = parse_formula(PATTERNS["universality1"], sample.alphabet)
        for seed in range(10):
            noisy, k = inject_noise(sample, 0.05, seed=seed)
            assert weighted_loss(noisy, target, omega_uniform(noisy)) \
                == Fraction(k, noisy.size)

    def test_invalid_rate(self):
        sample = generate_sample(GenSpec("existence1", num_traces=10, seed=0))
        with pytest.raises(ValueError):
            inject_noise(sample, -0.1, 0)

    def test_spec_sample_noise_from_the_spec(self):
        clean = GenSpec("existence2", num_traces=20, seed=3)
        assert spec_sample(clean) == (generate_sample(clean), None)
        noisy = GenSpec("existence2", num_traces=20, seed=3, noise_rate=0.1)
        assert spec_sample(noisy) == inject_noise(generate_sample(clean),
                                                  0.1, 3)


class TestRenderedFile:
    def test_header_and_parseability(self):
        spec = GenSpec("absence3", num_traces=16, seed=11, noise_rate=0.05)
        sample = generate_sample(spec)
        noisy, k = inject_noise(sample, 0.05, seed=11)
        text = render_sample_file(noisy, spec, k)
        assert text.startswith("# pattern: absence3\n")
        assert f"# labels_flipped: {k}\n" in text
        assert parse_sample(text) == noisy
