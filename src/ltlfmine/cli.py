"""Command-line interface.

Subcommands:

* ``learn``: minimal formula for a sample file.
* ``learn-dt``: decision tree over formulas for a sample file.
* ``gen``: generate a benchmark sample from the pattern catalog.
* ``bench``: run the learner over generated samples and write a CSV.
* ``export-wcnf``: dump the MaxSAT instance, or decode a solver model.

Exit codes: 0 success, 1 no result within the configured bounds,
2 timeout, 3 invalid input or usage.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import sys
import time
from fractions import Fraction

from . import bench as benchmod
from . import maxsat
from .dtree import (DEPTH_CAPPED, DtConfig, learn_tree, serialize_tree,
                    tree_loss)
from .encoding import EncodingInstance
from .learner import (LearnConfig, SIZE_CAP, SOLVED, TIMED_OUT, learn_minimal,
                      resolve_omega)
from .sample import load_sample

EXIT_OK = 0
EXIT_NO_RESULT = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_USAGE on a bad argument, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("value must lie in [0, 1]")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not value >= 0:  # NaN too
        raise argparse.ArgumentTypeError("value must be at least 0")
    return value


def _add_learn_opts(parser: argparse.ArgumentParser,
                    timeout_help: str) -> None:
    parser.add_argument("sample", help="sample file path")
    parser.add_argument("--kappa", type=_fraction, default=Fraction(0),
                        help="misclassification threshold (rational, default 0)")
    parser.add_argument("--max-size", type=_positive_int, default=40)
    parser.add_argument("--timeout", type=_nonnegative_float, default=None,
                        help=timeout_help)
    parser.add_argument("--with-constants", action="store_true",
                        help="allow true/false as leaves")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ltlfmine",
        description="Learn minimal LTLf formulas and decision trees over "
                    "formulas from labeled finite traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a minimal formula")
    _add_learn_opts(p, "wall-clock budget in seconds")
    p.add_argument("--weights", choices=("uniform", "rebalanced"),
                   default="uniform")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("learn-dt", help="learn a decision tree over formulas")
    _add_learn_opts(p, "wall-clock budget in seconds for each learner "
                       "call (one per split; each label polarity gets the "
                       "whole budget), not for the whole tree")
    p.add_argument("--min-score", type=_fraction, default=Fraction(4, 5),
                   help="minimum rebalanced split score (default 4/5)")
    p.add_argument("--max-depth", type=int, default=20)
    p.set_defaults(func=cmd_learn_dt)

    p = sub.add_parser("gen", help="generate a sample from a pattern")
    p.add_argument("pattern", choices=sorted(benchmod.PATTERNS))
    p.add_argument("--traces", type=int, default=50)
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0,
                   help="label noise rate (flips up to rate*|S| labels)")
    p.add_argument("-o", "--output", default="-",
                   help="output file, '-' for stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="benchmark the learner over the catalog")
    p.add_argument("--patterns", nargs="+", choices=sorted(benchmod.PATTERNS),
                   default=sorted(benchmod.PATTERNS))
    p.add_argument("--sizes", nargs="+", type=int, default=[20, 50])
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--kappa", type=_fraction, default=Fraction(0))
    p.add_argument("--max-size", type=_positive_int, default=40)
    p.add_argument("--timeout", type=_nonnegative_float, default=900.0,
                   help="per-sample budget in seconds (default 900)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="run this many samples concurrently")
    p.add_argument("-o", "--output", default="bench.csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-wcnf",
                       help="export the MaxSAT instance for one target size")
    p.add_argument("sample")
    p.add_argument("size", type=_positive_int, help="target formula size n")
    p.add_argument("--weights", choices=("uniform", "rebalanced"),
                   default="uniform")
    p.add_argument("--with-constants", action="store_true")
    p.add_argument("--var-comments", action="store_true",
                   help="annotate the variable meaning in comments "
                        "(c var V x|l|r|y|L|R ...)")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--import-model", metavar="MODEL",
                   help="decode an external solver's model file instead")
    p.set_defaults(func=cmd_export_wcnf)
    return parser


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_learn(args) -> int:
    sample = load_sample(args.sample)
    config = LearnConfig(kappa=args.kappa, weights=args.weights,
                         with_constants=args.with_constants,
                         max_size=args.max_size,
                         timeout=args.timeout)
    result = learn_minimal(sample, config)
    if result.status == SOLVED:
        print(result.formula.to_text())
        print(f"size: {result.size}", file=sys.stderr)
        print(f"loss: {result.achieved_loss} "
              f"({float(result.achieved_loss):.4f})", file=sys.stderr)
        return EXIT_OK
    if result.status == TIMED_OUT:
        print("timed out", file=sys.stderr)
        return EXIT_TIMEOUT
    print(f"no formula up to size {args.max_size} reaches the threshold",
          file=sys.stderr)
    return EXIT_NO_RESULT


def cmd_learn_dt(args) -> int:
    sample = load_sample(args.sample)
    config = DtConfig(kappa=args.kappa, min_score=args.min_score,
                      with_constants=args.with_constants,
                      max_size=args.max_size,
                      max_depth=args.max_depth, node_timeout=args.timeout)
    result = learn_tree(sample, config)
    if result.status == TIMED_OUT:
        print("timed out", file=sys.stderr)
        return EXIT_TIMEOUT
    print(serialize_tree(result.tree))
    print(f"inner nodes: {result.nodes_expanded}", file=sys.stderr)
    print(f"loss: {tree_loss(sample, result.tree)}", file=sys.stderr)
    if result.status == DEPTH_CAPPED:
        print("warning: depth cap hit, tree may misclassify more than kappa",
              file=sys.stderr)
    elif result.status == SIZE_CAP:
        print(f"warning: no split formula up to size {args.max_size}, "
              "tree may misclassify more than kappa", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = benchmod.GenSpec(pattern=args.pattern, num_traces=args.traces,
                            max_trace_length=args.max_length, seed=args.seed,
                            noise_rate=args.noise)
    sample, flips = benchmod.spec_sample(spec)
    _write(args.output, benchmod.render_sample_file(sample, spec, flips))
    return EXIT_OK


def _bench_one(task) -> dict:
    spec, args = task
    sample, flips = benchmod.spec_sample(spec)
    config = LearnConfig(kappa=args.kappa, max_size=args.max_size,
                         timeout=args.timeout)
    started = time.monotonic()
    result = learn_minimal(sample, config)
    elapsed = time.monotonic() - started
    timed_out = result.status == TIMED_OUT
    return {
        "pattern": spec.pattern,
        "num_traces": spec.num_traces,
        "seed": spec.seed,
        "noise_flips": flips or 0,
        "status": result.status,
        "formula": result.formula.to_text() if result.formula else "",
        "size": result.size if result.size is not None else "",
        "loss": str(result.achieved_loss) if result.achieved_loss is not None else "",
        # Timed-out runs are charged the full budget.
        "runtime_s": str(args.timeout) if timed_out else f"{elapsed:.3f}",
        "timed_out": int(timed_out),
    }


_CSV_FIELDS = ["pattern", "num_traces", "seed", "noise_flips", "status",
               "formula", "size", "loss", "runtime_s", "timed_out"]


def cmd_bench(args) -> int:
    # Specs are checked here, before the CSV is opened.
    tasks = [(benchmod.GenSpec(pattern=pattern, num_traces=size,
                               max_trace_length=args.max_length,
                               seed=seed, noise_rate=args.noise), args)
             for pattern in args.patterns
             for size in args.sizes
             for seed in args.seeds]
    rows = []
    with open(args.output, "a", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_FIELDS)
        if handle.tell() == 0:
            writer.writeheader()
            handle.flush()
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(args.jobs, len(tasks))) as pool:
            for row in pool.map(_bench_one, tasks):
                rows.append(row)
                writer.writerow(row)
                handle.flush()
                print(f"{row['pattern']} n={row['num_traces']} "
                      f"seed={row['seed']}: {row['status']} "
                      f"({row['runtime_s']}s)", file=sys.stderr)
    _print_bench_summary(rows, args.timeout)
    return EXIT_OK


def _print_bench_summary(rows, timeout: float) -> None:
    """Aggregate runtimes two ways: over all runs with timeouts charged the
    full budget, and over solved runs only.  Both are printed because
    neither convention dominates; pick one when comparing tools."""
    total = len(rows)
    solved = [r for r in rows if r["status"] == SOLVED]
    runtimes_all = [float(r["runtime_s"]) for r in rows]
    print(f"runs: {total}, solved: {len(solved)}, "
          f"timed out: {sum(int(r['timed_out']) for r in rows)}",
          file=sys.stderr)
    print(f"mean runtime (timeouts = {timeout}s): "
          f"{sum(runtimes_all) / total:.3f}s", file=sys.stderr)
    if solved:
        runtimes_solved = [float(r["runtime_s"]) for r in solved]
        print(f"mean runtime (solved only): "
              f"{sum(runtimes_solved) / len(solved):.3f}s", file=sys.stderr)


def cmd_export_wcnf(args) -> int:
    sample = load_sample(args.sample)
    omega = resolve_omega(sample, args.weights)
    instance = EncodingInstance(args.size, sample, omega,
                                with_constants=args.with_constants,
                                var_comments=args.var_comments)
    if args.import_model:
        with open(args.import_model, "r", encoding="utf-8") as handle:
            assignment = maxsat.import_model(handle.read(), instance.wcnf)
        formula = instance.decode_model(assignment)
        weight = maxsat.recompute_soft_weight(instance.wcnf, assignment)
        print(formula.to_text())
        print(f"loss: {1 - weight}", file=sys.stderr)
        return EXIT_OK
    maxsat.export_wcnf(instance.wcnf,
                       sys.stdout if args.output == "-" else args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (benchmod.GenerationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
