"""One pass over one workload, in a fresh interpreter started by run.py.

Prints one JSON event per line on standard output: ``setup`` once the
program is imported and the samples are generated and fingerprinted,
``start`` and ``done`` around each instance, and ``end``.  The parent
kills this process when an instance overruns its budget and starts a new
one at the next instance (``--start``).  Instance times are taken with
the calibrator's clock, which leaves out its own speed samples; the
samples go out with the events.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import check  # noqa: E402
from calibrate import Calibrator  # noqa: E402

EXIT_SETUP = 2


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def import_program(src: Path):
    sys.path.insert(0, str(src))
    import ltlfmine  # imports every layer module as an attribute
    if not Path(ltlfmine.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"ltlfmine imported from {ltlfmine.__file__}, "
                          f"not from {src}")
    return ltlfmine


def prepare(pkg, workload, inst, sample, seed, out_dir):
    """The program call for one instance, as a closure to be timed."""
    kappa = workload.kappa
    if workload.kind == "learn":
        config = pkg.learner.LearnConfig(kappa=kappa, timeout=catalog.BUDGET_S)
        return lambda: pkg.learner.learn_minimal(sample, config)
    if workload.kind == "tree":
        config = pkg.dtree.DtConfig(kappa=kappa,
                                    min_score=catalog.DT_MIN_SCORE,
                                    node_timeout=catalog.BUDGET_S)
        return lambda: pkg.dtree.learn_tree(sample, config)
    sample = catalog.relabel(sample, seed, pkg.sample.make_sample)
    omega = pkg.sample.omega_uniform(sample)
    path = out_dir / f"export-{os.getpid()}.wcnf"

    def export():
        encoded = pkg.encoding.EncodingInstance(inst.size, sample, omega)
        pkg.maxsat.export_wcnf(encoded.wcnf, str(path))
        return encoded.wcnf, path
    return export


def verify(workload, inst, sample, result, reference) -> dict:
    """Fields of the done event; raises check.VerdictError."""
    if workload.kind == "export":
        wcnf, path = result
        try:
            check.check_wcnf(path, wcnf.nvars, len(wcnf.hard), len(wcnf.soft))
            return {"wcnf_bytes": path.stat().st_size}
        finally:
            path.unlink()
    if result.status == "timed-out":
        return {"status": "timeout"}
    if workload.kind == "tree":
        return {"inner_nodes": check.check_tree(result, sample.entries,
                                                workload.kappa)}
    size = reference["sizes"][inst.sample_id]
    check.check_formula(result, sample.entries, workload.kappa, size)
    return {"size": size}


def run_one(pkg, workload, inst, sample, args, reference, calibrator,
            tracer) -> dict:
    """Run, time and verify one instance; the fields of its done event.
    The result is dropped on return, before the next instance starts."""
    first_span = len(tracer.spans) if tracer is not None else 0
    fields = {"status": "verified", "seconds": None, "raw_seconds": None}
    try:
        call = prepare(pkg, workload, inst, sample, args.seed, args.out)
        if tracer is not None:
            tracer.instance = inst.id
        raw_started = time.perf_counter()
        started = calibrator.clock()
        try:
            result = call()
        finally:
            fields["seconds"] = calibrator.clock() - started
            fields["raw_seconds"] = time.perf_counter() - raw_started
            if tracer is not None:
                tracer.instance = None
        fields.update(verify(workload, inst, sample, result, reference))
    except check.VerdictError as exc:
        fields.update(status="wrong", message=str(exc))
    except Exception as exc:  # the program failed: report and go on
        fields.update(status="error", message=repr(exc))
    if tracer is not None:
        fields["layers"] = tracer.layer_totals(first_span)
    return fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    calibrator = Calibrator()
    calibrator.start()
    try:
        pkg = import_program(args.src)
    except ImportError as exc:
        emit("error", message=f"cannot import the program: {exc}")
        return EXIT_SETUP
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(calibrator.clock)
        tracer.install(pkg)
    workload = catalog.WORKLOADS[args.workload]
    reference = catalog.load_reference()
    samples = catalog.base_samples(workload, pkg.bench)
    for sample_id, sample in samples.items():
        if catalog.fingerprint(sample) != reference["samples"][sample_id]:
            emit("error", message=f"sample {sample_id} differs from its "
                 "recorded fingerprint: the generator changed")
            return EXIT_SETUP
    generate_s = None
    if tracer is not None:
        generate_s = sum(end - start for name, start, end, *_ in tracer.spans
                         if name == "bench.generate")
    emit("setup", setup_s=time.monotonic() - args.t0, generate_s=generate_s,
         samples=calibrator.take())
    if args.setup_only:
        return 0

    order = catalog.instance_order(workload, args.seed)
    for index in range(args.start, len(order)):
        inst = workload.instances[order[index]]
        emit("start", index=index, id=inst.id)
        fields = run_one(pkg, workload, inst, samples[inst.sample_id], args,
                         reference, calibrator, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        emit("done", index=index, id=inst.id, samples=calibrator.take(),
             peak_rss_mb=peak_kb / 1024, **fields)
    if tracer is not None:
        tracer.dump(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    emit("end", samples=calibrator.take())
    return 0


if __name__ == "__main__":
    sys.exit(main())
