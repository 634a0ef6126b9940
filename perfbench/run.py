"""Benchmark of ltlfmine's learner, tree learner and encoder.

Run from the repository root:

    python3 perfbench/run.py --workload learn-exact --seed 0 --seconds 25
    python3 perfbench/run.py --workload all --trace 1   # every workload

One caller, a closed loop: instances run one after another with no
parallelism.  A run repeats passes over the workload's instances until
``--seconds`` have elapsed.  Every pass runs in a fresh interpreter
(workload.py) and is bounded from here: an instance that overruns its
60 s budget plus a grace period is killed, charged the full budget and
counted as failed.  Every result is checked by check.py, which shares no
code with the program.

Times are reported at a reference machine speed.  Shared hosts drift by
25% and more over minutes, so each workload process samples its own
speed with a memory-latency probe (calibrate.py) every 0.1 s; an
instance's time is scaled by the probe's reference time over the median
probe time while it ran, and set-up by the median probe time of the run.
``raw_wall_s`` and ``raw_setup_s``, printed beside them, are the unscaled
stopwatch times.  ``wall_s`` and ``peak_rss_mb`` are medians over the
passes of the run, ``setup_s`` over at least SETUP_SAMPLES set-ups.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics, the traced/untraced wall-time ratio among them.  The
last line of standard output is the result as one JSON object; the line
before it stamps the run (Python version, nproc, git commit, seed).  A
record of every pass goes to .perfbench_out/, spans of traced passes too.
perfbench/baseline.json holds ``--workload all`` at seed 0, both modes.

Exit status: 0 when every verdict checked (timeouts are failed operations,
not wrong verdicts), 1 when a verdict was wrong or the program raised,
2 when the program or the reference data cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
from calibrate import speed_factor  # noqa: E402

OUT = ROOT / ".perfbench_out"
GRACE_S = 10.0          # past the budget before an instance is killed
RUN_LIMIT_S = 165.0     # whole run, so it always ends within 180 s
SETUP_SAMPLES = 7       # set-up is measured at least this often per run
MIN_SAMPLES = 5         # speed samples needed to scale one instance alone
EXIT_WRONG, EXIT_SETUP = 1, 2


class SetupError(Exception):
    """The program or the reference data could not be loaded."""


class Child:
    """A workload.py process whose JSON events are read with deadlines."""

    def __init__(self, args):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "workload.py"), *args],
            stdout=subprocess.PIPE, cwd=ROOT)
        self.buffer = b""

    def event(self, deadline: float):
        """The next event; None once ``deadline`` passes or the child
        closes its output."""
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    return None
                self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def child_args(name, seed, trace, start=0, setup_only=False):
    t0 = time.monotonic()
    args = ["--workload", name, "--seed", str(seed),
            "--src", str(ROOT / "src"), "--out", str(OUT), "--t0", repr(t0),
            "--trace", str(trace), "--start", str(start)]
    return args + (["--setup-only"] if setup_only else [])


def read_setup(child: Child, run_deadline: float) -> dict:
    event = child.event(min(time.monotonic() + catalog.BUDGET_S, run_deadline))
    if event is None or event["event"] != "setup":
        message = event.get("message") if event else "no set-up event"
        raise SetupError(f"workload process failed in set-up: {message}")
    return event


def run_pass(name: str, seed: int, trace: int, run_deadline: float) -> dict:
    """One pass over the workload, restarting the child after a kill."""
    count = len(catalog.WORKLOADS[name].instances)
    records: list = [None] * count
    setup = None
    rss = []
    samples = []
    start = 0
    while start < count:
        child = Child(child_args(name, seed, trace, start))
        position = start   # the instance the child is in, or runs next
        try:
            event = read_setup(child, run_deadline)
            setup = setup or event
            samples += event["samples"]
            while True:
                budget_end = time.monotonic() + catalog.BUDGET_S + GRACE_S
                event = child.event(min(budget_end, run_deadline))
                if event is None:
                    break
                samples += event.get("samples", [])
                if event["event"] == "start":
                    position = event["index"]
                elif event["event"] == "done":
                    records[event["index"]] = event
                    rss.append(event.pop("peak_rss_mb"))
                    position = event["index"] + 1
                elif event["event"] == "end":
                    break
        finally:
            child.stop()
        if event is not None or position >= count:
            break
        # Killed or crashed: charge the instance it was in and go on.
        records[position] = {"status": "timeout", "seconds": None,
                             "message": "killed by the harness or crashed"}
        start = position + 1
        if time.monotonic() >= run_deadline:
            break
    for i, record in enumerate(records):
        if record is None:
            records[i] = {"status": "timeout", "seconds": None,
                          "message": "not run: the run's time limit passed"}
    pass_factor = speed_factor(samples) if samples else 1.0

    def factor(record):
        # The speed samples taken while the instance ran, unless too few.
        own = record.get("samples", [])
        return speed_factor(own) if len(own) >= MIN_SAMPLES else pass_factor

    def charged(record, key, scale):
        # Timeouts and lost instances are charged the whole budget.
        if record["status"] == "timeout" or record.get(key) is None:
            return catalog.BUDGET_S
        return record[key] * scale

    return {"trace": trace, "records": records, "samples": samples,
            "speed_factor": pass_factor,
            "wall_s": sum(charged(r, "seconds", factor(r)) for r in records),
            "raw_wall_s": sum(charged(r, "raw_seconds", 1.0) for r in records),
            "setup_s": setup["setup_s"], "generate_s": setup["generate_s"],
            "peak_rss_mb": max(rss) if rss else None}


def setup_only(name: str, seed: int, run_deadline: float) -> float:
    child = Child(child_args(name, seed, 0, setup_only=True))
    try:
        return read_setup(child, run_deadline)["setup_s"]
    finally:
        child.stop()


def merge_layers(records) -> dict:
    totals: dict = {}
    for record in records:
        for name, values in record.get("layers", {}).items():
            into = totals.setdefault(name, {})
            for key, value in values.items():
                if key == "max_s":
                    into[key] = max(into.get(key, 0.0), value)
                else:
                    into[key] = into.get(key, 0) + value
    return totals


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    totals = merge_layers(p["records"])

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    decisions = get("maxsat.solve_decision", "calls")
    sat_s = get("sat.solve")
    learned = get("sat.solve", "learned")
    return {
        "bench.generate_s": p["generate_s"],
        "encoding.build_s": get("encoding.build"),
        "encoding.hard_clauses": get("encoding.build", "hard"),
        "encoding.vars": get("encoding.build", "vars"),
        "maxsat.export_s": get("maxsat.export"),
        "maxsat.decision_calls": decisions,
        "maxsat.self_s": get("maxsat.solve_decision", "self_s"),
        "maxsat.sat_calls_per_decision":
            get("sat.solve", "calls") / decisions if decisions else 0.0,
        "cnf.totalizer_s": get("cnf.totalizer"),
        "cnf.totalizer_calls": get("cnf.totalizer", "calls"),
        "sat.solve_s": sat_s,
        "sat.solve_calls": get("sat.solve", "calls"),
        "sat.learned_clauses": learned,
        "sat.learned_per_s": learned / sat_s if sat_s else 0.0,
        "learner.sizes_tried": get("learner.sizes", "calls"),
        "learner.infeasible_s": get("maxsat.solve_decision", "infeasible_s"),
        "learner.feasible_s": get("maxsat.solve_decision", "feasible_s"),
        "learner.verify_s": get("learner.decode") + get("learner.loss"),
        "dtree.learn_calls": get("dtree.learn", "calls"),
        "dtree.splits": get("dtree.split", "calls"),
        "dtree.split_s": get("dtree.split") + get("dtree.score"),
        "dtree.slowest_learn_s": get("dtree.learn", "max_s"),
        "formula.satisfies_calls": get("formula.satisfies", "calls"),
        "formula.satisfies_s": get("formula.satisfies"),
    } | result_metrics(p)


def result_metrics(p: dict) -> dict:
    """Figures of the verified results of one pass."""
    records = p["records"]
    return {
        "dt_inner_nodes": sum(r.get("inner_nodes", 0) for r in records),
        "wcnf_mb": sum(r.get("wcnf_bytes", 0) for r in records) / 1e6,
    }


def self_times(p: dict) -> dict:
    return {name: values["self_s"]
            for name, values in sorted(merge_layers(p["records"]).items())
            if "self_s" in values}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """All passes of one run and the metrics they give."""
    started = time.monotonic()
    run_deadline = started + RUN_LIMIT_S
    if trace:
        for old in OUT.glob(f"spans-{name}-seed{seed}.jsonl"):
            old.unlink()
    passes = []
    last = 0.0
    # Another pass starts while it would end before about half a pass
    # past --seconds; a traced run needs a traced and an untraced pass.
    while (not passes or (trace and len(passes) < 2)
           or time.monotonic() - started + last / 2 < seconds):
        traced = trace and len(passes) % 2 == 0
        begun = time.monotonic()
        passes.append(run_pass(name, seed, int(traced), run_deadline))
        last = time.monotonic() - begun
        if time.monotonic() >= run_deadline:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < run_deadline:
        setups.append(setup_only(name, seed, run_deadline))
    # Set-up is too short to sample; it is scaled by the whole run's speed.
    samples = [x for p in passes for x in p["samples"]]
    factor = speed_factor(samples) if samples else 1.0

    records = [r for p in passes for r in p["records"]]
    verified = sum(r["status"] == "verified" for r in records)
    wrong = [r for r in records if r["status"] in ("wrong", "error")]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "solved_frac": verified / len(records),
        "peak_rss_mb": statistics.median(
            [p["peak_rss_mb"] for p in passes if p["peak_rss_mb"]] or [0.0]),
        "setup_s": statistics.median(setups) * factor,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "raw_setup_s": statistics.median(setups),
    } | result_metrics(passes[0])
    result = {"workload": name, "seed": seed, "trace": trace,
              "attempted": len(records), "failed": len(records) - verified,
              "correct": not wrong,
              "errors": [f"{r.get('id')}: {r.get('message')}" for r in wrong],
              "passes": passes, "setups": setups}
    if trace:
        traced = [p for p in passes if p["trace"]]
        plain = [p for p in passes if not p["trace"]]
        per_pass = [layer_metrics(p) for p in traced]
        # Counts repeat exactly, so they come from the first traced pass.
        layers = {key: value if isinstance(value, int)
                  else statistics.median(m[key] for m in per_pass)
                  for key, value in per_pass[0].items()}
        layers["trace.wall_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain)) if plain else 0.0
        # Counts are deterministic; differing ones would make them useless.
        counts = [{k: v for k, v in m.items() if isinstance(v, int)}
                  for m in per_pass]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        result["self_s"] = self_times(traced[0])
        metrics = layers
    result["metrics"] = metrics
    return result


def stamp(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "seed": seed}


def load_definitions() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if not (ROOT / "src" / "ltlfmine" / "__init__.py").is_file():
        raise SetupError(f"no program source under {ROOT / 'src'}")
    catalog.load_reference()
    return spec


def report(result: dict, spec: dict, trace: int) -> dict:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                    "unit": m["unit"]} for m in listed}}


def print_table(results: list, spec: dict, trace: int) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for result in results:
        print(f"{result['workload']}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}",
              file=sys.stderr)
        for key, value in result["metrics"].items():
            unit = units.get(key, "s" if key.endswith("_s") else "")
            print(f"  {key:32s} {value:14.6g} {unit}", file=sys.stderr)
        for message in result["errors"]:
            print(f"  wrong: {message}", file=sys.stderr)
        if trace:
            print("  self time per layer (s):", file=sys.stderr)
            for name, value in result["self_s"].items():
                print(f"    {name:30s} {value:10.4f}", file=sys.stderr)
            if not result["counts_repeat"]:
                print("  warning: counts differ between traced passes",
                      file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ltlfmine benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_definitions()
        OUT.mkdir(exist_ok=True)
        names = (list(catalog.WORKLOADS) if args.workload == "all"
                 else [args.workload])
        results = [run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names]
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    info = stamp(args.seed)
    record = {"stamp": info, "results": results}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print_table(results, spec, args.trace)
    print(json.dumps(info))
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["metrics"] for r in results}))
    else:
        print(json.dumps(report(results[0], spec, args.trace)))
    return 0 if all(r["correct"] for r in results) else EXIT_WRONG


if __name__ == "__main__":
    sys.exit(main())
