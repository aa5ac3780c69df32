"""skyforge's benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload wide-apx --seed 1 --seconds 28 --trace 0

The benchmark generates its inputs from ``--seed`` under ``.perfbench-work/``,
imports skyforge from ``src/`` and drives it only through
``skyforge.cli.execute_run`` / ``execute_verify``.  A *round* is one pass
over the workload's operations; a run repeats rounds until ``--seconds``
have passed, and each repeat must reproduce the first round's outputs and
outcomes, so ``attempted`` and ``failed`` count each operation once.  Each
time is the median over rounds, at a reference machine speed (see
``REFERENCE_LOOP_S``), of the work of this one Python process with one
search thread.  Every operation's output is checked (see
``checks.py``).

``--trace 0`` prints the end-to-end metrics from untraced rounds.
``--trace 1`` alternates untraced and traced rounds; traced rounds wrap the
public functions of every module from outside (``tracing.py``) and give the
per-layer metrics, and the ratio of the two gives the tracing overhead.  The
traced run also writes its spans and counts to ``.perfbench-work/results/``
and prints each layer's self time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it,
each starting with ``#``, record the machine, the inputs and the manifest
digests; the same record goes to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

import fake_estimator  # noqa: E402  (stdlib only; the modules that need skyforge load in main)
import workloads  # noqa: E402

GENERATORS = {
    "wide-apx": workloads.wide_apx,
    "continuous-join-bi": workloads.continuous_join_bi,
    "verify-small": workloads.verify_small,
    "subprocess-nobi": workloads.subprocess_nobi,
}
ALGORITHMS = ("apx", "bi", "nobi", "div")
# Verify reports epsilon-cover violations for div because diversification
# thins the frontier; those operations count as failed, but only a violation
# by another algorithm means the program's output is wrong.
KNOWN_VERIFY_GAP = ("div",)
# The speed of a shared machine drifts by up to 1.6x over tens of seconds
# (measured on a 2-core x86-64 VM), more than any bound worth checking.  So
# every operation is timed at a reference speed: its wall time times
# REFERENCE_LOOP_S over the time ``reference_loop`` takes just before and
# just after it.  REFERENCE_LOOP_S is that loop's time at full speed on the
# same VM with Python 3.11.  The fake estimator's sleep takes the same time
# at any speed, so it is left out of the scaling (see ``at_reference``).
REFERENCE_LOOP_STEPS = 5000
REFERENCE_LOOP_S = 0.00075


def unit_of(name: str) -> str:
    if name == "valuations_per_s":
        return "1/s"
    if "ratio" in name:
        return "ratio"
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class Probe:
    """Always-on hooks at two call boundaries: the entry and exit times and
    result of ``run_algorithm``, and the estimators a config builds, so that
    subprocess estimators can be closed after each operation."""

    def __init__(self, cli):
        self.entered = self.left = self.result = None
        self.built: list = []
        run_algorithm = cli.run_algorithm
        build_estimator = cli.RunConfig.build_estimator

        def probed_run_algorithm(*args, **kwargs):
            self.entered = perf_counter()
            try:
                self.result = run_algorithm(*args, **kwargs)
            finally:
                self.left = perf_counter()
            return self.result

        def probed_build_estimator(cfg):
            estimator = build_estimator(cfg)
            self.built.append(estimator)
            return estimator

        cli.run_algorithm = probed_run_algorithm
        cli.RunConfig.build_estimator = probed_build_estimator

    def reset(self):
        self.entered = self.left = self.result = None

    def close_estimators(self):
        while self.built:
            close = getattr(self.built.pop(), "close", None)
            if close is not None:
                close()


def write_report(path: str, report: dict):
    """Write a verify report the way ``skyforge verify`` prints it."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def at_reference(record: dict, key: str) -> float:
    """An operation's time ``t``, ``setup`` or ``search`` at the reference
    speed; the fake estimator sleeps inside the search."""
    fixed = record["sleep"] if key in ("t", "search") else 0.0
    return (record[key] - fixed) * record["speed"] + fixed


def run_op(op, index: int, cli, checks, probe: Probe, tracer) -> dict:
    """Run one operation, time it, close what it started, check its output."""
    from skyforge.estimators import SubprocessEstimator

    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    shutil.rmtree(op.out_dir, ignore_errors=True)
    probe.reset()
    if tracer is not None:
        tracer.op = index
    record = {"label": op.label, "algorithm": op.algorithm, "error": None, "problems": []}
    code = document = None
    loop_before = reference_loop()
    started = perf_counter()
    try:
        cfg = call("cli.config", cli.RunConfig.from_file, op.config)
        if op.kind == "run":
            code, document, result, space = call("cli.execute_run", cli.execute_run, cfg)
        else:
            code, document = call("cli.execute_verify", cli.execute_verify, cfg)
            call("cli.write_report", write_report, os.path.join(op.out_dir, "report.json"),
                 document)
    except Exception as exc:  # an operation that raises is a failed operation
        record["error"] = repr(exc)
    finally:
        ended = perf_counter()
        loop_after = reference_loop()
        record["sleep"] = fake_estimator.SLEEP_S * sum(
            getattr(e, "calls", 0) for e in probe.built if isinstance(e, SubprocessEstimator))
        probe.close_estimators()
        if tracer is not None:
            tracer.op = None

    record["t"] = ended - started
    record["speed"] = REFERENCE_LOOP_S / ((loop_before + loop_after) / 2.0)
    entered, left = probe.entered, probe.left
    record["setup"] = (entered if entered is not None else ended) - started
    record["search"] = (left - entered) if entered is not None and left is not None else 0.0
    record["finish"] = ended - (left if left is not None else ended)
    record["valuations"] = probe.result.valuations if probe.result is not None else 0
    record["exit"] = code
    record["outputs"], record["output_bytes"] = checks.output_files(op.out_dir)
    record["violations"] = 0
    record["digest"] = None
    if record["error"] is None:
        record["digest"] = checks.digest(document)
        if op.kind == "run":
            target = cfg.raw["target"]
            record["problems"] = checks.check_run(code, document, result, space, op.out_dir,
                                                  op.budget, target)
        else:
            record["violations"] = len(document.get("eps_cover_violations", []))
            if code not in (0, 1) or (code == 0) != bool(document.get("ok")):
                record["problems"].append(f"verify exit code {code}, ok={document.get('ok')}")
    record["failed"] = bool(record["error"] or record["problems"] or code != 0)
    record["wrong"] = bool(record["error"] or record["problems"]
                           or (record["failed"] and op.algorithm not in KNOWN_VERIFY_GAP))
    return record


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now, best of three."""
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        acc, table = 0, {}
        for i in range(REFERENCE_LOOP_STEPS):
            table[i & 1023] = acc
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, perf_counter() - started)
    return best


def run_round(ops, cli, checks, probe, tracer) -> dict:
    """One pass over the operations.  Its times are sums over operations of
    wall time at the reference speed; ``wall`` holds them unscaled."""
    first = len(tracer.spans) if tracer is not None else 0
    if tracer is not None:
        tracer.counts.clear()
        tracer.install()
    try:
        records = [run_op(op, i, cli, checks, probe, tracer) for i, op in enumerate(ops)]
    finally:
        if tracer is not None:
            tracer.uninstall()
    total = lambda key: sum(r[key] for r in records)  # noqa: E731
    scaled = lambda key: sum(at_reference(r, key) for r in records)  # noqa: E731
    return {
        "traced": tracer is not None,
        "records": records,
        "run_s": scaled("t"),
        "setup_s": scaled("setup"),
        "search_s": scaled("search"),
        "wall": {"run_s": total("t"), "setup_s": total("setup"), "search_s": total("search"),
                 "finish_s": total("finish")},
        "valuations": total("valuations"),
        "outputs": total("outputs"),
        "output_bytes": total("output_bytes"),
        "violations": total("violations"),
        "spans": (first, len(tracer.spans)) if tracer is not None else None,
        "counts": Counter(tracer.counts) if tracer is not None else None,
    }


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(rounds: list) -> dict:
    """Medians over rounds; the latency percentiles are over a round's
    distinct operations, each at its median."""
    op_s = [statistics.median(at_reference(rnd["records"][i], "t") for rnd in rounds)
            for i in range(len(rounds[0]["records"]))]
    return {
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "search_s": statistics.median(r["search_s"] for r in rounds),
        "valuations_per_s": statistics.median([r["valuations"] / r["search_s"]
                                               for r in rounds if r["search_s"] > 0] or [0.0]),
        "op_p50_ms": percentile(op_s, 50) * 1000.0,
        "op_p95_ms": percentile(op_s, 95) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def fail_ratios(records: list) -> dict:
    out = {"fail_ratio": sum(r["failed"] for r in records) / len(records)}
    for algorithm in ALGORITHMS:
        mine = [r for r in records if r["algorithm"] == algorithm]
        out[f"fail_ratio.{algorithm}"] = (sum(r["failed"] for r in mine) / len(mine)) if mine else 0.0
    return out


def layer_metrics(rounds: list, tracer, tracing) -> tuple:
    """Per-layer metrics and layer self times of the median traced round, in
    wall seconds as measured (the fake estimator's sleep does not scale with
    machine speed), and that round."""
    traced = sorted((r for r in rounds if r["traced"]), key=lambda r: r["run_s"])
    chosen = traced[(len(traced) - 1) // 2]
    summary = tracing.summarize(tracer.spans, *chosen["spans"])
    metrics = tracing.per_layer(summary, chosen["counts"])
    metrics.update({
        "cli.finish_s": chosen["wall"]["finish_s"],
        "cli.outputs": chosen["outputs"],
        "cli.output_bytes": chosen["output_bytes"],
        "oracle.violations": chosen["violations"],
        "trace.overhead_ratio": statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in rounds if not r["traced"]),
    })
    return metrics, tracing.layer_self(summary), chosen


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def print_trace_summary(layer: dict, layer_self: dict, wall: dict):
    """Where a traced round's time went, by layer and along search and set-up."""
    def part(seconds: float, whole: float) -> str:
        return f"{seconds:.4f} s ({100.0 * seconds / whole if whole else 0.0:.1f}%)"

    run_s, search_s, setup_s = wall["run_s"], wall["search_s"], wall["setup_s"]
    print(f"# layer self time in the median traced round, share of its wall run_s {run_s:.4f} s:")
    for name, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"#   {name:<11} {part(seconds, run_s)}")
    print(f"# search_s {search_s:.4f} s: op_gen {part(layer['operators.op_gen_s'], search_s)} "
          f"building {layer['operators.children']:.0f} children for "
          f"{layer['measures.valuations']:.0f} valuations; "
          f"estimate {part(layer['estimators.estimate_s'], search_s)} of which dataset "
          f"{layer['operators.dataset_s']:.4f} s; submit {part(layer['skyline.submit_s'], search_s)}; "
          f"can_prune {part(layer['search.can_prune_s'], search_s)} over "
          f"{layer['search.can_prune_calls']:.0f} calls, {layer['search.prunes']:.0f} pruned; "
          f"diversify {part(layer['search.diversify_s'], search_s)}; "
          f"search self {part(layer['search.self_s'], search_s)}")
    print(f"# setup_s {setup_s:.4f} s: config {part(layer['cli.config_s'], setup_s)}; "
          f"ingest {part(layer['tabular.ingest_s'], setup_s)}; "
          f"join {part(layer['tabular.join_s'], setup_s)}; "
          f"literals {part(layer['tabular.literals_s'], setup_s)} in "
          f"{layer['tabular.kmeans_calls']:.0f} k-means calls; "
          f"compress {part(layer['tabular.compress_s'], setup_s)}")
    if layer["estimators.wait_s"]:
        print(f"# subprocess estimator: {layer['estimators.estimate_calls']:.0f} calls; "
              f"child busy {part(layer['estimators.wait_s'], layer['estimators.estimate_s'])}, "
              f"ipc {part(layer['estimators.ipc_s'], layer['estimators.estimate_s'])}, "
              f"temp CSVs {part(layer['tabular.write_csv_s'], layer['estimators.estimate_s'])} "
              f"of estimate time")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still closes its estimators and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "skyforge", "__init__.py")):
        print(f"perfbench: no skyforge sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import skyforge
    if os.path.dirname(os.path.realpath(skyforge.__file__)) != os.path.realpath(
            os.path.join(SRC, "skyforge")):
        print(f"perfbench: imported skyforge from {skyforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing
    from skyforge import cli

    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(run_dir)
    os.environ["SKYFORGE_TMPDIR"] = os.path.join(run_dir, "tmp")
    try:
        generate = GENERATORS[args.workload]
        if args.workload == "subprocess-nobi":
            workload = generate(run_dir, args.seed,
                                [sys.executable, os.path.join(HERE, "fake_estimator.py")])
        else:
            workload = generate(run_dir, args.seed)
        probe = Probe(cli)
        tracer = tracing.Tracer() if args.trace else None
        origin = perf_counter()
        rounds = []
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            rounds.append(run_round(workload.ops, cli, checks, probe, tracer if traced else None))
            enough = perf_counter() - origin >= args.seconds
            if enough and (tracer is None or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = [r for rnd in rounds for r in rnd["records"]]
    digests = [[r["digest"] for r in rnd["records"]] for rnd in rounds]
    outcomes = [[(r["digest"], r["failed"]) for r in rnd["records"]] for rnd in rounds]
    stable = all(o == outcomes[0] for o in outcomes)
    correct = stable and not any(r["wrong"] for r in records)
    # Later rounds repeat the first round's operations on the same inputs and
    # must reproduce their output and outcome (else the run is not correct),
    # so each operation is attempted once, and the counts do not depend on
    # how many rounds fit in --seconds.
    attempted = len(rounds[0]["records"])
    failed = sum(r["failed"] for r in rounds[0]["records"])
    round_digest = hashlib.sha256("".join(d or "-" for d in digests[0]).encode()).hexdigest()
    ratios = fail_ratios(records)
    if tracer is None:
        metrics = end_to_end(rounds)
    else:
        metrics, layer_self, chosen = layer_metrics(rounds, tracer, tracing)
        metrics.update(ratios)

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "inputs": dict(workload.inputs, operations=len(workload.ops)),
        "rounds": [{"traced": r["traced"], "run_s": r["run_s"], "wall_run_s": r["wall"]["run_s"]}
                   for r in rounds],
        "attempted": attempted,
        "failed": failed,
        "executions": len(records),
        "failed_executions": sum(r["failed"] for r in records),
        "fail_ratio_by_algorithm": ratios,
        "manifest_sha256": round_digest,
        "manifest_sha256_by_op": dict(zip((op.label for op in workload.ops), digests[0])),
        "digests_stable_across_rounds": stable,
        "problems": sorted({p for r in records for p in r["problems"]}
                           | {r["error"] for r in records if r["error"]})[:20],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    if tracer is not None:
        record["counts"] = dict(sorted(chosen["counts"].items()))
        record["layer_self_s"] = layer_self
        tracer.write_spans(stem + ".spans.jsonl", origin)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# workload {workload.name}: {workload.why}")
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"# inputs {json.dumps(record['inputs'], sort_keys=True)} seed {args.seed}")
    print(f"# rounds {len(rounds)}, operations {attempted}, failed {failed}, "
          f"executions {len(records)}, "
          f"fail ratio by algorithm {json.dumps(ratios, sort_keys=True)}")
    print(f"# manifest sha256 (timing stripped) {round_digest}, "
          f"stable across rounds: {stable}")
    print(f"# wall time: median run_s {statistics.median(r['wall']['run_s'] for r in rounds):.4f} s "
          f"before scaling to the reference speed; speed factors "
          f"{min(r['speed'] for r in records):.3f} to {max(r['speed'] for r in records):.3f}")
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    if tracer is not None:
        print_trace_summary(metrics, layer_self, chosen["wall"])
    print(f"# record {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
