"""The slopechar benchmark: one workload at one seed.

    python3 perfbench/run.py --workload verdict|digitize|atlas [--seed N] \
        [--seconds S] [--trace 0|1]          (defaults: seed 0, 30 s, no trace)

Run from the root of a checkout.  The command generates the workload's
operations from the seed (gen.py), runs them in a separate single-threaded
worker process that imports slopechar from ./src (worker.py), checks every
document against the benchmark's own computations (check.py) and prints one
line per metric, then the result as one JSON object on the last line.

With --trace 0 the metrics are the end-to-end ones, with times in reference
seconds (wall time scaled by the speed kernel of calib.py):
  setup_s      worker start, import of slopechar and one warm-up operation of
               each kind and (n, d) shape, until the worker reports ready
  ops_per_s    operations completed over the sum of their times
  op_p50_s     median time of one operation, spec text to JSON document
  peak_rss_mb  peak resident memory of the worker (the checker's libraries
               live in this process and are not counted)
With --trace 1 the worker runs a traced round between two untraced ones, and
the metrics are the per-layer ones of spans.py plus the tracing overhead.
Results and traces are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402


def run_worker(job):
    """Start the worker, time its set-up, and return (setup_s, kernel_s, result):
    the set-up's wall time without the speed samples taken during it, and the
    speed kernel's times right before it and during it."""
    calib.kernel_s()  # the first run of the kernel in a process is slower
    kernel_s = [calib.kernel_s()]
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), ROOT],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        code = proc.wait()
    if code != 0 or not ready.strip() or not rest.strip():
        raise SystemExit(f"worker failed with exit code {code}")
    ready = json.loads(ready)
    return (setup_s - ready["probe_s"], kernel_s + ready["kernel_s"],
            json.loads(rest.strip().splitlines()[-1]))


def check_all(workload, ops, docs, seed):
    """(problems, info lines) from the independent checkers."""
    import check

    problems, info = [], []
    by_id = {op["id"]: op for op in ops}
    rng = random.Random(f"check:{workload}:{seed}")
    validators = {}
    parsed = {k: json.loads(v) for k, v in docs.items()}
    for oid, doc in parsed.items():
        op = by_id[oid]
        kind = op["kind"]
        if kind not in validators:
            validators[kind] = check.validator(ROOT, kind)
        extra = {}
        try:
            if kind == "verdict":
                found = check.verdict_problems(op["meta"], doc, validators[kind])
                extra = {"status": doc["status"]}
                if doc["status"] == "NotCharacterized" and not (
                        doc.get("witness") or {}).get("comparison_point"):
                    extra["comparison_point"] = "missing"
            elif kind == "digitize":
                found, extra = check.digitize_problems(op["meta"], doc, validators[kind])
            else:
                found, extra = check.atlas_problems(op["meta"], doc, validators[kind], rng)
        except Exception as exc:  # a malformed document must not stop the report
            found = [f"checker raised {exc!r}"]
        problems += [f"{oid}: {p}" for p in found]
        info.append(f"{oid}: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float)
                                           else f"{k}={v}" for k, v in extra.items()))
    if workload == "verdict":
        problems += check.twin_problems(ops, parsed)
    return problems, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ops = gen.make_ops(args.workload, args.seed, ROOT)
    warmup = gen.warmup_ops(args.workload, ROOT)
    strip = ("id", "kind", "spec", "args")
    job = {"warmup": [{k: op[k] for k in strip} for op in warmup],
           "ops": [{k: op[k] for k in strip} for op in ops],
           "seconds": args.seconds, "trace": bool(args.trace)}
    setup_s, setup_kernel_s, res = run_worker(job)

    problems, info = check_all(args.workload, ops, res["docs"], args.seed)
    problems += [f"{f['id']}: {f['error']}" for f in res["failures"] if f.get("mismatch")]
    attempted = len(res["times"])
    failed = sum(1 for _, _, ok, _ in res["times"] if not ok)
    # each time in reference seconds, from the mean of the speed kernel's
    # times right before, during and right after it (calib.py)
    kernel = res["kernel_s"]
    ceiling = 2 * statistics.median(kernel + [x for *_, during in res["times"]
                                              for x in during])

    def speed(samples):
        # a sample over twice the run's median was preempted: a pause that
        # fills a 20 ms sample costs a long operation next to nothing
        return statistics.fmean([x for x in samples if x <= ceiling] or samples)

    done = [calib.to_reference(dt, speed([before, *during, after]))
            for (_, dt, ok, during), before, after
            in zip(res["times"], kernel, kernel[1:]) if ok]
    wall = [dt for _, dt, ok, _ in res["times"] if ok]

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per round, "
          f"{res['rounds']} rounds, {res['timed_s']:.2f} s timed")
    for line in info:
        print("  check " + line)
    for p in problems:
        print("  PROBLEM " + p)
    for f in res["failures"]:
        if not f.get("mismatch"):
            print(f"  FAILED {f['id']}: {f['error'].strip().splitlines()[-1]}")

    if args.trace:
        import spans

        tr = res["trace"]
        metrics = spans.layer_metrics(spans.merge(tr["ops"]))
        metrics["trace.overhead_s"] = (tr["traced_s"] - tr["untraced_s"], "s")
        trace_doc = {"workload": args.workload, "seed": args.seed,
                     "untraced_s": tr["untraced_s"], "traced_s": tr["traced_s"],
                     "ops": tr["ops"]}
    else:
        metrics = {
            "setup_s": (calib.to_reference(setup_s, speed(setup_kernel_s + kernel[:1])),
                        "s"),
            "ops_per_s": (len(done) / sum(done) if done else 0.0, "1/s"),
            "op_p50_s": (statistics.median(done) if done else float("nan"), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        # for reading, not part of the result: wall-clock figures and the speed
        print(f"  speed kernel {1000 * statistics.median(kernel):.2f} ms (median; "
              f"reference {1000 * calib.REFERENCE_S:g} ms); wall clock: setup "
              f"{setup_s:.4g} s, {len(wall) / sum(wall) if wall else 0:.4g} ops/s, "
              f"op p50 {statistics.median(wall) if wall else float('nan'):.4g} s")
        if args.workload == "digitize":
            faces = sum(len(json.loads(res["docs"][op["id"]])["faces"])
                        for op in ops if op["id"] in res["docs"])
            # the same faces every round, so this is ops_per_s times a constant
            print(f"  faces_per_s = {faces * res['rounds'] / sum(done):.6g} faces/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out, f"result-{stem}.json"), "w") as fh:
        json.dump(dict(result, problems=problems, rounds=res["rounds"],
                       times=res["times"], kernel_s=kernel), fh, indent=1)
    if args.trace:
        with open(os.path.join(out, f"trace-{stem}.json"), "w") as fh:
            json.dump(trace_doc, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
