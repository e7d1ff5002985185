"""The process that runs slopechar for the benchmark.

Usage: python3 perfbench/worker.py <checkout root>   (spawned by run.py)

It reads one JSON job from stdin: {"warmup": [op], "ops": [op], "seconds": s,
"trace": bool}, where an op is {"id", "kind", "spec", "args"}.  It imports
slopechar from <root>/src, runs the warm-up operations, prints {"ready": true,
"kernel_s": [...], "probe_s": s} and then runs the timed operations one at a
time, in whole rounds, on this single thread.  Each operation writes its spec
text to a file, calls the `slopechar` command-line entry point exactly as a
user would, and reads the JSON document back.  The last line of stdout is the
result: per-operation times, the first round's documents, failures, the
process's peak resident memory and, when tracing, the per-operation span
statistics.

Right before each timed operation, and once after the last, the worker times
the speed kernel of calib.py; `kernel_s` lists these times, one more than
operations.  A calib.Probe also times it every calib.INTERVAL_S seconds during
the set-up and, without tracing, during each operation; those samples go
with the ready line and with each operation's time, from which the time
they took is taken off.

Without tracing, rounds repeat while another round of the mean length still
fits in `seconds`; at least one runs.  With tracing, a traced round runs
between two untraced rounds of the same operations; the traced wall time
minus the mean untraced one is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import calib


def run_op(main, op, workdir, probe=None):
    """(seconds, document text or None, error or None) of one operation.  With
    a calib.Probe, the speed samples it takes meanwhile are not timed."""
    spec_path = os.path.join(workdir, "op.slope")
    out_path = os.path.join(workdir, "op.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = [op["kind"], spec_path, *op["args"], "--json", out_path]
    t0 = time.perf_counter()
    try:
        with probe or contextlib.nullcontext():
            with open(spec_path, "w") as fh:
                fh.write(op["spec"])
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            with open(out_path) as fh:
                text = fh.read()
    except Exception:  # an operation that raises is counted as failed
        return (time.perf_counter() - t0 - (probe.spent if probe else 0.0), None,
                traceback.format_exc(limit=3))
    dt = time.perf_counter() - t0 - (probe.spent if probe else 0.0)
    if code:
        return dt, None, f"exit code {code}"
    return dt, text, None


def run_round(main, ops, workdir, docs, failures, times, kernel, probe=None,
              tracer=None, stats=None):
    for op in ops:
        kernel.append(calib.kernel_s())
        dt, text, err = run_op(main, op, workdir, probe)
        if tracer is not None:
            stats.append({"id": op["id"], "wall_s": dt, **tracer.take()})
        times.append([op["id"], dt, err is None, probe.samples if probe else []])
        if err is not None:
            failures.append({"id": op["id"], "error": err})
            continue
        doc = json.loads(text)
        doc.pop("timings", None)  # verdict documents carry wall-clock timings
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        if op["id"] not in docs:
            docs[op["id"]] = (digest, text)
        elif docs[op["id"]][0] != digest:
            failures.append({"id": op["id"], "error": "document differs between rounds",
                             "mismatch": True})


def main():
    root = os.path.abspath(sys.argv[1])
    job = json.loads(sys.stdin.readline())
    workdir = os.path.join(root, "perfbench", "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with calib.Probe() as setup:
            sys.path.insert(0, os.path.join(root, "src"))
            from slopechar import cli

            for op in job["warmup"]:
                _, _, err = run_op(cli.main, op, workdir)
                if err is not None:
                    raise SystemExit(f"warm-up operation {op['id']} failed: {err}")
        print(json.dumps({"ready": True, "kernel_s": setup.samples,
                          "probe_s": setup.spent}), flush=True)

        docs, failures, times, kernel, rounds = {}, [], [], [], 0
        result = {}
        if job["trace"]:
            import spans

            def untraced_round():
                t0 = time.perf_counter()
                run_round(cli.main, job["ops"], workdir, docs, failures, times, kernel)
                return time.perf_counter() - t0

            untraced = [untraced_round()]
            tracer = spans.Tracer()
            tracer.install()
            stats = []
            t0 = time.perf_counter()
            try:
                run_round(cli.main, job["ops"], workdir, docs, failures, times, kernel,
                          tracer=tracer, stats=stats)
            finally:
                tracer.uninstall()
            traced = time.perf_counter() - t0
            untraced.append(untraced_round())
            rounds = 3
            timed = sum(untraced)
            result["trace"] = {"untraced_s": sum(untraced) / 2, "traced_s": traced,
                               "ops": stats}
        else:
            probe = calib.Probe()
            t0 = time.perf_counter()
            while True:
                run_round(cli.main, job["ops"], workdir, docs, failures, times, kernel,
                          probe)
                rounds += 1
                timed = time.perf_counter() - t0
                if timed + timed / rounds > job["seconds"]:
                    break
        kernel.append(calib.kernel_s())
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update({"rounds": rounds, "timed_s": timed, "times": times, "kernel_s": kernel,
                   "docs": {k: v[1] for k, v in docs.items()},
                   "failures": failures, "peak_rss_mb": peak_kb / 1024})
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
