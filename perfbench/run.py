"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload campaign-silo --seed 0 \\
        --seconds 12 --trace 0

It sets up the workload several times in child processes (``setup_s``),
sets up and warms up once more itself, then runs whole rounds of the
workload until ``--seconds`` have passed and enough operations were
seen for every reported percentile.  Every round must reproduce the
first round's deterministic outputs.  With ``--trace 1`` it then runs
the traced passes and reports per-layer metrics instead (README.md).

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout; the daemon's forkserver puts a
#: socket below it, so the path must stay short.
TMP_ROOT = os.path.join(ROOT, ".pbtmp")
#: AF_UNIX path limit minus what multiprocessing appends to TMPDIR.
MAX_TMPDIR_LEN = 107 - len("/pymp-xxxxxxxx/listener-xxxxxxxx")

#: Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 3
#: Measuring stops here even if too few operations were seen.
MAX_MEASURE_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and warm up, then exit (one set-up "
                             "sample)")
    return parser.parse_args(argv)


def digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def time_setup(args) -> float:
    """Wall time of one set-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=150)
    return time.perf_counter() - t0


def measure(workload, seconds: float, min_ops: int):
    """Whole rounds until ``seconds`` passed and ``min_ops`` were timed."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(workload.run_round())
        spent = time.perf_counter() - t0
        seen = sum(len(r.latencies) for r in rounds)
        if (spent >= seconds and seen >= min_ops) or spent > MAX_MEASURE_S:
            return rounds


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it (transitively) reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(rounds, setup_times):
    from metrics import percentile

    latencies = [x for r in rounds for x in r.latencies]
    return {
        # Median rounds, so a burst of load from elsewhere on the host
        # that spans a minority of the rounds does not move them.
        "ops_per_s": statistics.median(r.ops / r.wall_s for r in rounds),
        "op_latency_p50_s": percentile(latencies, 50),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_times),
    }


def run(args, tmp: str) -> int:
    from metrics import (END_TO_END, PER_LAYER, metrics_block,
                         samples_needed, summary_line)
    from workloads import WORKLOADS

    setup_times = [time_setup(args) for _ in range(SETUP_SAMPLES)]
    workload = WORKLOADS[args.workload](args.seed, tmp)
    try:
        workload.setup()
        workload.warmup()
        rounds = measure(workload, args.seconds, samples_needed(90))
        if args.trace:
            from layers import traced_metrics

            layer_values, extra_rounds, notes = traced_metrics(
                workload, rounds)
    finally:
        workload.close()

    all_rounds = rounds + (extra_rounds if args.trace else [])
    digests = [digest_of(r.digest) for r in all_rounds]
    problems = [p for r in all_rounds for p in r.problems]
    if len(set(digests)) > 1:
        problems.append(f"rounds disagree on outputs: {digests}")
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)

    latencies = [x for r in rounds for x in r.latencies]
    print(f"workload {args.workload} seed={args.seed}: {len(rounds)} "
          f"timed rounds, {sum(r.ops for r in rounds)} {workload.unit}s in "
          f"{sum(r.wall_s for r in rounds):.3f} s")
    print("round walls (s): " + " ".join(f"{r.wall_s:.3f}" for r in rounds))
    print(f"{workload.unit} latency: {summary_line(latencies)}")
    print("setup samples: " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"digest {digests[0]}")
    print(f"failed_frac {failed / max(attempted, 1):.6f} "
          f"({failed}/{attempted})")
    for problem in problems:
        print(f"problem: {problem}")
    if args.trace:
        for line in notes:
            print(line)
        block = metrics_block(layer_values, PER_LAYER)
    else:
        block = metrics_block(end_to_end(rounds, setup_times), END_TO_END)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": block}))
    return 0


def make_tmp() -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="", dir=TMP_ROOT)
    if len(tmp) <= MAX_TMPDIR_LEN:
        # Everything the run and its children write goes below the
        # checkout, including the temporary directories of repro itself.
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = tmp
    else:
        print(f"note: checkout path too long for sockets under {tmp}; "
              f"using the system temporary directory", file=sys.stderr)
    return tmp


def remove_tmp(tmp: str) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)
    except OSError:
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    tmp = make_tmp()
    # Registered before multiprocessing is imported, so it runs after
    # multiprocessing's own exit handlers have removed their files.
    atexit.register(remove_tmp, tmp)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    if args.setup_only:
        workload: Workload = WORKLOADS[args.workload](args.seed, tmp)
        try:
            workload.setup()
            workload.warmup()
        finally:
            workload.close()
        return 0
    return run(args, tmp)


if __name__ == "__main__":
    sys.exit(main())
