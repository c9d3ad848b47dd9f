#!/usr/bin/env python3
"""Repository benchmark: build the library and the benchmark from source,
run one workload, and pass its report through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: globe_paper, cluster_load, faults_trace, tcp_loopback (see
perfbench/README.md). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The traced pass also
writes its spans to <build dir>/spans/<workload>-<seed>.jsonl; summarize
them with perfbench/trace_summary.py.

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set,
else to .bench_build/perfbench, relative to the repository root. The first
run in a fresh checkout compiles everything; later runs rebuild what
changed, and run the self-tests whenever the build relinked them.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("globe_paper", "cluster_load", "faults_trace", "tcp_loopback")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log, timeout):
    """Run a build step with its output appended to `log`; True on success."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode == 0
        except (OSError, subprocess.TimeoutExpired) as e:
            out.write("%s\n" % e)
            return False


def build(bdir):
    """Configure and build; on failure print the log's tail and return False."""
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    selftest = os.path.join(bdir, "perfbench_selftest")
    before = mtime(selftest)
    for cmd in steps:
        if not run_logged(cmd, log, 840):
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            sys.stderr.write("perfbench: build failed (log: %s)\n" % log)
            return False
    if mtime(selftest) != before:
        # The layer-replay self-tests run whenever the build relinked them,
        # so a change under src/ is checked before it is measured. A failure
        # removes the binary, which makes the next run test again.
        if not run_logged([selftest, ROOT], log, 120):
            sys.stderr.write("perfbench: self-tests failed (log: %s)\n" % log)
            os.remove(selftest)
            return False
    return True


def mtime(path):
    """The file's modification time, or None when it does not exist."""
    try:
        return os.stat(path).st_mtime_ns
    except OSError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--root", ROOT]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
