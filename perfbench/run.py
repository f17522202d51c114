#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload (run from the repository root):

    python3 perfbench/run.py --workload tim300_made_auto --seed 1 \
        --seconds 20 --trace 0

prints each metric by name and unit, then, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1.

All workloads, untraced and traced, with a ledger file carrying provenance:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

The decorator bit-identity tests:

    python3 perfbench/run.py --test

The benchmark builds itself (CMake, Release) under $CARGO_TARGET_DIR or
.bench_build, and writes only there.  Exit status: 0 when the run completed
and every correctness check passed, 1 when a check failed (the result line
then reads "correct": false), 2 when nothing could be measured (no sources,
build failure, bad arguments, crashed run).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
# Both parts of one workload run together finish within this many seconds.
RUN_TIMEOUT_S = 170

# Kernel (OpenMP) threads per workload.  Every workload stays within the
# machine's cores: the single-process trainers use the program default of
# one thread per core (at most 4); the 4-rank and serving workloads run one
# kernel thread per rank or worker.
NPROC = os.cpu_count() or 1
KERNEL_THREADS = {
    "tim300_made_auto": min(4, NPROC),
    "maxcut300_dist4": 1,
    "tim100_rbm_mcmc": min(4, NPROC),
    "serve1000_mixed": 1,
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own; on timeout the whole
    group (a build's compilers too) is killed and waited for, and None is
    returned."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(tests=False):
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to the benchmark (src/ is missing)")
    out = build_dir() + ("-tests" if tests else "")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    configure = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                 "-DPERFBENCH_TESTS=" + ("ON" if tests else "OFF")]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(configure)
    steps.append([cmake, "--build", out, "-j", str(min(4, NPROC)), "--target",
                  "perfbench_tests" if tests else "perfbench"])
    for cmd in steps:
        done = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                         stderr=sys.stderr)
        if done is None:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def git_provenance():
    try:
        # Never let git look above the checkout for a repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                env=env, capture_output=True, text=True,
                                timeout=10)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                env=env, capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": "unknown", "dirty": "unknown"}
    if commit.returncode != 0:
        return {"commit": "unknown (not a git checkout)", "dirty": "unknown"}
    return {"commit": commit.stdout.strip(),
            "dirty": "yes" if status.stdout.strip() else "no"}


def unique_keys(pairs):
    """json object hook: a name reported twice is an error, not a merge."""
    names = [k for k, _ in pairs]
    for name in names:
        if names.count(name) > 1:
            fail("the benchmark program reported %s twice" % name)
    return dict(pairs)


def run_part(out, workload, seed, seconds, trace, part, deadline):
    """Run one part of a workload, to end by `deadline` (time.monotonic());
    returns the binary's report and exit code."""
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(KERNEL_THREADS[workload])
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--part", part,
           "--socket-dir", os.path.relpath(out)]
    done = run_group(cmd, max(1.0, deadline - time.monotonic()),
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                     text=True, env=env)
    if done is None:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("%s stopped with exit code %d" % (workload, done.returncode))
    return json.loads(lines[-1], object_pairs_hook=unique_keys), done.returncode


def run_binary(out, workload, seed, seconds, trace):
    """Both parts of one workload run, merged into one report."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup, setup_code = run_part(out, workload, seed, seconds, trace, "setup",
                                 deadline)
    report, code = run_part(out, workload, seed, seconds, trace, "run",
                            deadline)
    report["metrics"].update(setup["metrics"])
    report["checks_passed"] = setup["checks_passed"] + report["checks_passed"]
    report["checks_failed"] = setup["checks_failed"] + report["checks_failed"]
    report["notes"].update(setup["notes"])
    report["correct"] = not report["checks_failed"]
    report["kernel_threads"] = KERNEL_THREADS[workload]
    return report, max(setup_code, code)


def select_metrics(spec, report, trace):
    """The BENCHMARK.json metrics of this mode, checked against the run.

    Every metric must be reported; a layer a workload never reaches reports
    an explicit 0.
    """
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    got = report["metrics"]
    for name, m in got.items():
        if known.get(name) != m["unit"]:
            fail("%s reported %s in %s, which BENCHMARK.json does not list" %
                 (report["workload"], name, m["unit"]))
    metrics = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        name = m["name"]
        if name not in got:
            fail("%s did not report %s" % (report["workload"], name))
        value = got[name]["value"]
        if value is None:
            fail("%s reported a non-finite %s" % (report["workload"], name))
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def print_report(report, metrics):
    print("== %s seed %s trace %s (kernel threads %s)" %
          (report["workload"], report["seed"], report["trace"],
           report["kernel_threads"]))
    for name, m in metrics.items():
        print("  %-42s %14.6g %s" % (name, m["value"], m["unit"]))
    for check in report["checks_passed"]:
        print("  check ok:     " + check)
    for check in report["checks_failed"]:
        print("  check FAILED: " + check)
    for key, value in report["notes"].items():
        print("  note %s = %s" % (key, value))


def write_result(out, report, name):
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, name)
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]

    if args.test:
        out = build(tests=True)
        done = subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"])
        sys.exit(0 if done.returncode == 0 else 1)

    if args.all:
        out = build()
        ledger = {"provenance": git_provenance(), "seed": args.seed,
                  "seconds": seconds, "runs": []}
        ok = True
        for workload in names:
            for trace in (0, 1):
                report, code = run_binary(out, workload, args.seed, seconds,
                                          trace)
                metrics = select_metrics(spec, report, trace)
                print_report(report, metrics)
                report["selected_metrics"] = metrics
                ledger["runs"].append(report)
                ok = ok and code == 0 and report["correct"]
        ledger["provenance"].update(ledger["runs"][0]["provenance"])
        path = write_result(out, ledger, "ledger-seed%d.json" % args.seed)
        print("ledger written to " + path)
        sys.exit(0 if ok else 1)

    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    out = build()
    report, code = run_binary(out, args.workload, args.seed, seconds,
                              args.trace)
    metrics = select_metrics(spec, report, args.trace)
    print_report(report, metrics)
    report["provenance"].update(git_provenance())
    write_result(out, report, "%s-seed%d-trace%d.json" %
                 (args.workload, args.seed, args.trace))
    print(json.dumps({"correct": bool(report["correct"]) and code == 0,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if code == 0 and report["correct"] else 1)


if __name__ == "__main__":
    main()
