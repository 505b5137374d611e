#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_8px --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
harness (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
reuse the build. Each run writes its full record (every metric, every
phase's sent/ok/failed counts, the correctness gates and the host
fingerprint) to <build>/results/, prints a readable table, and prints as
its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
The exit code is 0 on success and non-zero on a build failure, a failed
correctness gate, or a missing metric. perfbench/compare.py compares two
records.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175.0  # the whole run, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at src/ next to perfbench/")
        sys.exit(2)
    bdir = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return bdir


def cpu_flags():
    try:
        with open("/proc/cpuinfo") as f:
            info = f.read()
    except OSError:
        return "unknown", []
    model, flags = "unknown", []
    for line in info.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and model == "unknown":
            model = value.strip()
        if key.strip() == "flags" and not flags:
            flags = value.split()
    return model, flags


def source_digest():
    """sha256 over the library sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                             recursive=True)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    if r.returncode != 0:
        return None
    return r.stdout.strip() or None


def fingerprint(result):
    model, flags = cpu_flags()
    isa = [f for f in flags if f.startswith(("avx", "sse4", "fma", "bmi"))]
    build_info = result.get("build", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "isa": sorted(isa),
        "avx512_vpopcntdq": "avx512_vpopcntdq" in flags,
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "tinyadc_native": build_info.get("tinyadc_native"),
        "git_sha": git_sha(),
        "src_digest": source_digest(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def selftest():
    bdir = build("perfbench_tests")
    sys.exit(subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness's own unit tests")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        ap.error("--workload is required")
    wanted = expected_metrics(args.trace)

    bdir = build("perfbench")
    t0 = time.monotonic()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(bdir, "runs", "%s-%d" % (tag, os.getpid()))
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "result.json")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", out, "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %.0f s" % RUN_LIMIT_S)
        sys.exit(3)
    if code not in (0, 1) or not os.path.isfile(out):
        log("perfbench: harness exited with %d and no result" % code)
        sys.exit(code or 4)
    with open(out) as f:
        result = json.load(f)
    result["fingerprint"] = fingerprint(result)
    result["wall_s"] = time.monotonic() - t0

    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    for trace_file in glob.glob(os.path.join(work, "trace-*.json")):
        shutil.move(trace_file, os.path.join(results, os.path.basename(trace_file)))
    shutil.rmtree(work, ignore_errors=True)

    listed = result["per_layer" if args.trace else "end_to_end"]
    have = {m["name"]: m for m in listed}
    missing = [m["name"] for m in wanted if m["name"] not in have]
    if missing:
        log("perfbench: the harness did not report " + ", ".join(missing))
        sys.exit(4)

    print("fingerprint: " + json.dumps(result["fingerprint"], sort_keys=True))
    # The share of CPU time the hypervisor gave to other guests during the
    # harness run: a noisy-neighbour indicator for reading the spread.
    print("host steal during the run: %.2f %%" % result["steal_pct"])
    for r in result["rungs"]:
        print("rung  %-12s offered %6.0f  kept %2d (>= %4d a block)  "
              "%8.1f req/s  p99 %7.3f ms  keep-up %.3f  load %.2f  %s" %
              (r["name"], r["offered"], r["kept"], r["samples"],
               r["achieved_qps"], r["p99_ms"], r["keep_up"], r["load"],
               "pass" if r["pass"] else "fail"))
    for p in result["phases"]:
        print("phase %-12s rate %6.0f  sent %6d ok %6d failed %3d  "
              "%8.1f req/s  p50 %7.3f ms  p%g %7.3f ms  late p99 %.3f ms" %
              (p["name"], p["rate"], p["sent"], p["ok"], p["failed"],
               p["achieved_qps"], p["p50_ms"], p["tail_pct"], p["tail_ms"],
               p["late_p99_ms"]))
    for m in result["end_to_end"] + result["per_layer"]:
        print("%-28s %16.6f %s" % (m["name"], m["value"], m["unit"]))
    if result["gate_failures"]:
        print("FAILED GATES: " + ", ".join(result["gate_failures"]))
    metrics = {m["name"]: {"value": have[m["name"]]["value"],
                           "unit": have[m["name"]]["unit"]} for m in wanted}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
