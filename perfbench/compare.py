#!/usr/bin/env python3
"""Compares two perfbench run records metric by metric.

    python3 perfbench/compare.py A.json B.json

A and B are records written by run.py to <build>/results/. Each metric is
printed with both values and B's change relative to A. A warning is printed
when the host fingerprints differ: the figures then come from different
machines or builds and do not compare. Comparing a traced record with an
untraced one of the same seed shows the tracing overhead end to end.
"""
import json
import sys

# Fingerprint fields that describe the host and build, not the code.
HOST_FIELDS = ("nproc", "cpu_model", "isa", "avx512_vpopcntdq", "compiler",
               "build_type", "tinyadc_native")


def metrics(record):
    return {m["name"]: m for m in record["end_to_end"] + record["per_layer"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        a = json.load(f)
    with open(sys.argv[2]) as f:
        b = json.load(f)
    fa, fb = a.get("fingerprint", {}), b.get("fingerprint", {})
    differ = [k for k in HOST_FIELDS if fa.get(k) != fb.get(k)]
    if differ:
        print("WARNING: host fingerprints differ (%s); these runs do not "
              "compare" % ", ".join(differ))
    if a["workload"] != b["workload"]:
        print("WARNING: different workloads: %s vs %s" %
              (a["workload"], b["workload"]))
    same_code = all(fa.get(k) == fb.get(k) for k in ("git_sha", "src_digest"))
    print("code: %s; trace %d vs %d; seeds %d vs %d" %
          ("same" if same_code else "different", a["trace"], b["trace"],
           a["seed"], b["seed"]))
    ma, mb = metrics(a), metrics(b)
    for name in [n for n in ma if n in mb]:
        va, vb = ma[name]["value"], mb[name]["value"]
        rel = "%+8.2f %%" % (100.0 * (vb - va) / va) if va else "       -"
        print("%-28s %16.6g %16.6g %s %s" % (name, va, vb, rel,
                                             ma[name]["unit"]))
    for name in sorted(set(ma) ^ set(mb)):
        print("%-28s only in %s" % (name, "A" if name in ma else "B"))


if __name__ == "__main__":
    main()
