#!/usr/bin/env python3
"""Build and run the repository's benchmark, or compare two sets of results.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload serving-params --seed 1 --seconds 10 --trace 0

builds perfbench/main.exe with dune from this checkout's sources and runs it
with the given arguments. Its last line of standard output is the JSON
result; the full result is also saved under perfbench/results/ (or --out).

Run every workload once:

    python3 perfbench/run.py all --seed 1 --seconds 10 --trace 0

Compare two directories of saved results (for instance a parent commit's
and a change's), per workload and end-to-end metric:

    python3 perfbench/run.py compare BASE_DIR NEW_DIR
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # The benchmark builds the program from this checkout's sources; without
    # them there is nothing to measure.
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found under %s: run from a full checkout" % (needed, ROOT))
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # dune's own output goes to stderr: stdout ends with the JSON result.
    proc = subprocess.run(
        cmd + ["build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if proc.returncode != 0:
        fail("build failed")


def run(args):
    build()
    return subprocess.run([EXE] + args, cwd=ROOT).returncode


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load(directory):
    """Saved untraced results of a directory, as {workload: [result, ...]}."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".trace0.json"):
            with open(os.path.join(directory, name)) as f:
                r = json.load(f)
            out.setdefault(r["workload"], []).append(r)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# Result metadata that must agree before two sets of results are compared.
SAME = ("persons", "graph_seed", "seconds", "workers")


def check_comparable(base, new):
    for w in set(base) & set(new):
        seen = {tuple(r.get(k) for k in SAME) for r in base[w] + new[w]}
        if len(seen) > 1:
            fail("%s: results differ in %s: %s" % (w, "/".join(SAME), sorted(seen, key=str)))


def compare(base_dir, new_dir):
    spec = workloads()
    base, new = load(base_dir), load(new_dir)
    check_comparable(base, new)
    print("%-18s %-20s %12s %12s %8s %8s  %s" % (
        "workload", "metric", "base median", "new median", "change", "spread", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        if w not in base or w not in new:
            print("%-18s (missing in %s)" % (w, base_dir if w not in base else new_dir))
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["end_to_end"][name]["value"] for r in base[w]]
            b = [r["end_to_end"][name]["value"] for r in new[w]]
            ma, mb = statistics.median(a), statistics.median(b)
            qa, qb = quartiles(a), quartiles(b)
            spread = max((qa[1] - qa[0]) / ma, (qb[1] - qb[0]) / mb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (mb - ma) / ma
            if spread > bound:
                disjoint_better = (max(b) < min(a)) if sign > 0 else (min(b) > max(a))
                verdict = "better" if disjoint_better else "unresolved"
            elif worse_by > bound:
                verdict = "worse beyond the bound (%.0f%%)" % (100 * bound)
            elif -worse_by > spread:
                verdict = "better"
            else:
                verdict = "no change"
            print("%-18s %-20s %12.4g %12.4g %+7.1f%% %7.1f%%  %s  [base q1..q3 %.4g..%.4g, new %.4g..%.4g]" % (
                w, name, ma, mb, 100 * (mb - ma) / ma, 100 * spread, verdict,
                qa[0], qa[1], qb[0], qb[1]))


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare BASE_DIR NEW_DIR")
        compare(argv[1], argv[2])
        return 0
    if argv[:1] == ["all"]:
        build()
        status = 0
        for w in workloads()["workloads"]:
            status |= subprocess.run([EXE, "--workload", w["name"]] + argv[1:], cwd=ROOT).returncode
        return status
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
