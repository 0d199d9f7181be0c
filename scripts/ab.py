"""Paired A/B benchmark of HEAD against a parent commit.

    python scripts/ab.py --parent REV --workload mult --pairs 10 --out BENCH.json

Both commits' committed trees are written with `git archive` into one
temporary directory, so uncommitted edits take no part and nothing is
fetched; to measure another commit, check it out first.  For each pair,
each side runs `bench/run.py --workload W --seconds S --trace 0` from its
own tree, S being BENCHMARK.json's run_seconds unless --seconds is given;
the side that runs first alternates from pair to pair, so a drift in host
speed falls on both sides alike.  --workload may be
given more than once; every pair of every workload runs before the next
workload starts.

The output file holds the host facts (CPU count, Python version, both
commits), and per workload and end-to-end metric of BENCHMARK.json: each
side's values in run order, their medians, the parent's quartiles, and
the number of pairs in which the change reads better than the parent.
Every run's `correct` flag is kept; the script exits 1 if any run is not
correct or fails to finish.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "mult", "queries")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def build_tree(commit, dest):
    """Write the committed files of commit into dest."""
    archive = dest.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(archive), commit)
    dest.mkdir()
    with tarfile.open(archive) as tar:
        # the "data" filter refuses absolute paths and links out of dest
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **kwargs)
    archive.unlink()


def run_bench(tree, workload, seconds):
    """The last stdout line of bench/run.py in tree, as JSON."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError("bench/run.py --workload %s in %s exited %d:\n%s"
                           % (workload, tree, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(parent_runs, change_runs, metrics):
    """Per metric: values, medians, the parent's quartiles and the wins of
    the change, a win being a pair in which the change reads better."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        a = [r["metrics"][name]["value"] for r in parent_runs]
        b = [r["metrics"][name]["value"] for r in change_runs]
        q1, _, q3 = statistics.quantiles(a, n=4)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": a,
            "change": b,
            "parent_median": statistics.median(a),
            "change_median": statistics.median(b),
            "parent_quartiles": [q1, q3],
            "wins": sum(1 for x, y in zip(a, b) if (y > x if higher else y < x)),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="may repeat; default all three")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    workloads = args.workload or list(WORKLOADS)
    report = {
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "commits": commits,
        "protocol": {"pairs": args.pairs, "seconds": args.seconds, "trace": 0,
                     "first": "alternates, the parent first in pair 0"},
        "workloads": {},
    }
    ok = True
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees = {}
        for side, commit in commits.items():
            trees[side] = tmp / side
            build_tree(commit, trees[side])
        metrics = BENCHMARK["end_to_end"]
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_bench(trees[side], workload, args.seconds))
                print("%s pair %d: parent %.1f, change %.1f ops/s" % (
                    workload, k, runs["parent"][-1]["metrics"]["ops_per_s"]["value"],
                    runs["change"][-1]["metrics"]["ops_per_s"]["value"]), file=sys.stderr)
            correct = all(r["correct"] for side in runs.values() for r in side)
            ok = ok and correct
            report["workloads"][workload] = {
                "correct": correct,
                "metrics": summarize(runs["parent"], runs["change"], metrics),
            }
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        ok = False
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
