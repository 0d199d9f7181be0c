"""The benchmark: one seeded workload, end to end or traced by layer.

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  sweep    every owner with l <= 10: interval against oracle_interval, q_table
           against q_brute, the heredity scan, maximal_nrs and lookup_holds
  mult     every owner with l <= 8: multiplicity tables against the
           smoothness target, both spiral factorisation tables, smooth_points,
           and the Setup Move identities for l <= 6
  queries  a seeded stream of single-owner questions on owners with
           8 <= l <= 14, half through cli.run and half through the library
           function behind the command
The sizes are in inputs.SIZES.

The inputs are word strings built from the seed before any timing.  Each
pass runs every op once, closed loop, in a fresh interpreter, so every pass
starts with cold caches.  Passes run back to back for --seconds, and each
op's latency is its least over them (op_latencies).  Set-up time is the
median over every fresh interpreter a run starts: each pass's own, a set-up
probe before each pass, and more probes until --seconds is used up.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes that put a span around every call into a layer, and
reports per-layer counts and self times, the tracing overhead, and the
cold per-call times for w16 listed in ROADMAP.md.  The last traced pass's
spans are written to bench/out/<workload>.spans.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it are for people: the metrics with units, input and
output digests, the host-speed probe, and a reproducer for every failure.
--smoke shrinks every workload to a few seconds, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from worker import CLI_COMMANDS, LAYER_FUNCTIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MANIFEST = json.loads((HERE / "manifest.json").read_text())

HARD_LIMIT_S = 165  # a run must end within 180 s
# ROADMAP.md's cold timings for w16, in ms, in the order of its table.
ROADMAP_W16_MS = (1.4, 1.3, 81, 3.5, 43, 37)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
COUNTS = (
    ("bruhat.interval.members", "count"),
    ("kumar.table_entries", "count"),
    ("kumar.setup_accept_ratio", "1"),
    ("rational.str_bytes", "bytes"),
    ("trace.overhead_ratio", "1"),
)


def span_names():
    return list(LAYER_FUNCTIONS) + ["cli.run." + c for c in CLI_COMMANDS]


def per_layer_units():
    out = []
    for name in span_names():
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    return out + list(COUNTS)


class WorkerError(RuntimeError):
    pass


def now():
    # CLOCK_MONOTONIC is system-wide, so the worker's reading of it can be
    # compared with the moment this process started the worker.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(request, deadline):
    start = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(request).encode(),
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("worker passed the %d s limit" % HARD_LIMIT_S) from None
    if proc.returncode != 0:
        raise WorkerError("worker exited with code %d" % proc.returncode)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def host_probe():
    """Milliseconds for a fixed pure-Python loop; diagnostic only."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return (time.perf_counter() - start) * 1000


def op_latencies(passes):
    """Each op's least latency over the passes.

    A shared host's speed drifts by half again for seconds to minutes at a
    time, and a slow spell only ever adds time, so the least of an op's
    repeats is the steadiest estimate of its cost; the more of the run the
    repeats cover, the likelier one falls in a fast spell.  The number of
    passes follows the host's and the code's speed, but barely moves the
    least: one pass fewer raised it by 0.1-0.4% on average.
    """
    return [min(col) for col in zip(*(p["latencies"] for p in passes))]


def _betainc(a, b, x):
    """The regularised incomplete beta function I_x(a, b), by Lentz's
    continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) + math.lgamma(a + b)
                     - math.lgamma(a) - math.lgamma(b)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            return front * (f - 1.0)
    raise ArithmeticError("incomplete beta did not converge")


def quantile(values, p):
    """The Harrell-Davis estimate of the p-quantile: a weighted mean of all
    the order statistics, with weights that peak at the p-th.  The ops near
    a percentile differ in cost by steps, so a single order statistic jumps
    with which op lands there; the weighted mean moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def end_to_end(untraced, setup):
    lat = op_latencies(untraced)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": quantile(lat, 0.5) * 1000,
        "op_p90_ms": quantile(lat, 0.9) * 1000,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in untraced) / 1024,
    }


def per_layer(untraced, traced):
    first = traced[0]
    values = {}
    for name in span_names():
        values[name + ".calls"] = first["layers"].get(name, [0, 0.0])[0]
        values[name + ".self_s"] = min(p["layers"].get(name, [0, 0.0])[1] for p in traced)
    counts = first["counts"]
    for name in ("bruhat.interval.members", "kumar.table_entries", "rational.str_bytes"):
        values[name] = counts[name]
    attempts = counts["kumar.setup_attempts"]
    values["kumar.setup_accept_ratio"] = counts["kumar.setup_held"] / attempts if attempts else 0.0
    # Each traced pass against the untraced pass just before it, which ran
    # at nearly the same host speed.
    values["trace.overhead_ratio"] = statistics.median(
        sum(t["latencies"]) / sum(u["latencies"]) for u, t in zip(untraced, traced))
    return values


def determinism_problems(passes, workload, size, seed, input_digest):
    """Fresh interpreters given the same inputs must agree exactly."""
    problems = []
    keys = ("counts", "display_digest", "answers_digest", "failures")
    for p in passes[1:]:
        for key in keys:
            if p[key] != passes[0][key] and p[key] is not None:
                problems.append("passes disagree on %s" % key)
    traced = [p for p in passes if "layers" in p]
    calls = [{k: v[0] for k, v in p["layers"].items()} for p in traced]
    if any(c != calls[0] for c in calls[1:]):
        problems.append("traced passes disagree on call counts")
    if size == "full":
        if seed == MANIFEST["default_seed"] and input_digest != MANIFEST["input_digests"][workload]:
            problems.append("input digest %s differs from the manifest" % input_digest)
        if workload == "mult" and passes[0]["display_digest"] != MANIFEST["mult_display_digest"]:
            problems.append("mult display digest %s differs from the manifest"
                            % passes[0]["display_digest"])
    return sorted(set(problems))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "mult", "queries"))
    parser.add_argument("--seed", type=int, default=MANIFEST["default_seed"])
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "schubert_a2" / "__init__.py").is_file():
        print("error: no package source at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    started = now()
    deadline = started + HARD_LIMIT_S
    size = "smoke" if args.smoke else "full"
    ops = inputs.build(args.workload, args.seed, size)
    input_digest = inputs.digest(ops)
    OUT.mkdir(exist_ok=True)
    probe_before = host_probe()

    request = {
        "workload": args.workload, "inputs": ops, "size": inputs.SIZES[size],
        "out_dir": str(OUT.relative_to(ROOT)), "trace": False, "mode": "setup",
    }
    fewest = 2 if args.trace else 1  # a traced run needs one pass of each kind
    try:
        setup, passes = [], []
        measure_start = now()
        step_s = 0.0
        # Another pass runs while it is expected to end within --seconds.
        while len(passes) < fewest or now() - measure_start + step_s <= args.seconds:
            step_start = now()
            setup.append(run_worker(request, deadline)["setup_s"])
            # The queries answers are compared with the oracle on the first
            # pass; later passes must reproduce the same answers exactly.
            result = run_worker(dict(
                request, mode="pass", check=not passes,
                trace=bool(args.trace) and len(passes) % 2 == 1,
                spans=args.workload + ".spans",
            ), deadline)
            step_s = now() - step_start
            passes.append(result)
            setup.append(result["setup_s"])
        # Set-up probes fill the rest of --seconds, so a run takes the time
        # it was given however fast its passes were.
        while now() - measure_start + statistics.median(setup) < args.seconds:
            setup.append(run_worker(request, deadline)["setup_s"])
        baseline = {}
        if args.trace:
            baseline = run_worker(dict(request, mode="baseline"), deadline)["ms"]
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    probe_after = host_probe()

    (OUT / ("%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps({"inputs": ops, "setup_s": setup, "passes": passes}))
    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    problems = determinism_problems(passes, args.workload, size, args.seed, input_digest)
    checked = [p["failures"] for p in passes if p["failures"] is not None]
    failed = sum(1 for fails in zip(*checked) if any(fails))
    attempted = len(ops)
    e2e = end_to_end(untraced, setup)
    if args.trace:
        values = per_layer(untraced, traced)
        units = dict(per_layer_units())
    else:
        values = e2e
        units = dict(END_TO_END)

    print("workload %s  seed %d  size %s  trace %d" % (args.workload, args.seed, size, args.trace))
    print("inputs: %d ops, digest %s" % (len(ops), input_digest))
    print("passes: %d untraced, %d traced; %.1f s in all" % (
        len(untraced), len(traced), now() - started))
    print("setup samples: %d; latency samples: %d ops, each the least of %d passes" % (
        len(setup), len(ops), len(untraced)))
    print("host probe: %.1f ms before, %.1f ms after (diagnostic, never used to scale)" % (
        probe_before, probe_after))
    print("digests: mult display %s, answers %s" % (
        passes[0]["display_digest"], passes[0]["answers_digest"]))
    print("counts: " + json.dumps(passes[0]["counts"], sort_keys=True))
    if baseline:
        print("w16 cold ms: " + ", ".join(
            "%s %.1f (ROADMAP %g)" % (call, ms, ref)
            for (call, ms), ref in zip(baseline.items(), ROADMAP_W16_MS)))
    shown = dict(e2e, fail_ratio=failed / attempted)
    shown_units = dict(END_TO_END, fail_ratio="1")
    if args.trace:
        shown.update(values)
        shown_units.update(units)
    for name, value in shown.items():
        print("%-40s %14.6g %s" % (name, value, shown_units[name]))
    for line in sorted({f for run in checked for fails in run for f in fails}):
        print("FAIL " + line)
    for line in problems:
        print("MISMATCH " + line)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
