"""One pass of a benchmark workload in a fresh interpreter.

Reads a JSON request on stdin, imports the package from the checkout's
`src`, parses the first input and notes the moment (the end of set-up),
runs every op once, and prints one JSON result line.  Each op is timed on its
own; for `sweep` and `mult` the op includes the oracle comparisons, which
is the work `verify` does, while for `queries` the op is only the answer a
user waits for and its oracle checks run untimed once every op of the pass
has been timed, so that no op finds caches a check filled.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import operator
import resource
import shlex
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter

from inputs import digest
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
W16 = "0120120120120102"

# Every library function the benchmark calls, by span name.  rational.eq and
# rational.str are RationalNF's == and str().
LAYER_FUNCTIONS = (
    "alcove.parse_word", "alcove.format_word", "alcove.is_spiral",
    "alcove.element_to_word", "alcove.spiral_factorizations",
    "bruhat.interval", "bruhat.oracle_interval", "bruhat.leq", "bruhat.hexagon",
    "qstat.q_table", "qstat.q_brute", "qstat.q_value", "qstat.lookup_holds",
    "qstat.maximal_nrs",
    "kumar.multiplicity_table", "kumar.multiplicity_table_of",
    "kumar.smoothness_target", "kumar.setup_move_check",
    "kumar.equivariant_multiplicity",
    "rational.eq", "rational.str",
    "loci.smooth_points", "loci.locus_report",
    "render.render",
)
CLI_COMMANDS = ("order", "hexagon", "q", "nrs", "smooth", "classify", "mult", "render")


def _module(layer):
    # schubert_a2.render is shadowed by the render function on the package.
    return importlib.import_module("schubert_a2." + layer)


class Layers:
    """The layer functions, each wrapped in a span when a tracer is given."""

    def __init__(self, tracer):
        for name in LAYER_FUNCTIONS:
            layer, fn_name = name.split(".")
            if layer == "rational":
                fn = operator.eq if fn_name == "eq" else str
            else:
                fn = getattr(_module(layer), fn_name)
            setattr(self, fn_name, tracer.wrap(name, fn) if tracer else fn)
        run = _module("cli").run
        self._cli = {
            cmd: tracer.wrap("cli.run." + cmd, run) if tracer else run
            for cmd in CLI_COMMANDS
        }

    def cli(self, argv):
        """cli.run with stdout and stderr captured: (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli[argv[0]](argv)
        return code, out.getvalue()


def repro(*argv):
    return "schubert-a2 " + " ".join(shlex.quote(a) for a in argv)


class Pass:
    """One pass's settings, and the counts and outputs that must repeat
    exactly between passes."""

    def __init__(self, size, check, out_dir):
        self.size = size
        self.check = check  # run the untimed oracle checks of queries
        self.out_dir = out_dir
        self.op = 0  # the index of the op running
        self.counts = {
            "bruhat.interval.members": 0,
            "kumar.table_entries": 0,
            "rational.str_bytes": 0,
            "kumar.setup_held": 0,
            "kumar.setup_attempts": 0,
        }
        self.display = []
        self.answers = []


# --- sweep: the hexagon, spiral-hull, q, heredity and lookup criteria ------

def sweep_op(L, word, st):
    fails = []
    w = L.parse_word(word)
    members = L.interval(w)
    st.counts["bruhat.interval.members"] += len(members)
    oracle = L.oracle_interval(w)
    if members != oracle:
        x = sorted(members ^ oracle)[0]
        fails.append("interval != oracle_interval: " + repro("order", L.format_word(x), word))
    table = L.q_table(w)
    for x, (q, _) in table.entries.items():
        if L.q_brute(w, x) != q:
            fails.append("q_table != q_brute: " + repro("q", word, L.format_word(x)))
            break
    positive = [x for x in members if table.q(x) > 0]
    spiral = L.is_spiral(w)
    maximal = set()
    heredity_ok = True
    for y in members:
        above = [x for x in positive if L.leq(y, x)]
        # Off the strips q > 0 is closed downward (heredity), so the
        # existential nrs test agrees with q > 0 pointwise.
        if not spiral and bool(above) != (table.q(y) > 0):
            heredity_ok = False
        if above == [y]:
            maximal.add(y)
    if not heredity_ok:
        fails.append("heredity: " + repro("nrs", word))
    if L.maximal_nrs(w) != maximal:
        fails.append("maximal_nrs != maximal q > 0 points: " + repro("nrs", word))
    if not L.lookup_holds(w):
        fails.append("lookup_holds false: " + repro("nrs", word))
    return fails


# --- mult: the kumar and setup criteria -------------------------------------

def mult_op(L, word, st):
    from schubert_a2.kumar import SetupHypothesisError

    fails = []
    w = L.parse_word(word)
    table = L.multiplicity_table_of(w)
    st.counts["kumar.table_entries"] += len(table)
    smooth = set()
    for x, value in table.items():
        if L.eq(value, L.smoothness_target(w, x)):
            smooth.add(x)
        text = L.str(value)
        st.counts["rational.str_bytes"] += len(text)
        st.display.append(word + "\t" + text)
    if not L.is_spiral(w):
        a, b = (
            L.multiplicity_table(L.element_to_word(u) + L.element_to_word(v))
            for u, v in L.spiral_factorizations(w)
        )
        st.counts["kumar.table_entries"] += len(a) + len(b)
        bad = [x for x in a if x not in b or not L.eq(a[x], b[x])]
        if bad or a.keys() != b.keys():
            x = bad[0] if bad else sorted(a.keys() ^ b.keys())[0]
            fails.append("spiral factorisation tables differ: "
                         + repro("mult", word, L.format_word(x)))
    if L.smooth_points(w) != smooth:
        fails.append("multiplicity test != smooth_points: " + repro("smooth", word))
    if len(word) <= st.size["setup_max"]:
        for x in table:
            for i in (0, 1, 2):
                for side in ("right", "left"):
                    st.counts["kumar.setup_attempts"] += 1
                    try:
                        held = L.setup_move_check(w, x, i, side)
                    except SetupHypothesisError:
                        continue
                    st.counts["kumar.setup_held"] += 1
                    if not held:
                        fails.append("setup move %d %s: %s" % (
                            i, side, repro("mult", word, L.format_word(x))))
    return fails


# --- queries: the interactive user ------------------------------------------

def query_op(L, q, st):
    """The answer a user waits for: (exit code, stdout) or a library value."""
    argv = q["argv"]
    if q["route"] == "cli":
        if argv[0] == "render":
            # One file per op, so that each is still there when it is checked.
            argv = argv + ["--out", str(st.out_dir / ("render-%d.svg" % st.op))]
        return L.cli(argv + ["--json"])
    kind = q["kind"]
    if kind == "order":
        return L.leq(L.parse_word(argv[1]), L.parse_word(argv[2]))
    w = L.parse_word(argv[1])
    if kind in ("classify", "smooth", "nrs"):
        return L.locus_report(w)
    if kind == "q-table":
        return [(L.format_word(x), q_, tag) for x, (q_, tag) in L.q_table(w).entries.items()]
    if kind == "hexagon":
        return [L.format_word(v) for v in L.hexagon(w).vertices]
    if kind == "render":
        from schubert_a2.render import RenderSpec

        payload = {"hexagon": L.hexagon, "q": L.q_table, "locus": L.locus_report}[argv[7]](w)
        return L.render(RenderSpec(layers=tuple(argv[3].split(",")), labels=argv[5]), payload)
    x = L.parse_word(argv[2])
    if kind == "q-value":
        return L.q_value(w, x)
    return L.equivariant_multiplicity(w, x)


_EXPECTED = {"ok": 0, "parse": 2, "precondition": 3}


def query_check(L, q, answer, error):
    """Compare one answer with the library's independent route; returns a
    failure with its reproducer, or None."""
    from schubert_a2.alcove import InvalidWordError, SpiralInputError
    from schubert_a2.qstat import NotComparableError

    argv, kind, cli = q["argv"], q["kind"], q["route"] == "cli"
    fail = "%s (%s %s): " % (kind, q["route"], q["expect"]) + repro(*argv)
    if error is not None:
        typed = {"parse": InvalidWordError,
                 "precondition": (SpiralInputError, NotComparableError)}.get(q["expect"])
        if typed and isinstance(error, typed):
            return None
        return "%s raised %s: %s" % (fail, type(error).__name__, error)
    if cli:
        code, out = answer
        if code != _EXPECTED[q["expect"]]:
            return "%s exit %d" % (fail, code)
        if q["expect"] != "ok":
            return None
        data = json.loads(out)
    elif q["expect"] != "ok":
        return "%s returned instead of raising" % fail

    if kind == "order":
        x, w = L.parse_word(argv[1]), L.parse_word(argv[2])
        got = data["fast"] if cli else answer
        ok = (not cli or data["agree"]) and got == (x in L.oracle_interval(w))
        return None if ok else fail + " disagrees with the oracle"
    w = L.parse_word(argv[1])
    oracle = L.oracle_interval(w)
    if kind == "classify":
        got = (data if cli else answer.to_dict())["summary"]["classification"]
        if any(L.q_brute(w, x) > 0 for x in oracle):
            ok = got == "singular"
        else:
            ok = got == ("smooth" if len(argv[1]) <= 5 else "rationally-smooth-only")
    elif kind in ("smooth", "nrs"):
        rows = data[kind] if cli else [r for r in answer.records if r[kind]]
        points = {L.parse_word(r["x"]) for r in rows}
        positive = [x for x in oracle if L.q_brute(w, x) > 0]
        if kind == "nrs":
            ok = points == {x for x in oracle if any(L.leq(x, y) for y in positive)}
        else:
            # Smooth points are rationally smooth, so q = 0 there.
            ok = (w in points and points <= oracle and len(points) <= 36
                  and not points.intersection(positive))
    elif kind == "q-table":
        rows = [(e["x"], e["q"]) for e in data["entries"]] if cli else [r[:2] for r in answer]
        values = {L.parse_word(x): v for x, v in rows}
        ok = values.keys() == oracle and all(L.q_brute(w, x) == v for x, v in values.items())
    elif kind == "q-value":
        ok = (data["q"] if cli else answer) == L.q_brute(w, L.parse_word(argv[2]))
    elif kind == "mult":
        x = L.parse_word(argv[2])
        # The same multiplicity, summed over this input word's subexpressions.
        other = L.equivariant_multiplicity(w, x, [int(c) for c in argv[1]])
        if cli:
            smooth = L.eq(other, L.smoothness_target(w, x))
            ok = data["multiplicity"] == L.str(other) and data["smooth"] == smooth
        else:
            ok = L.eq(answer, other)
    elif kind == "hexagon":
        vertices = [L.parse_word(v) for v in (data["vertices"] if cli else answer)]
        ok = len(vertices) == 6 and vertices[0] == w and set(vertices) <= oracle
    else:
        if cli:
            with open(data["out"], "rb") as fh:
                doc = fh.read()
            ok = len(doc.decode()) == data["bytes"]
        else:
            doc = answer.encode()
            ok = True
        ok = ok and ET.fromstring(doc).tag.endswith("svg")
    return None if ok else fail + " disagrees with the oracle"


# --- the pass ----------------------------------------------------------------

def run_pass(L, tracer, workload, inputs, st):
    op = {"sweep": sweep_op, "mult": mult_op, "queries": query_op}[workload]
    root = "op." + workload
    latencies, failures, results = [], [], []
    for k, item in enumerate(inputs):
        st.op = k
        if tracer:
            tracer.begin(root, k)
        error = answer = None
        start = perf_counter()
        try:
            answer = op(L, item, st)
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        latencies.append(perf_counter() - start)
        if tracer:
            tracer.end()
        if workload == "queries":
            st.answers.append(digest(repr(answer) if error is None else type(error).__name__))
            if st.check:
                results.append((answer, error))
        elif error is not None:
            failures.append(["%s raised %s: %s: %s" % (
                workload, type(error).__name__, error,
                repro("q" if workload == "sweep" else "smooth", item))])
        else:
            failures.append(answer)
    if workload == "queries":
        if not st.check:
            return latencies, None
        for item, (answer, error) in zip(inputs, results):
            try:
                fail = query_check(L, item, answer, error)
            except Exception as exc:
                fail = "%s check raised %r: %s" % (item["kind"], exc, repro(*item["argv"]))
            failures.append([fail] if fail else [])
    return latencies, failures


def baseline(L):
    """Milliseconds per call on w16 in a fresh interpreter, in the order of
    the ROADMAP table, so each call finds the caches its predecessors left."""

    def timed(fn, *args):
        start = perf_counter()
        result = fn(*args)
        return result, (perf_counter() - start) * 1000

    w = L.parse_word(W16)
    out = {}
    members, out["interval"] = timed(L.interval, w)
    _, out["oracle_interval"] = timed(L.oracle_interval, w)
    pairs = [(x, y) for x in members for y in members]
    _, out["leq x%d" % len(pairs)] = timed(lambda: [L.leq(x, y) for x, y in pairs])
    for name in ("q_table", "lookup_holds", "locus_report"):
        _, out[name] = timed(getattr(L, name), w)
    return out


def main():
    req = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("schubert_a2")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("schubert_a2 imported from outside the checkout: %s" % package.__file__)
    tracer = Tracer() if req["trace"] else None
    L = Layers(tracer)
    inputs = req["inputs"]
    if req["workload"] == "queries":
        first = next(q["argv"][1] for q in inputs if q["expect"] == "ok")
    else:
        first = inputs[0]
    _module("alcove").parse_word(first)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if req["mode"] == "setup":
        print(json.dumps({"ready": ready}))
        return
    if req["mode"] == "baseline":
        print(json.dumps({"ready": ready, "ms": baseline(L)}))
        return
    st = Pass(req["size"], req["check"], ROOT / req["out_dir"])
    latencies, failures = run_pass(L, tracer, req["workload"], inputs, st)
    result = {
        "ready": ready,
        "latencies": latencies,
        "failures": failures,
        "counts": st.counts,
        "display_digest": digest(sorted(st.display)),
        "answers_digest": digest(st.answers),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = tracer.layer_totals()
        tracer.dump(ROOT / req["out_dir"] / req["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
