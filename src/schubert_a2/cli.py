"""Command-line interface.

Elements are written as digit strings over {0,1,2}; the empty string is
the identity.  Exit codes: 0 success, 2 malformed input, 3 precondition
violation (spiral-only operations, x not below w), 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .alcove import (
    InvalidWordError,
    SpiralInputError,
    classify,
    length,
    parse_word,
)
from .bruhat import NotComparableError, hexagon, hexagon_to_dict, leq, leq_oracle, require_below
from .kumar import equivariant_multiplicity, kumar_smooth
from .loci import enumerate_smooth_varieties, locus_report
from .qstat import q_table, q_value
from .render import LABELS, LAYERS, RenderSpec, render, validate_spec
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4


@functools.cache
def _build_parser():
    """The argparse tree, built once per process: run only parses with it."""
    parser = argparse.ArgumentParser(
        prog="schubert-a2",
        description="Exact Schubert-variety singularity analysis for affine type A2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("order", "compare two elements in Bruhat order (hull and oracle)")
    p.add_argument("x", help="lower word")
    p.add_argument("w", help="upper word")

    p = add("hexagon", "the Bruhat hexagon of a non-spiral element")
    p.add_argument("w")

    p = add("q", "q-values over the interval of w, or a single q(w, x)")
    p.add_argument("w")
    p.add_argument("x", nargs="?", default=None)

    for name, help_ in (
        ("nrs", "the non-rationally-smooth points below w"),
        ("smooth", "the smooth points below w"),
        ("classify", "smooth / rationally-smooth-only / singular, with codimensions"),
    ):
        p = add(name, help_)
        p.add_argument("w")

    p = add("mult", "equivariant multiplicity of x in the variety of w")
    p.add_argument("w")
    p.add_argument("x")

    add("enumerate-smooth", "the census of smooth Schubert varieties")

    p = add("verify", "run the verification suites")
    p.add_argument("--max-length", type=int, default=12)
    p.add_argument("--suite", choices=sorted(SUITES), default="all")

    p = add("render", "draw an alcove picture to an SVG file")
    p.add_argument("w")
    p.add_argument("--out", required=True)
    p.add_argument("--layers", default="lattice,hexagon",
                   help="comma list from: %s" % ",".join(LAYERS))
    p.add_argument("--labels", default="none", choices=LABELS)
    p.add_argument("--payload", default="hexagon", choices=["hexagon", "q", "locus"])
    return parser


def _fmt_bool(b):
    return "true" if b else "false"


def _emit(args, data, text_lines):
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_order(args):
    x = parse_word(args.x)
    w = parse_word(args.w)
    fast = leq(x, w)
    oracle = leq_oracle(x, w)
    agree = fast == oracle
    _emit(args, {"fast": fast, "oracle": oracle, "agree": agree},
          ["%s %s" % (_fmt_bool(fast), _fmt_bool(oracle)),
           "agree: %s" % _fmt_bool(agree)])
    return EXIT_OK if agree else EXIT_VERIFY


def _cmd_hexagon(args):
    w = parse_word(args.w)
    hx = hexagon(w)
    data = hexagon_to_dict(hx)
    lines = ["owner: %s" % (data["owner"] or "e"), "parity: %s" % hx.parity]
    for i, v in enumerate(data["vertices"]):
        lines.append("w%d: %s" % (i, v or "e"))
    for hp in data["hyperplanes"]:
        lines.append("hyperplane: root=%s level=%d" % (tuple(hp["root"]), hp["level"]))
    _emit(args, data, lines)
    return EXIT_OK


def _cmd_q(args):
    w = parse_word(args.w)
    if args.x is not None:
        x = parse_word(args.x)
        value = q_value(w, x)
        _emit(args, {"w": args.w, "x": args.x, "q": value}, [str(value)])
        return EXIT_OK
    tab = q_table(w)
    data = tab.to_dict()
    lines = ["%-14s %2d  %s" % (e["x"] or "e", e["q"], e["tag"]) for e in data["entries"]]
    _emit(args, data, lines)
    return EXIT_OK


def _cmd_locus_slice(args, key):
    w = parse_word(args.w)
    report = locus_report(w)
    data = report.to_dict()
    rows = [r for r in data["records"] if r[key]]
    lines = ["%s (length %d, q=%d)" % (r["x"] or "e", r["length"], r["q"]) for r in rows]
    lines.append("count: %d" % len(rows))
    _emit(args, {"owner": data["owner"], key: rows, "summary": data["summary"]}, lines)
    return EXIT_OK


def _cmd_classify(args):
    w = parse_word(args.w)
    report = locus_report(w)
    data = report.to_dict()
    s = data["summary"]
    lines = [
        "word: %s" % (args.w or "e"),
        "length: %d" % length(w),
        "region: %s" % (str(classify(w)),),
        "classification: %s" % s["classification"],
        "nrs codimension: %s" % s["nrs_codimension"],
        "singular codimension: %s" % s["singular_codimension"],
        "smooth fixed points: %d" % s["smooth_point_count"],
    ]
    _emit(args, data, lines)
    return EXIT_OK


def _cmd_mult(args):
    w = parse_word(args.w)
    x = parse_word(args.x)
    require_below(x, w)
    value = equivariant_multiplicity(w, x)
    smooth = kumar_smooth(w, x)
    _emit(args, {"w": args.w, "x": args.x, "multiplicity": str(value), "smooth": smooth},
          ["multiplicity: %s" % value, "smooth: %s" % _fmt_bool(smooth)])
    return EXIT_OK


def _cmd_enumerate(args):
    rows = enumerate_smooth_varieties()
    total = sum(r["count"] for r in rows)
    lines = ["%-3d %-22s %2d  %s" % (r["length"], r["pattern"], r["count"],
                                     " ".join(m or "e" for m in r["members"]))
             for r in rows]
    lines.append("total: %d" % total)
    _emit(args, {"rows": rows, "total": total}, lines)
    return EXIT_OK


def _cmd_verify(args):
    try:
        results = run_suite(args.suite, max_length=args.max_length)
    except ValueError as exc:  # a negative bound, or one that leaves a criterion no owner
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    ok = all(r.passed for r in results)
    data = {
        "suite": args.suite,
        "max_length": args.max_length,
        "results": [
            {"criterion": r.criterion, "passed": r.passed, "detail": r.detail,
             "bound": r.bound, "seconds": round(r.seconds, 3)}
            for r in results
        ],
        "passed": ok,
    }
    lines = ["%s %s - %.2f s - %s" % ("PASS" if r.passed else "FAIL", r.criterion,
                                      r.seconds, r.detail)
             for r in results]
    lines.append("result: %s" % ("all passed" if ok else "FAILURES"))
    _emit(args, data, lines)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_render(args):
    w = parse_word(args.w)
    spec = RenderSpec(layers=tuple(s for s in args.layers.split(",") if s), labels=args.labels)
    try:
        validate_spec(spec)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    if args.payload == "hexagon":
        payload = hexagon(w)
    elif args.payload == "q":
        payload = q_table(w)
    else:
        payload = locus_report(w)
    doc = render(spec, payload)
    try:
        with open(args.out, "w") as fh:
            fh.write(doc)
    except OSError as exc:  # a missing --out directory
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    if args.json:
        print(json.dumps({"out": args.out, "bytes": len(doc)}))
    else:
        print("wrote %s (%d bytes)" % (args.out, len(doc)))
    return EXIT_OK


_COMMANDS = {
    "order": _cmd_order,
    "hexagon": _cmd_hexagon,
    "q": _cmd_q,
    "nrs": lambda a: _cmd_locus_slice(a, "nrs"),
    "smooth": lambda a: _cmd_locus_slice(a, "smooth"),
    "classify": _cmd_classify,
    "mult": _cmd_mult,
    "enumerate-smooth": _cmd_enumerate,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvalidWordError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (SpiralInputError, NotComparableError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
