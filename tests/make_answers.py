"""Golden answer digests: what the CLI and the multiplicity tables answer
for every owner up to a length bound.

For each owner w with l(w) <= 16 the file keeps one sha256[:16] per
command over the exit code and stdout of `schubert-a2 CMD w --json`, for
CMD in q, nrs, smooth and classify and, off the spirals, hexagon.  For
l(w) <= 12 it keeps one more over multiplicity_table_of(w), one "x value"
line per x in word order.  The CLI spells the identity "".  Beside it,
tests/data/verify.json keeps `schubert-a2 verify --suite all --max-length N
--json` without each row's seconds, for N = 10 and 12.

    python tests/make_answers.py           # rewrite both files
    python tests/make_answers.py --check   # recompute both files, compare

A change that regenerates a file lists in CHANGES.md the owners or rows
that changed and why.  The tier-1 tests in test_answers.py check the
owners with l <= 14, the tables with l <= 10 and verify at l <= 10.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from schubert_a2 import cli  # noqa: E402
from schubert_a2.alcove import format_words, length  # noqa: E402
from schubert_a2.kumar import multiplicity_table_of  # noqa: E402
from schubert_a2.verify import _owners  # noqa: E402

PATH = ROOT / "tests" / "data" / "answers.json"
VERIFY_PATH = ROOT / "tests" / "data" / "verify.json"
VERIFY_BOUNDS = (10, 12)
MAX_LENGTH = 16
TABLE_MAX_LENGTH = 12
COMMANDS = ("q", "nrs", "smooth", "classify")  # hexagon runs off the spirals only


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(cmd, word):
    """The exit code and stdout of `schubert-a2 CMD WORD --json`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([cmd, word, "--json"])
    return "%d\n%s" % (code, out.getvalue())


def _table(w):
    """The multiplicity table of w, one "x value" line per x in word order."""
    tab = multiplicity_table_of(w)
    words = format_words(tab)
    rows = sorted(((words[x], str(v)) for x, v in tab.items()), key=lambda r: (len(r[0]), r[0]))
    return "".join("%s %s\n" % row for row in rows)


def answers(max_length=MAX_LENGTH, table_max_length=TABLE_MAX_LENGTH):
    """The bounds, and per command (the table counted as one) a map from
    owner word to digest."""
    owners = _owners(max_length)
    digests = {cmd: {word: _digest(_cli(cmd, word)) for word, _, _ in owners} for cmd in COMMANDS}
    digests["hexagon"] = {word: _digest(_cli("hexagon", word))
                          for word, _, spiral in owners if not spiral}
    digests["table"] = {word: _digest(_table(w))
                        for word, w, _ in owners if length(w) <= table_max_length}
    return {"max_length": max_length, "table_max_length": table_max_length, "digests": digests}


def verify_report(max_length):
    """`schubert-a2 verify --suite all --max-length N --json` without each
    row's seconds, the one field that depends on the host."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.run(["verify", "--suite", "all", "--max-length", str(max_length), "--json"])
    report = json.loads(out.getvalue())
    for row in report["results"]:
        del row["seconds"]
    return report


def verify_reports():
    """The verify report per bound in VERIFY_BOUNDS, keyed by the bound."""
    return {str(n): verify_report(n) for n in VERIFY_BOUNDS}


def load(path=PATH):
    with open(path) as fh:
        return json.load(fh)


def _dump(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def first_difference(expected, got):
    """None when every digest in got equals the stored one, else a message
    naming the first owner, by length then word, and its first command
    that differs."""
    diffs = [
        (len(word), word, i, cmd)
        for i, (cmd, table) in enumerate(got["digests"].items())
        for word, digest in table.items()
        if expected["digests"].get(cmd, {}).get(word) != digest
    ]
    if not diffs:
        return None
    _, word, _, cmd = min(diffs)
    what = "multiplicity_table_of(w)" if cmd == "table" else "schubert-a2 %s %r --json" % (cmd, word)
    return "%d digests differ; the first is owner %r, %s" % (len(diffs), word, what)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with %s and %s instead of rewriting them"
                        % (PATH.name, VERIFY_PATH.name))
    args = parser.parse_args(argv)
    if args.check:
        expected = load()
        got = answers(expected["max_length"], expected["table_max_length"])
        if got != expected:
            diff = first_difference(expected, got) or "the stored owners are not the recomputed ones"
            print(diff, file=sys.stderr)
            return 1
        reports, stored = verify_reports(), load(VERIFY_PATH)
        if reports != stored:
            bound = next((n for n in reports if reports[n] != stored.get(n)), "the stored bounds")
            print("verify --suite all --max-length %s --json differs from %s"
                  % (bound, VERIFY_PATH.name), file=sys.stderr)
            return 1
        print("answers match: %d owners, %d tables, verify at l <= %s"
              % (len(got["digests"]["q"]), len(got["digests"]["table"]), ", ".join(reports)))
        return 0
    _dump(answers(), PATH)
    _dump(verify_reports(), VERIFY_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
