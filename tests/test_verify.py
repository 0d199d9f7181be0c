"""The verification harness itself: suites, criteria, bounds, failure reports."""

import os

import pytest

from schubert_a2 import verify
from schubert_a2.alcove import parse_word
from schubert_a2.memos import MEMOS
from schubert_a2.verify import CRITERIA, SUITES, run_criterion, run_suite


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")


def test_unknown_criterion():
    with pytest.raises(ValueError, match="unknown criterion 'nope'"):
        run_criterion("nope", 4)


def test_negative_bound_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        run_suite("q", max_length=-1)


@pytest.mark.parametrize("key", ["hexagon", "q", "translation", "heredity"])
def test_bound_without_owners_rejected(key):
    # non-spiral owners begin at l = 3, so l <= 2 leaves these rows empty
    with pytest.raises(ValueError, match="no owners with l <= 2"):
        run_criterion(key, 2)
    assert run_criterion(key, 3).detail.endswith("checks (l <= 3)")


def test_suite_names_cover_criteria():
    assert set(SUITES) == {"hexagon", "q", "lookup", "kumar", "loci", "all"}
    assert len(SUITES["all"]) == 11


def test_every_row_checks_the_bound_it_is_given(monkeypatch):
    # one spiral owner and one non-spiral owner of length 13, the latter a
    # 36-point witness so that the loci row's census fact holds
    owners = tuple(
        (word, parse_word(word), spiral)
        for word, spiral in (("0120120120120", True), ("0102010201020", False))
    )
    monkeypatch.setattr(verify, "_owners", lambda bound: owners)
    for key in CRITERIA:
        result = run_criterion(key, 13)
        assert result.passed and result.bound == 13, result
        assert result.detail.endswith(" checks (l <= 13)"), result


def test_failure_names_identity_and_owner(monkeypatch):
    brute = verify.q_brute
    monkeypatch.setattr(verify, "q_brute", lambda w, x: brute(w, x) + 1)
    result = run_criterion("q", 4)
    assert not result.passed and result.bound == 4
    assert result.detail.startswith("9 failed in 9 checks (l <= 4): q-table 010, ")


def test_factorization_failure_names_its_owner(monkeypatch):
    owner = parse_word("0102")
    table_of = verify.multiplicity_table_of

    def perturbed(w):
        table = table_of(w)
        return {**table, w: -table[w]} if w == owner else table

    monkeypatch.setattr(verify, "multiplicity_table_of", perturbed)
    result = run_criterion("kumar", 6)
    assert not result.passed and result.bound == 6
    assert result.detail == "1 failed in 64 checks (l <= 6): factorizations 0102"


def test_setup_row_builds_psi_once_per_member(monkeypatch):
    """The setup row asks psi_set once per member of the owner's interval,
    for its six Setup Moves and its Simple Move smoothness and |Psi| checks
    together; the other calls are the Psi(ws, xs) of the moves whose
    hypotheses hold."""
    from schubert_a2 import kumar
    from schubert_a2.bruhat import interval

    asked = []
    psi_set = kumar.psi_set

    def counting(w, x):
        asked.append((w, x))
        return psi_set(w, x)

    word = "0121012"
    w = parse_word(word)
    monkeypatch.setattr(kumar, "psi_set", counting)
    monkeypatch.setattr(verify, "psi_set", counting)
    assert verify._setup(w) == []
    own = [x for v, x in asked if v == w]
    assert sorted(own) == sorted(interval(w))
    held = 0
    for x in interval(w):
        for i in (0, 1, 2):
            for side in ("right", "left"):
                try:
                    kumar._setup_hypotheses(w, x, kumar.SIMPLES[i], side)
                except kumar.SetupHypothesisError:
                    continue
                held += 1
    assert held > 0 and len(asked) == len(own) + held


@pytest.fixture
def rational_smoothness_mutant(monkeypatch):
    """qstat.is_rationally_smooth also answers True for the non-spiral
    owners of length 7, so loci.maximal_singular raises on the singular
    ones; the memo that reads it is cleared before and after."""
    from schubert_a2 import qstat

    smooth = qstat.is_rationally_smooth

    def mutant(w):
        return smooth(w) or (qstat.length(w) == 7 and not qstat.is_spiral(w))

    MEMOS["qstat.maximal_nrs"].clear()
    monkeypatch.setattr(qstat, "is_rationally_smooth", mutant)
    yield
    monkeypatch.undo()
    MEMOS["qstat.maximal_nrs"].clear()


@pytest.mark.usefixtures("rational_smoothness_mutant")
def test_a_raising_check_is_reported_not_raised():
    for key in ("kumar", "loci"):
        result = run_criterion(key, 7)
        assert not result.passed and result.bound == 7, result
        assert "error:AssertionError " in result.detail, result
    # the kumar row fails on the owners whose check raised, and the rows
    # after it still run
    results = run_suite("kumar", max_length=7)
    assert [r.passed for r in results] == [False, True]


@pytest.mark.usefixtures("rational_smoothness_mutant")
def test_verify_exits_4_with_json_when_a_check_raises(capsys):
    import json

    from schubert_a2 import cli

    assert cli.run(["verify", "--suite", "all", "--max-length", "7", "--json"]) == 4
    data = json.loads(capsys.readouterr().out)
    rows = {r["criterion"]: r for r in data["results"]}
    assert len(rows) == 11 and not data["passed"]
    assert "error:AssertionError" in rows["kumar-smooth-locus"]["detail"]
    assert rows["inversion-identity"]["passed"]


def test_raising_checks_and_facts_are_reported(monkeypatch):
    # math.factorial raises TypeError on every element, len on every bound
    import math

    monkeypatch.setitem(CRITERIA, "q", verify.Criterion("raising", False, math.factorial, len))
    result = run_criterion("q", 4)
    assert not result.passed and result.bound == 4
    assert result.detail.startswith(
        "10 failed in 9 checks (l <= 4): error:TypeError 010, "
    ), result


# Every command once, each exiting 0 with --json; the render command
# writes its SVG into the directory passed to every_command.
def every_command(out_dir):
    svg = os.path.join(out_dir, "p.svg")
    return (["order", "0121", "01201201"], ["hexagon", "012101201"],
            ["q", "012101201"], ["q", "2102102"], ["q", "01201201", "0120"],
            ["nrs", "012101201"], ["smooth", "2102102102"],
            ["classify", "0120120"], ["mult", "01210120", "0121"],
            ["enumerate-smooth"], ["verify", "--max-length", "6"],
            ["render", "012101201", "--labels", "words", "--payload", "locus",
             "--layers", "lattice,smooth,shells", "--out", svg])


# Run in a fresh interpreter: every command once, then print the
# module-level dicts, lists and sets of the package that the commands grew
# outside the memo registry, and on a second line the registered memos
# that they left empty.
_GROWN_STATE_PROBE = """
import contextlib, importlib, io, pkgutil, tempfile
import schubert_a2
from schubert_a2 import cli
from schubert_a2.memos import MEMOS
from test_verify import every_command

registered = {id(table) for table in MEMOS.values()}

def containers():
    out = {}
    for info in pkgutil.iter_modules(schubert_a2.__path__):
        module = importlib.import_module("schubert_a2." + info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, (dict, list, set)) and id(obj) not in registered:
                out["%s.%s" % (info.name, name)] = len(obj)
    return out

before = containers()
with tempfile.TemporaryDirectory() as out_dir, contextlib.redirect_stdout(io.StringIO()):
    for argv in every_command(out_dir):
        assert cli.run(argv + ["--json"]) == 0, argv
after = containers()
print(" ".join(sorted(k for k in after if after[k] != before.get(k))))
print(" ".join(sorted(name for name, table in MEMOS.items() if not table)))
"""


def test_process_wide_memos_are_these_twelve():
    """The package's process-wide memos are exactly these twelve plain
    dicts, registered in memos.MEMOS under the names of the functions
    whose values they hold.  A fresh interpreter's run of every command
    grows each of them and no other module-level container.  The only
    cached properties are the two of qstat._Level.  A memo that a mutant
    or a recorder must clear is listed here on purpose."""
    import functools
    import importlib
    import pkgutil
    import subprocess
    import sys
    from pathlib import Path

    import schubert_a2

    properties = set()
    for info in pkgutil.iter_modules(schubert_a2.__path__):
        module = importlib.import_module("schubert_a2." + info.name)
        owners = [module] + [
            c for c in vars(module).values()
            if isinstance(c, type) and c.__module__ == module.__name__
        ]
        for owner in owners:
            for obj in vars(owner).values():
                if isinstance(obj, functools.cached_property):
                    properties.add("%s.%s" % (info.name, obj.func.__qualname__))
    assert set(MEMOS) == {
        "alcove.length",
        "alcove.element_from_center",
        "alcove.format_word",
        "bruhat.hull_of",
        "qstat._base4_geometry",
        "qstat.maximal_nrs",
        "kumar.multiplicity_table_of",
        "rational._division_plan",
        "rational._form_str",
        "verify._owners",
        "verify._elements",
        "cli._build_parser",
    }
    assert all(type(table) is dict for table in MEMOS.values())
    assert properties == {"qstat._Level.below", "qstat._Level.special"}
    path = [str(Path(__file__).parent)] + sys.path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", _GROWN_STATE_PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout == "\n\n"


def test_clear_memos_is_a_full_reset(capsys, tmp_path):
    """After a run of every command, which fills every registered memo,
    clear_memos() leaves each of them empty, and a second verify run in
    the same process prints the same JSON as the first, seconds aside."""
    import json

    from schubert_a2 import cli, clear_memos

    def verify_json():
        assert cli.run(["verify", "--suite", "all", "--max-length", "8", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for row in data["results"]:
            del row["seconds"]
        return data

    for argv in every_command(str(tmp_path)):
        assert cli.run(argv + ["--json"]) == 0, argv
    capsys.readouterr()
    first = verify_json()
    assert all(MEMOS.values())
    clear_memos()
    assert {name: len(table) for name, table in MEMOS.items()} == dict.fromkeys(MEMOS, 0)
    assert verify_json() == first


def test_no_functools_memo_in_the_package():
    """Every process-wide memo is a plain dict of the registry: no module
    under the package uses functools.cache or functools.lru_cache, by
    attribute or by import."""
    import ast
    from pathlib import Path

    import schubert_a2

    names = {"cache", "lru_cache"}
    uses = []
    for path in sorted(Path(schubert_a2.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                uses.append("%s:%d functools.%s" % (path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                uses += ["%s:%d from functools import %s" % (path.name, node.lineno, a.name)
                         for a in node.names if a.name in names]
    assert uses == []


def test_import_does_not_load_multiprocessing():
    """verify runs serially, so importing the package loads no process pool
    machinery, in a fresh interpreter."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    probe = "import sys, schubert_a2; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "False\n"


def test_no_module_reads_the_environment():
    """Every answer depends only on the arguments: no module under the
    package reads os.environ or os.getenv, by attribute or by import."""
    import ast
    from pathlib import Path

    import schubert_a2

    names = {"environ", "getenv"}
    reads = []
    for path in sorted(Path(schubert_a2.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                reads.append("%s:%d os.%s" % (path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += ["%s:%d from os import %s" % (path.name, node.lineno, a.name)
                          for a in node.names if a.name in names]
    assert reads == []
