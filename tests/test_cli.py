"""Command-line surface: outputs, JSON schemas, exit codes, rendering."""

import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from schubert_a2.cli import run


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


def test_order(capture):
    code, out, _ = capture("order", "", "012")
    assert code == 0
    assert out.splitlines()[0] == "true true"
    assert "agree: true" in out


def test_order_json(capture):
    code, out, _ = capture("order", "21", "0121", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"fast": True, "oracle": True, "agree": True}


def test_order_parse_error(capture):
    code, _, err = capture("order", "3x", "012")
    assert code == 2 and "invalid word" in err


def test_hexagon(capture):
    code, out, _ = capture("hexagon", "0121", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["owner"] == "0121"
    assert len(data["vertices"]) == 6


def test_hexagon_spiral_precondition(capture):
    code, _, err = capture("hexagon", "012")
    assert code == 3 and "spiral" in err


def test_q_single_and_table(capture):
    code, out, _ = capture("q", "0121", "21")
    assert code == 0 and out.strip() == "0"
    code, out, _ = capture("q", "0121", "--json")
    data = json.loads(out)
    assert {e["x"] for e in data["entries"]} >= {"", "0", "0121"}


def test_q_not_below(capture):
    code, _, err = capture("q", "0121", "01210")
    assert code == 3 and "not below" in err


def test_classify(capture):
    code, out, _ = capture("classify", "0102")
    assert code == 0
    assert "classification: smooth" in out


def test_nrs_and_smooth(capture):
    code, out, _ = capture("smooth", "0102", "--json")
    data = json.loads(out)
    assert code == 0
    assert len(data["smooth"]) == len(json.loads(capture("q", "0102", "--json")[1])["entries"])
    code, out, _ = capture("nrs", "012101", "--json")
    assert code == 0
    assert json.loads(out)["summary"]["classification"] == "singular"


def test_mult(capture):
    code, out, _ = capture("mult", "0121", "0121")
    assert code == 0 and "smooth: true" in out


def test_enumerate(capture):
    code, out, _ = capture("enumerate-smooth")
    assert code == 0 and out.strip().endswith("total: 31")


def test_verify_small(capture):
    code, out, _ = capture("verify", "--max-length", "5", "--suite", "hexagon", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and len(data["results"]) == 2


def test_verify_reports_seconds_per_criterion(capture):
    code, out, _ = capture("verify", "--max-length", "5", "--suite", "lookup", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["max_length", "passed", "results", "suite"]
    for r in data["results"]:
        assert sorted(r) == ["bound", "criterion", "detail", "passed", "seconds"]
        assert r["bound"] == 5
        assert isinstance(r["seconds"], float) and r["seconds"] >= 0
    code, out, _ = capture("verify", "--max-length", "5", "--suite", "lookup")
    assert code == 0
    for line in out.splitlines()[:2]:
        assert re.fullmatch(r"PASS [a-z-]+ - \d+\.\d\d s - \d+ checks \(l <= 5\)", line), line


def test_verify_rejects_negative_bound(capture):
    code, out, err = capture("verify", "--max-length", "-1", "--suite", "q")
    assert code == 2 and out == ""
    assert err == "error: max_length must be non-negative, got -1\n"


def test_verify_has_no_workers_option(capsys):
    # verify has no --workers option: argparse rejects it as a usage error
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--workers", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: ") and "unrecognized arguments: --workers 2" in err


@pytest.mark.parametrize("bound", ["0", "2"])
def test_verify_rejects_a_bound_without_owners(capture, bound):
    code, out, err = capture("verify", "--suite", "q", "--max-length", bound)
    assert code == 2 and out == ""
    assert err == "error: q-equivalence has no owners with l <= %s\n" % bound


def test_not_below_message_uses_words(capture):
    code, _, err = capture("q", "01", "012")
    assert code == 3
    assert err == "error: 012 is not below 01\n"
    code, _, err = capture("mult", "", "0")
    assert code == 3
    assert err == "error: 0 is not below e\n"


def test_render_determinism(tmp_path, capture):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    layers = "lattice,hexagon,shells,q-heatmap,diagonals,special-segments"
    for target in (a, b):
        code, _, _ = capture(
            "render", "012101", "--out", str(target), "--payload", "q",
            "--layers", layers, "--labels", "q-values",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    tree = ET.parse(a)
    assert tree.getroot().tag.endswith("svg")
    text = a.read_text()
    assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")


def test_render_smooth_shading(tmp_path, capture):
    out = tmp_path / "locus.svg"
    code, _, _ = capture(
        "render", "010201020", "--out", str(out), "--payload", "locus",
        "--layers", "smooth",
    )
    assert code == 0
    from schubert_a2.alcove import parse_word
    from schubert_a2.loci import smooth_points
    from schubert_a2.render import DEFAULT_COLORS

    shaded = out.read_text().count('fill="%s"' % DEFAULT_COLORS["smooth"])
    assert shaded == len(smooth_points(parse_word("010201020"))) == 36


def test_render_heatmap_rings(tmp_path, capture):
    """An even-chamber type 1 owner shows concentric constant-q rings."""
    from schubert_a2.alcove import format_word, parse_word, translate_into_chamber
    from schubert_a2.qstat import q_table
    from schubert_a2.render import DEFAULT_COLORS

    w = translate_into_chamber(translate_into_chamber(parse_word("121")))
    out = tmp_path / "q.svg"
    code, _, _ = capture(
        "render", format_word(w), "--out", str(out), "--payload", "q",
        "--layers", "q-heatmap",
    )
    assert code == 0
    text = out.read_text()
    values = {q for q, _tag in q_table(w).entries.values()}
    assert values == {0, 2, 4}
    used = [c for c in DEFAULT_COLORS["heat"] if c in text]
    assert len(used) == 3  # one color per ring value


def test_render_bad_layer(tmp_path, capture):
    code, _, err = capture("render", "0121", "--out", str(tmp_path / "x.svg"),
                           "--layers", "nonsense")
    assert code == 2 and "unknown layer" in err


def test_render_spec_is_checked_before_the_payload(tmp_path, capture):
    """A bad layer on a spiral owner is malformed input (2), found before
    the hexagon payload's spiral precondition (3)."""
    out = tmp_path / "x.svg"
    code, _, err = capture("render", "012", "--out", str(out), "--layers", "lattice,hexgon")
    assert code == 2 and err == "error: unknown layer 'hexgon'\n"
    code, _, _ = capture("render", "012", "--out", str(out))
    assert code == 3 and not out.exists()


def test_render_out_in_missing_directory(tmp_path, capture):
    out = tmp_path / "missing" / "x.svg"
    code, stdout, err = capture("render", "0121", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()


def test_render_ignores_schubert_a2_config(tmp_path, capture, monkeypatch):
    """Colors are fixed: SCHUBERT_A2_CONFIG, whether it names a bad config
    or a valid-looking override, changes neither the exit code nor a byte."""
    docs = []
    for config in ("[1]", '{"hexagon": "#123456"}', None):
        if config is None:
            monkeypatch.delenv("SCHUBERT_A2_CONFIG", raising=False)
        else:
            cfg = tmp_path / ("colors%d.json" % len(docs))
            cfg.write_text(config)
            monkeypatch.setenv("SCHUBERT_A2_CONFIG", str(cfg))
        out = tmp_path / ("h%d.svg" % len(docs))
        code, _, err = capture("render", "0121", "--payload", "q",
                               "--layers", "hexagon,q-heatmap", "--out", str(out))
        assert code == 0 and err == ""
        docs.append(out.read_bytes())
    assert docs[0] == docs[1] == docs[2]


def test_runs_in_one_process_print_what_fresh_processes_print(tmp_path, capsys):
    """The parser is built once per process; a malformed argv, a q table and
    a render in turn print what each prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = str(tmp_path / "x.svg")
    for argv, expected in (
        (["q", "0121", "--bogus"], 2),
        (["q", "0121"], 0),
        (["render", "0121", "--out", out, "--payload", "q"], 0),
    ):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
        here = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "schubert_a2.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert code == fresh.returncode == expected, argv
        assert (here.out, here.err) == (fresh.stdout, fresh.stderr), argv
