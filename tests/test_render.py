"""Pinned render bytes: the demo figures, one all-layers picture and an
owner sweep; the viewport's centers against the box scan; bad specs."""

import hashlib
import random
import runpy
import sys
from pathlib import Path

import pytest

import walk
from schubert_a2 import (
    RenderSpec,
    format_word,
    format_words,
    hexagon,
    is_spiral,
    locus_report,
    parse_word,
    q_table,
    render,
)
from schubert_a2.loci import LocusReport, elements_of_length_at_most
from schubert_a2.render import LAYERS, _auto_viewport, _centers_in_viewport

DEMO = Path(__file__).resolve().parent.parent / "demos" / "figures.py"

# sha256 of each SVG, recorded before the shell rings were drawn through
# bruhat.line_meet; any moved pixel changes them.
FIGURE_DIGESTS = {
    "hexagon.svg": "c965c8fd686ea8a097263c02a6c370c7991a3f86173d4d4ac9bafb53cef3dcfb",
    "q-rings.svg": "bf14487398387fe631f1b30d9a53594ca10dbddc744461fd5fbe04e023fef86e",
    "smooth-locus.svg": "0c30f453c1ca3e982595671f90ff980f7337f497a0e5840593b70f2a03f1d0f6",
}
ALL_LAYERS_DIGEST = "cbc82431a11485fed793685f7b28bb4899b453dc6bf91332c7eec6d9d5ad0593"
# sha256 of the concatenated sweep of test_owner_sweep_is_pinned, recorded
# before the lattice was scanned by rows and formatted per integer key.
SWEEP_LENGTH = 6
SWEEP_DIGEST = "05cb9b7153faa059cc561e8cfaa27445444cab9ecf16d8473e369efbde95a828"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_demo_figures_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(DEMO), str(tmp_path)])
    runpy.run_path(str(DEMO), run_name="__main__")
    for name, digest in FIGURE_DIGESTS.items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name


def test_all_layers_render_is_pinned():
    doc = render(RenderSpec(layers=LAYERS, labels="words"), q_table(parse_word("012101201")))
    assert _sha256(doc.encode()) == ALL_LAYERS_DIGEST


def _owners(n):
    """Every owner with l <= n, sorted by length and word."""
    words = format_words(elements_of_length_at_most(n))
    return sorted(words, key=lambda w: (len(words[w]), words[w]))


def test_owner_sweep_is_pinned():
    """All layers, each label mode, each payload kind (a hexagon off the
    strips, a q table, a locus report) for every owner with l <= 6."""
    digest = hashlib.sha256()
    count = 0
    for w in _owners(SWEEP_LENGTH):
        payloads = [] if is_spiral(w) else [hexagon(w)]
        for payload in payloads + [q_table(w), locus_report(w)]:
            for labels in ("none", "q-values", "words"):
                digest.update(render(RenderSpec(layers=LAYERS, labels=labels), payload).encode())
                count += 1
    assert count == 474
    assert digest.hexdigest() == SWEEP_DIGEST


def test_viewport_centers_match_the_box_scan():
    for w in _owners(12):
        vp = _auto_viewport(w)
        assert _centers_in_viewport(vp) == walk.centers_in_box(vp), vp


def test_shuffled_locus_report_renders_the_same():
    """(member, record) pairs out of order: the fills read each record's
    own member, not the report's order."""
    spec = RenderSpec(layers=LAYERS, labels="words")
    rng = random.Random(0)
    for text in ("012101201", "0120120", "2102102102102"):
        report = locus_report(parse_word(text))
        pairs = list(zip(report.members, report.records))
        rng.shuffle(pairs)
        members, records = (list(t) for t in zip(*pairs))
        shuffled = LocusReport(report.owner, members, records, report.summary)
        assert render(spec, shuffled) == render(spec, report), text


def test_locus_report_members_are_its_record_elements():
    for text in ("012101201", "2102102102102", ""):
        report = locus_report(parse_word(text))
        assert [format_word(x) for x in report.members] == [r["x"] for r in report.records]


@pytest.mark.parametrize(
    "spec, message",
    [
        (RenderSpec(labels="q-value"), "unknown label mode 'q-value'"),
        (RenderSpec(layers=("lattice", "hexgon")), "unknown layer 'hexgon'"),
    ],
)
def test_bad_spec_is_a_value_error(spec, message):
    """A mistyped label mode or layer is an error, not a words picture or a
    dropped layer."""
    with pytest.raises(ValueError, match=message):
        render(spec, hexagon(parse_word("0121")))
