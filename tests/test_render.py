"""Pinned render bytes: the demo figures and one all-layers picture."""

import hashlib
import runpy
import sys
from pathlib import Path

from schubert_a2 import RenderSpec, parse_word, q_table, render
from schubert_a2.render import LAYERS

DEMO = Path(__file__).resolve().parent.parent / "demos" / "figures.py"

# sha256 of each SVG, recorded before the shell rings were drawn through
# bruhat.line_meet; any moved pixel changes them.
FIGURE_DIGESTS = {
    "hexagon.svg": "c965c8fd686ea8a097263c02a6c370c7991a3f86173d4d4ac9bafb53cef3dcfb",
    "q-rings.svg": "bf14487398387fe631f1b30d9a53594ca10dbddc744461fd5fbe04e023fef86e",
    "smooth-locus.svg": "0c30f453c1ca3e982595671f90ff980f7337f497a0e5840593b70f2a03f1d0f6",
}
ALL_LAYERS_DIGEST = "cbc82431a11485fed793685f7b28bb4899b453dc6bf91332c7eec6d9d5ad0593"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_demo_figures_are_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("SCHUBERT_A2_CONFIG", raising=False)
    monkeypatch.setattr(sys, "argv", [str(DEMO), str(tmp_path)])
    runpy.run_path(str(DEMO), run_name="__main__")
    for name, digest in FIGURE_DIGESTS.items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name


def test_all_layers_render_is_pinned(monkeypatch):
    monkeypatch.delenv("SCHUBERT_A2_CONFIG", raising=False)
    doc = render(RenderSpec(layers=LAYERS, labels="words"), q_table(parse_word("012101201")))
    assert _sha256(doc.encode()) == ALL_LAYERS_DIGEST
