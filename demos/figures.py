"""Reproduce the three standard alcove pictures as SVG files.

Run with  python demos/figures.py [output-directory]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schubert_a2 import RenderSpec, hexagon, parse_word, render
from schubert_a2.alcove import translate_into_chamber
from schubert_a2.loci import locus_report
from schubert_a2.qstat import q_table


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)

    # an odd-chamber hexagon with its diagonals and special segments
    w = parse_word("012101201")
    doc = render(
        RenderSpec(layers=("lattice", "chambers", "hexagon", "diagonals",
                           "special-segments")),
        hexagon(w),
    )
    (outdir / "hexagon.svg").write_text(doc)

    # concentric q rings for a twice-translated even-chamber owner
    w = translate_into_chamber(translate_into_chamber(parse_word("121")))
    doc = render(
        RenderSpec(layers=("lattice", "hexagon", "shells", "q-heatmap"),
                   labels="q-values"),
        q_table(w),
    )
    (outdir / "q-rings.svg").write_text(doc)

    # the 36 smooth alcoves of a generic type 1 owner
    w = parse_word("12010201021")
    doc = render(
        RenderSpec(layers=("lattice", "hexagon", "smooth")),
        locus_report(w),
    )
    (outdir / "smooth-locus.svg").write_text(doc)

    for name in ("hexagon.svg", "q-rings.svg", "smooth-locus.svg"):
        print("wrote", outdir / name)


if __name__ == "__main__":
    main()
