"""Acceptance gate: every structural claim at its full stated bound.

All arithmetic is exact, so every comparison is equality; there are no
tolerances.  Each test prints one PASS/FAIL line (visible with pytest -s
or in the captured output on failure).
"""

import pytest

from schubert_a2 import verify


def _run(key, max_length):
    result = verify.run_criterion(key, max_length=max_length)
    line = "%s %-22s %s" % ("PASS" if result.passed else "FAIL", result.criterion,
                            result.detail)
    print(line)
    assert result.passed, line
    assert result.bound == max_length, line
    return result


def test_01_hexagon_theorem():
    """Intervals of non-spiral owners equal the subexpression oracle, l <= 12."""
    _run("hexagon", max_length=12)


def test_02_spiral_hulls():
    """Intervals of spiral owners equal the oracle via degenerate hulls, l <= 12."""
    _run("spiral-hulls", max_length=12)


def test_03_q_equivalence():
    """q_structured equals q_brute for every non-spiral owner, l <= 12."""
    _run("q", max_length=12)


def test_04_translation_move():
    """q(t(a)w, x) = q(w, x) + 2 and l(t(a)w) = l(w) + 4, l(w) <= 12."""
    _run("translation", max_length=12)


def test_05_heredity_and_lookup():
    """q-heredity and the trivial lookup pointwise to l <= 12, and the
    one-step lookup for every owner (spiral included) to l <= 12."""
    _run("heredity", max_length=12)
    _run("lookup", max_length=12)


def test_06_kumar_cross_check():
    """Closed-form smooth loci and maximal singular points equal the
    multiplicity test for every owner with l <= 12, and multiplicities agree
    across both canonical words."""
    _run("kumar", max_length=12)


def test_07_setup_and_simple_moves():
    """Setup Move identities (both sides) and Simple Move invariances hold
    on every eligible triple with l(w) <= 12."""
    _run("setup", max_length=12)


def test_08_global_enumerations():
    """31 smooth varieties (1,3,6,9,6,6 by length), the 64-element census
    with 33 singular members, and the four-case rational smoothness test."""
    _run("enumerations", max_length=12)


def test_09_loci_structure():
    """Maximal nrs points match the case list (6 <= l <= 12), codimensions,
    the 36-point ceiling and witness, and the smooth length bounds.  (The
    maximal singular points are checked with the multiplicity test in
    test 06.)"""
    _run("loci", max_length=12)


def test_10_inversion_identity():
    """#{reflections r : rw < w} = l(w) for every w with l <= 12."""
    _run("inversions", max_length=12)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
