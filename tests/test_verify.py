"""The verification harness itself: suites, workers, determinism."""

import pytest

from schubert_a2.verify import SUITES, run_suite


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_negative_bound_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        run_suite("q", max_length=-1)


def test_suite_names_cover_criteria():
    assert set(SUITES) == {"hexagon", "q", "lookup", "kumar", "loci", "all"}
    assert len(SUITES["all"]) == 11


def test_workers_match_serial():
    serial = run_suite("q", max_length=6, workers=1)
    parallel = run_suite("q", max_length=6, workers=2)
    assert serial == parallel
    assert all(r.passed for r in serial)
