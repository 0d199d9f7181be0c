"""The golden answer digests of tests/data/answers.json, recomputed for the
owners with l <= 14 and the multiplicity tables with l <= 10, and the
golden verify report of tests/data/verify.json at l <= 10.  The CI step
`python tests/make_answers.py --check` recomputes both files."""

import make_answers


def test_answers_match_the_golden_digests():
    expected = make_answers.load()
    got = make_answers.answers(max_length=14, table_max_length=10)
    assert len(got["digests"]["q"]) == 316 and len(got["digests"]["table"]) == 166
    diff = make_answers.first_difference(expected, got)
    assert diff is None, diff


def test_verify_report_matches_the_golden_report():
    expected = make_answers.load(make_answers.VERIFY_PATH)
    assert sorted(expected) == ["10", "12"]
    got = make_answers.verify_report(10)
    assert got["passed"] and len(got["results"]) == 11
    assert got == expected["10"]
