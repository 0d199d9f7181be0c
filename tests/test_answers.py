"""The golden answer digests of tests/data/answers.json, recomputed for the
owners with l <= 14 and the multiplicity tables with l <= 10.  The CI step
`python tests/make_answers.py --check` recomputes the whole file."""

import make_answers


def test_answers_match_the_golden_digests():
    expected = make_answers.load()
    got = make_answers.answers(max_length=14, table_max_length=10)
    assert len(got["digests"]["q"]) == 316 and len(got["digests"]["table"]) == 166
    diff = make_answers.first_difference(expected, got)
    assert diff is None, diff
