"""Real roots, multiplicities, the smoothness test, Setup and Simple Moves."""

import hashlib
import random

import pytest

from schubert_a2 import kumar, rational
from schubert_a2.alcove import (
    E,
    AffineElement,
    S0,
    S1,
    S2,
    SIMPLES,
    display_word,
    element_to_word,
    format_word,
    is_spiral,
    length,
    parse_word,
    spiral_factorizations,
    word_to_element,
)
from schubert_a2.bruhat import interval, leq
from schubert_a2.kumar import (
    BETA,
    SetupHypothesisError,
    _STEP,
    _extend,
    _level_root,
    equivariant_multiplicity,
    kumar_smooth,
    kumar_smooth_set,
    multiplicity_table,
    multiplicity_table_of,
    multiplicity_tables,
    psi_set,
    setup_move_check,
    simple_root_action,
    smoothness_target,
)
from schubert_a2.loci import elements_of_length_at_most
from schubert_a2.memos import MEMOS
from schubert_a2.qstat import NotComparableError, q_brute
from schubert_a2.rational import RationalNF, p_const
import walk
from walk import (
    NotRealRootError,
    element_root_action,
    is_positive_real_root,
    is_real_root,
    root_to_reflection,
)

ELEMENTS = sorted(elements_of_length_at_most(7), key=lambda w: (length(w), format_word(w)))


def test_simple_root_action():
    assert simple_root_action(1, BETA[2]) == (0, 1, 1)  # s1(b2) = b1 + b2
    assert simple_root_action(1, BETA[1]) == (0, -1, 0)
    assert simple_root_action(0, BETA[1]) == (1, 1, 0)


def test_realness():
    assert is_real_root((1, 0, 0)) and is_real_root((0, 1, 1))
    assert not is_real_root((1, 1, 1))  # delta is imaginary
    assert not is_real_root((2, 0, 1))
    assert is_positive_real_root((2, 3, 3))
    assert not is_positive_real_root((0, -1, 0))


def test_inverse_action():
    random.seed(1)
    for _ in range(150):
        w = word_to_element([random.randrange(3) for _ in range(9)])
        r = (random.randrange(-4, 5), random.randrange(-4, 5), random.randrange(-4, 5))
        assert element_root_action(w, element_root_action(w.inverse(), r)) == r


def test_step_table_gives_the_word_walk_root_images():
    """For every z = t(l0, l1) * f with l <= 12 and every letter i, _STEP[f][i]
    gives z * s_i and z(b_i) = f(b_i) - (u * l0 + v * l1) * (1, 1, 1), the
    image walk.action_matrix finds by walking a reduced word of z, and
    element_root_action agrees with that matrix on each b_i and on a
    mixed root."""
    owners = elements_of_length_at_most(12)
    assert len(owners) == 235
    for z in owners:
        (l0, l1), f = z
        cols = walk.action_matrix(z)
        for i in range(3):
            d0, d1, g, root, u, v = _STEP[f][i]
            assert AffineElement((l0 + d0, l1 + d1), g) == z * SIMPLES[i], (format_word(z), i)
            k = u * l0 + v * l1
            assert tuple(c - k for c in root) == cols[i], (format_word(z), i)
            assert element_root_action(z, BETA[i]) == cols[i], (format_word(z), i)
        mixed = tuple(sum(r * col[m] for r, col in zip((2, -1, 3), cols)) for m in range(3))
        assert element_root_action(z, (2, -1, 3)) == mixed, format_word(z)


def test_root_reflection_bijection_simples():
    assert root_to_reflection(BETA[1]).element() == S1
    assert root_to_reflection(BETA[2]).element() == S2
    assert root_to_reflection(BETA[0]).element() == S0
    with pytest.raises(NotRealRootError):
        root_to_reflection((1, 1, 1))
    with pytest.raises(NotRealRootError):
        root_to_reflection((0, -1, 0))


def test_bijection_word_conjugation_oracle():
    """The reflection of w(b_i) is w s_i w^{-1}, for every positive real
    root with coefficient sum at most 25."""
    bound = 25
    witnesses = {BETA[i]: (E, i) for i in range(3)}
    frontier = list(witnesses)
    while frontier:
        new = []
        for r in frontier:
            w, i = witnesses[r]
            for j in range(3):
                r2 = simple_root_action(j, r)
                key = r2 if all(c >= 0 for c in r2) else tuple(-c for c in r2)
                if sum(key) <= bound + 3 and key not in witnesses:
                    witnesses[key] = (SIMPLES[j] * w, i)
                    new.append(key)
        frontier = new
    checked = 0
    for r, (w, i) in sorted(witnesses.items()):
        if sum(r) > bound:
            continue
        image = element_root_action(w, BETA[i])
        assert image == r or image == tuple(-c for c in r)
        assert root_to_reflection(r).element() == w * SIMPLES[i] * w.inverse()
        assert _level_root(*root_to_reflection(r)) == r
        checked += 1
    expected = sum(1 for r in _all_positive_real_roots(bound))
    assert checked == expected and checked >= 40


def _all_positive_real_roots(bound):
    finite = [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, -1, 0), (0, 0, -1), (0, -1, -1)]
    for base in finite:
        n = 0
        while True:
            r = tuple(c + n for c in base)
            if sum(r) > bound:
                break
            if all(c >= 0 for c in r) and any(r):
                yield r
            n += 1


def test_psi_examples():
    for i in range(3):
        assert psi_set(SIMPLES[i], E) == {BETA[i]}
    with pytest.raises(NotComparableError):
        psi_set(parse_word("01"), parse_word("21"))


def test_psi_counts_to_length_10():
    """|Psi(w, x)| equals the reflection count q(w, x) + l(w), exhaustively."""
    for w in sorted(elements_of_length_at_most(10), key=length):
        lw = length(w)
        for x in interval(w):
            psis = psi_set(w, x)
            assert all(is_positive_real_root(r) for r in psis)
            assert len(psis) == q_brute(w, x) + lw


def test_psi_set_raises_exactly_off_the_interval():
    """psi_set reads the hull once and asks require_below only when x's
    center is outside it: it raises NotComparableError, with
    require_below's message, exactly when leq(x, w) is false, for every
    l(w) <= 10 and l(x) <= l(w) + 1."""
    candidates = sorted(elements_of_length_at_most(11), key=length)
    pairs = raised = 0
    for w in elements_of_length_at_most(10):
        for x in candidates:
            if length(x) > length(w) + 1:
                break
            try:
                psi_set(w, x)
            except NotComparableError as exc:
                assert not leq(x, w)
                assert str(exc) == "%s is not below %s" % (display_word(x), display_word(w))
                raised += 1
            else:
                assert leq(x, w)
            pairs += 1
    assert (pairs, raised) == (19474, 19474 - 7831)


def test_psi_by_chord_arithmetic_matches_the_partner_walk():
    """psi_set equals the reference built from reflection partners and
    root_to_reflection, on every x <= w with l(w) <= 12."""
    pairs = 0
    for w in elements_of_length_at_most(12):
        for x in interval(w):
            assert psi_set(w, x) == walk.psi_set(w, x), (format_word(w), format_word(x))
            pairs += 1
    assert pairs == 16021


def test_memoized_tables_extend_their_prefix():
    """multiplicity_table_of, one letter past the memoized table of its
    prefix, equals a fresh pass over element_to_word(w), in entries, key
    order and printed values, for every w with l <= 10 visited in shuffled
    order from an empty memo.  The fresh pass is the trie walk, which reads
    no memo."""
    owners = sorted(elements_of_length_at_most(10), key=lambda w: (length(w), format_word(w)))
    random.Random(10).shuffle(owners)
    MEMOS["kumar.multiplicity_table_of"].clear()
    for w in owners:
        memo = multiplicity_table_of(w)
        ((_, fresh),) = multiplicity_tables([element_to_word(w)])
        assert list(memo) == list(fresh), format_word(w)
        assert memo == fresh, format_word(w)
        assert [str(v) for v in memo.values()] == [str(v) for v in fresh.values()]
    assert len(owners) == 166


def _printed(table):
    return [(format_word(x), str(v)) for x, v in table.items()]


def test_pair_step_matches_the_two_branch_reference():
    """The memoized table and a fresh pass over element_to_word(w), and
    multiplicity_table over both spiral-factorisation words, equal the
    two-branch reference on the same word, in keys, key order and printed
    values, for every owner with l <= 10; so does every table of one trie
    walk over all the factorisation words, which share prefixes."""
    words = 0
    factorization_refs = {}
    for w in sorted(elements_of_length_at_most(10), key=lambda w: (length(w), format_word(w))):
        word = element_to_word(w)
        ref = _printed(walk.multiplicity_table(word))
        assert _printed(multiplicity_table_of(w)) == ref, format_word(w)
        ((_, fresh),) = multiplicity_tables([word])
        assert _printed(fresh) == ref, format_word(w)
        words += 1
        if not is_spiral(w):
            for u, v in spiral_factorizations(w):
                word = element_to_word(u) + element_to_word(v)
                ref = _printed(walk.multiplicity_table(word))
                assert _printed(multiplicity_table(word)) == ref
                factorization_refs[tuple(word)] = ref
                words += 1
    assert words == 166 + 2 * 108
    walked = [
        (word, _printed(table))
        for word, table in multiplicity_tables(list(factorization_refs))
    ]
    assert walked == sorted(factorization_refs.items())


def _canonical_prefix_length(word):
    """The largest k with word[:k] == element_to_word of its own product."""
    return max(
        k for k in range(len(word) + 1)
        if element_to_word(word_to_element(word[:k])) == list(word[:k])
    )


def test_word_tables_extend_only_past_the_longest_canonical_prefix(monkeypatch):
    """With every table of l <= 10 memoized, multiplicity_table over each
    spiral-factorisation word of an owner with l <= 10 makes one _extend
    step per letter after the word's longest canonical prefix, and its
    table is the two-branch reference's in keys, key order and printed
    values."""
    owners = sorted(elements_of_length_at_most(10), key=lambda w: (length(w), format_word(w)))
    for w in owners:
        multiplicity_table_of(w)
    steps = [0]
    extend = kumar._extend

    def counting(table, i):
        steps[0] += 1
        return extend(table, i)

    monkeypatch.setattr(kumar, "_extend", counting)
    letters = extended = 0
    for w in owners:
        if is_spiral(w):
            continue
        for u, v in spiral_factorizations(w):
            word = element_to_word(u) + element_to_word(v)
            steps[0] = 0
            table = multiplicity_table(word)
            assert steps[0] == len(word) - _canonical_prefix_length(word), word
            assert _printed(table) == _printed(walk.multiplicity_table(word)), word
            letters += len(word)
            extended += steps[0]
    assert extended < letters


def test_word_route_of_equivariant_multiplicity_reads_no_memo(monkeypatch):
    """equivariant_multiplicity with a word is a second route to the
    memoized value: a fresh pass that neither reads nor fills the memo.
    Reading the memo means calling multiplicity_table_of, which raises
    here, and filling it would change the memo's entries."""
    memo = MEMOS["kumar.multiplicity_table_of"]
    memo.clear()
    multiplicity_table_of(parse_word("0121"))
    before = dict(memo)

    def raising(w):
        raise AssertionError("the memo was read")

    monkeypatch.setattr(kumar, "multiplicity_table_of", raising)
    for text in ("01210", "012101", "0121"):
        w = parse_word(text)
        value = equivariant_multiplicity(w, E, [int(c) for c in text])
        assert value == walk.multiplicity_table([int(c) for c in text])[E]
    assert memo.keys() == before.keys()
    assert all(memo[w] is table for w, table in before.items())


def test_forward_pass_negates_once_per_pair_and_multiplies_nothing(monkeypatch):
    """One letter of the forward pass costs each pair {z, z * s_i} one
    numerator negation, and z * s_i comes from the step table: over the
    word of w16 the pass calls p_neg once per pair and never
    AffineElement.__mul__, and its table is the two-branch reference's."""
    counts = {"p_neg": 0, "mul": 0}
    p_neg, mul = rational.p_neg, AffineElement.__mul__

    def counting_neg(p):
        counts["p_neg"] += 1
        return p_neg(p)

    def counting_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    word = [int(c) for c in "0120120120120102"]
    monkeypatch.setattr(rational, "p_neg", counting_neg)
    monkeypatch.setattr(AffineElement, "__mul__", counting_mul)
    table = {E: RationalNF.integer(1)}
    pairs = 0
    for i in word:
        table = _extend(table, i)
        pairs += len(table) // 2
    monkeypatch.undo()
    assert counts == {"p_neg": pairs, "mul": 0}
    assert pairs == 603
    assert _printed(table) == _printed(walk.multiplicity_table(word))


def test_setup_moves_build_each_product_once(monkeypatch):
    """A Setup Move builds ws and xs once each, and xs only once w < ws
    holds; the clauses keep their order and messages."""
    count = [0]
    mul = AffineElement.__mul__

    def counting_mul(a, b):
        count[0] += 1
        return mul(a, b)

    w = parse_word("0121")
    cases = [
        (parse_word("010"), 0, "right", "x <= w"),
        (E, 1, "right", "w < ws"),
        (E, 0, "right", "xs not<= w"),
        (E, 0, "left", "w < sw"),
        (E, 1, "left", "sx not<= w"),
        (parse_word("01"), 0, "right", None),
        (parse_word("0"), 1, "left", None),
    ]
    for x, i, side, _ in cases:  # warms the memos the moves read
        try:
            setup_move_check(w, x, i, side)
        except SetupHypothesisError:
            pass
    monkeypatch.setattr(AffineElement, "__mul__", counting_mul)
    for x, i, side, clause in cases:
        count[0] = 0
        try:
            assert setup_move_check(w, x, i, side)
            failed = None
        except SetupHypothesisError as exc:
            failed = str(exc)
        assert failed == (clause and clause + " fails"), (format_word(x), i, side)
        assert count[0] == {"x <= w": 0, "w < ws": 1, "w < sw": 1}.get(clause, 2)


def test_multiplicity_tables_are_pinned():
    """sha256 of every printed table value with l(w) <= 10, owners and
    entries by length then word; recorded before the tables were memoized
    by prefix and before denominators were printed from a cache."""
    h = hashlib.sha256()
    entries = 0
    for w in sorted(elements_of_length_at_most(10), key=lambda w: (length(w), format_word(w))):
        tab = multiplicity_table_of(w)
        for x in sorted(tab, key=lambda x: (length(x), format_word(x))):
            h.update(("%s\t%s\t%s\n" % (format_word(w), format_word(x), tab[x])).encode())
            entries += 1
    assert entries == 7831
    assert h.hexdigest() == "935dae8635ad64ace1fc3a024eb2527c7f91d9db208cc4e958b17fb0f081050f"


def test_trivial_multiplicities():
    assert equivariant_multiplicity(E, E, []) == RationalNF.integer(1)
    for i in range(3):
        val = equivariant_multiplicity(SIMPLES[i], E, [i])
        assert val == RationalNF(p_const(-1), (BETA[i],))
    # x not below w gives zero
    assert equivariant_multiplicity(S1, S2) == RationalNF.zero()


def test_multiplicity_word_validation():
    with pytest.raises(ValueError):
        equivariant_multiplicity(S1, E, [2])  # wrong element
    with pytest.raises(ValueError):
        multiplicity_table([1, 1])  # not reduced


def test_word_independence_across_canonical_factorizations():
    random.seed(4)
    candidates = [w for w in ELEMENTS if not is_spiral(w) and 3 <= length(w) <= 7]
    for w in random.sample(candidates, 30):
        words = [
            element_to_word(u) + element_to_word(v)
            for u, v in spiral_factorizations(w)
        ]
        t1 = multiplicity_table(words[0])
        t2 = multiplicity_table(words[1])
        assert set(t1) == set(t2)
        for x in t1:
            assert t1[x] == t2[x]


def test_kumar_smooth_basics():
    for w in ELEMENTS:
        if length(w) > 6:
            continue
        assert kumar_smooth(w, w)
        for x in interval(w):
            if length(x) == length(w) - 1:
                assert kumar_smooth(w, x)
    with pytest.raises(NotComparableError):
        kumar_smooth(parse_word("01"), parse_word("21"))


def test_kumar_matches_closed_form_smooth_locus():
    from schubert_a2.loci import smooth_points

    for w in ELEMENTS:
        assert kumar_smooth_set(w) == smooth_points(w), format_word(w)


def test_setup_moves_exhaustive_to_6():
    count = 0
    for w in ELEMENTS:
        if length(w) > 6:
            continue
        for x in interval(w):
            for i in range(3):
                for side in ("right", "left"):
                    try:
                        ok = setup_move_check(w, x, i, side)
                    except SetupHypothesisError:
                        continue
                    assert ok, (format_word(w), format_word(x), i, side)
                    count += 1
    assert count > 1000


def test_setup_hypothesis_errors_name_clause():
    w = parse_word("01")
    with pytest.raises(SetupHypothesisError, match="x <= w"):
        setup_move_check(w, parse_word("21"), 0)
    # w0 > w for the ascent test: choose s with ws < w
    with pytest.raises(SetupHypothesisError, match="w < ws"):
        setup_move_check(w, E, 1)
    # xs <= w violation
    with pytest.raises(SetupHypothesisError, match="xs"):
        setup_move_check(w, E, 0)


def test_setup_psi_identity_directly():
    """Psi(ws, xs) adds exactly the image root x(b_i)."""
    done = 0
    for w in ELEMENTS:
        if length(w) > 5:
            continue
        for x in interval(w):
            for i in range(3):
                s = SIMPLES[i]
                if not (length(w * s) > length(w) and not leq(x * s, w)):
                    continue
                extra = element_root_action(x, BETA[i])
                assert psi_set(w * s, x * s) == psi_set(w, x) | {extra}
                assert extra not in psi_set(w, x)
                # Maximum Principle: xs < ws
                assert leq(x * s, w * s) and length(x * s) == length(x) + 1
                done += 1
    assert done > 300


def test_rationalnf_arithmetic():
    a = RationalNF.reciprocal((0, 1, 0))
    b = RationalNF.reciprocal((1, 1, 0))
    c = RationalNF.reciprocal((1, 2, 1))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a - a == RationalNF.zero()
    # cancellation does not change the value: (f*g)/(f) == g as polynomials
    from schubert_a2.rational import p_mul_form

    num = p_mul_form(p_const(3), (0, 1, 0))
    v = RationalNF(num, ((0, 1, 0),))
    assert v == RationalNF.integer(3)
    # signs are pulled out of negative forms
    neg = RationalNF.reciprocal((0, -1, 0))
    assert neg == -a
    with pytest.raises(ValueError):
        RationalNF.reciprocal((1, -1, 0))


def test_exact_division_handles_degree_gaps():
    """Long division must reach degrees created by its own subtractions."""
    from schubert_a2.rational import form_poly, p_div_form, p_mul

    a = {(3, 0, 0): 1, (0, 3, 0): 1}  # b0^3 + b1^3
    q = p_div_form(a, (1, 1, 0))
    assert q == {(2, 0, 0): 1, (1, 1, 0): -1, (0, 2, 0): 1}
    assert p_mul(q, form_poly((1, 1, 0))) == a
    assert p_div_form({(3, 0, 0): 1, (0, 1, 0): 1}, (1, 1, 0)) is None
    random.seed(5)
    for _ in range(200):
        f = random.choice([(1, 1, 0), (0, 1, 1), (2, 3, 3), (1, 2, 1)])
        q0 = {}
        for _ in range(random.randrange(1, 5)):
            e = (random.randrange(3), random.randrange(3), random.randrange(3))
            q0[e] = q0.get(e, 0) + random.randrange(-4, 5)
        q0 = {e: c for e, c in q0.items() if c}
        prod = p_mul(q0, form_poly(f))
        assert p_div_form(prod, f) == q0


def test_rationalnf_substitution():
    # applying s_i twice is the identity on rational functions
    val = equivariant_multiplicity(parse_word("012"), parse_word("01"))
    images = [simple_root_action(1, b) for b in BETA]
    assert val.substituted(images).substituted(images) == val


def test_substitution_needs_no_renormalization():
    """A simple reflection keeps a cancelled value cancelled: on every table
    entry with l <= 8, substituted() already returns its own normal form."""
    reflections = [[simple_root_action(i, b) for b in BETA] for i in range(3)]
    checked = 0
    for w in elements_of_length_at_most(8):
        for v in multiplicity_table_of(w).values():
            for images in reflections:
                moved = v.substituted(images)
                normal = RationalNF(moved.num, moved.den)
                assert (moved.num, moved.den) == (normal.num, normal.den), (w, v)
                checked += 1
    assert checked == 3 * 3289


def test_printing_format():
    val = equivariant_multiplicity(SIMPLES[1], E, [1])
    assert str(val) == "(-1) / (b1)"
    assert str(RationalNF.integer(0)) == "0"
    assert str(smoothness_target(S1, E)) == "(-1) / (b1)"
