"""Exact rational functions: regressions and properties of RationalNF.

The property tests draw numerators at random and denominators from positive
real roots, so two values often have disjoint denominators.  Divisibility
and equality are checked against references that share no code with
p_div_form or RationalNF: a linear form divides a polynomial exactly when
the polynomial vanishes on the form's hyperplane, and two fractions are
equal exactly when cross-multiplying by the full denominator products gives
the same polynomial.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_a2.kumar import (
    BETA,
    is_positive_real_root,
    multiplicity_table_of,
    simple_root_action,
    smoothness_target,
)
from schubert_a2.loci import elements_of_length_at_most
from schubert_a2.rational import (
    RationalNF,
    _cancel,
    _division_plan,
    form_poly,
    p_const,
    p_div_form,
    p_mul,
    p_neg,
)

# alpha + n*delta for the finite roots alpha = b1, b2, b1 + b2
ROOTS = [
    tuple(c + n for c in base)
    for n in range(4)
    for base in ((0, 1, 0), (0, 0, 1), (0, 1, 1), (0, -1, 0), (0, 0, -1), (0, -1, -1))
    if n or base[1] + base[2] > 0
]

forms = st.sampled_from(ROOTS)
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(-3, 3).filter(bool), max_size=4
)


@st.composite
def rationals(draw):
    """A value over up to five root factors, some of which cancel."""
    num = draw(polys)
    cancelling = draw(st.lists(forms, max_size=2))
    for f in cancelling:
        num = p_mul(num, form_poly(f))
    den = draw(st.lists(forms, max_size=3)) + cancelling
    return RationalNF(num, tuple(den))


def vanishes_on_hyperplane(num, form):
    """Substitute b_p = -(sum of c_i b_i, i != p) / c_p and expand."""
    p = next(i for i, c in enumerate(form) if c)
    others = [i for i in range(3) if i != p]
    image = {}
    for k, i in enumerate(others):
        if form[i]:
            image[(1 - k, k)] = Fraction(-form[i], form[p])
    total = {}
    for e, c in num.items():
        term = {(e[others[0]], e[others[1]]): Fraction(c)}
        for _ in range(e[p]):
            product = {}
            for (u, v), a in term.items():
                for (du, dv), b in image.items():
                    key = (u + du, v + dv)
                    product[key] = product.get(key, 0) + a * b
            term = product
        for key, a in term.items():
            total[key] = total.get(key, 0) + a
    return not any(total.values())


def product(den):
    out = {(0, 0, 0): 1}
    for f in den:
        out = p_mul(out, form_poly(f))
    return out


def reference_eq(x, y):
    return p_mul(x.num, product(y.den)) == p_mul(y.num, product(x.den))


def assert_cancelled(v):
    assert list(v.den) == sorted(v.den)
    assert all(is_positive_real_root(f) for f in v.den)
    assert all(v.num.values()), v
    if v.num == {}:
        assert v.den == ()
    for f in set(v.den):
        assert not vanishes_on_hyperplane(v.num, f), (v, f)


def test_roots_are_positive_real_roots():
    assert len(ROOTS) == len(set(ROOTS)) == 21
    assert all(is_positive_real_root(f) for f in ROOTS)


def test_eq_with_disjoint_denominators():
    a = RationalNF.reciprocal((1, 0, 0))
    b = RationalNF.reciprocal((0, 1, 0))
    assert (a == b) is False
    assert a + b == RationalNF({(1, 0, 0): 1, (0, 1, 0): 1}, ((0, 1, 0), (1, 0, 0)))


def test_division_by_a_non_unit_pivot():
    # no coefficient of 2*b0 + 3*b1 + 3*b2 is a unit, and 2 does not divide 1
    assert p_div_form({(1, 0, 0): 1}, (2, 3, 3)) is None
    assert p_div_form(form_poly((2, 3, 3)), (2, 3, 3)) == {(0, 0, 0): 1}


def evaluate(num, point):
    return sum(c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2] for e, c in num.items())


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


# every positive real root with coefficient sum at most 25
ROOTS_25 = [
    (a, b, c)
    for a in range(26)
    for b in range(26 - a)
    for c in range(26 - a - b)
    if is_positive_real_root((a, b, c))
]


def test_division_plan_points_lie_on_their_hyperplanes():
    assert len(ROOTS_25) == 51
    for f in ROOTS_25:
        for form in (f, tuple(-c for c in f)):
            pivot, cp, _, _, point = _division_plan(form)
            assert form[pivot] == cp
            # every plan has a point on f = 0, unit pivot or not
            assert sum(c * p for c, p in zip(form, point)) == 0, form
    # no coefficient of 2*b0 + 3*b1 + 3*b2 is a unit, and it has a point too
    point = _division_plan((2, 3, 3))[4]
    assert point == (-9, 2, 4)


def test_a_polynomial_vanishing_at_the_point_still_goes_through_division():
    # b0 + b1 has the point (-1, 1, 2), and so has 2*b0 + b2, which b0 + b1
    # does not divide; only the long division can return None here
    assert _division_plan((1, 1, 0))[4] == (-1, 1, 2)
    g = form_poly((2, 0, 1))
    assert evaluate(g, (-1, 1, 2)) == 0
    assert p_div_form(g, (1, 1, 0)) is None
    assert p_div_form(p_mul(g, form_poly((1, 1, 0))), (1, 1, 0)) == g
    # the same for every root: a second form through its point, times a cofactor
    for f in ROOTS_25:
        point = _division_plan(f)[4]
        x, y, z = point
        # the forms through the point are spanned by these three; one of
        # them is not a multiple of f (their cross product with f is not 0)
        g = next(
            g for g in ((y, -x, 0), (z, 0, -x), (0, z, -y))
            if any(cross(f, g))
        )
        # b0 + 3*b2^2 is irreducible and not linear, so f divides neither factor
        a = p_mul(form_poly(g), {(1, 0, 0): 1, (0, 0, 2): 3})
        assert evaluate(a, point) == 0
        assert p_div_form(a, f) is None, (f, g)


def test_cancel_keeps_a_form_whose_point_is_a_false_alarm():
    # 2*b0 + b2 vanishes at (-1, 1, 2), the plan point of b0 + b1, which
    # does not divide it: the long division runs and the form stays
    f = (1, 1, 0)
    g = form_poly((2, 0, 1))
    assert evaluate(g, _division_plan(f)[4]) == 0
    assert _cancel(g, (f,), {f}) == (g, (f,))
    assert _cancel(p_mul(g, form_poly(f)), (f, f), {f}) == (g, (f,))
    # the pair step's own trial division keeps the form too
    for form, sign in ((f, 1), ((-1, -1, 0), -1)):
        first, second = RationalNF(g).sum_divided_by_form(None, form)
        assert first.den == second.den == (f,)
        assert first.num == {e: sign * c for e, c in g.items()}
        assert second.num == {e: -sign * c for e, c in g.items()}


def test_pair_step_cancels_a_form_both_addends_carry():
    # b1 / (b1 + b2) + b2 / (b1 + b2) = 1: the shared form cancels in the
    # pair step's one _cancel, beside the new root, and when it is the root
    f = (0, 1, 1)
    x = RationalNF(form_poly((0, 1, 0)), (f,))
    y = RationalNF(form_poly((0, 0, 1)), (f,))
    for form, sign in (((1, 0, 0), 1), ((-1, 0, 0), -1), (f, 1), ((0, -1, -1), -1)):
        root = tuple(sign * c for c in form)
        first, second = x.sum_divided_by_form(y, form)
        assert (first.num, first.den) == ({(0, 0, 0): sign}, (root,))
        assert (second.num, second.den) == ({(0, 0, 0): -sign}, (root,))


def _same(u, v):
    return (u.num, u.den) == (v.num, v.den)


@settings(deadline=None, max_examples=60)
@given(rationals(), rationals(), forms)
def test_pair_step_is_add_then_divide(x, y, f):
    """sum_divided_by_form gives (x + y).divided_by_form(form) and its
    negative, in the same normal form, for a positive and a negative form,
    with y absent (None) and with y = -x."""
    for form in (f, tuple(-c for c in f)):
        for other, total in ((y, x + y), (None, x), (-x, RationalNF.zero())):
            expected = total.divided_by_form(form)
            first, second = x.sum_divided_by_form(other, form)
            assert _same(first, expected) and _same(second, -expected)
            assert_cancelled(first)


def test_printing_constant_numerators():
    assert str(RationalNF.integer(-3)) == "-3"
    assert str(RationalNF.zero()) == "0"
    assert str(RationalNF(p_const(2), ((1, 1, 0), (0, 1, 0)))) == "(2) / (b1)(b0 + b1)"
    repeated = RationalNF(p_const(-1), ((0, 1, 0), (0, 1, 0), (0, 1, 1)))
    assert str(repeated) == "(-1) / (b1)(b1)(b1 + b2)"
    assert str(RationalNF({(1, 0, 0): 2, (0, 0, 0): -1}, ((0, 1, 0),))) == "(2*b0 - 1) / (b1)"


@settings(deadline=None, max_examples=40)
@given(rationals(), rationals(), rationals())
def test_ring_laws(x, y, z):
    zero, one = RationalNF.zero(), RationalNF.integer(1)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x
    assert (x - x).num == {} and (x - x).den == ()
    assert (x - y) + y == x
    assert -(-x) == x and x - y == -(y - x)


@settings(deadline=None, max_examples=60)
@given(polys, forms)
def test_division_inverts_multiplication(q, f):
    assert p_div_form(p_mul(q, form_poly(f)), f) == q
    neg = tuple(-c for c in f)
    assert p_div_form(p_mul(q, form_poly(f)), neg) == {e: -c for e, c in q.items()}


@settings(deadline=None, max_examples=60)
@given(polys, forms)
def test_division_matches_reference(a, f):
    q = p_div_form(a, f)
    assert (q is not None) == vanishes_on_hyperplane(a, f)
    if q is not None:
        assert p_mul(q, form_poly(f)) == a


@settings(deadline=None, max_examples=40)
@given(rationals(), rationals(), forms, st.booleans(), st.integers(0, 2))
def test_results_stay_cancelled(x, y, f, negate, i):
    assert_cancelled(x)
    assert_cancelled(x + y)
    assert_cancelled(x - y)
    assert_cancelled(x * y)
    # x + (y - x) needs cancellation to get back to y: the cancelled form is unique
    back = x + (y - x)
    assert_cancelled(back)
    assert (back.num, back.den) == (y.num, y.den)
    divided = x.divided_by_form(tuple(-c for c in f) if negate else f)
    assert_cancelled(divided)
    assert divided == (-x if negate else x) * RationalNF.reciprocal(f)
    images = [simple_root_action(i, b) for b in BETA]
    moved = x.substituted(images)
    assert_cancelled(moved)
    assert moved.substituted(images) == x


@settings(deadline=None, max_examples=40)
@given(rationals(), rationals(), forms, st.integers(0, 2))
def test_equality_matches_reference(x, y, f, how):
    if how == 1:
        y = x + y - y
    elif how == 2:
        # the same value given uncancelled, unsorted and with a negated form:
        # the constructor returns x's own normal form
        num = p_mul(x.num, form_poly(f))
        neg = tuple(-c for c in f)
        for den in ((f,) + x.den, x.den[::-1] + (f,)):
            y = RationalNF(num, den)
            assert (y.num, y.den) == (x.num, x.den)
            y = RationalNF(p_neg(num), (neg,) + x.den)
            assert (y.num, y.den) == (x.num, x.den)
    assert (x == y) == reference_eq(x, y)
    assert (y == x) == reference_eq(x, y)
    if how:
        assert x == y


def test_the_constructor_returns_the_normal_form():
    # a negative form's sign moves into the numerator
    v = RationalNF(p_const(1), ((0, -1, 0),))
    assert v.den == ((0, 1, 0),) and v.num == {(0, 0, 0): -1}
    assert str(v) == "(-1) / (b1)"
    # a form whose coefficients share a factor is not irreducible
    with pytest.raises(ValueError):
        RationalNF(p_const(2), ((2, 0, 0),))
    with pytest.raises(ValueError):
        RationalNF.reciprocal((2, 0, 0))
    with pytest.raises(ValueError):
        RationalNF(p_const(1), ((1, -1, 0),))
    # zero has no denominator, and zero coefficients are dropped
    zero = RationalNF({}, ((0, 1, 0),))
    assert (zero.num, zero.den) == ({}, ())
    two = RationalNF({(1, 0, 0): 0, (0, 0, 0): 2})
    assert (two.num, two.den) == ({(0, 0, 0): 2}, ())


def test_table_equality_matches_reference():
    """On every table entry with l <= 8, == against the smoothness target
    (num and den compared) agrees with cross-multiplication."""
    pairs = smooth = 0
    for w in elements_of_length_at_most(8):
        for x, v in multiplicity_table_of(w).items():
            target = smoothness_target(w, x)
            equal = v == target
            assert equal == reference_eq(v, target), (w, x)
            pairs += 1
            smooth += equal
    assert pairs == 3289 and 0 < smooth < pairs
