"""Sparse exact arithmetic for the rational functions of the smoothness test.

Polynomials live in three variables b0, b1, b2 with integer coefficients,
stored as maps from exponent triples to nonzero coefficients.  A RationalNF
num / den is always in one normal form:
  * den is a sorted tuple of positive primitive linear forms, one per
    denominator factor (the real roots are such forms);
  * no form in den divides num;
  * num has no zero coefficient, and zero is ({}, ()).
The normal form is unique, so == compares (num, den).  A primitive linear
form is irreducible in the UFD Z[b0,b1,b2], and two distinct positive ones
are not associates, the units being +-1.  If n1 / d1 = n2 / d2 with both in
normal form, then n1 * d2 = n2 * d1.  A form f of either denominator
divides neither numerator, so its multiplicity in n1 * d2 is its
multiplicity in d2, and in n2 * d1 its multiplicity in d1: these agree.
Hence d1 = d2, and n1 = n2 since the ring is a domain.

The constructor RationalNF(num, den) returns the normal form of its input:
each den form is made positive, its sign moving into num (a mixed-sign form
raises ValueError), and then cancelled.  _division_plan, which every
division and every constructor call with a nonzero numerator reaches,
raises ValueError for a form whose coefficients share a factor.  The
arithmetic here, and kumar's smoothness target, build values they know to
be normal with _nf, the package's one unchecked builder.

All arithmetic is on integers.  Every form is primitive, so by Gauss's
lemma an exact quotient by one is integral, and long division
(_long_division) can stop at the first leading coefficient the pivot
coefficient does not divide.  What a division needs of its form (pivot,
shifts, the other terms) is a plan, built once per form.  The plan also
holds an integer point of the form's hyperplane; a polynomial that does
not vanish there is not divisible by the form, which settles most failing
trial divisions exactly, with no division run.  Every trial division is
still made, and all of them, p_div_form's and the pair step's included,
are _cancel's: it evaluates that certificate inline and runs
_long_division only where the value is 0.  Keeping values cancelled is
cheap because a cancelled numerator limits what can cancel next:
  * a form that does not divide a polynomial does not divide any quotient of
    it, so one pass over the distinct forms cancels a fraction completely;
  * dividing a cancelled value by a form needs one trial division, by that
    form only;
  * in a sum, only forms both addends carry equally often can cancel;
  * a ring automorphism such as a simple reflection keeps a value
    cancelled, so substitution needs no division at all.
"""

from __future__ import annotations

import math

from .memos import memo


ZERO_EXP = (0, 0, 0)


def p_const(c):
    return {ZERO_EXP: c} if c else {}


def p_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_neg(a):
    return {e: -c for e, c in a.items()}


def p_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def form_poly(form):
    """The linear form c0*b0 + c1*b1 + c2*b2 as a polynomial."""
    p = {}
    for i, c in enumerate(form):
        if c:
            e = [0, 0, 0]
            e[i] = 1
            p[tuple(e)] = c
    return p


def p_mul_form(a, form):
    # the form's terms as (exponent shift, coefficient), built once per call
    terms = [(i == 0, i == 1, i == 2, k) for i, k in enumerate(form) if k]
    out = {}
    for (e0, e1, e2), c in a.items():
        for d0, d1, d2, k in terms:
            e = (e0 + d0, e1 + d1, e2 + d2)
            s = out.get(e, 0) + c * k
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


_PLANS = memo("rational._division_plan")


def _division_plan(form):
    """(pivot, cp, shift, rest, point): what long division by a nonzero
    linear form needs, computed once per form.

    The pivot is a variable with a unit coefficient if there is one, cp its
    coefficient, shift the exponent change b^e -> b^e / b_pivot of a
    quotient term, and rest the other terms (exponent change b^e -> b^e *
    b_i / b_pivot, coefficient of b_i).  point is an integer point of the
    hyperplane form = 0: b_i = cp and b_j = 2 * cp for the other two
    variables, and b_pivot = -(f_i + 2 * f_j), so the form's value there is
    cp * (f_i + 2 * f_j) - cp * (f_i + 2 * f_j) = 0 whatever cp is.

    Raises ValueError for a form whose coefficients share a factor: such a
    form is not irreducible, and the normal form rests on irreducibility.
    """
    try:
        return _PLANS[form]
    except KeyError:
        pass
    if math.gcd(*form) != 1:
        raise ValueError("linear form %r is not primitive" % (form,))
    for pivot, cp in enumerate(form):
        if cp in (1, -1):
            break
    else:
        pivot, cp = next((i, c) for i, c in enumerate(form) if c)
    shift = tuple(-(i == pivot) for i in range(3))
    rest = tuple(
        (shift[0] + (i == 0), shift[1] + (i == 1), shift[2] + (i == 2), k)
        for i, k in enumerate(form)
        if k and i != pivot
    )
    i, j = (k for k in range(3) if k != pivot)
    point = [0, 0, 0]
    point[i], point[j], point[pivot] = cp, 2 * cp, -(form[i] + 2 * form[j])
    return _PLANS.setdefault(form, (pivot, cp, shift, rest, tuple(point)))


def p_div_form(a, form):
    """Exact quotient a / form, or None when the form does not divide a:
    one trial of _cancel."""
    if not a:
        return {}
    q, left = _cancel(a, (form,), (form,))
    return None if left else q


def _long_division(a, plan):
    """Long division of a nonzero a by the plan's form in the pivot
    variable, integers only.  Real roots are primitive forms, so by Gauss's
    lemma a quotient that exists is integral: the first leading coefficient
    the pivot coefficient does not divide proves the form does not divide
    a, and so does a nonzero remainder."""
    pivot, cp, (q0, q1, q2), rest, _ = plan
    # terms by degree in the pivot: dividing out degree m only touches m - 1
    layers = {}
    for e, c in a.items():
        layers.setdefault(e[pivot], {})[e] = c
    quot = {}
    for m in range(max(layers), 0, -1):
        layer = layers.get(m)
        if not layer:
            continue
        lower = layers.setdefault(m - 1, {})
        for (e0, e1, e2), c in layer.items():
            q, r = divmod(c, cp)
            if r:
                return None
            quot[(e0 + q0, e1 + q1, e2 + q2)] = q
            for d0, d1, d2, k in rest:
                t = (e0 + d0, e1 + d1, e2 + d2)
                s = lower.get(t, 0) - q * k
                if s:
                    lower[t] = s
                else:
                    del lower[t]
    return None if layers.get(0) else quot


def _term_key(e):
    return (e[0] + e[1] + e[2], e)


def p_str(p):
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=_term_key, reverse=True):
        c = p[e]
        factors = []
        for name, k in zip(("b0", "b1", "b2"), e):
            if k == 1:
                factors.append(name)
            elif k:
                factors.append("%s^%d" % (name, k))
        body = "*".join(factors)
        if body:
            if c == 1:
                term = body
            elif c == -1:
                term = "-" + body
            else:
                term = "%d*%s" % (c, body)
        else:
            term = str(c)
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


class RationalNF:
    """Numerator polynomial over a sorted multiset of positive primitive
    linear forms, in the normal form of the module docstring.

    RationalNF(num, den) accepts the forms in any order and with either
    sign, and a numerator with zero coefficients or with factors of den;
    it moves the signs into the numerator and cancels.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        sign, forms = 1, []
        for f in den:
            f, s = _positive_form(f)
            sign *= s
            forms.append(f)
        num = {e: sign * c for e, c in num.items() if c}
        self.num, self.den = _normalize(num, forms)

    @staticmethod
    def zero():
        return _nf({}, ())

    @staticmethod
    def integer(c):
        return _nf(p_const(c), ())

    @staticmethod
    def reciprocal(form):
        """1/form, with the sign pulled into the numerator so the stored
        form is a positive root."""
        return RationalNF(p_const(1), (form,))

    def __neg__(self):
        return _nf(p_neg(self.num), self.den)

    def __add__(self, other):
        den, a, b, shared = _over_common_den(self, other)
        num = p_add(a, b)
        if not num:
            return RationalNF.zero()
        return _nf(*_cancel(num, den, shared))

    def sum_divided_by_form(self, other, form):
        """((self + other).divided_by_form(form), its negative), with other
        None for zero, in one step with one numerator negation: the pair
        step of kumar's forward pass.  The sum is taken over the common
        denominator as in __add__, the form's root joins that denominator,
        and one _cancel tries the forms both addends carry equally often
        and the root: only those can divide the summed numerator
        (_over_common_den).  The form's sign says which of the quotient and
        its negative comes first."""
        root, sign = _positive_form(form)
        if other is None:
            num, den, forms = self.num, self.den, (root,)
        else:
            den, a, b, shared = _over_common_den(self, other)
            num, forms = p_add(a, b), shared | {root}
        if num:
            num, den = _cancel(num, sorted(den + (root,)), forms)
        else:
            den = ()
        pos = _nf(num, den)
        neg = _nf(p_neg(num), den)
        return (pos, neg) if sign == 1 else (neg, pos)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _nf(*_normalize(p_mul(self.num, other.num), self.den + other.den))

    def divided_by_form(self, form):
        # self is cancelled, so only the new form can divide its numerator
        form, sign = _positive_form(form)
        num = self.num if sign == 1 else p_neg(self.num)
        q = p_div_form(num, form)
        if q is not None:
            return _nf(q, self.den)
        return _nf(num, tuple(sorted(self.den + (form,))))

    def __eq__(self, other):
        # the normal form is unique (module docstring)
        if not isinstance(other, RationalNF):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        raise TypeError("RationalNF is unhashable")

    def substituted(self, images):
        """Apply a linear change of variables b_i -> images[i] (linear forms).

        The images must define a ring automorphism of Z[b0,b1,b2] that
        sends every denominator form to plus or minus a positive real root,
        as a Weyl group element does (the left Setup Move applies a simple
        reflection).  An automorphism maps a form that does not divide the
        numerator to one that does not divide its image, so the value stays
        cancelled and is not normalized again.  Each power b_i^k is expanded
        once per call; denominator signs move to the numerator.
        """
        sign = 1
        den = []
        columns = tuple(zip(*images))
        for a, b, c in self.den:
            img, s = _positive_form(
                tuple(a * x + b * y + c * z for x, y, z in columns)
            )
            sign *= s
            den.append(img)
        powers = ([p_const(1)], [p_const(1)], [p_const(1)])
        num = {}
        for e, c in self.num.items():
            term = p_const(c * sign)
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(p_mul_form(pw[-1], images[i]))
                    term = p_mul(term, pw[k])
            num = p_add(num, term)
        return _nf(num, tuple(sorted(den)))

    def __str__(self):
        num = self.num
        if len(num) == 1 and ZERO_EXP in num:
            text = str(num[ZERO_EXP])
        else:
            text = p_str(num)
        if not self.den:
            return text
        return "(%s) / %s" % (text, "".join(map(_form_str, self.den)))

    __repr__ = __str__


def _nf(num, den):
    """The RationalNF num / den, which the caller knows to be in normal form;
    nothing is checked."""
    value = object.__new__(RationalNF)
    value.num = num
    value.den = den
    return value


_FORM_STRS = memo("rational._form_str")


def _form_str(form):
    """One denominator factor as printed; there are few distinct forms."""
    try:
        return _FORM_STRS[form]
    except KeyError:
        pass
    return _FORM_STRS.setdefault(form, "(%s)" % p_str(form_poly(form)))


def _positive_form(form):
    a, b, c = form
    if a >= 0 and b >= 0 and c >= 0:
        if a or b or c:
            return (a, b, c), 1
    elif a <= 0 and b <= 0 and c <= 0:
        return (-a, -b, -c), -1
    raise ValueError("mixed-sign linear form %r is not a real root" % (form,))


def _over_common_den(x, y):
    """(den, a, b, shared): x = a / den and y = b / den, where den is the
    multiset union (least common multiple) of the two denominators, and
    shared holds the forms x and y carry equally often.

    Only a shared form can divide a + b.  A form f that x carries more often
    than y divides b but not a: it divides neither x.num, which is
    cancelled, nor the other forms, which are primes not associate to f.
    """
    a, b = x.num, y.num
    if x.den == y.den:
        return x.den, a, b, set(x.den)
    only_y = list(y.den)
    only_x = []
    for f in x.den:
        if f in only_y:
            only_y.remove(f)
        else:
            only_x.append(f)
    for f in only_y:
        a = p_mul_form(a, f)
    for f in only_x:
        b = p_mul_form(b, f)
    shared = set(x.den).difference(only_x, only_y)
    return tuple(sorted(x.den + tuple(only_y))), a, b, shared


def _cancel(num, den, forms):
    """Divide a nonzero num by each of the distinct forms while it divides,
    each at most as often as the sorted den carries it; return the quotient
    and what is left of den.  One pass suffices: a form that does not divide
    num does not divide a quotient of num either.

    If a form divides num, num vanishes on the form's hyperplane; so a value
    num(P) != 0 at the plan's point P proves it does not.  Each trial
    evaluates that certificate inline and runs _long_division only where
    the value is 0."""
    den = list(den)
    for f in forms:
        while f in den:
            plan = _division_plan(f)
            x, y, z = plan[4]
            value = 0
            for (e0, e1, e2), c in num.items():
                value += c * x**e0 * y**e1 * z**e2
            q = None if value else _long_division(num, plan)
            if q is None:
                break
            num = q
            den.remove(f)
    return num, tuple(den)


def _normalize(num, den):
    """The normal form of num / den for positive primitive forms in den."""
    if not num:
        return {}, ()
    return _cancel(num, sorted(den), set(den))
