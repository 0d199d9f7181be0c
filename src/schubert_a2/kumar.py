"""Affine real roots, equivariant multiplicities, and the smoothness test.

Real roots are integer triples over the simple affine roots b0, b1, b2; the
simple reflections act by s_i(b_j) = b_j + b_i for j != i and s_i(b_i) =
-b_i.  Every positive real root corresponds to a geometric reflection, and
Psi(w, x) collects the positive real roots whose reflections keep x below
w.  The equivariant multiplicity of x in the Schubert variety of w is the
signed sum, over all subexpressions of a reduced word for w multiplying to
x, of reciprocals of products of linear forms; x is a smooth point exactly
when this equals the reciprocal of the Psi product with the matching sign.
"""

from __future__ import annotations

import functools

from .alcove import (
    E,
    SIMPLES,
    Reflection,
    element_to_word,
    length,
    pairing,
    word_to_element,
)
from .bruhat import leq
from .qstat import reflection_partners, require_below
from .rational import RationalNF, p_const

BETA = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
DELTA = (1, 1, 1)

# Finite roots in the affine-root basis: a1 = b1, a2 = b2, at = b1 + b2.
_FINITE_TRIPLES = {
    (1, 0): (0, 1, 0),
    (0, 1): (0, 0, 1),
    (1, 1): (0, 1, 1),
    (-1, 0): (0, -1, 0),
    (0, -1): (0, 0, -1),
    (-1, -1): (0, -1, -1),
}
_TRIPLE_TO_FINITE = {v: k for k, v in _FINITE_TRIPLES.items()}


class NotRealRootError(ValueError):
    pass


def is_real_root(r):
    shifted = (0, r[1] - r[0], r[2] - r[0])
    return shifted in _TRIPLE_TO_FINITE


def is_positive_real_root(r):
    return is_real_root(r) and all(c >= 0 for c in r)


def simple_root_action(i, r):
    out = list(r)
    out[i] = r[(i + 1) % 3] + r[(i + 2) % 3] - r[i]
    return tuple(out)


@functools.cache
def _action_matrix(w):
    """Columns are the images w(b0), w(b1), w(b2)."""
    cols = list(BETA)
    for i in reversed(element_to_word(w)):
        cols = [simple_root_action(i, c) for c in cols]
    return tuple(cols)


def element_root_action(w, r):
    """Image of an affine root triple under w."""
    m = _action_matrix(w)
    return tuple(
        r[0] * m[0][j] + r[1] * m[1][j] + r[2] * m[2][j] for j in range(3)
    )


def root_to_reflection(r):
    """The geometric reflection of a positive real root.

    A real root is a finite root a plus n*delta; it vanishes on the line
    (a, v) = -n, so it maps to s_{a,-n}, normalized to a positive finite
    root.  The convention is certified against word conjugation: the
    reflection of w(b_i) equals w s_i w^{-1}.
    """
    if not is_positive_real_root(r):
        raise NotRealRootError("not a positive real root: %r" % (r,))
    n = r[0]
    fin = _TRIPLE_TO_FINITE[(0, r[1] - n, r[2] - n)]
    if fin in ((1, 0), (0, 1), (1, 1)):
        return Reflection(fin, -n)
    return Reflection((-fin[0], -fin[1]), n)


def reflection_to_root(refl):
    """Inverse of root_to_reflection."""
    (c1, c2), k = refl.root, refl.level
    if k <= 0:
        base = _FINITE_TRIPLES[(c1, c2)]
        n = -k
    else:
        base = _FINITE_TRIPLES[(-c1, -c2)]
        n = k
    r = tuple(base[i] + n for i in range(3))
    assert is_positive_real_root(r)
    return r


def psi_set(w, x):
    """Positive real roots whose reflections keep x inside the hull of w."""
    require_below(x, w)
    out = set()
    cx = x.center()
    for d, y in reflection_partners(w, x):
        level, rem = divmod(pairing(cx, d) + pairing(y, d), 6)
        assert rem == 0
        out.add(reflection_to_root(Reflection(d, level)))
    return out


def _check_reduced(word):
    if length(word_to_element(word)) != len(word):
        raise ValueError("word %r is not reduced" % (word,))


def multiplicity_table(word):
    """Equivariant multiplicities of every x below w, for a reduced word.

    A forward pass over the word keeps, for each partial subexpression
    product z, the accumulated sum of reciprocal form products.  Both
    branches at step j contribute the same linear form z(b_i), with
    opposite signs.
    """
    _check_reduced(word)
    states = {E: RationalNF.integer(1)}
    for i in word:
        new = {}
        for z, val in states.items():
            form = _action_matrix(z)[i]
            branch = val.divided_by_form(form)
            for target, term in ((z, branch), (z * SIMPLES[i], -branch)):
                prev = new.get(target)
                new[target] = term if prev is None else prev + term
        states = new
    if len(word) % 2:
        states = {x: -v for x, v in states.items()}
    return states


@functools.cache
def multiplicity_table_of(w):
    return multiplicity_table(element_to_word(w))


def equivariant_multiplicity(w, x, word=None):
    """The multiplicity of x in the Schubert variety of w; zero when x is
    not below w.  The word, when given, must be reduced and evaluate to w."""
    if word is None:
        tab = multiplicity_table_of(w)
    else:
        if word_to_element(word) != w:
            raise ValueError("word %r does not evaluate to %s" % (word, w))
        tab = multiplicity_table(word)
    return tab.get(x, RationalNF.zero())


def smoothness_target(w, x):
    """(-1)^(l(w)-l(x)) over the product of Psi(w, x)."""
    sign = -1 if (length(w) - length(x)) % 2 else 1
    return RationalNF(
        p_const(sign), tuple(sorted(psi_set(w, x))), normalize=False
    )


def kumar_smooth(w, x):
    """Exact multiplicity test for smoothness of x in the variety of w."""
    require_below(x, w)
    return equivariant_multiplicity(w, x) == smoothness_target(w, x)


def kumar_smooth_set(w):
    """All x below w passing the multiplicity test, from one table pass."""
    tab = multiplicity_table_of(w)
    return {x for x in tab if tab[x] == smoothness_target(w, x)}


# ---------------------------------------------------------------------------
# Setup Move identities.

class SetupHypothesisError(ValueError):
    """A Setup Move hypothesis fails; the message names the clause."""


def _setup_hypotheses(w, x, s, side):
    if not leq(x, w):
        raise SetupHypothesisError("x <= w fails")
    if side == "right":
        if not length(w * s) > length(w):
            raise SetupHypothesisError("w < ws fails")
        if leq(x * s, w):
            raise SetupHypothesisError("xs not<= w fails")
    else:
        if not length(s * w) > length(w):
            raise SetupHypothesisError("w < sw fails")
        if leq(s * x, w):
            raise SetupHypothesisError("sx not<= w fails")


def setup_move_check(w, x, i, side="right"):
    """Verify the Psi and multiplicity identities for one Setup Move.

    For the right move with s = s_i: Psi(ws, xs) = Psi(w, x) + {x(b_i)} and
    the multiplicity of xs in ws is that of x in w divided by x(b_i).  The
    left move uses s(Psi(w, x)) + {b_i} and divides the s-transformed
    multiplicity by b_i.  Returns True when both hold; raises on a
    hypothesis violation (the Maximum Principle conclusion is asserted).
    """
    s = SIMPLES[i]
    _setup_hypotheses(w, x, s, side)
    beta = BETA[i]
    if side == "right":
        wbig, xbig = w * s, x * s
        extra = element_root_action(x, beta)
        expected_psi = psi_set(w, x)
        e_small = equivariant_multiplicity(w, x)
        e_expected = e_small.divided_by_form(extra)
    else:
        wbig, xbig = s * w, s * x
        extra = beta
        expected_psi = {
            element_root_action(s, r) for r in psi_set(w, x)
        }
        e_small = equivariant_multiplicity(w, x).substituted(
            [simple_root_action(i, b) for b in BETA]
        )
        e_expected = e_small.divided_by_form(extra)
    assert length(xbig) > length(x) and leq(xbig, wbig), "Maximum Principle"
    if extra in expected_psi:
        return False
    if psi_set(wbig, xbig) != expected_psi | {extra}:
        return False
    return equivariant_multiplicity(wbig, xbig) == e_expected
