"""Affine real roots, equivariant multiplicities, and the smoothness test.

Real roots are integer triples over the simple affine roots b0, b1, b2; the
simple reflections act by s_i(b_j) = b_j + b_i for j != i and s_i(b_i) =
-b_i.  Every positive real root corresponds to a geometric reflection, and
Psi(w, x) collects the positive real roots whose reflections keep x below
w.  The equivariant multiplicity of x in the Schubert variety of w is the
signed sum, over all subexpressions of a reduced word for w multiplying to
x, of reciprocals of products of linear forms; x is a smooth point exactly
when this equals the reciprocal of the Psi product with the matching sign.

The table is built by a forward pass over the word that keeps every partial
product's sum already signed by the parity of the letters read.  A letter i
pairs each z with z * s_i: since (z * s_i)(b_i) = -z(b_i), both receive the
same sum with opposite signs, so a pair costs one addition (when both are
present), one division by a linear form and one negation; z * s_i and
z(b_i), affine-linear in z's lattice coordinates, come from one step table
per finite part and letter (_STEP), with no group product, word or memo.

multiplicity_table_of(w) memoizes the table of element_to_word(w), one
letter past the table of its prefix.  multiplicity_table(word) starts from
the memoized table of the word's longest canonical prefix and extends only
the rest, so its result may be the memo's own dict and is read-only.  The
oracles the memo is checked against read none of it: multiplicity_tables,
the prefix-trie walk, and equivariant_multiplicity given a word are fresh
passes from the identity.
"""

from __future__ import annotations

from .alcove import (
    _FIN_MATS,
    E,
    POSITIVE_ROOTS,
    SIMPLES,
    AffineElement,
    Reflection,
    descents,
    element_to_word,
    length,
    word_to_element,
)
from .bruhat import chords, hull_of, leq, require_below
from .memos import memo
from .rational import RationalNF, _nf, p_const

BETA = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

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


def _build_step():
    """_STEP[f][i] = (dl0, dl1, g, f(b_i), u, v) per finite part f and letter i.

    z * s_i = t(l0 + dl0, l1 + dl1) * g for every z = t(l0, l1) * f.  f fixes
    delta and moves the finite part of b_i by its matrix, to p * a1 + q * a2.
    A translation acts by t(lam)(alpha + n * delta) = alpha + (n - <lam, alpha>)
    * delta (Kac, Infinite-dimensional Lie Algebras, 6.5), and the pairing
    <l0 * a1v + l1 * a2v, p * a1 + q * a2> is u * l0 + v * l1 with u = 2p - q,
    v = 2q - p; so z(b_i) = f(b_i) - (u * l0 + v * l1) * (1, 1, 1).
    """
    table = []
    for f, ((m00, m01), (m10, m11)) in enumerate(_FIN_MATS):
        row = []
        for s, (n, c1, c2) in zip(SIMPLES, BETA):
            p, q = m00 * (c1 - n) + m01 * (c2 - n), m10 * (c1 - n) + m11 * (c2 - n)
            zs = AffineElement((0, 0), f) * s
            row.append((*zs.lam, zs.fin, (n, n + p, n + q), 2 * p - q, 2 * q - p))
        table.append(tuple(row))
    return tuple(table)


_STEP = _build_step()


def element_root_action(w, r):
    """Image of an affine root triple under w = t(l0, l1) * f: the sum of
    r_j * w(b_j), each w(b_j) read off _STEP[f][j] as in _extend."""
    (l0, l1), f = w
    k = sum(rj * (u * l0 + v * l1) for rj, (*_, u, v) in zip(r, _STEP[f]))
    return tuple(sum(rj * row[3][m] for rj, row in zip(r, _STEP[f])) - k for m in range(3))


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


def _level_root(d, k):
    """The positive real root of the reflection s_{d,k}, d a positive finite
    root, the inverse of root_to_reflection: d - k * delta when k <= 0, else
    -d + k * delta, with delta = b0 + b1 + b2."""
    if k <= 0:
        (a, b, c), n = _FINITE_TRIPLES[d], -k
    else:
        (a, b, c), n = _FINITE_TRIPLES[(-d[0], -d[1])], k
    return (a + n, b + n, c + n)


# Per positive finite root d, the roots of the levels 0 and 1; level k is
# the first plus -k for k <= 0, the second plus k - 1 for k >= 1.
_LEVEL_BASES = tuple((_level_root(d, 0), _level_root(d, 1)) for d in POSITIVE_ROOTS)


def psi_set(w, x):
    """Positive real roots whose reflections keep x inside the hull of w.

    s_{d,k} carries x to x + t * unit(d) with 3k = pairing(x, d) + t, so
    the reflections are the t of the hull's d-chord through x with
    t = -pairing(x, d) mod 3, the reflections qstat.q_brute counts, each at
    level k = (pairing(x, d) + t) / 3: the levels from ceil((p + lo) / 3)
    to floor((p + hi) / 3) for the chord [lo, hi] and p = pairing(x, d).

    The hull is read once.  The first chord holds t = 0 exactly when x's
    center lies in all three slabs, that is when x <= w; only when it does
    not is require_below asked, for its error.
    """
    center = x.center()
    spans = chords(hull_of(w), center)
    lo, hi = spans[0]
    if not lo <= 0 <= hi:
        require_below(x, w)
        raise AssertionError("chord and hull membership disagree")
    px, py = center  # the pairings with POSITIVE_ROOTS: px, py, px + py
    out = set()
    for p, (lo, hi), ((a0, b0, c0), (a1, b1, c1)) in zip(
        (px, py, px + py), spans, _LEVEL_BASES
    ):
        for k in range(-((-p - lo) // 3), (p + hi) // 3 + 1):
            if k <= 0:
                out.add((a0 - k, b0 - k, c0 - k))
            else:
                out.add((a1 + k - 1, b1 + k - 1, c1 + k - 1))
    return out


def _check_reduced(word):
    if length(word_to_element(word)) != len(word):
        raise ValueError("word %r is not reduced" % (word,))


def _extend(table, i):
    """One letter i of the forward pass on a parity-signed table T.

    A partial product z sends T[z] / z(b_i) to z and its negative to z * s_i,
    and (z * s_i)(b_i) = -z(b_i); so the pair {z, z * s_i} receives one sum,
    T'[z] = (T[z] + T[z * s_i]) / (z * s_i)(b_i) and T'[z * s_i] = -T'[z],
    the sign flip of the longer word included.  sum_divided_by_form gives
    both with one addition, one division and one negation, and z * s_i and
    z(b_i) are read off _STEP.  Pairs enter the new table in the order
    their first member appears in T, z before z * s_i."""
    steps = [row[i] for row in _STEP]
    new = {}
    for z, total in table.items():
        if z in new:
            continue
        (l0, l1), f = z
        d0, d1, g, (a, b, c), u, v = steps[f]
        zs = AffineElement((l0 + d0, l1 + d1), g)
        k = u * l0 + v * l1  # (z * s_i)(b_i) = -z(b_i) = k * (1, 1, 1) - f(b_i)
        new[z], new[zs] = total.sum_divided_by_form(table.get(zs), (k - a, k - b, k - c))
    return new


def multiplicity_tables(words):
    """Yield (word, multiplicity table) for each reduced word, in sorted order.

    The words are walked as a prefix trie, depth first: only the tables of
    the current word's prefixes are held, and a word extends the longest
    prefix it shares with the word before it, one letter per step.  A
    yielded table is shared with the walk and must not be mutated.
    """
    stack = [{E: RationalNF.integer(1)}]  # stack[k]: table of prev[:k]
    prev = ()
    for word in sorted(map(tuple, words)):
        _check_reduced(word)
        m = 0
        while m < min(len(prev), len(word)) and prev[m] == word[m]:
            m += 1
        del stack[m + 1:]
        for i in word[m:]:
            stack.append(_extend(stack[-1], i))
        prev = word
        yield word, stack[-1]


def multiplicity_table(word):
    """Equivariant multiplicities of every x below w, for a reduced word.

    A forward pass over the word keeps, for each partial subexpression
    product z, the sum of its reciprocal form products signed by the parity
    of the letters read so far; after the whole word that is the table.
    The pass starts from the memoized table of the word's longest prefix
    that is element_to_word of its own product: word[:k + 1] is one exactly
    when word[:k] is and word[k] is the smallest right descent of its
    product.  Only the letters after that prefix are extended, so a
    canonical word's table is the memo's own dict, and a returned table
    must not be mutated.
    """
    _check_reduced(word)
    z, k = E, 0
    for i in word:
        zs = z * SIMPLES[i]
        if min(descents(zs)) != i:
            break
        z, k = zs, k + 1
    table = multiplicity_table_of(z)
    for i in word[k:]:
        table = _extend(table, i)
    return table


_TABLES = memo("kumar.multiplicity_table_of")


def multiplicity_table_of(w):
    """The multiplicity table of element_to_word(w), one letter past the
    memoized table of w * s_i for the word's last letter i:
    element_to_word(w) is element_to_word(w * s_i) followed by i."""
    try:
        return _TABLES[w]
    except KeyError:
        pass
    if w == E:
        table = {E: RationalNF.integer(1)}
    else:
        i = element_to_word(w)[-1]
        table = _extend(multiplicity_table_of(w * SIMPLES[i]), i)
    return _TABLES.setdefault(w, table)


def equivariant_multiplicity(w, x, word=None):
    """The multiplicity of x in the Schubert variety of w; zero when x is
    not below w.  The word, when given, must be reduced and evaluate to w;
    the sum is then a fresh pass over it, which reads no memo, so that it
    is a second route to the memoized value."""
    if word is None:
        tab = multiplicity_table_of(w)
    else:
        if word_to_element(word) != w:
            raise ValueError("word %r does not evaluate to %s" % (word, w))
        ((_, tab),) = multiplicity_tables([word])  # a fresh pass, not the memo
    value = tab.get(x)
    return RationalNF.zero() if value is None else value


def smoothness_target(w, x, psi=None):
    """(-1)^(l(w)-l(x)) over the product of Psi(w, x), read from psi when it
    is given.  A unit over positive real roots is already in normal form."""
    sign = -1 if (length(w) - length(x)) % 2 else 1
    if psi is None:
        psi = psi_set(w, x)
    return _nf(p_const(sign), tuple(sorted(psi)))


def kumar_smooth(w, x):
    """Exact multiplicity test for smoothness of x in the variety of w."""
    require_below(x, w)
    return equivariant_multiplicity(w, x) == smoothness_target(w, x)


def kumar_smooth_set(w):
    """All x below w passing the multiplicity test, from one table pass, as
    a frozenset."""
    tab = multiplicity_table_of(w)
    return frozenset(x for x in tab if tab[x] == smoothness_target(w, x))


# ---------------------------------------------------------------------------
# Setup Move identities.

class SetupHypothesisError(ValueError):
    """A Setup Move hypothesis fails; the message names the clause."""


def _setup_hypotheses(w, x, s, side):
    """(ws, xs) for the right move, (sw, sx) for the left, once the clauses
    x <= w, w < ws and xs not<= w hold, checked in that order; xs is built
    only once w < ws holds."""
    if not leq(x, w):
        raise SetupHypothesisError("x <= w fails")
    if side == "right":
        wbig = w * s
        if not length(wbig) > length(w):
            raise SetupHypothesisError("w < ws fails")
        xbig = x * s
        if leq(xbig, w):
            raise SetupHypothesisError("xs not<= w fails")
    else:
        wbig = s * w
        if not length(wbig) > length(w):
            raise SetupHypothesisError("w < sw fails")
        xbig = s * x
        if leq(xbig, w):
            raise SetupHypothesisError("sx not<= w fails")
    return wbig, xbig


def setup_move_check(w, x, i, side="right", psi=None):
    """Verify the Psi and multiplicity identities for one Setup Move.

    For the right move with s = s_i: Psi(ws, xs) = Psi(w, x) + {x(b_i)} and
    the multiplicity of xs in ws is that of x in w divided by x(b_i).  The
    left move uses s(Psi(w, x)) + {b_i} and divides the s-transformed
    multiplicity by b_i.  Returns True when both hold; raises on a
    hypothesis violation (the Maximum Principle conclusion is asserted).
    Psi(w, x) is read from psi when it is given, so that a caller checking
    every move of one x builds it once.
    """
    s = SIMPLES[i]
    wbig, xbig = _setup_hypotheses(w, x, s, side)
    if psi is None:
        psi = psi_set(w, x)
    e_small = equivariant_multiplicity(w, x)
    if side == "right":
        extra = element_root_action(x, BETA[i])
        expected_psi = psi
    else:
        extra = BETA[i]
        expected_psi = {simple_root_action(i, r) for r in psi}  # s(r)
        e_small = e_small.substituted([simple_root_action(i, b) for b in BETA])
    e_expected = e_small.divided_by_form(extra)
    assert length(xbig) > length(x) and leq(xbig, wbig), "Maximum Principle"
    if extra in expected_psi:
        return False
    if psi_set(wbig, xbig) != expected_psi | {extra}:
        return False
    return equivariant_multiplicity(wbig, xbig) == e_expected
