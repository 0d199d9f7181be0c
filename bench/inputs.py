"""Seeded benchmark inputs, built as word strings without the library.

Words come from the affine permutation model of the affine Weyl group of
type A2: an element is its window (f(1), f(2), f(3)), right multiplication by
s1 or s2 swaps two adjacent window entries, and s0 maps (a, b, c) to
(c - 3, b, a + 3).  A breadth-first search from the identity meets each
element first at its length, along a reduced word.  The library under test
is a different faithful model of the same Coxeter group, so it parses these
words to the same elements; nothing here depends on its code.

An element is spiral exactly when it has a single reduced word, that is
when no three consecutive letters read i j i.
"""

from __future__ import annotations

import hashlib
import json
import random

# Full and smoke sizes.  The full sizes are the benchmark; smoke sizes only
# exercise every code path quickly.  A full pass takes 2-5 s on a shared
# 2-vCPU VM, so a 45 s run holds eight or more of them: that many cold
# repeats of every op, spread over the run, is what keeps the figures steady
# on a host whose speed drifts.  (At sweep_max 12 and mult_max 9, with three
# to six passes a run, ops_per_s differed by up to a factor of two between
# runs a minute apart.)
SIZES = {
    "full": {
        "sweep_max": 10,
        "mult_max": 8,
        "setup_max": 6,
        "query_lengths": (8, 14),
        "query_mult_lengths": (6, 10),
        "query_counts": {
            "classify": 16, "smooth": 17, "nrs": 17,
            "q-table": 12, "q-value": 13,
            "order": 7, "mult": 6, "hexagon": 6, "render": 6,
        },
    },
    "smoke": {
        "sweep_max": 4,
        "mult_max": 4,
        "setup_max": 3,
        "query_lengths": (4, 7),
        "query_mult_lengths": (3, 5),
        "query_counts": {
            "classify": 2, "smooth": 2, "nrs": 2,
            "q-table": 2, "q-value": 2,
            "order": 2, "mult": 2, "hexagon": 2, "render": 3,
        },
    },
}

_RENDER_PAYLOADS = (
    ("hexagon", "lattice,hexagon,shells,diagonals,special-segments", "none"),
    ("q", "lattice,hexagon,q-heatmap", "q-values"),
    ("locus", "lattice,hexagon,smooth", "none"),
)


def _step(window, i):
    a, b, c = window
    if i == 0:
        return (c - 3, b, a + 3)
    if i == 1:
        return (b, a, c)
    return (a, c, b)


class Words:
    """Every element up to a length, each with its breadth-first reduced word."""

    def __init__(self, max_length):
        identity = (1, 2, 3)
        self.word = {identity: ""}
        self.by_length = [[""]]
        frontier = [identity]
        for _ in range(max_length):
            nxt = []
            for v in frontier:
                for i in (0, 1, 2):
                    u = _step(v, i)
                    if u not in self.word:
                        self.word[u] = self.word[v] + str(i)
                        nxt.append(u)
            self.by_length.append([self.word[u] for u in nxt])
            frontier = nxt

    def up_to(self, n):
        return [w for layer in self.by_length[: n + 1] for w in layer]

    def reduce(self, word):
        """The breadth-first reduced word of the element a word multiplies to."""
        v = (1, 2, 3)
        for ch in word:
            v = _step(v, int(ch))
        return self.word[v]

    def of_length(self, n, spiral):
        return [w for w in self.by_length[n] if is_spiral_word(w) == spiral]


def is_spiral_word(word):
    return all(word[k] != word[k + 2] for k in range(len(word) - 2))


def owners(workload, seed, size):
    """All owners up to the workload's bound, in seeded order."""
    bound = SIZES[size]["sweep_max" if workload == "sweep" else "mult_max"]
    out = Words(bound).up_to(bound)
    random.Random("%s:%d" % (workload, seed)).shuffle(out)
    return out


def _spread(lo, hi, n):
    """n lengths spread evenly over lo..hi."""
    return [lo + (k * (hi - lo + 1)) // n for k in range(n)]


def _spiral_flags(lengths):
    """Which owners of these lengths are spiral, at a uniform draw's rate.

    Six of the 3l elements of length l >= 3 are spiral, so a uniformly
    drawn element is spiral with probability 2/l.  An owner is spiral when
    the expected spiral count up to it, rounded, steps up there; the owners
    then hold round(sum of 2/l) spiral ones, spread over their lengths.
    """
    flags, expected = [], 0.0
    for n in lengths:
        before = int(expected + 0.5)
        expected += 2 / n
        flags.append(int(expected + 0.5) > before)
    return flags


def queries(seed, size):
    """A seeded stream of single-owner questions with a fixed composition.

    The kinds, routes, owner lengths, spiral owners and bad inputs are the
    same for every seed; the seed picks the elements and the order.  Fixing
    the composition matters because a spiral owner's locus costs tens of
    times a non-spiral one at the same length, so a free draw would make the
    stream's cost depend mostly on how many spiral owners it drew.  The
    spiral share is that of a uniform draw (_spiral_flags), except that
    hexagon queries take no spiral owner: a spiral owner is the hexagon's
    precondition error, which the bad inputs cover.  No two queries share
    an owner while its length has unused ones: there are only six spiral
    owners of each length, and a query on an owner an earlier one asked about
    finds its locus cached, so a free draw would make the cost depend on
    how many owners repeated.
    """
    cfg = SIZES[size]
    rng = random.Random("queries:%d" % seed)
    lo, hi = cfg["query_lengths"]
    words = Words(hi)
    out = []
    used = set()
    for index, (kind, count) in enumerate(cfg["query_counts"].items()):
        if kind == "mult":
            lengths = _spread(*cfg["query_mult_lengths"], count)
        else:
            lengths = _spread(lo, hi, count)
        for k, (n, spiral) in enumerate(zip(lengths, _spiral_flags(lengths))):
            spiral = spiral and kind != "hexagon"
            owners = words.of_length(n, spiral)
            w = rng.choice([v for v in owners if v not in used] or owners)
            used.add(w)
            route = "cli" if (k + index) % 2 == 0 else "lib"
            out.append(_query(kind, k, route, w, spiral, words, rng))
    # A few percent of bad input, each with its documented exit code (cli)
    # or typed error (library call).
    spiral_w = rng.choice(words.of_length(hi, True))
    w = rng.choice(words.of_length(lo + 1, False))
    longer = rng.choice(words.of_length(lo + 3, False))
    broken = _break(w, rng)
    out += [
        {"kind": "classify", "route": "cli", "argv": ["classify", broken],
         "expect": "parse"},
        {"kind": "q-value", "route": "lib", "argv": ["q", broken, ""],
         "expect": "parse"},
        {"kind": "q-value", "route": "cli", "argv": ["q", w, longer],
         "expect": "precondition"},
        {"kind": "mult", "route": "cli", "argv": ["mult", w, longer],
         "expect": "precondition"},
        {"kind": "hexagon", "route": "lib", "argv": ["hexagon", spiral_w],
         "expect": "precondition"},
    ]
    rng.shuffle(out)
    return out


def _break(word, rng):
    k = rng.randrange(len(word) + 1)
    return word[:k] + rng.choice("3x") + word[k:]


def _subword(word, rng, words):
    return words.reduce("".join(ch for ch in word if rng.random() < 0.5))


def _query(kind, k, route, w, spiral, words, rng):
    q = {"kind": kind, "route": route, "expect": "ok"}
    if kind in ("classify", "smooth", "nrs", "hexagon"):
        q["argv"] = [kind, w]
    elif kind == "q-table":
        q["argv"] = ["q", w]
    elif kind == "q-value":
        q["argv"] = ["q", w, _subword(w, rng, words)]
    elif kind == "mult":
        q["argv"] = ["mult", w, _subword(w, rng, words)]
    elif kind == "order":
        n = rng.randrange(len(w) + 1)
        q["argv"] = ["order", rng.choice(words.by_length[n]), w]
    else:
        # A spiral owner has no hexagon, so it renders its locus.
        payload, layers, labels = _RENDER_PAYLOADS[2 if spiral else k % len(_RENDER_PAYLOADS)]
        q["argv"] = ["render", w, "--layers", layers, "--labels", labels,
                     "--payload", payload]
    return q


def build(workload, seed, size):
    if workload == "queries":
        return queries(seed, size)
    return owners(workload, seed, size)


def digest(obj):
    """Short content digest of inputs or outputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
