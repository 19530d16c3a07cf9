"""Seeded query corpora for the three workloads, as polynomial text.

This module never imports singcurve.  Everything it knows about an input
(reducedness, order, tangent, expected values) it knows by construction or
from the tables of the paper, so the checks built on it are independent of
the code under test.

A workload is a list of cycles.  Every cycle has the same shape: the same
templates in the same order.  Shapes of the random germs (their supports)
come from a fixed catalogue seed, so cost per cycle barely moves between
seeds; coefficients and sweep primes come from (seed, cycle), so no two
cycles, and no two seeds, send the same random polynomial.
"""

import math
import random

INF = "infinity"

EX1 = "(x^2 - y^3)^4 - 2(x^2 - y^3)^2 x y^11 - y^19 (1 - y^3)(x^2 - y^3) + y^25"
EX2 = "-x^2 y^4 (x^2 - y^3)^2 + x^11 + y^14 + x y^13"
UNIT = "1 + x + y + x y"

# Catalogue seed for germ supports; fixed so that cycles cost the same on
# every --seed.  Changing it redefines the benchmark.
SHAPE_SEED = 20240920


def four_lines(a):
    """Four lines through the origin plus terms that keep the germ reduced."""
    lines = "".join(f"(x - {ai} y)" for ai in a)
    return f"{lines} + x y^5 + x^4 y"


# Tables of the paper (mu per characteristic, |M| where given).
EX1_ORD = 8
EX1_M_ABS = 155
EX1_VERTEX_N = [24, 100, 202]
EX1_MU = {7: 156, 11: 156, 13: 156, 97: 156, 5: 157, 101: 157, 3: 166,
          2: INF}
EX1_UNIT_MU = {2: 168, 3: 157}
EX2_ORD = 10
EX2_M_ABS = 101
EX2_M_ABS_AT = {2: 103, 3: 101, 7: 101, 13: 101, 113: 101}
EX2_MU = {2: 133, 7: 105, 11: INF, 13: 104, 3: 102, 5: 102, 17: 102,
          113: 102}
FOUR_LINES_GENERIC = [((1, 2, 3, 4), 9), ((0, 0, 1, 2), 13),
                      ((0, 0, 0, 1), 15), ((0, 0, 0, 0), 17)]
FOUR_LINES_SMALL_P = [((0, 0, 0, 1), 7, 17), ((0, 0, 0, 0), 5, 20)]
FOUR_LINES_CHAR2 = [((1, 1, 1, 1), 20), ((0, 1, 1, 1), 11),
                    ((0, 0, 1, 1), 20), ((0, 0, 0, 1), 19),
                    ((0, 0, 0, 0), 20)]


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _coeff(rng, p):
    """A nonzero coefficient of F_p (p > 0) or a small nonzero integer."""
    if p:
        return rng.randrange(1, p)
    return rng.choice([c for c in range(-9, 10) if c])


def poly_text(terms):
    """Text for {(i, j): int coefficient}, in a fixed term order."""
    parts = []
    for (i, j), c in sorted(terms.items()):
        mono = "*".join(s for s in (f"x^{i}" if i else "",
                                    f"y^{j}" if j else "") if s)
        parts.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# germ shapes


def _hull(supp):
    """Lower-left convex hull (Newton polygon vertices), top to bottom."""
    low = {}
    for i, j in supp:
        if i not in low or j < low[i]:
            low[i] = j
    stair = []
    for i in sorted(low):
        if not stair or low[i] < stair[-1][1]:
            stair.append((i, low[i]))
    hull = []
    for pt in stair:
        while len(hull) >= 2:
            (ai, aj), (bi, bj) = hull[-2], hull[-1]
            if (bi - ai) * (pt[1] - aj) - (bj - aj) * (pt[0] - ai) > 0:
                break
            hull.pop()
        hull.append(pt)
    return hull


def shape_kind(supp):
    """'nonreduced', 'reduced' or None (not decidable from the support).

    Monomial content x^a y^b with a >= 2 or b >= 2 is a repeated factor.
    Content at most x*y and a Newton polygon whose edges carry no interior
    lattice point make a reduced germ in any characteristic, as long as the
    coefficients are nonzero: each edge then contributes one branch with a
    binomial face polynomial, and no two edges share a branch.
    """
    i0 = min(i for i, _ in supp)
    j0 = min(j for _, j in supp)
    if i0 >= 2 or j0 >= 2:
        return "nonreduced"
    hull = _hull(supp)
    if any(math.gcd(b[0] - a[0], a[1] - b[1]) != 1
           for a, b in zip(hull, hull[1:])):
        return None
    return "reduced"


def _germ_shape(rng, deg, kind, nterms=6):
    """Support of a singular germ with one term of total degree deg."""
    while True:
        supp = set()
        i = rng.randrange(deg + 1)
        supp.add((i, deg - i))
        while len(supp) < nterms:
            i = rng.randrange(deg + 1)
            j = rng.randrange(deg + 1 - i)
            if i + j >= 2:
                supp.add((i, j))
        if shape_kind(supp) == kind:
            return sorted(supp)


def _branch_shape(rng):
    """(q, p, noise) for x^q + c y^p + noise, gcd(p, q) = 1, noise above
    the segment: one branch of multiplicity min(p, q) in any
    characteristic, tangent x = 0 when q < p and y = 0 when q > p."""
    while True:
        q = rng.choice((2, 2, 3, 3, 4, 5))
        p = rng.choice((2, 3, 3, 5, 7))
        if math.gcd(p, q) == 1:
            break
    noise = set()
    for _ in range(rng.randrange(3)):
        i, j = rng.randrange(1, q + 3), rng.randrange(1, p + 3)
        if i * p + j * q > p * q:
            noise.add((i, j))
    return q, p, sorted(noise)


# ---------------------------------------------------------------------------
# workloads


PRIMES_PER_CYCLE = 8
SWEEP_PRIMES = [n for n in range(211, 32750) if is_prime(n)]


def _sweep_germs():
    out = [("EX1", EX1, EX1_M_ABS, EX1_M_ABS + 1),
           ("EX2", EX2, EX2_M_ABS, EX2_M_ABS + 1)]
    for a, mu in FOUR_LINES_GENERIC:
        out.append((f"four_lines{a}", four_lines(a), mu - 1, mu))
    return out


def prime_sweep_cycle(seed, cycle):
    """`check` over one prime above the shortcut bound, per germ."""
    rng = random.Random(f"prime_sweep/{seed}/{cycle}")
    queries = []
    for p in rng.sample(SWEEP_PRIMES, PRIMES_PER_CYCLE):
        for name, text, m_abs, mu in _sweep_germs():
            queries.append({"kind": "check", "name": name, "f": text,
                            "p": p, "m_abs": m_abs, "mu": mu,
                            "vertex_n": EX1_VERTEX_N if name == "EX1"
                            else None})
    return queries


MU_FIELDS = [(3, 10), (3, 20), (3, 30), (101, 10), (101, 20), (101, 30),
             (32003, 10), (32003, 20), (32003, 30), (0, 10), (0, 20)]
MU_KINDS = ("reduced", "reduced", "reduced", "nonreduced")


def _mu_paper():
    """(name, text, p, k, unit, mu, |M| or None, ord f) from the tables."""
    out = []
    for p, mu in sorted(EX1_MU.items()):
        out.append(("EX1", EX1, p, 1, None, mu, None, EX1_ORD))
    for p, mu in sorted(EX1_UNIT_MU.items()):
        out.append(("EX1*unit", EX1, p, 1, UNIT, mu, None, EX1_ORD))
    for p, mu in sorted(EX2_MU.items()):
        out.append(("EX2", EX2, p, 1, None, mu, EX2_M_ABS_AT.get(p),
                    EX2_ORD))
    for a, mu in FOUR_LINES_GENERIC:
        out.append((f"four_lines{a}", four_lines(a), 11, 1, None, mu,
                    mu - 1, 4))
    for a, p, mu in FOUR_LINES_SMALL_P:
        out.append((f"four_lines{a}", four_lines(a), p, 1, None, mu, None,
                    4))
    for a, mu in FOUR_LINES_CHAR2:
        out.append((f"four_lines{a}", four_lines(a), 2, 1, None, mu, None,
                    4))
    # mu does not change under field extension, so F_49 repeats F_7's value
    out.append(("EX1", EX1, 0, 1, None, EX1_M_ABS + 1, EX1_M_ABS, EX1_ORD))
    out.append(("EX1", EX1, 7, 2, None, EX1_MU[7], None, EX1_ORD))
    return out


def _mu_shapes():
    rng = random.Random(f"mu_corpus/shapes/{SHAPE_SEED}")
    return [(p, deg, kind, _germ_shape(rng, deg, kind))
            for p, deg in MU_FIELDS for kind in MU_KINDS]


def mu_corpus_cycle(seed, cycle, shapes):
    """`mu` plus `multiplicity`: the paper's tables and random germs."""
    rng = random.Random(f"mu_corpus/{seed}/{cycle}")
    queries = []
    for name, text, p, k, unit, mu, m_abs, order in _mu_paper():
        queries.append({"kind": "mu", "name": name, "f": text, "p": p,
                        "k": k, "unit": unit, "mu": mu, "m_abs": m_abs,
                        "reduced": True, "ord": order})
    for p, deg, kind, supp in shapes:
        terms = {ij: _coeff(rng, p) for ij in supp}
        queries.append({"kind": "mu", "name": f"random d{deg} {kind}",
                        "f": poly_text(terms), "p": p, "k": 1, "unit": None,
                        "mu": None, "m_abs": None,
                        "reduced": kind == "reduced",
                        "ord": min(i + j for i, j in supp)})
    return queries


BRANCH_FIELDS = (3, 101, 32003, 0)
BRANCHES_PER_FIELD = 7
EX1_SERIES = [(7, 1, 64), (7, 1, 96), (32003, 1, 64), (7, 2, 64), (0, 1, 64)]


def _branch_shapes():
    rng = random.Random(f"branch_series/shapes/{SHAPE_SEED}")
    out = {}
    for p in BRANCH_FIELDS:
        rows = []
        for _ in range(BRANCHES_PER_FIELD):
            terms = rng.choice((64, 128, 256)) if p else 64
            rows.append((_branch_shape(rng), terms))
        out[p] = rows
    return out


def _branch_text(rng, p, shape):
    q, pp, noise = shape
    terms = {(q, 0): 1, (0, pp): _coeff(rng, p)}
    for ij in noise:
        terms[ij] = _coeff(rng, p)
    return poly_text(terms)


def branch_series_cycle(seed, cycle, shapes):
    """Parametrizations of single branches and param intersections of
    consecutive branch pairs."""
    rng = random.Random(f"branch_series/{seed}/{cycle}")
    queries = []
    for p, k, terms in EX1_SERIES:
        queries.append({"kind": "param", "name": "EX1", "f": EX1, "p": p,
                        "k": k, "terms": terms, "ord": EX1_ORD})
    for p in BRANCH_FIELDS:
        texts = []
        for shape, terms in shapes[p]:
            q, pp, _ = shape
            text = _branch_text(rng, p, shape)
            texts.append((text, min(q, pp), "x" if q < pp else "y"))
            queries.append({"kind": "param", "name": f"branch x^{q} y^{pp}",
                            "f": text, "p": p, "k": 1, "terms": terms,
                            "ord": min(q, pp)})
        for (f, mf, tf), (g, mg, tg) in zip(texts, texts[1:]):
            queries.append({"kind": "isect", "name": "branch pair", "f": f,
                            "g": g, "p": p, "k": 1, "ords": (mf, mg),
                            "same_tangent": tf == tg})
    return queries


# Fewest cycles a timed run holds.  The p90 of branch_series sits on a few
# queries of about 100 ms whose rescaled time still moves by 15-30% from
# run to run; five copies of each average that out.
MIN_CYCLES = {"prime_sweep": 1, "mu_corpus": 2, "branch_series": 5}


class Workload:
    """Cycles of one workload, generated on demand and kept."""

    def __init__(self, name, seed):
        self.min_cycles = MIN_CYCLES[name]
        if name == "prime_sweep":
            self._make = lambda c: prime_sweep_cycle(seed, c)
        elif name == "mu_corpus":
            shapes = _mu_shapes()
            self._make = lambda c: mu_corpus_cycle(seed, c, shapes)
        elif name == "branch_series":
            shapes = _branch_shapes()
            self._make = lambda c: branch_series_cycle(seed, c, shapes)
        else:
            raise ValueError(f"unknown workload {name!r}")
        self._cycles = []

    def cycle(self, c):
        while len(self._cycles) <= c:
            self._cycles.append(self._make(len(self._cycles)))
        return self._cycles[c]


WORKLOADS = ("prime_sweep", "mu_corpus", "branch_series")
