"""Seeded random properties across small characteristics.

Each corpus is generated once per run from fixed seeds, so failures
reproduce.  The core corpus holds 40 reduced germs for each of the five
characteristics; the branch corpus holds curves whose tree has a single
branch arrow, built from one quasi-homogeneous face plus noise above it,
and the high-branch corpus holds such curves with steep faces and noise
far above them.
"""

import math
import random

import sympy

from singcurve import invariants
from singcurve.errors import Char0IrreducibleRemainder
from singcurve.field import field_ctx, uni_order
from singcurve.invariants import (INF, area_identity, intersect_param,
                                  intersect_tree, parametrize_branch, rho,
                                  semigroup_gaps, tree_delta, tree_mu_bar,
                                  zariski_sequence)
from singcurve.milnor import check_conjecture, local_intersection
from singcurve.poly import BiPoly, _to_yrows, partials, reduced_check
from singcurve.tree import (build_tree, build_tree_multi, minimalize,
                            tree_multiplicity)

from crosschecks import delta_additivity_check
from oracles import multiplicity_sum_check

PRIMES = (2, 3, 5, 7, 13)


def _rand_curve(ctx, rng, nterms=6, dmax=6):
    """Random reduced germ through the origin."""
    while True:
        f = BiPoly(ctx)
        for _ in range(nterms):
            i, j = rng.randrange(dmax + 1), rng.randrange(dmax + 1)
            if i == 0 and j == 0:
                continue
            v = ctx.rand_elem(rng)
            if not ctx.is_zero(v):
                f.c[(i, j)] = v
        if f.c and reduced_check(f)[0]:
            return f


def _rand_branch(ctx, rng):
    """Random single-branch germ: one coprime face, simple root, noise."""
    while True:
        q = rng.choice((2, 2, 3, 3, 4, 5))
        p = rng.choice((2, 3, 3, 5, 7))
        if math.gcd(p, q) != 1:
            continue
        c = ctx.rand_elem(rng)
        if ctx.is_zero(c):
            continue
        f = BiPoly(ctx, {(q, 0): ctx.one, (0, p): c})
        for _ in range(rng.randrange(3)):
            i, j = rng.randrange(1, q + 3), rng.randrange(1, p + 3)
            if i * p + j * q > p * q:
                f.c[(i, j)] = ctx.rand_elem(rng)
        f = BiPoly(ctx, f.c)
        if not reduced_check(f)[0]:
            continue
        if build_tree(f).branch_count() == 1:
            return f


def _rand_high_branch(ctx, rng):
    """Random single-branch germ y^b + c x^a, a >= 3b, with noise of
    weight at least ab + 10, so the last chart curve w has w(X, 0) of
    order at least 10."""
    while True:
        b = rng.choice((2, 3, 4))
        a = rng.randrange(3 * b, 3 * b + 8)
        c = ctx.rand_elem(rng)
        if math.gcd(a, b) != 1 or ctx.is_zero(c):
            continue
        f = BiPoly(ctx, {(0, b): ctx.one, (a, 0): c})
        for _ in range(rng.randrange(1, 4)):
            i, j = rng.randrange(a + 6), rng.randrange(b + 2)
            if i * b + j * a >= a * b + 10:
                f.c[(i, j)] = ctx.rand_elem(rng)
        f = BiPoly(ctx, f.c)
        if len(f.c) < 3 or not reduced_check(f)[0]:
            continue
        if build_tree(f).branch_count() == 1:
            return f


_CORE = {}
_BRANCHY = {}
_HIGH = {}


def _core(p):
    if p not in _CORE:
        ctx = field_ctx(p)
        rng = random.Random(1000 + p)
        _CORE[p] = [_rand_curve(ctx, rng) for _ in range(40)]
    return _CORE[p]


def _branchy(p):
    if p not in _BRANCHY:
        ctx = field_ctx(p)
        rng = random.Random(2000 + p)
        _BRANCHY[p] = [_rand_branch(ctx, rng) for _ in range(8)]
    return _BRANCHY[p]


def _high(p):
    if p not in _HIGH:
        ctx = field_ctx(p)
        rng = random.Random(4000 + p)
        _HIGH[p] = [_rand_high_branch(ctx, rng) for _ in range(8)]
    return _HIGH[p]


def test_corpus_size():
    assert sum(len(_core(p)) for p in PRIMES) == 200


def test_parity_and_minimalization_of_m():
    for p in PRIMES:
        for f in _core(p):
            t = build_tree(f)
            m = tree_multiplicity(t).M
            r = t.branch_count()
            assert (r - m) % 2 == 0, f
            assert tree_delta(t) == (r - m) // 2
            assert tree_multiplicity(minimalize(t)).M == m, f


def test_vertex_n_is_a_rho_bar_sum():
    for p in PRIMES:
        for f in _core(p):
            t = build_tree(f)
            assert multiplicity_sum_check(t) == [], f
            assert multiplicity_sum_check(minimalize(t)) == [], f


def test_area_identity_holds():
    for p in PRIMES:
        for f in _core(p):
            r = area_identity(f)
            assert r["equal"], (f, r)


def test_deligne_inequality():
    # the reduction itself: milnor_number may answer 1 - M off the tree
    for p in PRIMES:
        for f in _core(p):
            mu = local_intersection(*partials(f)).value
            assert mu >= tree_mu_bar(build_tree(f)), f


def test_zariski_axioms_conductor_and_gap_count():
    # the ZariskiSeq constructor raises on any broken axiom
    for p in PRIMES:
        for f in _branchy(p):
            t = build_tree(f)
            s = zariski_sequence(t)
            d = tree_delta(t)
            assert s.c == 2 * d, f
            assert len(semigroup_gaps(s)) == d, f


def _engines_agree(fs):
    for f, g in zip(fs, fs[1:]):
        it = intersect_tree(f, g)
        il = local_intersection(f, g).value
        if it == INF:
            assert il == INF, (f, g)
            continue
        assert il == it, (f, g)
        assert intersect_param(f, g) == it, (f, g)


def test_intersection_engines_agree_on_branch_pairs():
    for p in PRIMES:
        _engines_agree(_branchy(p))
        _engines_agree(_high(p))


def test_high_branches_solve_from_order_ten(monkeypatch):
    # a zero w(X, 0) counts as order n
    orders = []
    solve = invariants._solve_smooth

    def recording(w, n):
        orders.append(uni_order(w.ctx, _to_yrows(w)[0]) or n)
        return solve(w, n)

    monkeypatch.setattr(invariants, "_solve_smooth", recording)
    for p in PRIMES:
        for f in _high(p):
            parametrize_branch(f, 64)
    assert len(orders) == 8 * len(PRIMES) and min(orders) >= 10


def test_rho_survives_minimalization():
    for p in PRIMES:
        fs = _branchy(p)
        for k in range(0, len(fs) - 1, 2):
            f, g = fs[k], fs[k + 1]
            if intersect_tree(f, g) == INF:
                continue
            t = build_tree_multi([f, g])
            tm = minimalize(t)
            fa = [a.nid for a in t.arrows("branch") if a.owner == 0]
            ga = [a.nid for a in t.arrows("branch") if a.owner == 1]
            for a in fa:
                for b in ga:
                    assert rho(t, a, b) == rho(tm, a, b), (f, g)


def test_delta_additivity():
    for p in PRIMES:
        fs = _branchy(p)
        picked = []
        for f in fs:
            if all(intersect_tree(f, g) != INF for g in picked):
                picked.append(f)
            if len(picked) == 3:
                break
        if len(picked) < 2:
            continue
        assert delta_additivity_check(picked), picked


def test_shortcut_prime_gives_expected_mu():
    # large p: the fully computed Milnor number equals 1 - M
    rng = random.Random(77)
    qq = field_ctx(0)
    done = 0
    while done < 20:
        f = _rand_curve(qq, rng, nterms=5, dmax=5)
        try:
            m = tree_multiplicity(build_tree(f)).M
        except Char0IrreducibleRemainder:
            # the rational tree needs irrational face roots; draw again
            continue
        p = int(sympy.nextprime(-m + f.ord()))
        rep = check_conjecture(f, [p], verify_shortcut=True)[0]
        if rep.skipped or not rep.shortcut:
            # a coefficient vanished mod p and moved the polygon, so the
            # bound no longer covers the reduced curve; draw again
            continue
        assert rep.equal is True, (f, p)
        assert rep.mu == rep.mu_bar, (f, p)
        done += 1
