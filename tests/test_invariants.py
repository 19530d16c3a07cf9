"""Path products, delta, intersections, parametrizations, Zariski data."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singcurve import invariants
from singcurve.errors import (InternalError, NotIrreducible,
                              NotIrreducibleBranchShape, PrecisionExhausted)
from singcurve.field import field_ctx, uni_order
from singcurve.invariants import (INF, Parametrization, ZariskiSeq,
                                  area_identity, delta, intersect_param,
                                  intersect_tree, mu_bar, parametrize_branch,
                                  rho, semigroup_gaps, tree_delta,
                                  tree_mu_bar, zariski_sequence)
from singcurve.invariants import (_off_path_product, _parametrize_arrow,
                                  _ser_eval, _ser_mul, _ser_pow,
                                  _solve_smooth, _tree_path)
from singcurve.milnor import local_intersection
from singcurve.poly import BiPoly, parse_poly
from singcurve.tree import build_tree, build_tree_multi, minimalize

from crosschecks import delta_additivity_check
from curves import EX1, EX2, four_lines
from oracles import (horner_eval, newton_solve, reference_parametrization,
                     rho_bar_path, resultant_order, semigroup_from_generators,
                     series_order, small_elem)
from test_properties import _rand_branch

QQ = field_ctx(0)


def _q(text):
    return parse_poly(text, QQ)


def rho_bar(t, v, w):
    """Like rho but v's own off-path decorations are included as well."""
    nodes, eids = _tree_path(t, v, w)
    acc = 1
    for nid in nodes[1:-1]:
        acc *= _off_path_product(t, nid, eids)
    if t.nodes[v].kind == "vertex":
        acc *= _off_path_product(t, v, eids)
    return acc


def semigroup_membership(s, n):
    """n in <v_0..v_r>: every n from the conductor on, else not a gap."""
    return n >= 0 and (n >= s.c or n not in semigroup_gaps(s))


# ---------------------------------------------------------------------------
# path products


def test_rho_bar_matches_the_oracle_on_ex1():
    t = build_tree(_q(EX1))
    arrow = [a.nid for a in t.arrows("branch")]
    assert len(arrow) == 1
    for v in t.vertices():
        assert rho_bar(t, v.nid, arrow[0]) == rho_bar_path(t, v.nid, arrow[0])
        assert rho_bar(t, v.nid, arrow[0]) == v.N


def test_rho_excludes_the_source_decorations():
    # two-cusp product: both interior vertices contribute 2, the source does
    # not, so rho = 4 while rho_bar picks up the extra dead ends
    t = build_tree_multi([_q("x^2 - y^3"), _q("x^3 - y^2")])
    fa = [a.nid for a in t.arrows("branch") if a.owner == 0]
    ga = [a.nid for a in t.arrows("branch") if a.owner == 1]
    assert rho(t, fa[0], ga[0]) == 4
    vs = sorted(v.nid for v in t.vertices())
    assert rho(t, vs[0], ga[0]) == 2
    assert rho_bar(t, vs[0], ga[0]) == 2 * rho(t, vs[0], ga[0])


# ---------------------------------------------------------------------------
# delta and mu_bar


def test_delta_and_mu_bar_frozen_values():
    assert delta(_q("x^2 - y^3")) == 1
    assert mu_bar(_q("x^2 - y^3")) == 2
    assert delta(_q(EX1)) == 78
    assert mu_bar(_q(EX1)) == 156
    assert delta(_q(EX2)) == 53
    assert mu_bar(_q(EX2)) == 102


def test_delta_in_char_two_shifts():
    f = parse_poly(EX2, field_ctx(2))
    t = build_tree(f)
    # M = -103 and r = 3 there
    assert tree_delta(t) == 53
    assert tree_mu_bar(t) == 104


def test_delta_of_smooth_and_nodes():
    assert delta(_q("y - x^2")) == 0
    assert mu_bar(_q("y - x^2")) == 0
    assert delta(_q("x y")) == 1
    assert delta(_q("y (y - x^2)")) == 2


# ---------------------------------------------------------------------------
# area identity


@pytest.mark.parametrize("text,lhs", [
    ("x^2 - y^3", 1),
    ("x y", 0),
    ("x", -1),
    ("y - x^2", -1),
    (EX1, 155),
    (EX2, 101),
])
def test_area_identity_frozen(text, lhs):
    rep = area_identity(_q(text))
    assert rep["equal"]
    assert rep["lhs"] == lhs == rep["rhs"]


def test_area_identity_four_lines_and_char_two():
    for case in [(0, 1, 2, 3), (0, 0, 1, 2), (1, 1, 2, 2), (0, 0, 1, 1)]:
        rep = area_identity(_q(four_lines(case)))
        assert rep["equal"]
    rep = area_identity(parse_poly(EX2, field_ctx(2)))
    assert rep["equal"] and rep["lhs"] == 103


# ---------------------------------------------------------------------------
# Zariski sequences, conductor, semigroup


def test_zariski_frozen_sequences():
    z = zariski_sequence(build_tree(_q("x^2 - y^3")))
    assert z.vs == (2, 3) and z.c == 2
    z = zariski_sequence(build_tree(_q("x^2 - y^5")))
    assert z.vs == (2, 5) and z.c == 4
    z = zariski_sequence(build_tree(_q(EX1)))
    assert z.vs == (8, 12, 50, 101)
    assert z.d == (8, 4, 2, 1)
    assert z.c == 156 == 2 * delta(_q(EX1))


def test_zariski_smooth_and_single_vertex():
    assert zariski_sequence(build_tree(_q("y - x^2"))).vs == (1,)
    assert zariski_sequence(build_tree(_q("x"))).c == 0
    z = zariski_sequence(build_tree(_q(four_lines((1, 1, 1, 1)))))
    assert z.vs == (4, 5) and z.c == 12


def test_zariski_rejects_reducible_trees():
    with pytest.raises(NotIrreducibleBranchShape):
        zariski_sequence(build_tree(_q("x y")))
    with pytest.raises(NotIrreducibleBranchShape):
        zariski_sequence(build_tree(_q(EX2)))
    # naming one smooth branch of the node still works
    t = build_tree(_q("x y"))
    a = t.arrows("branch")[0].nid
    assert zariski_sequence(t, a).vs == (1,)


def test_zariski_axioms_reject_bad_sequences():
    with pytest.raises(InternalError):
        ZariskiSeq((4, 6))            # gcd never reaches 1
    with pytest.raises(InternalError):
        ZariskiSeq((3, 5, 7))         # gcd chain stalls at 1 early
    with pytest.raises(InternalError):
        ZariskiSeq((6, 4, 9))         # growth axiom n_1 v_1 < v_2 fails


def test_semigroup_membership_and_gaps():
    z = ZariskiSeq((2, 3))
    assert not semigroup_membership(z, 1)
    assert all(semigroup_membership(z, n) for n in range(2, 12))
    z1 = zariski_sequence(build_tree(_q(EX1)))
    assert semigroup_membership(z1, 154)
    assert not semigroup_membership(z1, 155)
    assert all(semigroup_membership(z1, n) for n in range(156, 200))
    gaps = semigroup_gaps(z1)
    assert len(gaps) == 78 == delta(_q(EX1))
    oracle = semigroup_from_generators(z1.vs, z1.c + 10)
    assert all((n in oracle) != (n in set(gaps)) for n in range(1, z1.c))


def test_semigroup_matches_oracle_on_small_seqs():
    for vs in [(2, 3), (2, 5), (4, 5), (8, 12, 50, 101)]:
        z = ZariskiSeq(vs)
        oracle = semigroup_from_generators(vs, z.c + 5)
        for n in range(0, z.c + 5):
            assert semigroup_membership(z, n) == (n in oracle)


# ---------------------------------------------------------------------------
# parametrization


def test_parametrize_cusp_exactly():
    par = parametrize_branch(_q("x^2 - y^3"), 12)
    assert par.orders() == (3, 2)
    one = QQ.one
    assert par.phi[3] == one and sum(1 for c in par.phi if c != QQ.zero) == 1
    assert par.psi[2] == one and sum(1 for c in par.psi if c != QQ.zero) == 1


def test_parametrize_simple_charts():
    assert parametrize_branch(_q("x - y^2"), 8).orders() == (2, 1)
    assert parametrize_branch(_q("y - x^2"), 8).orders() == (1, 2)
    par = parametrize_branch(_q("x"), 8)
    assert par.orders() == (None, 1)
    par = parametrize_branch(_q("y (1 + x)"), 8)
    assert par.orders() == (1, None)


def test_parametrize_annihilates_via_sympy():
    import sympy

    from oracles import T as t_sym
    for text, terms in [("x^2 - y^3", 16), ("x^3 - y^2 + x^2 y^2", 24)]:
        f = _q(text)
        par = parametrize_branch(f, terms)
        phi = sum(sympy.Rational(c) * t_sym ** k
                  for k, c in enumerate(par.phi))
        psi = sum(sympy.Rational(c) * t_sym ** k
                  for k, c in enumerate(par.psi))
        assert series_order(f.c, phi, psi, 0, terms) is None


def test_parametrize_ex1_orders():
    par = parametrize_branch(_q(EX1), 64)
    assert par.orders() == (12, 8)
    par7 = parametrize_branch(parse_poly(EX1, field_ctx(7)), 250)
    assert par7.orders() == (12, 8)
    assert par7.trunc == 250


def test_parametrize_matches_the_reference_series_path():
    # a branch over Q whose series have non-integral coefficients
    frac = BiPoly(QQ, {(3, 0): Fraction(1, 2), (0, 5): Fraction(-2, 3),
                       (2, 3): Fraction(5, 7), (1, 5): Fraction(-3, 11),
                       (4, 1): Fraction(7, 13)})
    cases = [(parse_poly(EX1, field_ctx(7)), 64), (_q(EX1), 64), (frac, 48)]
    # over F_(2^31 - 1) the packed series slots are wider than 8 bytes
    for p, k in [(3, 1), (101, 1), (32003, 1), (2147483647, 1), (7, 2),
                 (0, 1)]:
        ctx = field_ctx(p, k)
        rng = random.Random(3000 + 10 * p + k)
        cases += [(_rand_branch(ctx, rng), 48) for _ in range(8)]
    for f, n in cases:
        par = parametrize_branch(f, n)
        assert (par.phi, par.psi) == reference_parametrization(f, n), f


@pytest.mark.parametrize("p", [3, 101, 32003])
def test_parametrize_of_unreduced_ints_over_fp(p):
    # BiPoly keeps any int that is not 0 mod p, but the packed series
    # product takes ints in [0, p) only; coefficients shifted by multiples
    # of p (negative; whose products overflow their slots; wider than any
    # slot) must give the series and the intersection number of the
    # reduced curves
    ctx = field_ctx(p)
    f, g = parse_poly(EX1, ctx), parse_poly("x^3 - y^2 + x y^4", ctx)
    par, want = parametrize_branch(f, 128), intersect_param(f, g)
    for shift in (-7, 67, 10 ** 30):
        fs, gs = (BiPoly(ctx, {k: v + p * shift for k, v in h.c.items()})
                  for h in (f, g))
        assert min(fs.c.values()) < 0 or max(fs.c.values()) >= p
        got = parametrize_branch(fs, 128)
        assert (got.phi, got.psi) == (par.phi, par.psi)
        assert intersect_param(fs, gs) == want


def test_dense_series_is_fast():
    # the schoolbook series product took about 4.8 s here
    f = parse_poly(EX1, field_ctx(32003))
    start = time.process_time()
    par = parametrize_branch(f, 512)
    assert time.process_time() - start < 2
    assert par.orders() == (12, 8)


def _rand_series(ctx, rng, order, n):
    return [ctx.zero] * order + [ctx.rand_elem(rng) for _ in range(n - order)]


def test_series_substitution_matches_the_reference_horner():
    # orders above one, and zero series, exercise the order-aware skip
    rng = random.Random(17)
    for p in (7, 0):
        ctx = field_ctx(p)
        for _ in range(40):
            n = rng.randrange(2, 30)
            g = BiPoly(ctx, {(rng.randrange(8), rng.randrange(8)):
                             ctx.rand_elem(rng) for _ in range(6)})
            phi = _rand_series(ctx, rng, rng.choice((1, 2, 5, n)), n)
            psi = _rand_series(ctx, rng, rng.choice((1, 3, 4, n)), n)
            assert _ser_eval(g, phi, psi, n) == horner_eval(g, phi, psi, n)


SOLVE_CTXS = (field_ctx(3), field_ctx(101), field_ctx(32003),
              field_ctx(7, 2), QQ)
_small = st.tuples(st.integers(-4, 4), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SOLVE_CTXS), st.integers(2, 64),
       st.sampled_from([None, 1, 2, 7, ("n", -1), ("n", 0), ("n", 5)]),
       st.lists(_small, min_size=1, max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 5), st.integers(1, 5)),
                       _small, max_size=6), _small)
def test_solve_smooth_matches_the_reference_newton(ctx, n, v, row0, terms,
                                                   lin):
    # a chart curve of Y-order one whose w(X, 0) is zero or has order v,
    # ("n", k) standing for v = n + k; at v >= n the clipped row 0
    # vanishes and s = 0
    w = {k: small_elem(ctx, *ab) for k, ab in terms.items()}
    w[(0, 1)] = small_elem(ctx, *lin)
    assume(not ctx.is_zero(w[(0, 1)]))
    if v is not None:
        v = n + v[1] if isinstance(v, tuple) else v
        w.update({(v + i, 0): small_elem(ctx, *ab)
                  for i, ab in enumerate(row0)})
        assume(not ctx.is_zero(w[(v, 0)]))
    w = BiPoly(ctx, w)
    got = _solve_smooth(w, n)
    assert got == newton_solve(w, n)
    assert uni_order(ctx, got) == (v if v is not None and v < n else None)


def _count(monkeypatch, name):
    calls = []
    real = getattr(invariants, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(invariants, name, counted)
    return calls


@pytest.mark.parametrize("e, products", [(0, 0), (1, 1), (2, 2), (100, 9)])
def test_a_series_power_takes_bits_plus_popcount_minus_one_products(
        monkeypatch, e, products):
    # 100 = 0b1100100: one times the base, six squarings and two
    # multiplies, each product cut to exactly n entries
    ctx, n = field_ctx(101), 12
    a = [0, 1, 5, 0, 100]
    want = [1] + [0] * (n - 1)
    for _ in range(e):
        want = _ser_mul(ctx, want, a, n)
    muls = _count(monkeypatch, "_ser_mul")
    got = _ser_pow(ctx, a, e, n)
    monkeypatch.undo()
    assert got == want and len(got) == n and len(muls) == products


def test_the_branch_series_starts_at_its_first_order(monkeypatch):
    # the last chart curve of this branch has 21 rows and w(X, 0) of order
    # 30; with Newton from order one the parametrization took 233 series
    # products
    f = parse_poly("60*y^7 + x^2 + 95*x^4*y^8", field_ctx(101))
    muls = _count(monkeypatch, "_ser_mul")
    par = parametrize_branch(f, 256)
    assert len(muls) <= 80
    assert par.orders() == (7, 2)
    # w = Y + X Y^2 has w(X, 0) = 0: no Newton round, only the final check
    passes = _count(monkeypatch, "_horner_s")
    w = _q("y + x y^2")
    assert _solve_smooth(w, 64) == [QQ.zero] * 64
    assert len(passes) == 1


def test_parametrize_rejects_reducible():
    with pytest.raises(NotIrreducible):
        parametrize_branch(_q("x y"), 8)
    with pytest.raises(NotIrreducible):
        parametrize_branch(_q(EX2), 8)


# ---------------------------------------------------------------------------
# intersection numbers


def test_intersect_frozen_pairs():
    cusp = _q("x^2 - y^3")
    assert intersect_tree(_q("x"), _q("y")) == 1
    assert intersect_tree(cusp, _q("y")) == 2
    assert intersect_tree(cusp, _q("x")) == 3
    assert intersect_tree(cusp, _q("x^3 - y^2")) == 4
    assert intersect_param(cusp, _q("y")) == 2
    assert intersect_param(cusp, _q("x")) == 3
    assert intersect_param(cusp, _q("x^3 - y^2")) == 4


def test_intersect_symmetry_and_units():
    cusp = _q("x^2 - y^3")
    other = _q("x^3 - y^2")
    assert intersect_tree(cusp, other) == intersect_tree(other, cusp)
    assert intersect_tree(cusp, _q("1 + x")) == 0
    assert intersect_param(cusp, _q("1 + x")) == 0


def test_intersect_common_component_is_infinite():
    cusp = _q("x^2 - y^3")
    assert intersect_tree(cusp, cusp) == INF
    assert intersect_tree(_q("x y"), _q("x")) == INF
    assert intersect_param(cusp, cusp.scale(QQ.from_int(3))) == INF


def test_intersect_reducible_second_argument():
    # i(x+y, xy) = i(x+y, x) + i(x+y, y) = 2, through both engines
    line = _q("x + y")
    assert intersect_tree(_q("x y"), line) == 2
    assert intersect_param(line, _q("x y")) == 2


def test_intersect_of_a_unit_times_ex1_with_ex2_over_q():
    # the tree's reducedness checks run gcds of Q images; Euclid on
    # Fractions took about 23 s here
    f, g = _q(f"(1 + x + y + x y)({EX1})"), _q(EX2)
    start = time.process_time()
    assert intersect_tree(f, g) == 112
    assert time.process_time() - start < 5
    assert local_intersection(f, g).value == 112


def test_intersect_over_prime_fields():
    for p in (5, 7):
        ctx = field_ctx(p)
        f = parse_poly("x^2 - y^3", ctx)
        g = parse_poly("x^3 - y^2", ctx)
        assert intersect_tree(f, g) == 4
        assert intersect_param(f, g) == 4


def test_intersect_param_respects_explicit_precision():
    cusp = _q("x^2 - y^3")
    assert intersect_param(cusp, _q("x^3 - y^2"), terms=64) == 4


def test_intersect_param_doubles_past_a_truncated_chart_chain():
    # at 16 terms the cut drops face terms of EX1 and the chart chain
    # leaves the tree, so the precision has to double
    f7 = field_ctx(7)
    f, x = parse_poly(EX1, f7), parse_poly("x", f7)
    assert intersect_param(f, x, terms=16) == intersect_tree(f, x) == 12


def test_chart_chain_mismatch_without_a_cut_is_internal():
    f = _q("y^2 - x^3")
    t = build_tree(f)
    (arrow,) = t.arrows("branch")
    p, q, mu, N, nu = arrow.path[-1]
    arrow.path = arrow.path[:-1] + ((p, q, mu, N + 1, nu),)
    with pytest.raises(InternalError):
        _parametrize_arrow(f, t, arrow.nid, 64)
    with pytest.raises(PrecisionExhausted):
        _parametrize_arrow(f, t, arrow.nid, 3)


# ---------------------------------------------------------------------------
# delta additivity


def test_delta_additivity_frozen():
    assert delta_additivity_check([_q("x^2 - y^3"), _q("x^3 - y^2")])
    assert delta_additivity_check([_q("x"), _q("y")])
    assert delta_additivity_check([_q("y - x^2"), _q("y + x^2"), _q("x")])
    t = build_tree_multi([_q("x^2 - y^3"), _q("x^3 - y^2")])
    assert tree_delta(t) == 6


def test_delta_additivity_over_f3():
    ctx = field_ctx(3)
    fs = [parse_poly(s, ctx) for s in ("x^2 - y^3", "y", "x - y")]
    assert delta_additivity_check(fs)
