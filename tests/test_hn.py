"""Exponent sequences and chart maps."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singcurve.errors import BadOrder, NotCoprime, OrderMismatch, ZeroRoot
from singcurve.field import RationalCtx, field_ctx
from singcurve.hn import HNMap, chart_exponents, hn_map
from singcurve.newton import newton_polygon
from singcurve.poly import BiPoly, clip_total, parse_poly
from singcurve.tree import build_tree, tree_multiplicity

from curves import EX1
from oracles import (euclid_exponents, euclid_sequences, full_image,
                     hn_transform, small_elem, x_image, y_image)

QQ = field_ctx(0)


def test_euclid_13_2():
    ed = euclid_sequences(13, 2)
    assert ed.nbar == 0
    assert ed.k == {1: 6, 2: 2}
    assert ed.r == {0: 2, 1: 1, 2: 0}
    assert ed.m == {0: 1, 1: 6, 2: 13}
    assert ed.n == {0: 0, 1: 1, 2: 6}
    assert ed.mt == {0: 1, 1: 2}
    assert ed.nt == {0: 0, 1: 1}
    assert (ed.p_prime, ed.q_prime) == (6, 1)


def test_euclid_small_cases():
    ed = euclid_sequences(3, 2)
    assert (ed.nbar, ed.p_prime, ed.q_prime) == (0, 1, 1)
    ed = euclid_sequences(5, 3)
    assert (ed.nbar, ed.p_prime, ed.q_prime) == (1, 2, 1)
    ed = euclid_sequences(7, 4)
    assert (ed.nbar, ed.p_prime, ed.q_prime) == (1, 2, 1)


def test_euclid_degenerate_q1():
    ed = euclid_sequences(2, 1)
    assert ed.nbar == -1
    assert ed.k == {1: 2}
    assert (ed.p_prime, ed.q_prime) == (1, 0)
    ed = euclid_sequences(1, 1)
    assert ed.nbar == -1
    assert (ed.p_prime, ed.q_prime) == (1, 0)


def test_euclid_rejects():
    with pytest.raises(NotCoprime):
        euclid_sequences(6, 4)
    with pytest.raises(BadOrder):
        euclid_sequences(2, 3)
    with pytest.raises(BadOrder):
        euclid_sequences(3, 0)


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
def test_euclid_invariants(a, b):
    p, q = max(a, b), min(a, b)
    if math.gcd(p, q) != 1:
        with pytest.raises(NotCoprime):
            euclid_sequences(p, q)
        return
    ed = euclid_sequences(p, q)
    nb = ed.nbar
    assert ed.m[nb + 2] == p and ed.mt[nb + 1] == q
    assert ed.n[nb + 2] == ed.p_prime <= p
    assert ed.nt[nb + 1] == ed.q_prime <= q
    # the two final column vectors form a determinant-one matrix
    det = p * ed.q_prime - q * ed.p_prime
    assert det == (-1) ** (nb % 2)


def test_chart_exponents_match_the_euclid_recurrences():
    for p in range(1, 201):
        for q in range(1, 201):
            if math.gcd(p, q) == 1:
                assert chart_exponents(p, q) == euclid_exponents(p, q), (p, q)


def test_chart_exponents_reject():
    with pytest.raises(NotCoprime):
        chart_exponents(6, 4)
    with pytest.raises(BadOrder):
        chart_exponents(3, 0)


def test_hn_map_exponents():
    m = hn_map(3, 2, QQ.one, QQ)
    assert (m.A, m.B, m.sign) == (1, 1, -1)
    m = hn_map(2, 13, QQ.one, QQ)
    assert (m.A, m.B, m.sign) == (1, 6, 1)
    m = hn_map(13, 2, QQ.one, QQ)
    assert (m.A, m.B, m.sign) == (6, 1, -1)
    m = hn_map(1, 1, QQ.from_int(3), QQ)
    assert (m.A, m.B) == (1, 0)
    assert m.mu_bar == Fraction(3)


def test_hn_map_shift_constant():
    # sign -1 inverts the root
    m = hn_map(3, 2, QQ.from_int(4), QQ)
    assert m.mu_bar == Fraction(1, 4)
    f5 = field_ctx(5)
    m = hn_map(3, 2, f5.from_int(4), f5)
    assert m.mu_bar == f5.inv(f5.from_int(4))
    with pytest.raises(ZeroRoot):
        hn_map(3, 2, QQ.zero, QQ)


def test_hn_map_images():
    m = hn_map(2, 1, QQ.from_int(5776), QQ)
    assert (m.A, m.B, m.sign) == (1, 0, 1)
    assert m.mu_bar == Fraction(5776)
    xs = x_image(m)
    ys = y_image(m)
    assert xs.c == {(2, 1): Fraction(1), (2, 0): Fraction(5776)}
    assert ys.c == {(1, 0): Fraction(1)}


def test_face_factor_transforms_to_order_one():
    # x^q - mu y^p picks up Y-order exactly 1 in the new chart
    for (p, q, mu) in [(3, 2, 2), (2, 3, 7), (5, 3, -4), (4, 7, 1), (1, 1, 9)]:
        f = parse_poly(f"x^{q} - ({mu}) y^{p}", QQ)
        m = hn_map(p, q, QQ.from_int(mu), QQ)
        n, w = m.image_order(f), m.apply(f)
        assert n == p * q
        w0 = w.subs_x0()
        assert w0[0] == 0 and w0[1] != 0


def test_face_factor_order_one_char2():
    f2 = field_ctx(2, 4)
    mu = f2.gen
    f = parse_poly("x^3", f2) - parse_poly("y^5", f2).scale(mu)
    m = hn_map(5, 3, mu, f2)
    n, w = m.image_order(f), m.apply(f)
    assert n == 15
    w0 = w.subs_x0()
    assert f2.is_zero(w0[0]) and not f2.is_zero(w0[1])


def test_hn_transform_ex1_stage1():
    f = parse_poly(EX1, QQ)
    face = newton_polygon(f).faces[0]
    n, w, m = hn_transform(f, face, (QQ.one, 4))
    assert n == 24
    np2 = newton_polygon(w)
    assert np2.i0 == 0
    assert np2.vertices == [(0, 4), (26, 0)]
    g = np2.faces[0]
    assert (g.p, g.q, g.N, g.K) == (2, 13, 52, 2)


def test_hn_transform_ex1_stage2_and_3():
    f = parse_poly(EX1, QQ)
    face1 = newton_polygon(f).faces[0]
    _, w1, m1 = hn_transform(f, face1, (QQ.one, 4))
    face2 = newton_polygon(w1).faces[0]
    n2, w2, m2 = hn_transform(w1, face2, (QQ.one, 2))
    assert n2 == 52

    # composing both charts must drop the glued power X^100; the exact
    # coefficients blow up over Q, so run the composite mod a large prime
    fp = field_ctx(1009)
    g = parse_poly(EX1, fp)
    _, gw1, gm1 = hn_transform(g, newton_polygon(g).faces[0], (fp.one, 4))
    _, _, gm2 = hn_transform(gw1, newton_polygon(gw1).faces[0], (fp.one, 2))
    composite = full_image(full_image(g, gm1), gm2)
    assert newton_polygon(composite).i0 == 2 * 24 + 52 == 100

    np3 = newton_polygon(w2)
    assert np3.vertices == [(0, 2), (1, 0)]
    face3 = np3.faces[0]
    assert (face3.p, face3.q, face3.N, face3.K) == (2, 1, 2, 1)
    # single simple root: -coeff(0,2)/coeff(1,0)
    c0 = w2.coeff(0, 2)
    c1 = w2.coeff(1, 0)
    assert QQ.div(QQ.neg(c0), c1) == Fraction(-1)
    # the full third cofactor has about 148,000 terms with growing
    # fractions; its Y-order is read off the part below total degree 4
    m3 = hn_map(face3.p, face3.q, Fraction(-1), QQ)
    n3 = m3.image_order(w2)
    assert n3 == face3.N == 2
    w30 = m3.apply(w2, 4).subs_x0()
    assert w30[0] == 0 and not QQ.is_zero(w30[1])


def test_hn_transform_order_mismatch():
    f = parse_poly("x^2 - y^3", QQ)
    face = newton_polygon(f).faces[0]
    with pytest.raises(OrderMismatch):
        hn_transform(f, face, (QQ.one, 2))


@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=12))
def test_map_unimodular(a, b, c):
    p, q = a, b
    if math.gcd(p, q) != 1:
        return
    f13 = field_ctx(13)
    mu = f13.from_int(c)
    m = hn_map(p, q, mu, f13)
    assert abs(q * m.A - p * m.B) == 1
    assert m.sign == q * m.A - p * m.B
    # mu_bar is chosen so the face factor vanishes at (0, 0) in the chart
    f = parse_poly(f"x^{q}", f13) - parse_poly(f"y^{p}", f13).scale(mu)
    n, w = m.image_order(f), m.apply(f)
    assert n == p * q
    assert f13.is_zero(w.coeff(0, 0))


@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       st.integers(1, 12), min_size=1, max_size=8),
       st.sampled_from([(1, 1), (2, 1), (1, 3), (3, 2), (2, 5), (7, 4)]),
       st.integers(1, 12), st.integers(1, 30))
def test_truncated_map_cuts_the_cofactor(terms, pq, c, n):
    f13 = field_ctx(13)
    f = BiPoly(f13, {k: f13.from_int(v) for k, v in terms.items()})
    m = hn_map(*pq, f13.from_int(c), f13)
    full_n, w = newton_polygon(full_image(f, m)).i0, m.apply(f)
    cut_n, cut = m.image_order(f), m.apply(f, n)
    assert cut_n == full_n
    assert cut.c == {k: v for k, v in w.c.items() if k[0] + k[1] < n}


# small characteristics next to large ones: with the charts (2, 13) and
# (5, 8) and exponents up to 8 the shift powers reach e >= p, so whole runs
# of binomials C(e, k) vanish in F_2, F_3 and F_{2^3}
CHART_CTXS = (field_ctx(2), field_ctx(3), field_ctx(13), field_ctx(32003),
              field_ctx(2, 3), field_ctx(7, 2), QQ)


@settings(max_examples=200)
# codec edge cases: over Q, roots -3/7 and 5/2 and one X-exponent group whose
# coefficients have different denominators and negative numerators (the
# chart (1, 1) sends x^2, xy and y^2 to one X-power, the chart (3, 2) sends
# x^2 and y^3 to one); over F_{7^2}, roots outside F_7
@example(QQ, {(2, 0): (-5, 2), (1, 1): (3, 3), (0, 2): (-1, 4)}, (1, 1),
         (-3, 6), 40)
@example(QQ, {(2, 0): (-5, 2), (1, 1): (3, 3), (0, 2): (-1, 4)}, (1, 1),
         (-3, 6), 3)
@example(QQ, {(2, 0): (-5, 2), (0, 3): (-1, 4), (1, 1): (3, -3),
              (3, 1): (7, 5)}, (3, 2), (5, 1), 40)
@example(QQ, {(2, 0): (-5, 2), (0, 3): (-1, 4), (1, 1): (3, -3),
              (3, 1): (7, 5)}, (3, 2), (5, 1), 9)
@example(field_ctx(7, 2), {(2, 0): (3, 1), (0, 3): (-2, 3), (4, 1): (1, -1)},
         (2, 5), (3, 2), 40)
@example(field_ctx(7, 2), {(2, 0): (3, 1), (0, 3): (-2, 3), (4, 1): (1, -1)},
         (2, 5), (0, 1), 6)
@given(st.sampled_from(CHART_CTXS),
       st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                       st.tuples(st.integers(-6, 6), st.integers(-3, 3)),
                       min_size=1, max_size=6),
       st.sampled_from([(1, 1), (2, 1), (1, 3), (3, 2), (2, 5), (7, 4),
                        (2, 13), (5, 8)]),
       st.tuples(st.integers(1, 6), st.integers(-3, 3)),
       st.integers(0, 40))
def test_apply_is_the_substituted_image_over_x_to_the_n(ctx, terms, pq, root,
                                                        n):
    f = BiPoly(ctx, {k: small_elem(ctx, a, b)
                     for k, (a, b) in terms.items()})
    assume(not f.is_zero())
    mu = small_elem(ctx, *root)
    assume(not ctx.is_zero(mu))
    m = hn_map(*pq, mu, ctx)
    N = m.image_order(f)
    w = m.apply(f)
    assert newton_polygon(w).i0 == 0
    shifted = BiPoly(ctx, {(i + N, j): v for (i, j), v in w.c.items()})
    assert shifted == full_image(f, m)
    assert m.apply(f, n) == clip_total(w, n)[0]


@pytest.mark.parametrize("p, first, second",
                         [(32003, (11, 73), (73, 4451)),
                          (7, (11, 33), (33, 627))])
def test_ex1_chart_sizes(monkeypatch, p, first, second):
    # EX1's tree expands two charts; the second, (2, 13), has shift powers
    # up to (Y + mu_bar)^170, and over F_7 most of their binomials vanish
    seen = []
    apply = HNMap.apply

    def recording(self, f, n=None):
        r = apply(self, f, n)
        seen.append((self.p, self.q, len(f.c), len(r.c)))
        return r

    monkeypatch.setattr(HNMap, "apply", recording)
    ctx = field_ctx(p)
    t = build_tree(parse_poly(EX1, ctx))
    assert seen == [(3, 2, *first), (2, 13, *second)]
    assert tree_multiplicity(t).M == -155


def test_apply_over_q_costs_one_product_per_input_and_output_term(
        monkeypatch):
    # EX1's second chart over Q maps 73 terms to 4,452 with shifts up to
    # (Y + mu_bar)^170; each (term, k) pair costs int arithmetic only
    seen = []
    apply = HNMap.apply

    def recording(self, f, n=None):
        seen.append((self, f))
        return apply(self, f, n)

    monkeypatch.setattr(HNMap, "apply", recording)
    build_tree(parse_poly(EX1, QQ))
    monkeypatch.undo()
    m, f = seen[1]
    e_max = max(m.A * i + m.B * j for i, j in f.c)
    calls = {"mul": 0, "add": 0, "from_int": 0}

    def counted(name):
        method = getattr(RationalCtx, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(RationalCtx, name, counted(name))
    w = m.apply(f)
    assert (len(f.c), e_max, len(w.c)) == (73, 170, 4452)
    assert calls["mul"] <= len(f.c) + 2 * e_max + len(w.c) + 2
    assert calls["add"] == calls["from_int"] == 0
