"""Newton polygon construction and face factorization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcurve.errors import Char0IrreducibleRemainder, ZeroPolynomial
from singcurve.field import field_ctx
from singcurve.newton import face_factorization, face_line, newton_polygon
from singcurve.poly import BiPoly, parse_poly

from curves import EX1, EX2
from oracles import small_elem

QQ = field_ctx(0)


def _split_face(f, face):
    """face_factorization of the face line that f itself puts on face."""
    _, T = face_line(f, face.p, face.q)
    return face_factorization(T, face, f.ctx)


def test_cusp_polygon():
    np_ = newton_polygon(parse_poly("x^2 - y^3", QQ))
    assert np_.i0 == 0 and np_.j0 == 0
    assert np_.vertices == [(0, 3), (2, 0)]
    assert len(np_.faces) == 1
    f = np_.faces[0]
    assert (f.p, f.q, f.N, f.K) == (3, 2, 6, 1)


def test_ex1_polygon_and_face():
    f = parse_poly(EX1, QQ)
    np_ = newton_polygon(f)
    assert np_.vertices == [(0, 12), (8, 0)]
    assert np_.i0 == 0 and np_.j0 == 0
    face = np_.faces[0]
    assert (face.p, face.q, face.N, face.K) == (3, 2, 24, 4)
    _, T = face_line(f, face.p, face.q)
    ctx2, embed, roots = face_factorization(T, face, QQ)
    assert ctx2 is QQ
    assert roots == [(Fraction(1), 4)]
    assert (face.top[0], face.bot[1]) == (0, 0)
    assert embed(T[-1]) == 1


def test_ex2_polygon():
    f = parse_poly(EX2, QQ)
    np_ = newton_polygon(f)
    assert np_.vertices == [(0, 14), (2, 10), (6, 4), (11, 0)]
    assert [(fc.p, fc.q, fc.N) for fc in np_.faces] == [(2, 1, 14), (3, 2, 26), (4, 5, 44)]
    assert [fc.K for fc in np_.faces] == [2, 2, 1]


def test_ex2_faces_char_not_2():
    f11 = field_ctx(11)
    f = parse_poly(EX2, f11)
    np_ = newton_polygon(f)
    f1, f2, f3 = np_.faces
    assert sorted(_split_face(f, f1)[2]) == [(1, 1), (10, 1)]
    assert (f1.top[0], f1.bot[1]) == (0, 10)
    assert _split_face(f, f2)[2] == [(1, 2)]
    assert (f2.top[0], f2.bot[1]) == (2, 4)
    assert _split_face(f, f3)[2] == [(1, 1)]
    assert (f3.top[0], f3.bot[1]) == (6, 0)


def test_ex2_face_char_2():
    f2 = field_ctx(2)
    f = parse_poly(EX2, f2)
    np_ = newton_polygon(f)
    assert np_.vertices == [(0, 14), (2, 10), (6, 4), (11, 0)]
    assert _split_face(f, np_.faces[0])[2] == [(1, 2)]


def test_monomial_times_unit_has_no_faces():
    f = parse_poly("x^2 y (1 + x + y)", QQ)
    np_ = newton_polygon(f)
    assert np_.faces == []
    assert (np_.i0, np_.j0) == (2, 1)
    assert np_.vertices == [(2, 1)]


def test_polygon_uses_full_support():
    # the x-multiple keeps its own exponent: i0 = 1 and the face sees it
    f = parse_poly("x y^5 + x^4 y + x^2 y^2 + x^4", QQ)
    np_ = newton_polygon(f)
    assert np_.i0 == 1 and np_.j0 == 0
    # support (1,5),(4,1),(2,2),(4,0): hull (1,5),(2,2),(4,0)
    assert np_.vertices == [(1, 5), (2, 2), (4, 0)]


def _json_dict(P):
    return {"i0": P.i0, "j0": P.j0,
            "vertices": [list(v) for v in P.vertices],
            "faces": [{"p": f.p, "q": f.q, "N": f.N} for f in P.faces]}


def test_json_dict():
    f = parse_poly(EX1, QQ)
    d = _json_dict(newton_polygon(f))
    assert d == {"i0": 0, "j0": 0, "vertices": [[0, 12], [8, 0]],
                 "faces": [{"p": 3, "q": 2, "N": 24}]}


def _shape(P):
    return (P.i0, P.j0, P.vertices,
            [(s.p, s.q, s.N, s.K, s.top, s.bot) for s in P.faces])


_terms = st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                         st.tuples(st.integers(-4, 4), st.integers(0, 3)),
                         min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, field_ctx(2), field_ctx(3), field_ctx(5),
                        field_ctx(7, 2)]), _terms, _terms)
def test_the_polygon_of_a_product_is_the_sum_of_the_polygons(ctx, ft, gt):
    # Ostrowski: the initial forms on a vertex or face multiply, and in a
    # domain their product is not zero, so no term of f * g on its own
    # polygon cancels
    f, g = (BiPoly(ctx, {k: small_elem(ctx, a, b) for k, (a, b) in t.items()})
            for t in (ft, gt))
    if f.is_zero() or g.is_zero():
        return
    assert _shape(newton_polygon(f) + newton_polygon(g)) == \
        _shape(newton_polygon(f * g))


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        newton_polygon(BiPoly.zero(QQ))


def test_face_needs_extension():
    f11 = field_ctx(11)
    f = parse_poly("x^2 - 2 y^2", f11)  # 2 is not a square mod 11
    np_ = newton_polygon(f)
    ctx2, _, roots = _split_face(f, np_.faces[0])
    assert ctx2.order == 121
    assert len(roots) == 2
    for mu, nu in roots:
        assert nu == 1
        assert ctx2.mul(mu, mu) == ctx2.from_int(2)


def test_face_char0_irrational_raises():
    f = parse_poly("x^2 - 2 y^2", QQ)
    np_ = newton_polygon(f)
    with pytest.raises(Char0IrreducibleRemainder):
        _split_face(f, np_.faces[0])


def _face_poly_terms(f, face):
    out = {}
    for (i, j), v in f.c.items():
        if face.p * i + face.q * j == face.N:
            out[(i, j)] = v
    return out


@pytest.mark.parametrize("ctx", [field_ctx(5), field_ctx(2), field_ctx(13), QQ],
                         ids=repr)
def test_polygon_invariants_and_face_reconstruction(ctx):
    rng = random.Random(59)
    for _ in range(30):
        f = BiPoly(ctx)
        for _ in range(rng.randrange(2, 8)):
            k = (rng.randrange(8), rng.randrange(8))
            v = ctx.rand_elem(rng)
            if ctx.characteristic == 0:
                v = Fraction(rng.randint(-4, 4))
            if not ctx.is_zero(v):
                f.c[k] = v
        if f.is_zero():
            continue
        np_ = newton_polygon(f)
        assert np_.i0 == min(i for i, _ in f.c)
        assert np_.j0 == min(j for _, j in f.c)
        for v in np_.vertices:
            assert v in f.c
        slopes = []
        import math
        for face in np_.faces:
            assert math.gcd(face.p, face.q) == 1
            slopes.append(Fraction(face.p, face.q))
            for (i, j) in f.c:
                assert face.p * i + face.q * j >= face.N
        assert slopes == sorted(slopes, reverse=True)
        assert len(set(slopes)) == len(slopes)
        for face in np_.faces:
            _, T = face_line(f, face.p, face.q)
            try:
                c2, embed, roots = face_factorization(T, face, ctx)
            except Char0IrreducibleRemainder:
                continue
            a, b, lead = face.top[0], face.bot[1], embed(T[-1])
            rebuilt = BiPoly.monomial(c2, a, b, lead)
            for mu, nu in roots:
                lin = BiPoly(c2, {(face.q, 0): c2.one, (0, face.p): c2.neg(mu)})
                rebuilt = rebuilt * lin ** nu
            want = BiPoly(c2, {k: embed(v)
                               for k, v in _face_poly_terms(f, face).items()})
            assert rebuilt == want
