"""BiPoly arithmetic, parsing/printing, substitution, gcd, reduced check."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcurve import poly
from singcurve.errors import ParseError, ZeroPolynomial
from singcurve.field import field_ctx
from singcurve.newton import newton_polygon
from singcurve.poly import (BiPoly, clip_total, gcd_bipoly, parse_poly,
                            partials, poly_str, reduced_check,
                            vanishes_at_origin)

from curves import EX1, EX2, four_lines
from oracles import (full_product, gcd_prs, reference_parse, small_elem,
                     substitute)

QQ = field_ctx(0)
F5 = field_ctx(5)
F2 = field_ctx(2)


def rand_bipoly(ctx, rng, nterms=5, dmax=6):
    f = BiPoly(ctx)
    for _ in range(nterms):
        k = (rng.randrange(dmax), rng.randrange(dmax))
        v = ctx.rand_elem(rng)
        if not ctx.is_zero(v):
            f.c[k] = v
    return f


def test_parse_basics():
    f = parse_poly("x^2 - y^3", QQ)
    assert f.c == {(2, 0): Fraction(1), (0, 3): Fraction(-1)}
    g = parse_poly("x^2-y^3", QQ)
    assert f == g
    assert parse_poly("2x y", QQ).c == {(1, 1): Fraction(2)}
    assert parse_poly("(x+y)^2", QQ).c == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert parse_poly("-x + 3", QQ).c == {(1, 0): Fraction(-1), (0, 0): Fraction(3)}
    assert parse_poly("x*(y+1)", QQ) == parse_poly("x y + x", QQ)
    assert parse_poly("7", F5).c == {(0, 0): 2}
    assert parse_poly("5x", F5).is_zero()


def test_a_power_squares_only_while_bits_remain(monkeypatch):
    # 100 = 0b1100100 takes six squarings and three multiplies; a seventh
    # squaring, the 128th power, would be thrown away
    base = parse_poly("1 + x + y", F5)
    calls = []
    mul = BiPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(BiPoly, "__mul__", counted)
    power = base ** 100
    monkeypatch.undo()
    assert len(calls) == 9
    # over F_5, (1 + x + y)^100 = (1 + x^25 + y^25)^4
    quad = BiPoly(F5, {(0, 0): 1, (25, 0): 1, (0, 25): 1})
    assert power == quad * quad * quad * quad


@pytest.mark.parametrize("ctx, v", [
    (F5, 3), (F5, 8), (field_ctx(3, 2), (1, 2)), (field_ctx(0), -2),
    (field_ctx(0), Fraction(2, 3))], ids=repr)
@pytest.mark.parametrize("n", [0, 1, 2, 7, 30])
def test_a_monomial_power_takes_no_product(monkeypatch, ctx, v, n):
    # (v x^2 y^3)^n is v^n x^(2n) y^(3n) in one step; 8 is 3 mod 5
    base = BiPoly(ctx, {(2, 3): v})
    want = BiPoly.const(ctx, ctx.one)
    for _ in range(n):
        want = want * base
    monkeypatch.setattr(BiPoly, "__mul__", None)
    assert (base ** n).c == want.c


def test_equality_is_polynomial_equality():
    # a BiPoly keeps its coefficients as given, and 4 x - x is the zero
    # polynomial over F_3 and over F_9
    f3, f9 = field_ctx(3), field_ctx(3, 2)
    assert BiPoly(f3, {(1, 0): 4}) == parse_poly("x", f3)
    assert BiPoly(f9, {(1, 0): (4, 0)}) == parse_poly("x", f9)
    assert BiPoly(f9, {(1, 0): (4, 3)}) == parse_poly("x", f9)
    assert BiPoly(f3, {(1, 0): 4}) != parse_poly("x + y", f3)
    assert BiPoly(f3, {(1, 0): 4}) != parse_poly("4 x", field_ctx(5))
    assert parse_poly("x", f3) != "x"


def test_parse_generator():
    f9 = field_ctx(3, 2)
    f = parse_poly("g*x + g^2", f9)
    assert f.coeff(1, 0) == f9.gen
    assert f.coeff(0, 0) == f9.mul(f9.gen, f9.gen)
    with pytest.raises(ParseError):
        parse_poly("g*x", QQ)


def test_parse_errors():
    for bad in ["", "x +", "x^", "x^y", "(x", "x)", "z", "x**2", "x^-2"]:
        with pytest.raises(ParseError):
            parse_poly(bad, QQ)


@pytest.mark.parametrize("ctx", [QQ, F5, F2, field_ctx(3, 2)], ids=repr)
def test_print_parse_roundtrip(ctx):
    rng = random.Random(31)
    for _ in range(40):
        f = rand_bipoly(ctx, rng)
        if ctx.characteristic == 0:
            # keep coefficients integral so the grammar can express them
            f = BiPoly(ctx, {k: Fraction(int(v)) for k, v in f.c.items()})
        s = poly_str(f)
        assert parse_poly(s, ctx) == f or (f.is_zero() and s == "0")


def test_print_examples():
    assert poly_str(parse_poly("x^2 - y^3", QQ)) == "x^2 - y^3"
    assert poly_str(BiPoly.zero(QQ)) == "0"
    assert poly_str(parse_poly("x^2 - y^3", F5)) == "x^2 + 4*y^3"
    f9 = field_ctx(3, 2)
    s = poly_str(parse_poly("(g+1)x y^2", f9))
    assert s == "(g+1)*x*y^2"
    assert parse_poly(s, f9) == parse_poly("(g+1)x y^2", f9)


def test_ord_and_mults():
    f = parse_poly("x^2 - y^3", QQ)
    assert f.ord() == 2
    assert parse_poly("x^4 y + x y^5 + x y", QQ).ord() == 2
    P = newton_polygon(parse_poly("x^2 y^3 + x^3 y^4", QQ))
    assert (P.i0, P.j0) == (2, 3)
    with pytest.raises(ZeroPolynomial):
        BiPoly.zero(QQ).ord()


def test_partials():
    f = parse_poly("x^2 - y^3", QQ)
    fx, fy = partials(f)
    assert fx == parse_poly("2x", QQ)
    assert fy == parse_poly("-3y^2", QQ)
    fx2, fy2 = partials(parse_poly("x^2 - y^3", F2))
    assert fx2.is_zero()
    assert fy2 == parse_poly("y^2", F2)
    f3 = field_ctx(3)
    _, fy3 = partials(parse_poly("x^2 - y^3", f3))
    assert fy3.is_zero()


def test_substitute_frozen():
    # (x^2 - y^3) at x -> X^3 (Y+1), y -> X^2 (Y+1) equals -X^6 Y (Y+1)^2
    for ctx in [QQ, F5]:
        f = parse_poly("x^2 - y^3", ctx)
        xv = parse_poly("x^3 y + x^3", ctx)
        yv = parse_poly("x^2 y + x^2", ctx)
        got = substitute(f, xv, yv)
        want = BiPoly(ctx, {k: ctx.from_int(v) for k, v in
                            {(6, 1): -1, (6, 2): -2, (6, 3): -1}.items()})
        assert got == want


def test_substitute_is_ring_hom():
    rng = random.Random(37)
    for ctx in [F5, QQ]:
        for _ in range(10):
            f = rand_bipoly(ctx, rng, 4, 4)
            g = rand_bipoly(ctx, rng, 4, 4)
            xv = rand_bipoly(ctx, rng, 3, 3)
            yv = rand_bipoly(ctx, rng, 3, 3)
            assert substitute(f + g, xv, yv) == substitute(f, xv, yv) + substitute(g, xv, yv)
            assert substitute(f * g, xv, yv) == substitute(f, xv, yv) * substitute(g, xv, yv)


MUL_CTXS = (QQ, F2, F5, field_ctx(3), field_ctx(32003), field_ctx(3, 2),
            field_ctx(7, 2))

_coeffs = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_terms = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                         _coeffs, max_size=6)
# most of a small box, moved away from the origin: the packed shapes
_dense_terms = st.builds(
    lambda t, a, b: {(i + a, j + b): v for (i, j), v in t.items()},
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)), _coeffs,
                    min_size=12, max_size=20),
    st.integers(0, 9), st.integers(0, 9))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MUL_CTXS), st.one_of(_terms, _dense_terms),
       st.one_of(_terms, _dense_terms))
def test_mul_matches_the_full_product(ctx, ft, gt):
    f, g = (BiPoly(ctx, {k: small_elem(ctx, a, b)
                         for k, (a, b) in t.items()})
            for t in (ft, gt))
    for prod, want in ((f * g, full_product(f, g)[0]),
                       (f * f, full_product(f, f)[0])):
        assert prod.c == want.c
        assert all(not ctx.is_zero(v) for v in prod.c.values())


def test_a_packed_product_reduces_its_coefficients_first():
    # a BiPoly keeps its coefficients as given; the kernel takes F_p
    # elements in [0, p) only, and sizes its slots for them
    f = BiPoly(F5, {(i, j): (7 * i - 3 * j - 11) * (10 ** 9 + 1)
                    for i in range(5) for j in range(5)})
    assert poly._dense_layout(f.c, f.c)
    assert (f * f).c == full_product(f, f)[0].c


def _packed_products(monkeypatch):
    calls = []
    packed = poly._mul_packed

    def counted(*args):
        calls.append(args[0])
        return packed(*args)

    monkeypatch.setattr(poly, "_mul_packed", counted)
    return calls


@pytest.mark.parametrize("ctx", [QQ, field_ctx(32003)], ids=repr)
def test_the_density_rule_packs_dense_squares_only(monkeypatch, ctx):
    calls = _packed_products(monkeypatch)
    base = parse_poly("1 + x + y", ctx)
    for k in (4, 8, 16):
        f = base ** k
        calls.clear()
        assert (f * f).c == full_product(f, f)[0].c and len(calls) == 1
    # the multiply by the base in a power, a unit times EX1, and the
    # factor products of the paper's curves stay term by term
    power16, power17 = base ** 16, base ** 17
    calls.clear()
    assert (power16 * base).c == power17.c
    unit = parse_poly("1 + x + y + x y", ctx)
    for text in (EX1, EX2, four_lines((1, 2, 3, 4))):
        parse_poly(text, ctx) * unit
    assert calls == []


def test_a_dense_power_is_packed_in_time():
    for ctx in (QQ, field_ctx(32003)):
        start = time.process_time()
        f = parse_poly("(1 + x + y)^200", ctx)
        assert time.process_time() - start < 2, ctx
        assert len(f.c) == 201 * 202 // 2
        assert f.coeff(100, 50) == ctx.from_int(
            math.factorial(200) // (math.factorial(100) * math.factorial(50)
                                    * math.factorial(50)))


@pytest.mark.parametrize("ctx", [QQ, field_ctx(32003)], ids=repr)
def test_a_power_on_a_line_is_priced_by_its_terms(ctx):
    # 729 terms on the line i = j; a forecast from the box of the base's
    # exponents refused ^364, though ^363 took 0.2 s
    start = time.process_time()
    f = parse_poly("(1 + x y + x^2 y^2)^364", ctx)
    assert time.process_time() - start < 1
    assert len(f.c) == 729 and f.coeff(364, 364) != ctx.zero


def test_a_power_of_mid_sized_integers_stays_admitted():
    # the square of (x + y)^723 is 724^2 pairs of ints of up to 719 bits,
    # priced as pairs of small ones: just inside POWER_WORK_LIMIT
    start = time.process_time()
    f = parse_poly("(x + y)^1447", QQ)
    assert time.process_time() - start < 3
    assert f.coeff(723, 724) == math.comb(1447, 723)
    g = parse_poly("(x + y)^723", QQ)
    assert poly._product_work(g, g) == 724 ** 2 <= poly.POWER_WORK_LIMIT


# group powers and products of them: EX1 and EX2 carry both, and the last
# two texts are refused, the first at a squaring, the second at a product
PRICED_TEXTS = (EX1, EX2, four_lines((1, 2, 3, 4)), four_lines((0, 0, 0, 1)),
                "(1 + x y + x^2 y^2)^364", "(2 x y^3)^7 (x - y)^0 (0)^2 (y)",
                "(1 + x + y)^10000", "(1 + x + y)^120 (1 + x + y)^120")


def _count_products(monkeypatch):
    """Lists that grow by one at each _product_work and BiPoly.__mul__ call."""
    prices, products = [], []
    work, mul = poly._product_work, BiPoly.__mul__

    def priced(a, b):
        prices.append(1)
        return work(a, b)

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(poly, "_product_work", priced)
    monkeypatch.setattr(BiPoly, "__mul__", counted)
    return prices, products


@pytest.mark.parametrize("ctx", [QQ, field_ctx(32003)], ids=repr)
def test_every_product_the_parser_forms_is_priced(monkeypatch, ctx):
    # a product formed without its price would escape POWER_WORK_LIMIT; a
    # refused one is priced and never formed
    prices, products = _count_products(monkeypatch)
    for text in PRICED_TEXTS:
        prices.clear()
        products.clear()
        try:
            parse_poly(text, ctx)
        except ParseError as e:
            assert "POWER_WORK_LIMIT" in str(e), text
            assert len(prices) == len(products) + 1, text
        else:
            assert len(prices) == len(products), text


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_product_of_a_drawn_text_is_priced(data):
    ctx = data.draw(st.sampled_from(PARSE_CTXS + (field_ctx(3, 2),)))
    text = data.draw(_poly_texts(ctx.ext_degree > 1))
    with pytest.MonkeyPatch.context() as m:
        prices, products = _count_products(m)
        parse_poly(text, ctx)
    assert len(prices) == len(products), text


def _poly_texts(gen):
    """Well-formed texts: signs, juxtaposition, '*', '^' on atoms and on
    nested groups, and g when gen holds."""
    atoms = ["x", "y", "0", "1", "2", "3", "10"] + (["g"] if gen else [])
    exps = ["", "", "^0", "^1", "^2", "^3", " ^ 2", "^ 1"]

    @st.composite
    def expr(draw, depth=2):
        out = draw(st.sampled_from(["", "", "-", "+", "- "]))
        for t in range(draw(st.integers(1, 3))):
            if t:
                out += draw(st.sampled_from([" + ", " - ", "-", "+"]))
            for k in range(draw(st.integers(1, 3))):
                if depth and draw(st.integers(0, 3)) == 0:
                    body = "(" + draw(expr(depth - 1)) + ")"
                else:
                    body = draw(st.sampled_from(atoms))
                # juxtaposed digits would read as one integer
                seps = [" ", "*", " * "] + ([""] if not body[0].isdigit()
                                            else [])
                out += (draw(st.sampled_from(seps)) if k else "") + body
                out += draw(st.sampled_from(exps))
        return out

    return expr()


def test_parsing_takes_time_linear_in_the_text():
    # blanks matched before each token would be matched again from every
    # later offset, quadratic in a run of them; nesting keeps no call stack
    x = parse_poly("x", QQ)
    for text in ("x" + " " * 20000, " " * 20000 + "x",
                 "(" * 3000 + "x" + ")" * 3000):
        start = time.process_time()
        assert parse_poly(text, QQ) == x
        assert time.process_time() - start < 0.2
    with pytest.raises(ParseError, match="natural number"):
        parse_poly("x" + " " * 20000 + "^" + " " * 20000, QQ)


PARSE_CTXS = (QQ, F2, F5, field_ctx(32003))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_parser_matches_the_reference(data):
    ctx = data.draw(st.sampled_from(PARSE_CTXS + (field_ctx(3, 2),)))
    text = data.draw(_poly_texts(ctx.ext_degree > 1))
    assert parse_poly(text, ctx).c == reference_parse(text, ctx).c, text


MALFORMED = ["", "x +", "x^", "x^y", "(x", "x)", "z", "x**2", "x^-2",
             "x^2^3", "()", "(x))", "x - -y", "x * -y", "+-x", "x y z",
             "  ", "(x^2^3)", "((x)", "x (y", "(x)^", "(x)^y", "-", "x*",
             "x + * y", "2^100000", "(x + y)^20000", "x^ 2^", "(", ")",
             "x - (y +)", "(1 + x)(2 - y", "x ^ -1", "x^2 3)", "x + + y z"]


@pytest.mark.parametrize("ctx, text", [
    (ctx, text) for ctx in (QQ, field_ctx(3, 2))
    for text in MALFORMED + ["x + g (y"]
    + (["g^2 x", "g^20000", "x (g)^20000"] if ctx is QQ else [])])
def test_malformed_texts_fail_alike_in_both_parsers(ctx, text):
    with pytest.raises(ParseError) as ref:
        reference_parse(text, ctx)
    with pytest.raises(ParseError) as new:
        parse_poly(text, ctx)
    assert (new.value.pos, str(new.value)) == (ref.value.pos, str(ref.value))


def _sympy_divides(d, f, p):
    """Whether d | f, checked independently with sympy."""
    import sympy
    from oracles import sympy_bipoly

    dd = {k: int(v) if not isinstance(v, Fraction) else v for k, v in d.c.items()}
    ff = {k: int(v) if not isinstance(v, Fraction) else v for k, v in f.c.items()}
    ds = sympy_bipoly(dd, p)
    fs = sympy_bipoly(ff, p)
    _, rem = fs.div(ds)
    return rem.is_zero


def test_gcd_bipoly():
    rng = random.Random(47)
    for ctx in [F5, F2, QQ]:
        p = ctx.characteristic
        for _ in range(12):
            h = rand_bipoly(ctx, rng, 3, 3)
            a = rand_bipoly(ctx, rng, 3, 3)
            b = rand_bipoly(ctx, rng, 3, 3)
            if h.is_zero() or a.is_zero() or b.is_zero():
                continue
            if p == 0:
                h, a, b = (BiPoly(ctx, {k: Fraction(int(v)) for k, v in q.c.items()})
                           for q in (h, a, b))
            d = gcd_bipoly(h * a, h * b)
            assert _sympy_divides(d, h * a, p)
            assert _sympy_divides(d, h * b, p)
            assert _sympy_divides(h, d, p)


def test_gcd_bipoly_exact_cases():
    x2y3 = parse_poly("x^2 - y^3", QQ)
    d = gcd_bipoly(x2y3 * x2y3, x2y3 * parse_poly("x + y", QQ))
    # normalize comparison up to scalar
    lead = d.c[max(d.c)]
    assert d.scale(QQ.inv(lead)) == x2y3.scale(QQ.inv(x2y3.c[max(x2y3.c)]))
    one = gcd_bipoly(parse_poly("x", QQ), parse_poly("y", QQ))
    assert list(one.c) == [(0, 0)]


def test_reduced_check():
    assert reduced_check(parse_poly("x^2 - y^3", QQ)) == (True, None)
    ok, wit = reduced_check(parse_poly("x y (x+y)", QQ))
    assert ok and wit is None
    ok, wit = reduced_check(parse_poly("(x^2 - y^3)^2", QQ))
    assert not ok
    assert not wit.is_zero() and QQ.is_zero(wit.coeff(0, 0))
    # x^2 + y^2 over F_2 is (x + y)^2
    ok, wit = reduced_check(parse_poly("x^2 + y^2", F2))
    assert not ok
    assert wit == parse_poly("x + y", F2)
    # unit-square factors away from the origin do not matter
    f = parse_poly("(1+x)^2 x y", QQ)
    ok, _ = reduced_check(f)
    assert ok
    # units are reduced
    assert reduced_check(parse_poly("1 + x", QQ))[0]
    with pytest.raises(ZeroPolynomial):
        reduced_check(BiPoly.zero(QQ))


def test_reduced_check_of_a_unit_times_ex1_ex2_over_q():
    # gcd(f, f_x, f_y) of a degree-40 germ over Q; Euclid on Fractions in
    # its image gcds took about 22 s here
    f = parse_poly(f"(1 + x + y + x y)({EX1})({EX2})", QQ)
    start = time.process_time()
    assert reduced_check(f) == (True, None)
    assert time.process_time() - start < 5


def test_reduced_check_pth_power_in_extension():
    f4 = field_ctx(2, 2)
    g = parse_poly("g*x + y", f4)
    ok, wit = reduced_check(g * g)
    assert not ok
    assert wit == g


def test_reduced_random_products():
    rng = random.Random(53)
    for ctx in [F5, F2]:
        for _ in range(20):
            a = rand_bipoly(ctx, rng, 3, 3)
            if a.is_zero() or not ctx.is_zero(a.coeff(0, 0)):
                continue
            sq = a * a
            ok, wit = reduced_check(sq)
            assert not ok
            assert wit is not None


GCD_CTXS = [F2, field_ctx(3), field_ctx(2, 3), field_ctx(3, 2),
            field_ctx(101), QQ]
_gcd_terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.tuples(st.integers(-4, 4), st.integers(0, 3)),
                             max_size=4)
_monomial = st.tuples(st.integers(0, 3), st.integers(0, 3))


def _from_terms(ctx, terms):
    return BiPoly(ctx, {k: small_elem(ctx, a, b) for k, (a, b) in terms.items()})


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(GCD_CTXS), _gcd_terms, _gcd_terms, _gcd_terms,
       _monomial, _monomial)
def test_gcd_bipoly_matches_the_prs(ctx, ht, at, bt, ma, mb):
    # a common factor h, monomial factors, and an empty cofactor gives a
    # zero argument
    h, a, b = (_from_terms(ctx, t) for t in (ht, at, bt))
    f = h * a * BiPoly.monomial(ctx, *ma)
    g = h * b * BiPoly.monomial(ctx, *mb)
    assert gcd_bipoly(f, g) == gcd_prs(f, g)


ROW_CTXS = [F2, field_ctx(3), field_ctx(32003), field_ctx(2, 3),
            field_ctx(7, 2), QQ]
_row_terms = st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 8)),
                             st.tuples(st.integers(-4, 4), st.integers(0, 3)),
                             max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ROW_CTXS), _row_terms, st.integers(0, 24))
def test_row_cut_and_strip_match_the_bipoly(ctx, terms, n):
    # the one total-degree cut and the one monomial strip on y-rows
    # against clip_total and the polygon's i0 and j0 on the BiPoly
    f = _from_terms(ctx, terms)
    rows = poly._to_yrows(f)
    before = [list(r) for r in rows]
    clipped, fell = clip_total(f, n)
    assert poly._clip_rows(ctx, rows, n) == (poly._to_yrows(clipped), fell)
    assert rows == before
    if f.is_zero():
        return
    P = newton_polygon(f)
    a, b = P.i0, P.j0
    quotient = BiPoly(ctx, {(i - a, j - b): v for (i, j), v in f.c.items()})
    got = poly._rows_strip(ctx, rows)
    assert got == (a, b, poly._to_yrows(quotient))
    assert (got[2] is rows) == (a == b == 0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ROW_CTXS), _row_terms)
def test_swapped_rows_hold_the_y_coefficients_of_each_x_power(ctx, terms):
    # with swap, entry j of row i is the coefficient of x^i y^j, and the
    # rows are trimmed as y-rows are
    f = _from_terms(ctx, terms)
    rows = poly._to_yrows(f, True)
    assert {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)
            if not ctx.is_zero(v)} == f.c
    assert not rows or rows[-1]
    assert all(not ctx.is_zero(r[-1]) for r in rows if r)


_reduced_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(-4, 4), st.integers(0, 3)), max_size=3)


def _factor_shapes(ctx, h):
    """h, h^2, (1 + x)^2, (1 + y)^2, x^2 and y^p + x: square factors off
    and through the origin, and a reduced factor every image of which is
    inseparable (y^2 + x over Q)."""
    x, y = BiPoly.monomial(ctx, 1, 0), BiPoly.monomial(ctx, 0, 1)
    one = BiPoly.const(ctx, ctx.one)
    return [h, h * h, (one + x) ** 2, (one + y) ** 2, x * x,
            y ** (ctx.characteristic or 2) + x]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(GCD_CTXS), _reduced_terms, _reduced_terms,
       st.integers(0, 5))
def test_reduced_check_matches_the_prs(ctx, ht, at, shape):
    # the one-image certificate and the exact path against the PRS, which
    # is slow over Q beyond y-degree 6 or so
    h, a = (_from_terms(ctx, t) for t in (ht, at))
    f = _factor_shapes(ctx, h)[shape] * a
    fx, fy = partials(f)
    if f.is_zero() or (fx.is_zero() and fy.is_zero()):
        return
    d = gcd_prs(gcd_prs(f, fx), fy)
    want = (False, d) if vanishes_at_origin(d) else (True, None)
    assert reduced_check(f) == want


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(GCD_CTXS), _reduced_terms, _reduced_terms,
       _reduced_terms, st.integers(0, 5), st.integers(0, 5))
def test_the_shared_branch_test_matches_the_prs(ctx, ht, at, bt, sf, sg):
    # each side takes one of the shapes, so they share h, an axis, a
    # square off the origin or nothing; an empty draw gives a zero side
    fs = _factor_shapes(ctx, _from_terms(ctx, ht))
    f, g = (fs[s] * _from_terms(ctx, t) for s, t in ((sf, at), (sg, bt)))
    want = vanishes_at_origin(gcd_prs(f, g))
    assert poly._shares_origin_branch(f, g) == want


def test_one_image_certifies_the_sweep_germs(monkeypatch):
    # EX1, EX2 and the four-lines germs of the per-prime sweep, and a
    # reduced random germ, need no exact gcd; a square that every image
    # keeps, or a field whose one nonzero point is a root of lc_y f,
    # still sends the check to its two exact gcds
    calls = []
    gcd = poly.gcd_bipoly

    def counted(f, g):
        calls.append(f)
        return gcd(f, g)

    monkeypatch.setattr(poly, "gcd_bipoly", counted)
    f101 = field_ctx(101)
    lines = [(1, 2, 3, 4), (0, 0, 1, 2), (0, 0, 0, 1), (0, 0, 0, 0)]
    germs = [parse_poly(t, field_ctx(10007))
             for t in [EX1, EX2] + [four_lines(a) for a in lines]]
    g = _rand_support(f101, random.Random(7), 8, 12)
    germs.append(g - BiPoly.const(f101, g.coeff(0, 0)))
    assert all(reduced_check(g) == (True, None) for g in germs)
    assert calls == []
    for ctx, square in ((f101, "(1 + y)^2"), (F2, "(1 + x)^2")):
        g = parse_poly(f"{square} (y^2 - x^3 + x y)", ctx)
        assert reduced_check(g) == (True, None)
    assert len(calls) == 4


@pytest.mark.parametrize("ctx, h, steps", [
    # F_2 has two points, the gcd's x-degree 2 needs three
    (F2, "y + x^2 + x + 1", [(1, 2)]),
    # F_4 has four points, x-degree 4 needs five
    (field_ctx(2, 2), "y + x^4 + g x + 1", [(2, 4)]),
], ids=["GF(2)", "GF(2^2)"])
def test_gcd_bipoly_takes_the_extension_path(ctx, h, steps, monkeypatch):
    seen = []
    extend = poly._quadratic_extension

    def spy(small):
        out = extend(small)
        seen.append((small.ext_degree, out[0].ext_degree))
        return out

    monkeypatch.setattr(poly, "_quadratic_extension", spy)
    h = parse_poly(h, ctx)
    f, g = h * parse_poly("y + x", ctx), h * parse_poly("y + 1", ctx)
    d = gcd_bipoly(f, g)
    assert seen == steps
    assert d == gcd_prs(f, g) == h
    assert d.ctx == ctx


def _rand_support(ctx, rng, terms, deg):
    c = {}
    while len(c) < terms:
        i = rng.randint(0, deg)
        c[(i, rng.randint(0, deg - i))] = ctx.from_int(rng.randrange(1, ctx.order))
    return BiPoly(ctx, c)


def _timed_reduced_check(f):
    start = time.process_time()
    out = reduced_check(f)
    return out, time.process_time() - start


def test_reduced_check_of_int_coefficients_over_q_is_fast():
    # plain ints are accepted over Q; inv once turned them into floats and
    # sent the gcd on this germ into float arithmetic for minutes
    rng = random.Random(22)
    terms = {}
    while len(terms) < 8:
        i = rng.randint(0, 10)
        j = rng.randint(1 if i == 0 else 0, 10 - i)
        terms[(i, j)] = rng.randint(-9, 9) or 1
    f = BiPoly(QQ, terms)
    out, secs = _timed_reduced_check(f)
    assert out == reduced_check(parse_poly(poly_str(f), QQ))
    assert secs < 0.5


@pytest.mark.parametrize("deg", [4, 8, 12, 16])
def test_squared_cusp_times_g_is_fast(deg):
    # the PRS-based check took up to 0.35 s on these, growing with deg g
    f101 = field_ctx(101)
    cusp = parse_poly("x^2 - y^3", f101)
    g = _rand_support(f101, random.Random(deg), 8, deg)
    (ok, wit), secs = _timed_reduced_check(cusp * cusp * g)
    assert not ok and vanishes_at_origin(wit)
    assert _sympy_divides(cusp, wit, 101)
    assert secs < 0.2


@pytest.mark.parametrize("p", [3, 101])
def test_y_squared_times_h_is_fast(p):
    # the PRS-based check took 4 s (F_3) and 9 s (F_101) on these
    ctx = field_ctx(p)
    h = _rand_support(ctx, random.Random(28), 12, 28)
    (ok, wit), secs = _timed_reduced_check(BiPoly.monomial(ctx, 0, 2) * h)
    assert not ok and newton_polygon(wit).j0 == 1
    assert secs < 0.2


@pytest.mark.parametrize("ctx", [QQ, F5], ids=["Q", "GF(5)"])
def test_the_row_content_skips_empty_rows(ctx, monkeypatch):
    # f, f_x and f_y of x^2 - y^9999 have three nonempty y-rows among
    # 10,000; one uni_gcd per row, empty ones included, made 10,001 calls
    calls = []
    gcd = poly.uni_gcd

    def counting(k, a, row):
        calls.append(row)
        return gcd(k, a, row)

    monkeypatch.setattr(poly, "uni_gcd", counting)
    # reduced_check answers this germ from one image, so the exact path it
    # falls back to is called directly
    f = parse_poly("x^2 - y^9999", ctx)
    fx, fy = partials(f)
    assert gcd_bipoly(gcd_bipoly(f, fx), fy) == BiPoly.const(ctx, ctx.one)
    assert len(calls) == 3 and all(calls)
