"""Field contexts, univariate arithmetic, factorization, splitting fields."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singcurve import field
from singcurve.errors import (Char0IrreducibleRemainder, DivisionByZero,
                              InputError, InternalError)
from singcurve.field import (EXT_DEGREE_LIMIT, PRIME_TEST_LIMIT, ExtFieldCtx,
                             PrimeFieldCtx, adjoin_splitting, embedding,
                             field_ctx, is_prime, uni_deg, uni_divmod,
                             uni_eval, uni_factor, uni_gcd, uni_monic,
                             uni_mul, uni_pow_mod, uni_rational_roots,
                             uni_squarefree, uni_trim)
from singcurve.poly import BiPoly, _rows_trim, _to_yrows, clip_total

from oracles import (brute_roots, euclid_gcd, full_product, miller_rabin,
                     series_product, small_elem, sympy_factor_fp)

CTXS = [
    field_ctx(2), field_ctx(3), field_ctx(5), field_ctx(13),
    field_ctx(2, 2), field_ctx(2, 3), field_ctx(3, 2), field_ctx(5, 2),
    field_ctx(0),
]


def rand_poly(ctx, rng, deg):
    f = [ctx.rand_elem(rng) for _ in range(deg + 1)]
    return uni_trim(ctx, f)


@pytest.mark.parametrize("ctx", CTXS, ids=repr)
def test_field_axioms(ctx):
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (ctx.rand_elem(rng) for _ in range(3))
        assert ctx.add(a, ctx.neg(a)) == ctx.zero
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
        if not ctx.is_zero(a):
            assert ctx.mul(a, ctx.inv(a)) == ctx.one
            assert ctx.pow(a, -3) == ctx.inv(ctx.pow(a, 3))
        assert ctx.pow(a, 5) == ctx.mul(a, ctx.mul(a, ctx.mul(a, ctx.mul(a, a))))


@pytest.mark.parametrize("ctx", CTXS, ids=repr)
def test_from_int_is_ring_hom(ctx):
    for m in range(-6, 7):
        for n in range(-6, 7):
            assert ctx.from_int(m + n) == ctx.add(ctx.from_int(m), ctx.from_int(n))
            assert ctx.from_int(m * n) == ctx.mul(ctx.from_int(m), ctx.from_int(n))


def test_inv_of_zero_raises():
    for ctx in CTXS:
        with pytest.raises(DivisionByZero):
            ctx.inv(ctx.zero)


@pytest.mark.parametrize("ctx", [field_ctx(2, 2), field_ctx(2, 3),
                                 field_ctx(7, 2)], ids=repr)
def test_ext_inv_is_memoised_and_exact(ctx):
    for a in ctx.elements():
        if not ctx.is_zero(a):
            first = ctx.inv(a)
            assert ctx.mul(a, first) == ctx.one
            assert ctx.inv(a) == first
    with pytest.raises(DivisionByZero):
        ctx.inv(ctx.zero)


def test_felem_examples():
    f5 = field_ctx(5)
    assert f5.inv(3) == 2
    assert f5.pow(2, 4) == 1
    f7 = field_ctx(7)
    assert f7.mul(2, 4) == 1
    f9 = field_ctx(3, 2)
    g = f9.gen
    assert f9.pow(g, 8) == f9.one  # multiplicative group has order 8
    assert f9.pow(g, 3) == f9.mul(g, f9.mul(g, g))
    assert g not in (f9.zero, f9.one)


def test_rational_inv_and_div_of_ints_are_fractions():
    QQ = field_ctx(0)
    for x in (QQ.inv(3), QQ.div(1, 3), QQ.div(2, 6)):
        assert type(x) is Fraction and x == Fraction(1, 3)
    # an integral rational is an int, so the monic gcd of int rows is ints
    g = uni_gcd(QQ, [1, 2, 1], [1, 1])
    assert g == [1, 1] and all(type(c) is int for c in g)


# the largest prime whose primality is decided: its products need wide
# slots in the packed kernel, about 21 bytes
BIG_P = next(n for n in range(PRIME_TEST_LIMIT - 2, 0, -2) if is_prime(n))
KERNEL_CTXS = [field_ctx(2), field_ctx(32003), field_ctx(BIG_P),
               field_ctx(2, 3), field_ctx(7, 2), field_ctx(0)]
_row_terms = st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 6)),
                             st.tuples(st.integers(-4, 4), st.integers(0, 3)),
                             max_size=30)
_row_coeffs = st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 3)),
                       max_size=30)


def _check_sub_mul_rows(ctx, f, g, q, n):
    # g - q(x)*f cut at total degree n, and the cut flag, from the full
    # product; rows are made with the cut so that row j is <= n - j long
    want, want_cut = full_product(
        BiPoly(ctx, {(k, 0): c for k, c in enumerate(q)}),
        clip_total(f, n)[0], n)
    want = clip_total(g, n)[0] - want
    fr, gr = _to_yrows(clip_total(f, n)[0]), _to_yrows(clip_total(g, n)[0])
    before = [list(r) for r in fr], [list(r) for r in gr]
    rows, cut = ctx.sub_mul_rows(gr, fr, q, n)
    assert (fr, gr) == before
    assert cut == want_cut
    assert _rows_trim(rows) == _to_yrows(want)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KERNEL_CTXS), _row_terms, _row_terms, _row_coeffs,
       st.integers(1, 48))
def test_sub_mul_rows_matches_the_full_product(ctx, ft, gt, qc, n):
    f, g = (BiPoly(ctx, {k: small_elem(ctx, a, b) for k, (a, b) in t.items()})
            for t in (ft, gt))
    q = uni_trim(ctx, [small_elem(ctx, a, b) for a, b in qc])
    _check_sub_mul_rows(ctx, f, g, q, n)


# (ctx, entry of q, of f, of g): the largest entries of each field, every
# coordinate p - 1, and over Q ints and Fractions that make the new rows
# reach the signed bound at both signs, once with a row g_j far larger
# than q*f_j
FULL_SLOTS = [
    (field_ctx(2), 1, 1, 1),
    (field_ctx(32003), 32002, 32002, 32002),
    (field_ctx(BIG_P), BIG_P - 1, BIG_P - 1, BIG_P - 1),
    (field_ctx(2, 3), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
    (field_ctx(7, 2), (6, 6), (6, 6), (6, 6)),
    (field_ctx(0), -10 ** 30, 10 ** 30, 10 ** 30),
    (field_ctx(0), Fraction(10 ** 30, 7), Fraction(-10 ** 30, 3),
     Fraction(-1, 11)),
    (field_ctx(0), 1, -1, 10 ** 30),
]


@pytest.mark.parametrize("case", FULL_SLOTS, ids=[
    "2", "32003", str(BIG_P), "GF(2^3)", "GF(7^2)", "QQ", "QQ-fractions",
    "QQ-large-g"])
@pytest.mark.parametrize("n", [1, 30, 60, 200])
def test_packed_sub_mul_rows_at_full_slots(case, n):
    # the middle of q*f_j reaches the bound the slot width is made for
    ctx, cq, cf, cg = case
    f = BiPoly(ctx, {(i, j): cf for j in range(4) for i in range(70)})
    g = BiPoly(ctx, {(i, j): cg for j in range(6) for i in range(0, 90, 3)})
    _check_sub_mul_rows(ctx, f, g, [cq] * 70, n)


SERIES_CTXS = KERNEL_CTXS + [field_ctx(3)]
_big = st.integers(-10 ** 30, 10 ** 30)


_q_elems = st.one_of(st.integers(-9, 9), _big,
                    st.builds(Fraction, _big, st.integers(1, 10 ** 30)),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


def _canonical(x):
    # an int exactly when integral, a Fraction otherwise, never a float
    return type(x) is (int if x == int(x) else Fraction)


@settings(max_examples=300, deadline=None)
@given(_q_elems, _q_elems, _big, st.lists(_big, max_size=12),
       st.integers(1, 10 ** 30))
@example(Fraction(1, 2), Fraction(1, 2), 0, [0, 5, -6], 3)
@example(Fraction(4, 2), Fraction(-3, 2), 7, [10 ** 30], 1)
def test_rational_elements_are_ints_exactly_when_integral(a, b, n, cs, d):
    QQ = field_ctx(0)
    out = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a),
           QQ.from_int(n)]
    if a:
        out.append(QQ.inv(a))
    half = 2 ** 127
    for den in (1, d):
        got = QQ._elems([c + half for c in cs], half, den)
        assert got == [Fraction(c, den) for c in cs]
        out += got
    assert out[:5] == [a + b, a - b, a * b, -a, n]
    assert all(map(_canonical, out))


_q_poly = st.lists(_q_elems, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_q_poly, _q_poly, _q_poly)
@example([1, 1], [1, 1], [-1, 1])
@example([Fraction(1, 2), 3], [], [Fraction(2, 3), 0, 5])
def test_rational_gcd_matches_euclid_on_fractions(h, f, g):
    # f and g share the planted factor h; the remainder sequence on
    # integer rows gives Euclid's monic gcd, in canonical elements
    QQ = field_ctx(0)
    h, f, g = (uni_trim(QQ, list(r)) for r in (h, f, g))
    f, g = uni_mul(QQ, h, f), uni_mul(QQ, h, g)
    got = uni_gcd(QQ, f, g)
    assert got == euclid_gcd(QQ, f, g)
    assert all(map(_canonical, got))
    if f or g:
        assert got[-1] == 1 and len(got) >= len(h)


def _fp_gcd_case(p):
    # full-range coefficients next to small ones, which give common
    # factors more often
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    poly = st.lists(entry, max_size=6)
    return st.tuples(st.just(p), poly, poly, poly)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 101, 32003, 2 ** 31 - 1]).flatmap(_fp_gcd_case))
@example((2, [1, 1], [1, 1], [0, 1]))
@example((101, [], [3], [5, 0, 7]))
def test_prime_field_gcd_matches_euclid(case):
    # f and g share the planted factor h; the int-list division over F_p
    # gives the monic gcd of Euclid with a field division at every step
    p, h, f, g = case
    ctx = field_ctx(p)
    h, f, g = (uni_trim(ctx, r) for r in (h, f, g))
    f, g = uni_mul(ctx, h, f), uni_mul(ctx, h, g)
    got = uni_gcd(ctx, f, g)
    assert got == euclid_gcd(ctx, f, g)
    assert all(0 <= c < p for c in got)
    if f or g:
        assert got[-1] == 1 and len(got) >= len(h)


def _series_entries(ctx):
    if ctx.characteristic == 0:
        # Fractions with up to 30-digit parts, and plain ints
        return st.one_of(st.just(0), st.integers(-9, 9), _big,
                         st.builds(Fraction, _big, st.integers(1, 10 ** 30)))
    if ctx.ext_degree > 1:
        return st.tuples(*[st.integers(0, ctx.p - 1)] * ctx.ext_degree)
    return st.one_of(st.just(0), st.just(ctx.p - 1),
                     st.integers(0, ctx.p - 1))


def _series_case(ctx):
    entries = st.lists(_series_entries(ctx), max_size=60)
    return st.tuples(st.just(ctx), entries, entries, st.integers(0, 48))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SERIES_CTXS).flatmap(_series_case))
# every entry at its largest: the middle coefficients reach the slot bound
@example((field_ctx(BIG_P), [BIG_P - 1] * 80, [BIG_P - 1] * 70, 200))
@example((field_ctx(32003), [32002] * 300, [32002] * 300, 600))
@example((field_ctx(2, 3), [(1, 1, 1)] * 90, [(1, 1, 1)] * 70, 200))
@example((field_ctx(7, 2), [(6, 6)] * 90, [(6, 6)] * 70, 200))
@example((field_ctx(0), [-10 ** 30] * 90, [10 ** 30] * 90, 179))
@example((field_ctx(0), [Fraction(-1, 3)] * 50, [Fraction(-2, 7)] * 50, 30))
@example((field_ctx(0), [Fraction(10 ** 30, 7)] * 60,
          [Fraction(-10 ** 30, 3)] * 60, 119))
def test_mul_series_matches_the_naive_product(case):
    ctx, a, b, n = case
    before = list(a), list(b)
    got = ctx.mul_series(a, b, n)
    assert (a, b) == before
    assert len(got) == n
    assert got == series_product(ctx, a, b, n)
    assert ctx.mul_series(a, a, n) == series_product(ctx, a, a, n)


@given(st.integers(min_value=-2, max_value=200))
def test_is_prime_against_trial(n):
    naive = n >= 2 and all(n % d for d in range(2, n))
    assert is_prime(n) == naive


def test_field_ctx_checks_the_extension_degree():
    # k is 1 over Q and lies in 1..EXT_DEGREE_LIMIT over F_p; the check
    # comes before any modulus search
    for p, k, word in ((0, 3, "over Q"), (0, 0, "over Q"),
                       (5, 0, "EXT_DEGREE_LIMIT"), (5, -1, "EXT_DEGREE_LIMIT"),
                       (2, EXT_DEGREE_LIMIT + 1, "EXT_DEGREE_LIMIT"),
                       (2, 10 ** 9, "EXT_DEGREE_LIMIT")):
        with pytest.raises(InputError, match=word):
            field_ctx(p, k)
    assert field_ctx(2, EXT_DEGREE_LIMIT).ext_degree == EXT_DEGREE_LIMIT
    # a splitting field is not capped: x^9 + x^4 + 1 is irreducible over F_2
    big, _, roots = adjoin_splitting([1, 0, 0, 0, 1, 0, 0, 0, 0, 1],
                                     field_ctx(2))
    assert big.ext_degree == 9 > EXT_DEGREE_LIMIT and len(roots) == 9


# the least strong pseudoprime to the first m prime bases, for each m
# where it grows (Jaeschke 1993; Jiang and Deng 2014; Sorenson and Webster
# 2015)
STRONG_PSEUDOPRIMES = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751,
                       5: 2152302898747, 6: 3474749660383,
                       7: 341550071728321, 9: 3825123056546413051,
                       12: 318665857834031151167461}
PRIMES_TO_41 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_is_prime_takes_the_bases_its_size_needs():
    assert all(is_prime(n) == (n in PRIMES_TO_41 or (
        n > 41 and all(n % b for b in PRIMES_TO_41)
        and miller_rabin(n, PRIMES_TO_41[:12]))) for n in range(10 ** 5))
    for m, n in STRONG_PSEUDOPRIMES.items():
        # n passes the first m bases, and is_prime tries more
        assert miller_rabin(n, PRIMES_TO_41[:m]), n
        assert not is_prime(n), n


def test_is_prime_on_strong_pseudoprimes_and_the_limit():
    sieve = [True] * 20000
    sieve[0] = sieve[1] = False
    for d in range(2, 142):
        sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [n for n in range(20000) if is_prime(n)] == \
        [n for n in range(20000) if sieve[n]]
    # strong pseudoprimes to the bases 2..7 and 2..23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(1000000000000000003) and is_prime(2 ** 61 - 1)
    with pytest.raises(InputError):
        is_prime(2 ** 89 - 1)


def test_bad_ctx_args():
    with pytest.raises(InputError):
        field_ctx(6)
    with pytest.raises(InputError):
        field_ctx(4, 2)
    with pytest.raises(InputError):
        ExtFieldCtx(2, 2, modulus=(0, 0, 1))  # t^2, reducible


def test_a_generated_modulus_is_tested_once(monkeypatch):
    # _find_modulus proves its modulus irreducible, so the constructor
    # runs Rabin's test only on a modulus it is given
    calls = []
    real = field._uni_is_irreducible

    def counted(ctx, f):
        calls.append(tuple(f))
        return real(ctx, f)

    monkeypatch.setattr(field, "_uni_is_irreducible", counted)
    for p, k in ((2, 2), (7, 3), (32003, 3), (101, 8)):
        modulus = field._find_modulus(p, k, 0)
        alone = len(calls)
        calls.clear()
        assert ExtFieldCtx(p, k).modulus == modulus
        assert len(calls) == alone
        calls.clear()
    assert ExtFieldCtx(2, 2, modulus=(3, -1, 1)).modulus == (1, 1, 1)
    assert calls == [(1, 1, 1)]
    with pytest.raises(InputError, match="not irreducible"):
        ExtFieldCtx(2, 2, modulus=(0, 0, 1))
    with pytest.raises(InputError, match="monic"):
        ExtFieldCtx(3, 2, modulus=(1, 0, 2))


@pytest.mark.parametrize("ctx", CTXS, ids=repr)
def test_divmod_roundtrip(ctx):
    rng = random.Random(11)
    for _ in range(40):
        f = rand_poly(ctx, rng, rng.randrange(0, 9))
        g = rand_poly(ctx, rng, rng.randrange(0, 5))
        if not g:
            continue
        q, r = uni_divmod(ctx, f, g)
        assert uni_trim(ctx, uni_mul(ctx, q, g) + [])[:0] == []
        from singcurve.field import uni_add
        assert uni_add(ctx, uni_mul(ctx, q, g), r) == f
        assert uni_deg(r) < uni_deg(g)


@pytest.mark.parametrize("ctx", CTXS, ids=repr)
def test_gcd_divides_both(ctx):
    rng = random.Random(13)
    for _ in range(30):
        h = rand_poly(ctx, rng, rng.randrange(0, 3))
        f = uni_mul(ctx, h, rand_poly(ctx, rng, rng.randrange(0, 4)))
        g = uni_mul(ctx, h, rand_poly(ctx, rng, rng.randrange(0, 4)))
        d = uni_gcd(ctx, f, g)
        if f:
            assert uni_divmod(ctx, f, d)[1] == []
        if g:
            assert uni_divmod(ctx, g, d)[1] == []
        if f and g and uni_deg(h) > 0:
            assert uni_deg(d) >= uni_deg(h)


class _ElementBodies(PrimeFieldCtx):
    """F_p through the element bodies of the univariate kernels, which
    field.py runs for every context whose type is not PrimeFieldCtx."""


def _kernel_case(p):
    # non-canonical ints too: negative, p and its multiples, up to 3p
    entry = st.one_of(st.integers(-2, 2), st.integers(-3 * p, 3 * p),
                      st.sampled_from([p - 1, p, -p, 2 * p]))
    poly = st.lists(entry, max_size=7)
    return st.tuples(st.just(p), poly, poly,
                     st.sampled_from([0, 1, p, p ** 3]), entry)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DivisionByZero:
        return DivisionByZero


@settings(max_examples=200, deadline=None)
# 2^61 - 1 is prime
@given(st.sampled_from([2, 3, 32003, 2 ** 61 - 1]).flatmap(_kernel_case))
@example((3, [], [], 0, 0))
@example((3, [], [1, 1], 3, 5))
@example((5, [0, 0], [5, -5], 1, 0))
@example((5, [7, -1], [3, 4, 1], 125, -6))
@example((32003, [-1, 32003, 64007, 2], [5, -32004], 32003 ** 3, 64006))
def test_prime_field_int_kernels_match_the_element_bodies(case):
    # same results, or the same DivisionByZero, over F_p as ints and over
    # F_p through the context's methods; the int bodies return canonical
    # coefficients, where the element remainder keeps the coefficients a
    # division never touches as they were given
    p, f, g, e, x = case
    ints, elems = field_ctx(p), _ElementBodies(p)
    got, want = {}, {}
    for out, ctx in ((got, ints), (want, elems)):
        out["mul"] = uni_mul(ctx, f, g)
        out["divmod"] = _outcome(uni_divmod, ctx, f, g)
        out["gcd"] = _outcome(uni_gcd, ctx, f, g)
        out["pow_mod"] = _outcome(uni_pow_mod, ctx, f, e, g)
        out["eval"] = uni_eval(ctx, f, x)
    if want["divmod"] is not DivisionByZero:
        q, r = want["divmod"]
        want["divmod"] = q, [c % p for c in r]
    assert got == want
    for key, out in got.items():
        if out is not DivisionByZero:
            flat = ([out] if key == "eval" else
                    out[0] + out[1] if key == "divmod" else out)
            assert all(0 <= c < p for c in flat), key


def _counted(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


# 100 = 0b1100100: one times the base, six squarings and two multiplies;
# the loops that field.power replaced took at most one product more
POWER_PRODUCTS = [(0, 0), (1, 1), (2, 2), (100, 9)]


@pytest.mark.parametrize("e, products", POWER_PRODUCTS)
@pytest.mark.parametrize("ctx, a", [(field_ctx(7, 2), (3, 5)),
                                    (field_ctx(0), Fraction(-2, 3))],
                         ids=repr)
def test_an_element_power_takes_bits_plus_popcount_minus_one_products(
        monkeypatch, ctx, a, e, products):
    want = ctx.one
    for _ in range(e):
        want = ctx.mul(want, a)
    muls = _counted(monkeypatch, type(ctx), "mul")
    got = ctx.pow(a, e)
    monkeypatch.undo()
    assert got == want and len(muls) == products


@pytest.mark.parametrize("e, products", POWER_PRODUCTS)
def test_a_power_mod_takes_bits_plus_popcount_minus_one_products(
        monkeypatch, e, products):
    # (x + 3)^e mod x^3 + 1 over F_7 through the element body
    ctx, f, m = _ElementBodies(7), [3, 1], [1, 0, 0, 1]
    want = [1]
    for _ in range(e):
        want = uni_divmod(ctx, uni_mul(ctx, want, f), m)[1]
    muls = _counted(monkeypatch, field, "uni_mul")
    got = uni_pow_mod(ctx, f, e, m)
    monkeypatch.undo()
    assert got == want and len(muls) == products


def _count_powers(monkeypatch):
    powers = []
    real = field.uni_pow_mod

    def counted(*args):
        powers.append(args[2])
        return real(*args)

    monkeypatch.setattr(field, "uni_pow_mod", counted)
    return powers


def test_a_root_split_shares_the_frobenius_power(monkeypatch):
    # over F_101 x^50 mod f gives x^101 = x (x^50)^2 for the degree-1 step
    # and, as gcd(f, x^50 - 1), the split of the square roots 4 and 5 from
    # the non-square root 2; the quadratic formula parts 4 from 5, so one
    # power serves the whole cubic
    ctx = field_ctx(101)
    assert pow(4, 50, 101) == pow(5, 50, 101) == 1
    assert pow(2, 50, 101) == 100
    powers = _count_powers(monkeypatch)
    _, fac = uni_factor(ctx, uni_mul(ctx, uni_mul(ctx, [97, 1], [96, 1]),
                                     [99, 1]))
    assert fac == [([96, 1], 1), ([97, 1], 1), ([99, 1], 1)]
    assert powers == [50]


@pytest.mark.parametrize("f, want", [
    ([8, 95, 1], [([97, 1], 1), ([99, 1], 1)]),  # (x - 4)(x - 2)
    ([0, 98, 1], [([0, 1], 1), ([98, 1], 1)]),  # x (x - 3)
    ([99, 0, 1], [([99, 0, 1], 1)]),  # x^2 - 2, 2 a non-square
])
def test_a_quadratic_needs_no_polynomial_power(monkeypatch, f, want):
    powers = _count_powers(monkeypatch)
    assert uni_factor(field_ctx(101), f) == (1, want)
    assert powers == []


_QUAD_CTXS = [field_ctx(p) for p in (3, 5, 13, 17, 101, 32003)] + [
    field_ctx(3, 2), field_ctx(7, 2)]


def _elem(ctx):
    coord = st.integers(0, ctx.p - 1)
    return coord if ctx.ext_degree == 1 else st.tuples(*[coord] * ctx.k)


def _planted(ctx):
    return st.tuples(st.just(ctx), st.lists(_elem(ctx), unique=True,
                                            max_size=5),
                     st.lists(st.tuples(_elem(ctx), _elem(ctx)), max_size=3))


def _irreducible_quadratic(ctx, f):
    if ctx.ext_degree == 1:
        return sympy_factor_fp(f, ctx.p) == [(tuple(f), 1)]
    return not brute_roots(ctx, f)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_QUAD_CTXS).flatmap(_planted))
def test_planted_linear_and_quadratic_factors_come_back(case):
    # distinct roots and distinct irreducible quadratics, multiplied out,
    # factor into exactly those, over q = 3 mod 4 and 2-adic parts 2 to 16
    ctx, roots, pairs = case
    quads = []
    for c, b in pairs:
        quad = [c, b, ctx.one]
        if quad not in quads and _irreducible_quadratic(ctx, quad):
            quads.append(quad)
    planted = [[ctx.neg(r), ctx.one] for r in roots] + quads
    assume(planted)
    f = [ctx.one]
    for g in planted:
        f = uni_mul(ctx, f, g)
    lead, fac = uni_factor(ctx, f)
    assert lead == ctx.one
    assert fac == sorted(((g, 1) for g in planted),
                         key=lambda fm: (uni_deg(fm[0]), field._flat(fm[0])))
    if ctx.ext_degree == 1:
        assert sorted((tuple(g), m) for g, m in fac) == \
            sympy_factor_fp(f, ctx.p)


@pytest.mark.parametrize("ctx", [
    field_ctx(3), field_ctx(5), field_ctx(13), field_ctx(17),
    field_ctx(3, 2), field_ctx(5, 2), field_ctx(7, 2)], ids=repr)
def test_sqrt_of_every_nonzero_square(ctx):
    # q - 1 = 2, 4, 12, 16, 8, 24 and 48: every 2-adic part from 2 to 16
    rng = random.Random(3)
    for a in _squares(ctx):
        r = field._sqrt(ctx, a, lambda: rng)
        assert ctx.mul(r, r) == a


class _SameDraw:
    """An rng that always draws the same value."""

    def __init__(self, value):
        self.value = value

    def randrange(self, *args):
        return self.value


@pytest.mark.parametrize("p, run, stage", [
    # x + 0 is a square mod each root 1, 4 and 9 of the cubic: no split
    (101, lambda ctx, rng: field._uni_edf(
        ctx, uni_mul(ctx, uni_mul(ctx, [100, 1], [97, 1]), [92, 1]), 1, rng),
     "equal-degree split"),
    # 4 = 2^2 has 4^3 != 1 in F_13, and 0 is never a non-residue
    (13, lambda ctx, rng: field._sqrt(ctx, 4, rng), "square root"),
], ids=["edf", "sqrt"])
def test_random_retries_are_bounded(p, run, stage):
    with pytest.raises(InternalError, match=stage):
        run(field_ctx(p), lambda: _SameDraw(0))


def _linear_factors(ctx, roots):
    return sorted(([ctx.neg(r), ctx.one], 1) for r in roots)


def _squares(ctx):
    half = (ctx.order - 1) // 2
    return [a for a in ctx.elements()
            if not ctx.is_zero(a) and ctx.is_one(ctx.pow(a, half))]


@pytest.mark.parametrize("ctx", [field_ctx(101), field_ctx(3, 2)], ids=repr)
def test_factor_splits_roots_that_the_shared_power_does_not_part(ctx):
    # when every root is a nonzero square, or 0 sits with the non-squares,
    # the first try leaves a part whole and random (x + a)^((q - 1)/2)
    # finish the split
    squares = _squares(ctx)
    others = [a for a in ctx.elements()
              if not ctx.is_zero(a) and a not in squares]
    cases = [squares[:4], squares[:2], [ctx.zero] + squares[:3],
             [ctx.zero] + others[:3], [ctx.zero, squares[0], others[0]]]
    for roots in cases:
        f = [ctx.one]
        for r in roots:
            f = uni_mul(ctx, f, [ctx.neg(r), ctx.one])
        _, fac = uni_factor(ctx, f)
        want = sorted(_linear_factors(ctx, roots),
                      key=lambda fm: field._flat(fm[0]))
        assert fac == want
        if ctx.ext_degree == 1:
            assert sorted((tuple(g), m) for g, m in fac) == \
                sympy_factor_fp(f, ctx.p)


def test_factor_in_characteristic_two_is_unchanged():
    # the trace map still splits; these are the parent's factorizations
    f2 = field_ctx(2)
    f = [1]
    for g in ([0, 1], [1, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1]):
        f = uni_mul(f2, f, g)
    assert uni_factor(f2, f) == (1, [
        ([0, 1], 1), ([1, 1], 2), ([1, 1, 1], 1), ([1, 0, 1, 1], 1),
        ([1, 1, 0, 1], 1)])
    assert sympy_factor_fp(f, 2) == [
        ((0, 1), 1), ((1, 0, 1, 1), 1), ((1, 1), 2), ((1, 1, 0, 1), 1),
        ((1, 1, 1), 1)]
    f8 = field_ctx(2, 3)
    roots = list(f8.elements())
    f = [f8.one]
    for r in roots:
        f = uni_mul(f8, f, [r, f8.one])
    assert f == [f8.zero, f8.one] + [f8.zero] * 6 + [f8.one]  # x^8 - x
    _, fac = uni_factor(f8, f)
    assert fac == sorted(_linear_factors(f8, roots),
                         key=lambda fm: field._flat(fm[0]))
    g = f8.gen
    quad = [g, f8.one, f8.one]  # x^2 + x + g: the trace of g is nonzero
    _, fac = uni_factor(f8, uni_mul(f8, quad, [g, f8.one]))
    assert fac == [([g, f8.one], 1), (quad, 1)]


# --- factorization ---------------------------------------------------------

FIN_CTXS = [c for c in CTXS if c.characteristic != 0]


@pytest.mark.parametrize("ctx", FIN_CTXS, ids=repr)
def test_factor_reconstructs_and_is_irreducible(ctx):
    rng = random.Random(17)
    for _ in range(25):
        f = rand_poly(ctx, rng, rng.randrange(1, 8))
        if uni_deg(f) < 1:
            continue
        lead, fac = uni_factor(ctx, f)
        prod = [lead]
        for g, m in fac:
            assert g[-1] == ctx.one
            for _ in range(m):
                prod = uni_mul(ctx, prod, g)
        assert prod == f
        # no factor has a root unaccounted for: linear factors exhaust roots
        lin = [(ctx.neg(g[0]), m) for g, m in fac if uni_deg(g) == 1]
        assert sorted(lin) == sorted(brute_roots(ctx, f))


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_factor_matches_sympy_over_prime_field(p):
    ctx = field_ctx(p)
    rng = random.Random(19 + p)
    for _ in range(20):
        f = rand_poly(ctx, rng, rng.randrange(1, 9))
        if uni_deg(f) < 1:
            continue
        _, fac = uni_factor(ctx, f)
        mine = sorted((tuple(g), m) for g, m in fac)
        assert mine == sympy_factor_fp(f, p)


def test_factor_examples():
    f5 = field_ctx(5)
    # t^2 - 1 = (t - 1)(t + 1)
    _, fac = uni_factor(f5, [4, 0, 1])
    assert sorted(fac) == [([1, 1], 1), ([4, 1], 1)]
    f2 = field_ctx(2)
    # t^2 + 1 = (t + 1)^2 in characteristic 2
    _, fac = uni_factor(f2, [1, 0, 1])
    assert fac == [([1, 1], 2)]
    f3 = field_ctx(3)
    # t^2 + 1 irreducible over F_3
    _, fac = uni_factor(f3, [1, 0, 1])
    assert len(fac) == 1 and uni_deg(fac[0][0]) == 2


def test_factor_is_seeded_deterministic():
    ctx_a = field_ctx(13, seed=5)
    ctx_b = field_ctx(13, seed=5)
    f = [1, 7, 0, 3, 1, 1, 0, 2, 1]
    assert uni_factor(ctx_a, f) == uni_factor(ctx_b, f)


FACTOR_CTXS = (field_ctx(2), field_ctx(3), field_ctx(3, 2), field_ctx(101),
               field_ctx(32003))


def _factor_corpus(ctx):
    """Seeded inputs of degree 1 to 8: random, and with a square factor."""
    rng = random.Random(f"uni_factor corpus {ctx!r}")

    def rand_poly(deg):
        lead = ctx.rand_elem(rng)
        while ctx.is_zero(lead):
            lead = ctx.rand_elem(rng)
        return [ctx.rand_elem(rng) for _ in range(deg)] + [lead]

    out = [rand_poly(rng.randrange(1, 9)) for _ in range(40)]
    for _ in range(10):
        g, h = rand_poly(rng.randrange(1, 3)), rand_poly(rng.randrange(1, 4))
        out.append(uni_mul(ctx, uni_mul(ctx, g, g), h))
    return out


def test_factorizations_stay_as_pinned():
    # the digest of every factorization of the corpus, taken before linear
    # inputs skipped the splitting and the random source was seeded lazily
    text = repr([uni_factor(ctx, f) for ctx in FACTOR_CTXS
                 for f in _factor_corpus(ctx)])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "a15ece6f8024e720"


def test_a_factorization_without_draws_seeds_no_random_source(monkeypatch):
    linear = [(ctx, f) for ctx in FACTOR_CTXS for f in _factor_corpus(ctx)
              if uni_deg(f) == 1]
    made = []
    source = random.Random

    def counted(*args):
        made.append(args)
        return source(*args)

    monkeypatch.setattr(random, "Random", counted)
    assert len(linear) > 10
    for ctx, f in linear:
        assert uni_factor(ctx, f)[1] == [(uni_monic(ctx, f), 1)]
    # over F_32003, q = 3 mod 4: a quadratic splits by its discriminant's
    # square root, x^((q + 1)/4), and an irreducible one is left whole
    f = field_ctx(32003)
    assert uni_factor(f, [2, 32000, 1])[1] == [([32001, 1], 1),
                                                ([32002, 1], 1)]
    assert uni_factor(f, [1, 0, 1])[1] == [([1, 0, 1], 1)]
    assert made == []
    # over F_101, q = 1 mod 4, the square root of 4 draws a non-residue
    assert len(uni_factor(field_ctx(101), [3, 97, 1])[1]) == 2
    assert len(made) == 1


@pytest.mark.parametrize("ctx", FIN_CTXS, ids=repr)
def test_squarefree_parts_coprime(ctx):
    rng = random.Random(23)
    for _ in range(15):
        base = rand_poly(ctx, rng, rng.randrange(1, 4))
        if uni_deg(base) < 1:
            continue
        f = uni_mul(ctx, uni_mul(ctx, base, base), rand_poly(ctx, rng, 2) or [ctx.one])
        if uni_deg(f) < 1:
            continue
        from singcurve.field import uni_monic
        parts = uni_squarefree(ctx, uni_monic(ctx, f))
        rebuilt = [ctx.one]
        for g, m in parts:
            for _ in range(m):
                rebuilt = uni_mul(ctx, rebuilt, g)
        assert rebuilt == uni_monic(ctx, f)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert uni_deg(uni_gcd(ctx, parts[i][0], parts[j][0])) == 0


def test_pth_power_detection():
    f2 = field_ctx(2)
    # (t^2 + t + 1)^2 = t^4 + t^2 + 1 has zero derivative
    _, fac = uni_factor(f2, [1, 0, 1, 0, 1])
    assert fac == [([1, 1, 1], 2)]
    f4 = field_ctx(2, 2)
    g = f4.gen
    # (t - g)^2 over F_4
    f = uni_mul(f4, [f4.neg(g), f4.one], [f4.neg(g), f4.one])
    _, fac = uni_factor(f4, f)
    assert fac == [([f4.neg(g), f4.one], 2)]


# --- splitting fields ------------------------------------------------------

def test_adjoin_splitting_stays_when_split():
    f5 = field_ctx(5)
    ctx2, emb, roots = adjoin_splitting([1, 3, 3, 1], f5)  # (t + 1)^3
    assert ctx2 is f5
    assert roots == [(4, 3)]
    assert emb(3) == 3


def test_adjoin_splitting_extends():
    f3 = field_ctx(3)
    ctx2, emb, roots = adjoin_splitting([1, 0, 1], f3)  # t^2 + 1
    assert ctx2.order == 9
    assert len(roots) == 2 and all(m == 1 for _, m in roots)
    r = roots[0][0]
    assert ctx2.mul(r, r) == ctx2.neg(ctx2.one)
    assert roots[1][0] == ctx2.neg(r)
    # embedding is a homomorphism
    for a in range(3):
        for b in range(3):
            assert emb((a + b) % 3) == ctx2.add(emb(a), emb(b))
            assert emb((a * b) % 3) == ctx2.mul(emb(a), emb(b))


def test_adjoin_splitting_from_extension():
    f4 = field_ctx(2, 2)
    # an irreducible quadratic over F_4 needs F_16
    found = None
    rng = random.Random(3)
    while found is None:
        f = [f4.rand_elem(rng), f4.rand_elem(rng), f4.one]
        _, fac = uni_factor(f4, f)
        if len(fac) == 1 and uni_deg(fac[0][0]) == 2:
            found = f
    ctx2, emb, roots = adjoin_splitting(found, f4)
    assert ctx2.order == 16
    for r, m in roots:
        val = ctx2.zero
        for c in reversed(found):
            val = ctx2.add(ctx2.mul(val, r), emb(c))
        assert ctx2.is_zero(val)
    # old modulus element relations survive
    g = f4.gen
    assert emb(f4.mul(g, g)) == ctx2.mul(emb(g), emb(g))


def test_adjoin_splitting_mixed_degrees():
    f2 = field_ctx(2)
    # (t^2 + t + 1)(t^3 + t + 1): roots need F_4 and F_8, so F_64
    f = uni_mul(f2, [1, 1, 1], [1, 1, 0, 1])
    ctx2, emb, roots = adjoin_splitting(f, f2)
    assert ctx2.order == 64
    assert len(roots) == 5
    for r, m in roots:
        assert m == 1
        assert ctx2.is_zero(uni_eval(ctx2, [emb(c) for c in f], r))


def test_embedding_roundtrip_identity():
    f9 = field_ctx(3, 2)
    emb = embedding(f9, f9)
    assert emb(f9.gen) == f9.gen


def _divisor_path_roots(qq, f):
    """uni_rational_roots with every candidate +-r/s, r | f[0] and
    s | f[-1] of the primitive ints of f once its zero roots are out."""
    low = next(i for i, c in enumerate(f) if c)
    roots, f = [(0, low)] if low else [], f[low:]
    if len(f) > 1:
        z = field._primitive(qq, f)
        divs = [[d for d in range(1, abs(c) + 1) if c % d == 0]
                for c in (z[0], z[-1])]
        for cand in sorted({field._canon(Fraction(e * r, s)) for r in divs[0]
                            for s in divs[1] for e in (1, -1)}):
            m, f = field.uni_root_mult(qq, f, cand)
            if m:
                roots.append((cand, m))
    return roots, f


_small = st.integers(-12, 12)
_nonzero = _small.filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(_small, _nonzero),
    st.tuples(_small, _small, _nonzero),
    # a product of two linear factors: two rational roots, or a double one
    st.tuples(_small, _nonzero, _small, _nonzero).map(
        lambda c: uni_mul(field_ctx(0), c[:2], c[2:]))),
    st.integers(0, 2), st.integers(1, 6))
def test_closed_form_rational_roots_match_the_divisor_path(c, low, den):
    # degree 1 and 2 once the zero roots are out: the closed forms give the
    # roots, their order and multiplicities, and the cofactor of the divisor
    # search
    qq = field_ctx(0)
    f = [0] * low + [qq.from_int(Fraction(v, den)) for v in c]
    assert uni_rational_roots(qq, f) == _divisor_path_roots(qq, f)


def test_rational_roots():
    qq = field_ctx(0)
    one = Fraction(1)
    # (t - 2)^2 (t + 1/3) * (t^2 + 1)
    f = [one]
    for r in [Fraction(2), Fraction(2), Fraction(-1, 3)]:
        f = uni_mul(qq, f, [-r, one])
    f = uni_mul(qq, f, [one, Fraction(0), one])
    roots, rem = uni_rational_roots(qq, f)
    assert sorted(roots) == [(Fraction(-1, 3), 1), (Fraction(2), 2)]
    assert uni_deg(rem) == 2
    # roots are canonical: 0 and integral roots are ints
    roots, _ = uni_rational_roots(qq, uni_mul(qq, [0, 0, 1], f))
    assert [(type(r), m) for r, m in sorted(roots)] == [
        (Fraction, 1), (int, 2), (int, 2)]
    ctx2, _, rts = adjoin_splitting([Fraction(-1), Fraction(0), one], qq)  # t^2 - 1
    assert ctx2 is qq
    assert sorted(rts) == [(Fraction(-1), 1), (Fraction(1), 1)]
    with pytest.raises(Char0IrreducibleRemainder):
        adjoin_splitting([Fraction(-2), Fraction(0), one], qq)  # t^2 - 2


def uni_roots(ctx, f):
    """Roots of f lying in ctx itself, with multiplicities: the linear
    factors of uni_factor."""
    _, fac = uni_factor(ctx, f)
    return [(ctx.neg(g[0]), m) for g, m in fac if uni_deg(g) == 1]


def test_uni_roots_against_brute_force():
    for ctx in [field_ctx(7), field_ctx(3, 2)]:
        rng = random.Random(29)
        for _ in range(15):
            f = rand_poly(ctx, rng, rng.randrange(1, 7))
            if uni_deg(f) < 1:
                continue
            assert sorted(uni_roots(ctx, f)) == sorted(brute_roots(ctx, f))


def test_generator_printing():
    f8 = field_ctx(2, 3)
    g = f8.gen
    e = f8.add(f8.mul(g, g), f8.one)
    assert f8.to_str(e) == "g^2+1"
    assert f8.to_str(f8.zero) == "0"
    f25 = field_ctx(5, 2)
    e = f25.add(f25.mul_int(f25.gen, 2), f25.from_int(3))
    assert f25.to_str(e) == "2*g+3"
