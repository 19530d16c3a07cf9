"""Tests for local intersection numbers, Milnor numbers, non-degeneracy,
polar curves and the per-prime equality checker."""

from fractions import Fraction

import pytest
import sympy

import time

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singcurve import invariants, milnor, poly
from singcurve.errors import InternalError, NotAUnit, TruncationUnstable
from singcurve.field import field_ctx
from singcurve.invariants import INF, intersect_param, intersect_tree, mu_bar
from singcurve.milnor import _reduce_pair, check_conjecture, \
    local_intersection, milnor_number
from singcurve.newton import newton_polygon
from singcurve.poly import BiPoly, _to_yrows, clip_total, parse_poly, \
    partials, vanishes_at_origin

from crosschecks import is_nd_face, is_nnd, polar_intersection
from curves import EX1, EX2, four_lines
from oracles import dict_reduce_pair, dict_reduce_pair_fixed_cut, \
    reference_intersection, small_elem

QQ = field_ctx(0)


def _q(text):
    return parse_poly(text, QQ)


def _f(text, p):
    return parse_poly(text, field_ctx(p))


def _reduce(f, g, n):
    # one round of _reduce_pair on the y-rows of two BiPolys
    return _reduce_pair(f.ctx, _to_yrows(f), _to_yrows(g), n, [])


def test_local_intersection_basics():
    assert local_intersection(_q("x"), _q("y")).value == 1
    assert local_intersection(_q("x^2 - y^3"), _q("x^3 - y^2")).value == 4
    assert local_intersection(_q("y^2"), _q("y^3")).value == INF


def test_local_intersection_fences():
    zero = BiPoly(QQ)
    assert local_intersection(zero, _q("x")).value == INF
    assert local_intersection(zero, _q("1 + x")).value == 0
    assert local_intersection(_q("1 + y"), _q("x^2 - y^3")).value == 0
    # common factor through the origin, detected before any reduction
    f = _q("(x - y)(x + y^2)")
    g = _q("(x - y)(y + x^3)")
    assert local_intersection(f, g).value == INF


def test_local_intersection_symmetry():
    pairs = [("x^2 - y^3", "x^3 - y^2"), ("x", "y - x^2"),
             ("x^2 - y^5", "y^2 - x^5"), ("x + y", "x y")]
    for a, b in pairs:
        assert local_intersection(_q(a), _q(b)).value == \
            local_intersection(_q(b), _q(a)).value


def test_local_intersection_axioms_spot():
    g = _q("x^2 - y^3")
    h = _q("x^3 - y^2")
    base = local_intersection(g, h).value
    # adding a monomial multiple of g to h changes nothing
    assert local_intersection(g, h + g * _q("7 x y^2")).value == base
    # additive over products
    h2 = _q("y - x^3")
    prod = local_intersection(g, h * h2).value
    assert prod == base + local_intersection(g, h2).value
    # unit factors are invisible
    assert local_intersection(g, h * _q("1 + x + 3 y")).value == base
    assert local_intersection(g * _q("2 - y"), h).value == base


def test_local_intersection_matches_other_engines():
    pairs = [("x^2 - y^3", "x^3 - y^2"), ("x^2 - y^3", "y - x^2"),
             ("y - x^2", "y + x^2"), ("x^2 - y^3", "x^2 + y^3")]
    for a, b in pairs:
        f, g = _q(a), _q(b)
        v = local_intersection(f, g).value
        assert intersect_tree(f, g) == v
        assert intersect_param(f, g) == v


def test_local_intersection_mixed_contexts_rejected():
    from singcurve.errors import InternalError

    with pytest.raises(InternalError):
        local_intersection(_q("x"), _f("y", 5))


@pytest.mark.parametrize("shift", [-7, 67, 10 ** 30])
def test_local_intersection_of_unreduced_ints_over_fp(shift):
    # the BiPoly constructor reduces its ints mod p; coefficients shifted
    # by multiples of 3 (negative; about 200, whose products would overflow
    # a 1-byte slot; wider than any slot) must give the value of the
    # reduced ones
    f, g = partials(_f("x y^7 + 2x^4y^3 + x^6y + 2x^9 + x^5y^5", 3))
    want = local_intersection(f, g).value
    f, g = (BiPoly(h.ctx, {k: v + 3 * shift for k, v in h.c.items()})
            for h in (f, g))
    assert all(0 <= v < 3 for h in (f, g) for v in h.c.values())
    assert local_intersection(f, g).value == want


REDUCE_CTXS = [field_ctx(2), field_ctx(3), field_ctx(101), field_ctx(32003),
               field_ctx(2, 3), field_ctx(7, 2), QQ]
_coeff = st.tuples(st.integers(-4, 4), st.integers(0, 3))
# y^a + x^b plus up to four terms anywhere: germs whose pairs meet with
# multiplicities of up to about a hundred, so that rounds cut at n = 32 and
# n = 64 run out of precision and later ones certify
_germ = st.tuples(st.integers(1, 12), st.integers(1, 12),
                  st.dictionaries(st.tuples(st.integers(0, 12),
                                            st.integers(0, 12)),
                                  _coeff, max_size=4))
_factor = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          _coeff, max_size=3)


def _from_terms(ctx, terms):
    return BiPoly(ctx, {k: small_elem(ctx, a, b) for k, (a, b) in terms.items()})


def _from_germ(ctx, germ):
    a, b, noise = germ
    return _from_terms(ctx, noise) + BiPoly(ctx, {(0, a): ctx.one,
                                                  (b, 0): ctx.one})


_SHAPES = st.sampled_from(("pair", "shared", "partials", "unit"))


def _shaped_pair(ctx, fg, gg, ht, shape):
    """Pairs with a common factor h, the partials of a germ, and pairs
    where f does not vanish at the origin."""
    f, g, h = _from_germ(ctx, fg), _from_germ(ctx, gg), _from_terms(ctx, ht)
    if shape == "shared":
        f, g = f * h, g * h
    elif shape == "partials":
        f, g = partials(f)
    elif shape == "unit":
        f = f + BiPoly.const(ctx, ctx.one)
    return f, g


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REDUCE_CTXS), _germ, _germ, _factor, _SHAPES)
def test_reduce_pair_matches_the_dict_oracle(ctx, fg, gg, ht, shape):
    # the row round against the same round on dicts, term by term, at the
    # first precisions; a cut round on a shared branch stops once its
    # budget is spent, but past n = 64 that still takes seconds
    f, g = _shaped_pair(ctx, fg, gg, ht, shape)
    for n in (32, 64) if shape == "shared" else (32, 64, 128):
        assert _reduce(f, g, n) == dict_reduce_pair(f, g, n), n


# the shared shape only over F_2 and F_3: there the oracle's rounds up to
# n = 128 and its PRS gcd take milliseconds, but over the other fields of
# REDUCE_CTXS one of them took 3-11 s on some draws, and one run 168 s
_CTX_SHAPES = st.sampled_from(
    [(ctx, shape) for ctx in REDUCE_CTXS
     for shape in ("pair", "partials", "unit")]
    + [(ctx, "shared") for ctx in REDUCE_CTXS[:2]])


@settings(max_examples=300, deadline=None)
@given(_CTX_SHAPES, _germ, _germ, _factor)
def test_local_intersection_matches_the_fixed_cut_reference(ctx_shape, fg,
                                                            gg, ht):
    # budgeted rounds certify later than fixed-cut ones, never differently;
    # both stop a common branch at a gcd fence, the oracle after its first
    # failed round at n >= 128
    ctx, shape = ctx_shape
    f, g = _shaped_pair(ctx, fg, gg, ht, shape)
    assert local_intersection(f, g).value == reference_intersection(f, g)


def _swapped(f):
    """f(y, x), read off the swapped rows of f as ordinary y-rows."""
    return BiPoly(f.ctx, {(i, j): v for j, r in enumerate(_to_yrows(f, True))
                          for i, v in enumerate(r)})


@settings(max_examples=200, deadline=None)
@given(_CTX_SHAPES, _germ, _germ, _factor)
def test_both_row_layouts_match_the_fixed_cut_reference(ctx_shape, fg, gg,
                                                        ht):
    # rows forced along y and then along x give the reference value in
    # every field, Q included, and so does the pair with x and y swapped
    ctx, shape = ctx_shape
    f, g = _shaped_pair(ctx, fg, gg, ht, shape)
    want = reference_intersection(f, g)
    assert local_intersection(_swapped(f), _swapped(g)).value == want
    for swap in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(milnor, "_to_yrows",
                       lambda h, _, swap=swap: _to_yrows(h, swap))
            assert local_intersection(f, g).value == want, swap


@pytest.mark.parametrize("f, g", [
    ("y - x^2", "(y - x^2)(1 + x^40)"),  # g a multiple of f once cut
    ("x (y^2 - x^3)", "x (y + x^40)"),  # the axis x divides both
    # after y leaves f, acc = 16 and x^16 in g is at the cut n - acc
    ("y (y - x^2)", "(y - x^2)(y + x^14)"),
])
@pytest.mark.parametrize("p", [0, 3])
def test_reduce_pair_on_a_cut_common_branch(f, g, p):
    # a round that cut a term proves nothing about a shared branch: None at
    # n = 32, infinity at n = 64 where nothing is cut
    f, g = _f(f, p), _f(g, p)
    for n, want in ((32, None), (64, INF)):
        assert _reduce(f, g, n) == dict_reduce_pair(f, g, n) == want


def test_reduce_pair_clips_the_rows_to_the_budget():
    # at n = 32 the budget n - acc falls to 5 and then 4, and each clip
    # drops terms of the rows that the steps cut at the older budget; the
    # value 29 < 32 still certifies
    f, g = _f("y^4 + x^5 + x^2y^2", 2), _f("y^7 + x^7", 2)
    for n in (32, 64):
        assert _reduce(f, g, n) == dict_reduce_pair(f, g, n) == 29


def test_reduce_pair_trims_zero_tuples_after_a_clip():
    # over F_{2^3} a clipped row can end in the zero (0, 0, 0), which is
    # truthy: only ctx.is_zero tells it, and an untrimmed row later divides
    # by it
    ctx = field_ctx(2, 3)
    f = parse_poly("(g+1)x^8y^8 + x^8 + x^6y^9 + (g+1)xy^2 + y^12", ctx)
    g = parse_poly("x^10 + y^10", ctx)
    assert _reduce(f, g, 32) == dict_reduce_pair(f, g, 32) == 30


def test_a_cut_round_never_returns_its_precision():
    # the partials of EX1 times a unit at p = 3 have i = 157: the fixed cut
    # certified it at n = 128, the budget waits for n = 256
    ctx = field_ctx(3)
    f = parse_poly(EX1, ctx) * parse_poly("1 + x + y + x y", ctx)
    fx, fy = partials(f)
    assert dict_reduce_pair_fixed_cut(fx, fy, 128) == 157
    for n, want in ((128, None), (256, 157)):
        assert _reduce(fx, fy, n) == dict_reduce_pair(fx, fy, n) == want
    # over F_2 these partials have i = 34; the fixed cut's certificate,
    # (value - acc at the first cut) < n, would pass 41 at n = 32 on the
    # budgeted round
    fx, fy = partials(_f("y^5 + x^2 + x^5y^2 + x^9y", 2))
    for n, want in ((32, None), (64, 34)):
        assert _reduce(fx, fy, n) == dict_reduce_pair(fx, fy, n) == want


def test_local_intersection_builds_the_rows_once(monkeypatch):
    # the EX1 times unit partials at p = 3 take three rounds, n = 85, 128
    # and 193; each argument becomes y-rows once per call, not once per
    # round
    ctx = field_ctx(3)
    f = parse_poly(EX1, ctx) * parse_poly("1 + x + y + x y", ctx)
    calls = []

    def counted(h, swap):
        calls.append(h)
        return _to_yrows(h, swap)

    monkeypatch.setattr(milnor, "_to_yrows", counted)
    assert local_intersection(*partials(f)).value == 157
    assert len(calls) == 2


def test_a_cut_round_on_a_shared_branch_stops_early():
    # over F_{7^2}, a pair with the common factor h: the round at n = 64
    # took 3.7 s when it ran until acc - (acc at the first cut) reached n
    ctx = field_ctx(7, 2)
    h = parse_poly("-3x - 3x^2 + (-3+3g)y", ctx)
    f = parse_poly("y^11 + x^11 + (2+2g)x^5y", ctx) * h
    g = parse_poly("y^5 + x^10 + x^3y^2", ctx) * h
    start = time.process_time()
    assert _reduce(f, g, 64) is None
    assert time.process_time() - start < 1


def _rounds(monkeypatch):
    """The precisions of the _reduce_pair calls that follow, in order."""
    ns, round_ = [], milnor._reduce_pair

    def counted(ctx, f, g, n, *rest):
        ns.append(n)
        return round_(ctx, f, g, n, *rest)

    monkeypatch.setattr(milnor, "_reduce_pair", counted)
    return ns


def test_a_round_reports_the_precision_it_reached():
    # the partials over F_2 of test_a_cut_round_never_returns_its_precision:
    # the round at n = 32 gives up with acc = 41, and the one at n = 64
    # certifies 34, its last acc
    fx, fy = (_to_yrows(h) for h in partials(
        _f("y^5 + x^2 + x^5y^2 + x^9y", 2)))
    reach = []
    assert _reduce_pair(field_ctx(2), fx, fy, 32, reach) is None
    assert _reduce_pair(field_ctx(2), fx, fy, 64, reach) == 34
    assert reach == [41, 34]


RESUME_CTXS = (field_ctx(2), field_ctx(3), field_ctx(101), field_ctx(7, 2), QQ)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RESUME_CTXS), _germ, _germ, _factor, _SHAPES)
def test_a_resumed_round_is_the_round_from_the_start(ctx, fg, gg, ht, shape):
    # each round local_intersection runs from the last exact state of the
    # round before gives the value and the reach of the same round run
    # from the original rows
    f, g = _shaped_pair(ctx, fg, gg, ht, shape)
    calls, round_ = [], milnor._reduce_pair

    def recorded(ctx, a, b, n, reach, *rest):
        v = round_(ctx, a, b, n, reach, *rest)
        calls.append((a, b, n, v, reach[-1]))
        return v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(milnor, "_reduce_pair", recorded)
        local_intersection(f, g)
    if calls:
        rows = calls[0][:2]
        for _, _, n, v, acc in calls:
            reach = []
            assert (_reduce_pair(ctx, *rows, n, reach), reach) == (v, [acc]), n


def _steps(monkeypatch):
    """A one-item list that counts the _sub_mul_clip steps that follow."""
    count, step = [0], milnor._sub_mul_clip

    def counted(*args):
        count[0] += 1
        return step(*args)

    monkeypatch.setattr(milnor, "_sub_mul_clip", counted)
    return count


@pytest.mark.parametrize("text, p, mu, rounds, steps", [
    # 28 and 87 steps when every round started from the original rows
    (EX1, 7, 156, [78, 118, 178], 23),
    (f"({EX1})(1 + x + y + x y)", 3, 157, [85, 128, 193], 64),
])
def test_a_failed_round_hands_its_exact_prefix_on(monkeypatch, text, p, mu,
                                                   rounds, steps):
    ns, count = _rounds(monkeypatch), _steps(monkeypatch)
    assert milnor_number(_f(text, p)) == mu
    assert ns == rounds and count == [steps]


def _calls(monkeypatch, owner, name):
    """The first arguments of the calls of owner.name that follow."""
    calls = []
    fn = getattr(owner, name)

    def counted(a, b):
        calls.append(a)
        return fn(a, b)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _fence_calls(monkeypatch):
    """The shared-branch tests of the gcd fence, and the exact gcds they
    fall back to, that follow."""
    return (_calls(monkeypatch, milnor, "_shares_origin_branch"),
            _calls(monkeypatch, poly, "gcd_bipoly"))


_monomial = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(_germ, _germ, _factor, st.sampled_from(("pair", "partials")),
       _monomial, _monomial)
def test_the_newton_estimate_is_a_lower_bound_over_q(fg, gg, ht, shape, mf,
                                                     mg):
    # E, the mixed area after the monomial charges, never exceeds the
    # certified value; x^a y^b factors exercise the charges
    f, g = _shaped_pair(QQ, fg, gg, ht, shape)
    f, g = f * BiPoly.monomial(QQ, *mf), g * BiPoly.monomial(QQ, *mg)
    assume(not f.is_zero() and not g.is_zero())
    assume(vanishes_at_origin(f) and vanishes_at_origin(g))
    assert milnor._newton_estimate(f, g) <= local_intersection(f, g).value


@pytest.mark.parametrize("f, g, p, value", [
    ("x^2 - y^3", "x^3 - y^2", 0, 4),
    # x y costs 5 + 2 against g, the cusp meets g with multiplicity 4
    ("x y (y^2 - x^3)", "y^5 + x^2", 0, 11),
    ("y^3 + x^7", "y^2 + x^3 + x y", 5, 9),
    ("x^2 + y^2", "x y + y^4", 32003, 4),
])
def test_a_newton_non_degenerate_pair_takes_one_round(monkeypatch, f, g, p,
                                                      value):
    f, g = _f(f, p), _f(g, p)
    ns = _rounds(monkeypatch)
    assert milnor._newton_estimate(f, g) == value
    assert local_intersection(f, g).value == value
    assert ns == [value + 1]


def test_ex1_partials_over_f7_take_at_most_three_rounds(monkeypatch):
    # E = 77 against mu = 156; doubling from n = 32 took four rounds
    ns = _rounds(monkeypatch)
    assert milnor_number(_f(EX1, 7)) == 156
    assert 1 <= len(ns) <= 3 and ns[0] == 78


def _shared_branch_over_f8():
    ctx = field_ctx(2, 3)
    f = parse_poly("(g^2+g)x^11y^11 + (g^2+g)x^10y^13 + g x^3 + g x^2y^2"
                   " + g xy + g y^3", ctx)
    g = parse_poly("g^2x^13y^2 + g^2x^12y^4 + g x^6 + g x^5y^2 + g^2x^3y"
                   " + g^2x^2y^3 + g xy^6 + g y^8", ctx)
    return f, g


def test_the_gcd_fence_stops_a_shared_branch_early(monkeypatch):
    # Bezout bound 504: the rounds ran to n = 512 before the gcd, 6.3 s; the
    # fence runs it once, before the first round that would start at
    # n >= 4(E + 1), so no round reaches the fence; the shared branch
    # survives in every image, so the one test takes the exact gcd
    f, g = _shared_branch_over_f8()
    e = milnor._newton_estimate(f, g)
    ns, (tests, gcds) = _rounds(monkeypatch), _fence_calls(monkeypatch)
    assert local_intersection(f, g).value == INF
    assert len(tests) == len(gcds) == 1
    assert ns[0] == e + 1 and max(ns) < 4 * (e + 1)


@pytest.mark.parametrize("reach, want", [
    (lambda n: 0, [5, 8, 13, 20, 31]),  # n grows to floor(3n/2) + 1
    (lambda n: 2 * n, [5, 11, 23, 47]),  # n grows to reach + 1
])
def test_a_round_that_never_certifies_is_a_fault_past_the_bezout_bound(
        monkeypatch, reach, want):
    # E = 4 and the Bezout bound is 8 * 3 = 24: with no common branch a
    # round past 24 certifies, so one that does not is an InternalError;
    # the one shared-branch test runs at n >= 4(E + 1) = 20, however many
    # rounds follow; both images at x = 1 vanish at y = 1, so it takes the
    # exact gcd
    f, g = _q("(x^2 - y^3)(1 + x^5)"), _q("x^3 - y^2")
    ns, (tests, gcds) = [], _fence_calls(monkeypatch)

    def never(ctx, a, b, n, acc, *rest):
        ns.append(n)
        acc.append(reach(n))

    monkeypatch.setattr(milnor, "_reduce_pair", never)
    with pytest.raises(InternalError):
        local_intersection(f, g)
    assert ns == want and len(tests) == len(gcds) == 1


# s_y = 37 and s_x = 312 for the partials over F_3: on y-rows the quotients
# grow to 166 terms and the two row sets to about 3,000 entries
DEEP_IN_X = "x y^19 + x^4 y^13 + x^6 y^3 + x^18 y^2 + x^19 + x^19 y"


def test_rows_along_x_when_the_y_restrictions_are_shallower(monkeypatch):
    # 107 steps on y-rows, 6 on x-rows
    steps, step = [], milnor._sub_mul_clip

    def counted(*args):
        steps.append(args[-1])
        return step(*args)

    monkeypatch.setattr(milnor, "_sub_mul_clip", counted)
    assert milnor_number(_f(DEEP_IN_X, 3)) == 360
    assert len(steps) <= 10


@pytest.mark.parametrize("text, unit, p, swap", [
    (DEEP_IN_X, None, 3, True),
    (DEEP_IN_X, None, 0, False),  # over Q the rows stay along y
    (EX1, "1 + x + y + x y", 0, False),
    ("x^3 + y^3 + x^2 y + x y^2", None, 5, False),  # a tie, s_y = s_x = 4
    # f_x = 5x^4 and f_y = 5y^4: a zero restriction on each side, a tie
    ("x^5 + y^5", None, 7, False),
    # f_x = 5x^4 + 2xy vanishes on x = 0 and counts E + 1 = 5 there:
    # s_y = 4 + 2 < s_x = 5 + 2
    ("y^3 + x^2 y + x^5", None, 7, True),
], ids=["GF(3)", "Q", "EX1*unit over Q", "tie", "zero restrictions",
        "one zero restriction"])
def test_the_axis_of_the_rows(monkeypatch, text, unit, p, swap):
    # the choice alone: every round answers 0 at once; the partials go to
    # the reduction itself, since milnor_number answers the Q rows from
    # the tree
    swaps = []

    def recorded(h, axis):
        swaps.append(axis)
        return _to_yrows(h, axis)

    monkeypatch.setattr(milnor, "_to_yrows", recorded)
    monkeypatch.setattr(milnor, "_reduce_pair", lambda *args: 0)
    f = _f(text, p)
    if unit:
        f = f * _f(unit, p)
    assert local_intersection(*partials(f)).value == 0
    assert swaps == [swap, swap]


def _timed_mu(text, p):
    f = parse_poly(text, field_ctx(p))
    start = time.process_time()
    mu = local_intersection(*partials(f)).value
    return mu, time.process_time() - start


@pytest.mark.parametrize("text, p, mu", [
    ("x y^19 + 2x^4y^13 + x^6y^3 + x^18y^2 + 2x^19 + 2x^19y", 3, 360),
    ("23098xy^29 + 14656x^3y^20 + 5637x^6y^9 + 18756x^14y^11"
     " + 2417x^22y^3 + 11628x^28", 32003, 385),
], ids=["GF(3)", "GF(32003)"])
def test_dense_reduction_is_fast(text, p, mu):
    # the reduction on dicts took 20-35 s on these; their last round has
    # about 130,000 terms per polynomial at n = 512
    got, secs = _timed_mu(text, p)
    assert got == mu
    assert secs < 3


@pytest.mark.parametrize("p, k, mu", [(7, 2, 156), (3, 2, 157)],
                         ids=["GF(7^2)", "GF(3^2)"])
def test_reduction_over_an_extension_is_fast(p, k, mu):
    # EX1 times a unit: 8.6 s over F_{7^2} and 3.6 s over F_{3^2} when the
    # reduction multiplied tuples entry by entry
    ctx = field_ctx(p, k)
    f = parse_poly(EX1, ctx) * parse_poly("1 + x + y + x y", ctx)
    fx, fy = partials(f)
    start = time.process_time()
    assert local_intersection(fx, fy).value == mu
    assert time.process_time() - start < 2


def test_milnor_cusp_over_q():
    assert milnor_number(_q("x^2 - y^3")) == 2


def test_milnor_ex1_table():
    table = {7: 156, 11: 156, 13: 156, 97: 156, 5: 157, 101: 157,
             3: 166, 2: INF}
    for p, want in table.items():
        assert milnor_number(_f(EX1, p)) == want, p


def test_milnor_ex2_table():
    table = {2: 133, 7: 105, 11: INF, 13: 104, 3: 102, 5: 102,
             17: 102, 113: 102}
    for p, want in table.items():
        assert milnor_number(_f(EX2, p)) == want, p


def test_milnor_ex1_with_unit():
    for p, want in ((2, 168), (3, 157)):
        ctx = field_ctx(p)
        f = parse_poly(EX1, ctx)
        u = parse_poly("1 + x + y + x y", ctx)
        assert milnor_number(f, unit=u) == want


def test_milnor_ex2_with_unit():
    # mu after a unit multiple depends on the unit; these are the stable
    # values for 1 + x + y + xy (the infinity at p=11 becomes finite)
    for p, want in ((2, 118), (3, 102), (7, 104), (11, 105), (13, 104),
                    (17, 102)):
        ctx = field_ctx(p)
        f = parse_poly(EX2, ctx)
        u = parse_poly("1 + x + y + x y", ctx)
        assert milnor_number(f, unit=u) == want, p


def test_milnor_truncation_unstable():
    # (1 + x)(x^2 - y^3) below degree 3 is x^2 (mu infinite), and below
    # degree 4 has mu = 2 but the determinacy bound 2 mu - ord + 2 = 4 asks
    # for D - 1 >= 4; below degree 5 the cut drops nothing
    f, u = _q("x^2 - y^3"), _q("1 + x")
    for trunc in (3, 4):
        with pytest.raises(TruncationUnstable, match="2 mu - ord \\+ 2"):
            milnor_number(f, unit=u, trunc=trunc)
    assert milnor_number(f, unit=u, trunc=5) == 2


def test_milnor_number_rejects_a_non_unit():
    with pytest.raises(NotAUnit):
        milnor_number(_q("x^2"), unit=_q("x + y"))
    with pytest.raises(NotAUnit):
        milnor_number(_q("x^2"), unit=_q("x + y"), trunc=4)


DETERMINACY_CTXS = (field_ctx(2), field_ctx(3), field_ctx(5), field_ctx(7),
                    QQ)

# y^a + x^b plus up to three terms of degree at most 12
_small_noise = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any), _coeff,
    max_size=3)
_small_germ = st.tuples(st.integers(1, 7), st.integers(1, 7), _small_noise)
# unit terms up to degree 60, so that most jets at the bound cut some off
_unit_tail = st.dictionaries(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(any), _coeff,
    max_size=4)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DETERMINACY_CTXS), _small_germ, _unit_tail)
def test_a_jet_at_the_determinacy_bound_keeps_mu(ctx, germ, ut):
    # a germ with finite mu is (2 mu - ord + 2)-determined, so the jets of
    # u*f below D = 2 mu - ord + 3 and D + 1 have the mu of u*f, and
    # milnor_number certifies them
    f = _from_germ(ctx, germ)
    u = _from_terms(ctx, ut) + BiPoly.const(ctx, ctx.one)
    mu = milnor_number(f, unit=u)
    if mu == INF:
        return
    uf = u * f
    d = 2 * mu - uf.ord() + 3
    for trunc in (d, d + 1):
        jet = clip_total(uf, trunc)[0]
        assert local_intersection(*partials(jet)).value == mu
        assert milnor_number(f, unit=u, trunc=trunc) == mu


def test_milnor_number_with_a_unit_builds_no_tree(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("milnor_number built a tree")

    monkeypatch.setattr(milnor, "build_tree", boom)
    for p, want in ((2, 168), (3, 157)):
        ctx = field_ctx(p)
        f = parse_poly(EX1, ctx)
        assert milnor_number(f, unit=parse_poly("1 + x + y + x y", ctx)) \
            == want


# germs of degree at most 8: F_101 and F_32003 clear the degree test
# p > d(d - 1) + ord f - 1 on each of them
TREE_CTXS = (field_ctx(101), field_ctx(32003), QQ)
_tree_germ = st.tuples(st.integers(1, 6), st.integers(1, 6), st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any), _coeff,
    max_size=3))
_tree_unit = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any), _coeff,
    max_size=3)


def _reduction_mu(g, trunc):
    # milnor_number on the reduction alone, the determinacy rule included
    jet, cut = clip_total(g, trunc) if trunc else (g, False)
    m = local_intersection(*partials(jet)).value
    if cut and (m == INF or trunc - 1 < 2 * m - jet.ord() + 2):
        return TruncationUnstable
    return m


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TREE_CTXS), _tree_germ, _tree_unit,
       st.sampled_from((None, "unit", "trunc", "jet")), st.integers(-2, 2))
def test_mu_off_the_tree_equals_the_reduction(ctx, germ, ut, mode, shift):
    # 1 - M where Milnor's formula or the shortcut bound certifies it, the
    # reduction everywhere else: the reduction must agree on every draw; a
    # jet without a unit is the jet of f
    f, u = _from_germ(ctx, germ), None
    if mode in ("unit", "trunc"):
        u = _from_terms(ctx, ut) + BiPoly.const(ctx, ctx.one)
    g = f if u is None else u * f
    trunc = None
    if mode in ("trunc", "jet"):
        # jets near the determinacy bound: some certify, some are rejected
        mu = local_intersection(*partials(g)).value
        assume(mu != INF)
        trunc = max(1, 2 * mu - g.ord() + 3 + shift)
    want = _reduction_mu(g, trunc)
    if want is TruncationUnstable:
        with pytest.raises(TruncationUnstable):
            milnor_number(f, unit=u, trunc=trunc)
    else:
        assert milnor_number(f, unit=u, trunc=trunc) == want


@pytest.mark.parametrize("text, p, unit, mu", [
    (EX1, 0, None, 156),
    (EX1, 0, "1 + x + y + x y", 156),
    (EX2, 32003, None, 102),
    (EX2, 32003, "1 + x", 102),
], ids=["Q", "Q unit", "GF(32003)", "GF(32003) unit"])
def test_mu_off_the_tree_runs_no_reduction(monkeypatch, text, p, unit, mu):
    def boom(*args):
        raise AssertionError("milnor_number ran the reduction")

    monkeypatch.setattr(milnor, "local_intersection", boom)
    assert milnor_number(_f(text, p), unit and _f(unit, p)) == mu


def test_a_tree_past_the_degree_bound_is_a_fault(monkeypatch):
    # the degree test proves p > -M + ord f; a tree that breaks it is a bug
    class Broken:
        M = -40000

    monkeypatch.setattr(milnor, "tree_multiplicity", lambda t: Broken)
    with pytest.raises(InternalError, match="degree test"):
        milnor_number(_f(EX2, 32003))


@pytest.mark.parametrize("text, p, mu", [
    # x^2 divides f: no tree, the reduction answers
    ("x^2 (y^2 - x^3)", 0, INF),
    ("x^2 (y^2 - x^3)", 32003, INF),
    # a reduced cusp, but p = 7 is not above the degree test's 3 * 2 + 2 - 1
    ("y^2 - x^3", 7, 2),
    # a reduced cusp whose image f(1, y) = (y - 1)^2 is not squarefree
    ("(y - x)^2 + x^3 - x^4", 0, 2),
], ids=["Q x^2", "GF(32003) x^2", "below the degree test",
        "no certificate"])
def test_mu_off_the_reduction_where_no_theorem_holds(monkeypatch, text, p,
                                                    mu):
    calls = _calls(monkeypatch, milnor, "local_intersection")
    assert milnor_number(_f(text, p)) == mu
    assert len(calls) == 1


def test_intersect_param_does_not_ask_the_tree_engine(monkeypatch):
    pairs = [(_q("x^2 - y^3"), _q("x^3 - y^2")),
             (_f(EX1, 7), _f("x", 7)),
             (_f(EX1, 3), _f("y^2 - x^3 + x y^5", 3))]
    want = [intersect_tree(f, g) for f, g in pairs]

    def boom(*args, **kwargs):
        raise AssertionError("intersect_param called intersect_tree")

    monkeypatch.setattr(invariants, "intersect_tree", boom)
    assert [intersect_param(f, g) for f, g in pairs] == want


def test_mu_bar_is_unit_invariant():
    f = _f(EX2, 13)
    u = parse_poly("1 + x + y + x y", f.ctx)
    g = f * u
    assert mu_bar(g) == mu_bar(f) == 102


def test_nnd_examples():
    assert is_nnd(_f("x^2 y + x y^2", 3)) is False
    assert is_nnd(_f("x^2 - y^3", 5)) is True
    assert is_nnd(_f("x^2 - y^3", 7)) is True
    # vertex faces fail: x^2 at p=2, y^3 at p=3
    assert is_nnd(_f("x^2 + y^3", 2)) is False
    assert is_nnd(_f("x^2 - y^3", 3)) is False


def test_nd_face_edge_cases():
    # the single compact edge of the cusp is non-degenerate at every p;
    # only the vertex tests can fail
    for p in (2, 3, 5, 7):
        f = _f("x^2 + y^3", p)
        pg = newton_polygon(f)
        assert len(pg.faces) == 1
        assert is_nd_face(f, pg.faces[0]) is True
    # degenerate edge: three lines sharing (1,1) as a jacobian zero mod 3,
    # and 3 divides the face level N as the theory predicts
    f = _f("x^2 y + x y^2", 3)
    pg = newton_polygon(f)
    face = pg.faces[0]
    assert is_nd_face(f, face) is False
    assert face.N % 3 == 0


def test_polar_intersection_cusp():
    F7 = field_ctx(7)
    f = parse_poly("x^2 - y^3", F7)
    r = polar_intersection(f, F7.one, F7.zero)
    assert r == {"polar": 4, "expected": 4, "equal": True, "skipped": False}


def test_polar_intersection_ex1():
    F7 = field_ctx(7)
    f = parse_poly(EX1, F7)
    r = polar_intersection(f, F7.zero, F7.one)
    assert r["polar"] == 163
    assert r["expected"] == 163
    assert r["equal"] is True and r["skipped"] is False


def test_polar_intersection_smooth():
    F7 = field_ctx(7)
    f = parse_poly("y + x^2", F7)
    r = polar_intersection(f, F7.zero, F7.one)
    assert r == {"polar": 1, "expected": 1, "equal": True, "skipped": False}


def test_polar_intersection_skips_when_branch_tangency_divides_p():
    F2 = field_ctx(2)
    f = parse_poly(EX1, F2)
    r = polar_intersection(f, F2.zero, F2.one)
    assert r["skipped"] is True
    assert r["equal"] is None


def test_check_conjecture_ex1_all_primes_to_101():
    f = _q(EX1)
    primes = list(sympy.primerange(2, 102))
    reps = check_conjecture(f, primes)
    assert [r.p for r in reps] == primes
    assert all(r.skipped is None for r in reps)
    assert all(r.consistent for r in reps)
    off = [r.p for r in reps if not r.equal]
    assert off == [2, 3, 5, 101]
    by_p = {r.p: r for r in reps}
    assert by_p[2].mu == INF
    assert by_p[3].mu == 166
    assert by_p[5].mu == 157
    assert by_p[101].mu == 157
    assert by_p[7].mu == 156 and by_p[7].mu_bar == 156
    assert by_p[7].m_abs == 155
    assert sorted(by_p[7].n_values) == [8, 12, 24, 50, 100, 101, 202]


def test_check_conjecture_ex2():
    f = _q(EX2)
    reps = check_conjecture(f, [2, 3, 5, 7, 11, 13, 17, 113])
    assert all(r.consistent for r in reps)
    off = [r.p for r in reps if not r.equal]
    assert off == [2, 7, 11, 13]
    by_p = {r.p: r for r in reps}
    assert by_p[2].m_abs == 103
    assert sorted(by_p[2].n_values) == [11, 15, 26, 29, 30, 44, 58]
    assert by_p[3].m_abs == 101
    assert sorted(by_p[3].n_values) == [11, 14, 26, 28, 44]
    assert by_p[11].mu == INF
    assert by_p[113].shortcut is True
    assert by_p[113].mu == 102


def test_check_conjecture_shortcut_verified(monkeypatch):
    # the check runs the reduction itself, not milnor_number's tree path
    calls = _calls(monkeypatch, milnor, "local_intersection")
    # milnor_number would answer 32003 off the tree, as it clears the
    # degree test 14 * 13 + 6 - 1 for EX2
    reps = check_conjecture(_q(EX2), [113, 32003], verify_shortcut=True)
    for r in reps:
        assert r.shortcut is True
        assert r.mu == 102 and r.equal is True
    assert len(calls) == 2


def test_check_conjecture_four_lines():
    for a, p in (((1, 2, 3, 4), 11), ((0, 0, 0, 1), 7), ((0, 0, 0, 0), 5),
                 ((1, 1, 1, 1), 2), ((0, 0, 0, 1), 2)):
        f = _q(four_lines(a))
        rep = check_conjecture(f, [p])[0]
        assert rep.skipped is None
        assert rep.consistent, (a, p)


def test_check_conjecture_skips():
    # x^2 + 5 y^3 is reduced over Q but a square times a unit mod 5
    reps = check_conjecture(_q("x^2 + 5 y^3"), [5, 7])
    assert reps[0].skipped == "not reduced mod p"
    assert reps[1].skipped is None and reps[1].consistent
    # every coefficient divisible by 2
    reps = check_conjecture(_q("2 x + 2 y^2"), [2])
    assert reps[0].skipped == "vanishes mod p"
    # rational coefficient with denominator 2
    f = BiPoly(QQ, {(2, 0): Fraction(1, 2), (0, 3): Fraction(-1)})
    reps = check_conjecture(f, [2, 3])
    assert reps[0].skipped == "denominator divisible by p"
    assert reps[1].skipped is None


def test_conj_report_to_dict():
    rep = check_conjecture(_q(EX2), [11, 113])
    d0 = rep[0].to_dict()
    assert d0["mu"] == "infinity"
    assert d0["equal"] is False and d0["consistent"] is True
    d1 = rep[1].to_dict()
    assert d1["mu"] == 102 and d1["shortcut"] is True
