"""Milnor numbers, as 1 - M off the tree where a theorem makes that exact
(milnor_number) and otherwise through local intersection of the partials,
and the equality checker mu = 1 - M, which always runs the reduction.

The local intersection routine is a characteristic-free reduction: strip
monomial factors (each x costs the y-order of the partner and vice versa),
then cancel leading terms of the restrictions to y = 0 until a variable
splits off.  A round at precision n spends a budget: with acc collected
so far, every step is cut at total degree n - acc, and the rows are
clipped to that cut whenever acc grows.  A round that cut anything
certifies its value A iff A < n:

  if the pair J right after a drop has colength v, then m^v lies in J;
  so a drop of terms in m^c with c > v lies in m J and, by Nakayama,
  leaves the ideal unchanged; the drop at acc_t has c = n - acc_t and
  v = A - acc_t, so every drop is harmless iff A < n.

A round at n certifies whenever the value is below n, so the precision
starts from an estimate: the first round runs at n = E + 1, E the mixed
area of the pair's Newton polygons after the monomial charges.  E is the
value of a Newton non-degenerate pair and, on every pair measured, at
most the value.  A failed round is followed by one at
n' = max(reach + 1, floor(3n/2) + 1), reach the acc it got to, which
starts where the failed round was last exact: from its rows and acc just
before the first clip or step that dropped a term.  The width enters a
round only through its clips and steps, and a wider one drops nothing
where a narrower one dropped nothing, so the round at n' takes the same
steps up to that state; started there, it is the round at n' without the
steps it would repeat.  A pair sharing a branch certifies no finite
value, so one shared-branch test runs before any round but the first
that would start at n >= 4(E + 1); without a shared branch every round
past the Bezout bound certifies, and one that does not is a fault.

A round holds each polynomial as dense rows along one axis.  On y-rows,
row j lists the x-coefficients of y^j and is at most n - acc - j long, so
the cut is each row's length; on x-rows x and y trade places, which
changes neither the value nor the certificate.  local_intersection picks
the axis and builds the two row sets once per call, and each round clips
them to its own precision.  A step g_j -= q(x) f_j runs over all rows in
one context kernel, FieldCtx.sub_mul_rows, the same in every field: it
packs q, the f_j and the g_j into big ints and does one product per row
(Kronecker substitution, see the field module).
"""

from .errors import InputError, InternalError, NotAUnit, TruncationUnstable
from .field import uni_divmod, uni_order
from .invariants import INF
from .newton import newton_polygon
from .poly import (_clip_rows, _one_image_reduced, _rows_strip, _rows_trim,
                   _shares_origin_branch, _to_yrows, clip_total, partials,
                   reduce_mod, reduced_check, vanishes_at_origin)
from .tree import build_tree, minimalize, tree_multiplicity, vertex_report


class LocalMult:
    """Local intersection number at the origin; value may be math.inf."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        if isinstance(other, LocalMult):
            return self.value == other.value
        return self.value == other

    def __repr__(self):
        return f"LocalMult({self.value})"


def _sub_mul_clip(ctx, g, f, q, n):
    """Rows of g - q(x)*f keeping total degree < n; flags dropped terms."""
    g, dropped = ctx.sub_mul_rows(g, f, q, n)
    return _rows_trim(g), dropped


def _reduce_pair(ctx, f, g, n, reach, acc=0, exact=None):
    """One reduction round at precision n on the y-rows f and g: the
    value, INF or None.

    With acc collected so far, each step is cut at total degree n - acc
    and both row sets are clipped to that cut whenever acc grows.  A drop
    at acc_t lies in m^(n - acc_t) while the pair after it has colength
    value - acc_t, so by the module's Nakayama argument a round that cut
    anything is certified iff its value is < n; it gives up (None) once
    acc reaches n.  A common-branch signal (an axis dividing both, or one
    argument a multiple of the other) is a certified infinity only in a
    round that never cut anything.  Row j of a y-row set holds the
    x-coefficients of y^j and is at most n - acc - j long; the argument
    rows are not changed.  The list reach gets the round's last acc
    appended, the precision a failed round reached.

    A round may also start inside: from the rows f and g that an exact
    round at a smaller precision held with acc collected.  While nothing
    has been cut, the list exact, when given, is set to [f, g, acc]
    before each clip or step that may drop a term.  The round at n
    reaches every such state, with the same acc and each step at width
    n - acc, so started there it is the round at n.
    """
    try:
        width = n - acc  # the cut the rows are clipped to
        (f, fc), (g, gc) = (_clip_rows(ctx, r, width) for r in (f, g))
        cut = fc or gc  # some term fell: no INF, and the value must stay < n
        if not f or not g:
            return None
        while True:
            for first in (True, False):
                a, b, h = _rows_strip(ctx, f if first else g)
                if a or b:
                    other = g if first else f
                    # x^a costs other(0, y)'s order, y^b that of other(x, 0)
                    for mult, rest in ((a, [r[0] if r else ctx.zero
                                            for r in other]), (b, other[0])):
                        o = mult and uni_order(ctx, rest)
                        if o is None:
                            # an axis divides both: a common branch when
                            # nothing was cut, inconclusive otherwise
                            return None if cut else INF
                        acc += mult * o
                    f, g = (h, g) if first else (f, h)
            # the strips left both rows 0 nonempty: is f or g a unit?
            if not (ctx.is_zero(f[0][0]) and ctx.is_zero(g[0][0])):
                return acc if not cut or acc < n else None
            # an exact run has acc <= value, so a finite value still certifies
            # once n outgrows it; a cut run's certificate is dead
            if acc >= n:
                return None
            if exact is not None and not cut:
                exact[:] = f, g, acc
            if n - acc < width:
                width = n - acc
                (f, fc), (g, gc) = (_clip_rows(ctx, r, width) for r in (f, g))
                if fc or gc:
                    cut = True
                    if not f or not g:
                        return None
                    # the clip may have left an axis factor to strip
                    continue
            if len(f[0]) > len(g[0]):
                f, g = g, f
            # cancel g's whole y=0 restriction down to a remainder in one pass
            q, _ = uni_divmod(ctx, g[0], f[0])
            g, dropped = _sub_mul_clip(ctx, g, f, q, width)
            cut = cut or dropped
            if not g:
                # g was a multiple of f: a common branch in the exact run
                return None if cut else INF
    finally:
        reach.append(acc)


def _newton_estimate(f, g):
    """E, the mixed area of the Newton polygons of f and g (Kouchnirenko
    1976, Bernstein 1975), or INF when an axis divides both.

    The monomial factors are charged as _reduce_pair charges them: x^a y^b
    of f costs a times the y-order of g(0, y) plus b times the x-order of
    g(x, 0), and then x^c y^d of g the same against f / x^a y^b.  What is
    left meets both axes, and its mixed area sums, over a face pair with
    K lattice steps and normal (p, q) each, K K' min(q p', q' p).  E is
    i(f, g) for a Newton non-degenerate pair and at most i(f, g) on every
    pair measured; nothing certified depends on it.
    """
    pf, pg = newton_polygon(f), newton_polygon(g)
    (a, b), (c, d) = (pf.i0, pf.j0), (pg.i0, pg.j0)
    if a and c or b and d:
        return INF
    # when x divides f, the order of g(0, y) is the height of g's first
    # vertex; when y does, that of g(x, 0) is the width of its last
    e = (a * pg.vertices[0][1] + b * pg.vertices[-1][0]
         + c * (pf.vertices[0][1] - b) + d * (pf.vertices[-1][0] - a))
    return e + sum(s.K * t.K * min(s.q * t.p, t.q * s.p)
                   for s in pf.faces for t in pg.faces)


def local_intersection(g, h):
    """Intersection multiplicity of g and h at the origin.

    The first round runs at n = E + 1, E the mixed area of the pair's
    Newton polygons (_newton_estimate), and certifies there when the value
    is E; an axis dividing both is a shared branch before any round.  A
    failed round is followed by one at max(reach + 1, floor(3n/2) + 1),
    reach the acc it got to, which starts from the last exact state of
    the failed round (_reduce_pair): the steps up to it drop nothing at
    either precision, so they are the same steps.  A finite value never
    certifies when the pair shares a branch, so that is tested once,
    before any round but the first that would start at n >= 4(E + 1) or
    past the Bezout bound deg(g)*deg(h); a round past that bound that
    fails after the test is a logic fault.  The test tries one image first: if g(a, y) and h(a, y)
    are coprime at an a != 0 with lc_y g(a) != 0, no common factor has
    positive y-degree (its lc_y divides lc_y g, so it would keep its
    y-degree at a and divide both images), and x, the one factor left
    through the origin, divides at most one; else the exact gcd runs.

    The rounds run on rows along one axis.  Let s_y be the sum of the
    x-orders of g(x, 0) and h(x, 0), what y-rows divide in row 0, and s_x
    that of the y-orders of g(0, y) and h(0, y); a zero restriction counts
    E + 1.  In positive characteristic the rows run along x when s_y < s_x,
    and along y otherwise, ties included.  Where s_y is the smaller, the
    steps on y-rows can each gain little with ever longer quotients: the
    partials of an F_3 germ with s_y = 37 and s_x = 312 take 107 steps on
    y-rows, with quotients of up to 166 terms, and 6 on x-rows.
    Swapping x and y in both arguments changes neither the value nor its
    certificate: i(g, h) is symmetric, and so are the total-degree cut, the
    Nakayama argument, E and the Bezout bound; the shared-branch test runs
    on g and h as given.  Over Q the cost is the growth of the coefficients
    in the quotients, not the layout, so the rows stay along y: the
    partials of EX1 (1 + x + y + xy) take about four times as long on
    x-rows.
    """
    if g.ctx != h.ctx:
        raise InternalError("mixed coefficient contexts")
    if g.is_zero() or h.is_zero():
        other = h if g.is_zero() else g
        return LocalMult(INF if vanishes_at_origin(other) else 0)
    if not vanishes_at_origin(g) or not vanishes_at_origin(h):
        return LocalMult(0)
    est = _newton_estimate(g, h)
    if est == INF:
        return LocalMult(INF)
    ctx = g.ctx
    # s_y and s_x, the orders of the restrictions to y = 0 and to x = 0
    s_y, s_x = (sum(min((k[a] for k in e.c if not k[1 - a]), default=est + 1)
                    for e in (g, h)) for a in (0, 1))
    swap = ctx.characteristic > 0 and s_y < s_x
    gr, hr = (_to_yrows(e, swap) for e in (g, h))
    bound = max(i + j for i, j in g.c) * max(i + j for i, j in h.c)
    fence = min(4 * (est + 1), bound + 1)
    reach, exact = [], [gr, hr, 0]
    n = est + 1
    while (v := _reduce_pair(ctx, *exact[:2], n, reach, exact[2],
                             exact)) is None:
        # fence is INF once the test found no shared branch
        if n > bound and fence == INF:
            raise InternalError(
                "reduction failed to certify beyond the Bezout bound")
        n = max(reach[-1] + 1, 3 * n // 2 + 1)
        if n >= fence:
            if _shares_origin_branch(g, h):
                return LocalMult(INF)
            fence = INF
    return LocalMult(v)


def _above_shortcut(p, m, order):
    """The shortcut bound p > -M + ord f: above it, in characteristic p,
    a reduced germ has mu = 1 - M."""
    return p > -m + order


def _mu_from_tree(f):
    """1 - M off the tree of f over its own field when a theorem makes it
    mu, else None; milnor_number has the proof."""
    if f.is_zero() or not vanishes_at_origin(f):
        return None
    p, o = f.ctx.characteristic, f.ord()
    d = max(i + j for i, j in f.c)
    if (p and p <= d * (d - 1) + o - 1) or not _one_image_reduced(f):
        return None
    try:
        m = tree_multiplicity(build_tree(f, check=False, extend=False)).M
    except InputError:
        return None
    if p and not _above_shortcut(p, m, o):
        raise InternalError(
            f"the degree test admitted p = {p} at degree {d}, but -M + ord f"
            f" = {o - m}: the genus bound 1 - M <= d(d - 1) broke")
    return 1 - m


def milnor_number(f, unit=None, trunc=None):
    """dim of the Jacobian quotient, as i(f_x, f_y); math.inf when the
    partials share a factor through the origin.

    With a unit u the number is that of u*f, formed exactly; u is 1 when
    none is given.  With trunc D, the germ is the jet j of u*f below total
    degree D, and its value m is returned when the cut dropped nothing, or
    when m is finite and D - 1 >= 2m - ord j + 2: a germ with finite mu is
    (2 mu - ord + 2)-determined for right equivalence in every
    characteristic (Boubakri, Greuel, Markwig 2012), so u*f, which agrees
    with j below degree D, is right equivalent to j and has mu = m.  Any
    other cut raises TruncationUnstable.

    Two theorems give mu = 1 - M of a reduced germ off its tree, where
    1 - M = 2 delta - r + 1 (tree_delta):
      - Milnor's formula mu = 2 delta - r + 1 in characteristic 0;
      - the shortcut bound: mu = 1 - M in characteristic p > -M + ord f.
    M is known only once the tree is built, so in characteristic p the
    tree is tried only when p > d(d - 1) + ord f - 1, d the total degree
    of f, which implies the bound.  Proof: the germ's delta is that of the
    reduced projective curve of f, of degree d' <= d with s <= d'
    components, and the sum of the deltas of its points is at most
    p_a + s - 1 = (d' - 1)(d' - 2)/2 + s - 1 <= d(d - 1)/2 (the genus
    formula; a factor repeated away from the origin leaves the germ as it
    is).  So 1 - M = 2 delta - r + 1 <= d(d - 1), r >= 1.  The built tree
    is checked against p > -M + ord f anyway, and a miss is an
    InternalError.

    The order of the paths: a germ through the origin that passes the
    degree test (any germ over Q) and the one-image reducedness
    certificate (neither x^2 nor y^2 divides it, one image f(a, y) is
    squarefree) builds its tree over its own field.  Every other germ, and
    one whose tree would raise (face roots outside the field: irrational
    over Q, past RATIONAL_ROOT_LIMIT, or in an extension of F_q, whose
    construction can cost far more than the reduction), takes the
    reduction i(f_x, f_y).  A unit leaves the germ, its tree and its
    degree test to f; a cut jet is the germ the rule above decides on.
    """
    g, cut = f, False
    if unit is not None:
        if vanishes_at_origin(unit):
            raise NotAUnit("unit factor must not vanish at the origin")
        g = unit * f
    if trunc is not None:
        g, cut = clip_total(g, trunc)
    m = _mu_from_tree(g if cut else f)
    if m is None:
        m = local_intersection(*partials(g)).value
    if cut and (m == INF or trunc - 1 < 2 * m - g.ord() + 2):
        raise TruncationUnstable(
            f"the jet below degree D = {trunc} has mu = {m}; a cut jet is "
            f"certified only for a finite mu with D - 1 >= 2 mu - ord + 2, "
            f"the determinacy bound")
    return m


# ---------------------------------------------------------------------------
# the equality checker


class ConjReport:
    """Per-prime comparison of mu with 1 - M against the divisor test."""

    __slots__ = ("p", "m_abs", "n_values", "divides", "mu", "mu_bar",
                 "equal", "consistent", "shortcut", "skipped")

    def __init__(self, p, skipped=None):
        self.p = p
        self.skipped = skipped
        self.m_abs = None
        self.n_values = None
        self.divides = None
        self.mu = None
        self.mu_bar = None
        self.equal = None
        self.consistent = None
        self.shortcut = False

    def to_dict(self):
        mu = self.mu
        if mu == INF:
            mu = "infinity"
        return {"p": self.p, "skipped": self.skipped, "M_abs": self.m_abs,
                "N_values": self.n_values, "divides": self.divides,
                "mu": mu, "mu_bar": self.mu_bar, "equal": self.equal,
                "consistent": self.consistent, "shortcut": self.shortcut}

    def __repr__(self):
        if self.skipped:
            return f"ConjReport(p={self.p}, skipped={self.skipped!r})"
        return (f"ConjReport(p={self.p}, mu={self.mu}, mu_bar={self.mu_bar},"
                f" consistent={self.consistent})")


def check_conjecture(f, primes, verify_shortcut=False):
    """One report per prime: reduce f, compare mu with 1 - M, and test
    the divisibility criterion p | N_v on the minimal tree."""
    reports = []
    for p in primes:
        fp, why = reduce_mod(f, p)
        if fp is None:
            reports.append(ConjReport(p, skipped=why))
            continue
        ok, _ = reduced_check(fp)
        if not ok:
            reports.append(ConjReport(p, skipped="not reduced mod p"))
            continue
        rep = ConjReport(p)
        t = build_tree(fp, check=False)
        m = tree_multiplicity(t).M
        rep.m_abs = abs(m)
        rep.n_values = vertex_report(minimalize(t))
        rep.divides = any(v % p == 0 for v in rep.n_values)
        rep.mu_bar = 1 - m
        rep.shortcut = _above_shortcut(p, m, fp.ord())
        if rep.shortcut and not verify_shortcut:
            rep.mu = rep.mu_bar
        else:
            # the reduction itself, never the tree: this is the check
            rep.mu = local_intersection(*partials(fp)).value
            if rep.shortcut and rep.mu != rep.mu_bar:
                raise InternalError(
                    f"shortcut bound violated at p={p}: mu={rep.mu}")
        rep.equal = rep.mu == rep.mu_bar
        rep.consistent = rep.equal == (not rep.divides)
        reports.append(rep)
    return reports
