"""Euclidean exponent sequences and the associated monomial chart maps.

For a face with primitive normal (p, q) and root mu, the chart substitution is
x = X^p (Y + c)^A, y = X^q (Y + c)^B with |qA - pB| = 1 and c = mu^(qA - pB).
The exponents come from the quotient sequences of gcd(p, q) = 1; under the
map, the face factor x^q - mu y^p picks up Y-order exactly one at the origin
in every characteristic, and the terms of f on the face account for the whole
X-power N.
"""

from .errors import (BadOrder, InternalError, NotCoprime, OrderMismatch,
                     ParityViolation, ZeroPolynomial, ZeroRoot)
from .poly import BiPoly


class EuclidData:
    """Quotients, remainders and the four recurrence sequences for (p, q).

    Subscripts follow the chain p = k_1 q + r_1, ..., r_nbar = k_(nbar+2),
    with r_(nbar+1) = 1.  The dicts m, n run over 0..nbar+2 and mt, nt over
    0..nbar+1; p_prime = n_(nbar+2) and q_prime = nt_(nbar+1).
    """

    __slots__ = ("p", "q", "k", "r", "nbar", "m", "n", "mt", "nt",
                 "p_prime", "q_prime")

    def __init__(self, p, q, k, r, nbar, m, n, mt, nt):
        self.p = p
        self.q = q
        self.k = k
        self.r = r
        self.nbar = nbar
        self.m = m
        self.n = n
        self.mt = mt
        self.nt = nt
        self.p_prime = n[nbar + 2]
        self.q_prime = nt[nbar + 1]


def euclid_sequences(p, q):
    """Sequences for coprime p >= q >= 1."""
    if p < q or q < 1:
        raise BadOrder(f"need p >= q >= 1, got ({p}, {q})")
    r = {0: q}
    k = {}
    a, b = p, q
    i = 0
    while b != 0:
        i += 1
        k[i], b2 = divmod(a, b)
        a, b = b, b2
        r[i] = b
    if a != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {a}")
    # r[nbar + 1] = 1, r[nbar + 2] = 0
    nbar = i - 2 if q > 1 else -1
    if r[nbar + 1] != 1 or r.get(nbar + 2, 0) != 0:
        raise InternalError("remainder chain out of shape")
    m, n = {0: 1}, {0: 0}
    for j in range(nbar + 2):
        m[j + 1] = m[j] * k[j + 1] + n[j]
        n[j + 1] = m[j]
    mt, nt = {0: 1}, {0: 0}
    for j in range(nbar + 1):
        mt[j + 1] = mt[j] * k[j + 2] + nt[j]
        nt[j + 1] = mt[j]
    ed = EuclidData(p, q, k, r, nbar, m, n, mt, nt)
    _check_euclid(ed)
    return ed


def _check_euclid(ed):
    p, q, r, nbar = ed.p, ed.q, ed.r, ed.nbar
    rfull = {-1: p}
    rfull.update(r)
    for i in range(nbar + 3):
        if p != ed.m[i] * rfull[i - 1] + ed.n[i] * rfull[i]:
            raise InternalError("p-recurrence violated")
    for i in range(nbar + 2):
        if q != ed.mt[i] * rfull[i] + ed.nt[i] * rfull.get(i + 1, 0):
            raise InternalError("q-recurrence violated")
    for i in range(nbar + 2):
        delta = ed.n[i + 1] * ed.mt[i] - ed.nt[i] * ed.m[i + 1]
        if delta != (-1) ** i:
            raise ParityViolation(f"Delta_{i} = {delta}")
    if p != ed.m[nbar + 2] or q != ed.mt[nbar + 1]:
        raise InternalError("final sequence values disagree with (p, q)")
    if not (0 <= ed.p_prime <= p and 0 <= ed.q_prime <= q):
        raise InternalError("final exponents out of range")
    det = p * ed.q_prime - q * ed.p_prime
    if det * (-1) ** (nbar % 2) != 1:
        raise ParityViolation(f"chart determinant {det} at nbar={nbar}")


class HNMap:
    """One chart substitution x = X^p (Y+c)^A, y = X^q (Y+c)^B."""

    __slots__ = ("p", "q", "A", "B", "sign", "mu", "mu_bar", "ctx")

    def __init__(self, p, q, A, B, mu, ctx):
        self.p = p
        self.q = q
        self.A = A
        self.B = B
        self.sign = q * A - p * B
        if self.sign not in (1, -1):
            raise ParityViolation(f"map ({p},{q},{A},{B}) is not unimodular")
        self.mu = mu
        self.mu_bar = ctx.pow(mu, self.sign)
        self.ctx = ctx

    def x_image(self):
        shift = BiPoly(self.ctx, {(0, 1): self.ctx.one, (0, 0): self.mu_bar})
        return BiPoly.monomial(self.ctx, self.p, 0) * shift ** self.A

    def y_image(self):
        shift = BiPoly(self.ctx, {(0, 1): self.ctx.one, (0, 0): self.mu_bar})
        return BiPoly.monomial(self.ctx, self.q, 0) * shift ** self.B

    def image_order(self, f):
        """Largest N with X^N dividing f(x_image, y_image).

        The term c x^i y^j maps to c X^(pi+qj) (Y+mu_bar)^(Ai+Bj).  The map
        is unimodular, so distinct terms have distinct exponent pairs, and
        the shift powers sharing one X-exponent have distinct degrees; so
        nothing cancels and N is the least X-exponent over the terms.
        """
        if not f.c:
            raise ZeroPolynomial("image order of the zero polynomial")
        return min(self.p * i + self.q * j for i, j in f.c)

    def apply(self, f, n=None):
        """f(x_image, y_image), expanded term by term.

        Each term needs only one shift power, so this is far cheaper than a
        generic substitution.  With n given the result is instead the
        cofactor f(x_image, y_image) / X^N, N the image order, with its
        monomials of total degree n and above left out.
        """
        ctx = f.ctx
        shift = 0 if n is None or not f.c else self.image_order(f)
        rows = {0: [ctx.one]}
        top = 0
        out = {}
        add, mul, is_zero = ctx.add, ctx.mul, ctx.is_zero
        mu_bar = self.mu_bar
        for (i, j), v in f.c.items():
            w = self.p * i + self.q * j - shift
            e = self.A * i + self.B * j
            if is_zero(v) or (n is not None and w >= n):
                continue
            while top < e:
                # row e holds the coefficients of (Y + mu_bar)^e, cut to
                # length n when truncating
                prev = rows[top]
                top += 1
                nxt = [mul(b, mu_bar) for b in prev]
                if n is None or top < n:
                    nxt.append(ctx.zero)
                for k in range(1, len(nxt)):
                    nxt[k] = add(nxt[k], prev[k - 1])
                rows[top] = nxt
            row = rows[e] if n is None else rows[e][:n - w]
            for k, b in enumerate(row):
                if is_zero(b):
                    continue
                key = (w, k)
                s = mul(v, b)
                if key in out:
                    s = add(out[key], s)
                    if is_zero(s):
                        del out[key]
                        continue
                out[key] = s
        r = BiPoly(ctx)
        r.c = out
        return r

    def __repr__(self):
        c = self.ctx.to_str(self.mu_bar)
        return (f"x=X^{self.p}(Y+{c})^{self.A}, y=X^{self.q}(Y+{c})^{self.B}")


def hn_map(p, q, mu, ctx):
    """Chart map for the face (p, q) and face root mu."""
    if ctx.is_zero(mu):
        raise ZeroRoot("face root must be nonzero")
    if p >= q:
        ed = euclid_sequences(p, q)
        A, B = ed.p_prime, ed.q_prime
    else:
        ed = euclid_sequences(q, p)
        A, B = ed.q_prime, ed.p_prime
    return HNMap(p, q, A, B, mu, ctx)


def transform_with_map(f, m, n=None):
    """(N, w) with f(map) = X^N * w and w not divisible by X; with n given,
    w keeps only its monomials of total degree below n."""
    if n is not None:
        return m.image_order(f), m.apply(f, n)
    full = m.apply(f)
    n = full.x_mult()
    return n, full.div_monomial(n, 0)


def hn_transform(f, face, root):
    """Transform f along one face root (mu, nu) with nu >= 2.

    Returns (N, w, map): f(map) = X^N w, N the face's value, w coprime to X
    and with w(0, Y) of order exactly nu.
    """
    mu, nu = root
    m = hn_map(face.p, face.q, mu, f.ctx)
    n, w = transform_with_map(f, m)
    if n != face.N:
        raise InternalError(f"transform dropped X^{n}, face says {face.N}")
    w0 = w.subs_x0()
    order = next((i for i, c in enumerate(w0) if not f.ctx.is_zero(c)), None)
    if order != nu:
        raise OrderMismatch(f"cofactor has Y-order {order}, root said {nu}")
    return n, w, m
