"""Monomial chart maps of the Hamburger-Noether expansion.

For a face with primitive normal (p, q) and root mu, the chart substitution is
x = X^p (Y + c)^A, y = X^q (Y + c)^B with qA - pB = +-1 and c = mu^(qA - pB).
The exponents are the least non-negative solution of that equation, with the
sign fixed by the parity of the number of Euclid division steps on (p, q);
under the map, the face factor x^q - mu y^p picks up Y-order exactly one at
the origin in every characteristic, and the terms of f on the face account
for the whole X-power N.
"""

import math

from .errors import (BadOrder, NotCoprime, ParityViolation, ZeroPolynomial,
                     ZeroRoot)
from .poly import BiPoly


def chart_exponents(p, q):
    """(A, B, sign) with qA - pB = sign = +-1, 0 <= A <= p and 0 <= B <= q.

    sign is -1 to the number of division steps Euclid takes on (p, q),
    flipped when p >= q.
    """
    if min(p, q) < 1:
        raise BadOrder(f"need p, q >= 1, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {math.gcd(p, q)}")
    a, b, steps = max(p, q), min(p, q), 0
    while b:
        a, b, steps = b, a % b, steps + 1
    sign = (-1) ** (steps + (p >= q))
    A = sign * pow(q, -1, p) % p
    B = (q * A - sign) // p
    if B < 0:
        # p = q = 1 with sign 1: (0, -1) moves up to (1, 0)
        A, B = A + p, B + q
    return A, B, sign


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

    def image_order(self, f):
        """Largest N with X^N dividing f(map).

        The term c x^i y^j maps to c X^(pi+qj) (Y+mu_bar)^(Ai+Bj).  The map
        is unimodular, so distinct terms have distinct exponent pairs, and
        the shift powers sharing one X-exponent have distinct degrees; so
        nothing cancels and N is the least X-exponent over the terms.
        """
        if not f.c:
            raise ZeroPolynomial("image order of the zero polynomial")
        return min(self.p * i + self.q * j for i, j in f.c)

    def apply(self, f, n=None):
        """The cofactor f(map) / X^N, N the image order, expanded term by
        term; with n given, its monomials of total degree n and above are
        left out.

        Each term needs only one shift power, so this is far cheaper than a
        generic substitution.
        """
        ctx = f.ctx
        shift = self.image_order(f) if f.c else 0
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
    A, B, _ = chart_exponents(p, q)
    return HNMap(p, q, A, B, mu, ctx)

