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
from itertools import accumulate, repeat
from operator import lshift

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

        The term v x^i y^j maps to v X^w (Y + mu_bar)^e with w = pi + qj - N
        and e = Ai + Bj, whose Y^k coefficient v C(e, k) mu_bar^(e-k) is
        mu_bar^(-k) c C(e, k), c = v mu_bar^e.  So the c are coded once as
        ints over one denominator (_ints), slot k of each X^w row sums
        c C(e, k) as ints, and each row is decoded once (_elems) and slot k
        multiplied by mu_bar^(-k): exact in every field, as the codec is
        Z-linear (residues mod p, numerators over Q).  In characteristic p,
        C(e, k), walked exactly, is reduced mod p and skipped where it
        vanishes (Lucas' theorem); a slot then sums less than p^2 len(terms),
        so the 2k - 1 ints of an element share one int with no carry and
        each C(e, k) is walked once.  The cost is a field product per input
        and per output term and two per unit of the largest e, plus int
        arithmetic per (term, k) pair.
        """
        ctx = f.ctx
        shift = self.image_order(f) if f.c else 0
        mul, is_zero = ctx.mul, ctx.is_zero
        terms = []
        for (i, j), v in f.c.items():
            w = self.p * i + self.q * j - shift
            if n is None or w < n:
                terms.append((w, self.A * i + self.B * j, v))
        e_max = max((e for _, e, _ in terms), default=0)
        powers = list(accumulate(repeat(self.mu_bar, e_max), mul,
                                 initial=ctx.one))
        (cs,), d, bound = ctx._ints([[mul(v, powers[e]) for _, e, v in terms]])
        p, s = ctx.characteristic, 2 * ctx.ext_degree - 1
        # a sum packs s slots width bits apart; the top one keeps the rest
        width = (bound * (p or 1) * len(terms)).bit_length()
        shifts = [width * i for i in range(s)]
        rows = {}
        for (w, e, _), t in zip(terms, range(0, len(cs), s)):
            c = sum(map(lshift, cs[t:t + s], shifts))
            top = e + 1 if n is None else min(e + 1, n - w)
            row = rows.setdefault(w, [])
            row.extend([0] * (top - len(row)))
            binom = 1
            for k in range(top):
                b = binom % p if p else binom
                if b:
                    row[k] += c * b
                binom = binom * (e - k) // (k + 1)
        inv_powers = list(accumulate(repeat(ctx.inv(self.mu_bar), e_max),
                                     mul, initial=ctx.one))
        masks = [(1 << width) - 1] * (s - 1) + [-1]  # -1: Q's signed sums
        r = BiPoly(ctx)
        for w, row in rows.items():
            ks = [k for k, c in enumerate(row) if c]
            slots = [0] * (s * len(ks))
            for i, (at, m) in enumerate(zip(shifts, masks)):
                slots[i::s] = [row[k] >> at & m for k in ks]
            row.clear()  # so that memory peaks near the output's size
            for k, c in zip(ks, ctx._elems(slots, 0, d)):
                if not is_zero(c):
                    r.c[w, k] = mul(c, inv_powers[k])
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

