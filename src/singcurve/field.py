"""Prime fields, their extensions, the rationals, and univariate arithmetic.

An element of F_p is an int in [0, p); an element of F_{p^k} with k > 1 is a
length-k tuple of ints (coefficients of the generator g, constant term first);
a rational is an int when it is integral and a fractions.Fraction only when
it has a denominator, never a float, so integral work over Q runs at int
cost.  A FieldCtx interprets these values and carries all arithmetic.
Univariate polynomials are little-endian coefficient lists with no trailing
zeros ([] is the zero polynomial), handled by the uni_* functions, which all
take the context as first argument.

uni_mul, uni_divmod (so uni_rem, uni_quo and Euclid), uni_pow_mod and
uni_eval have two bodies, picked here from the exact type of the context.
Over F_p they run on int lists: a product sums unreduced with one % p per
output coefficient, a division step reduces only the top coefficient it
clears, and uni_pow_mod feeds each unreduced product to that division by the
monic modulus; inputs may be non-canonical ints, outputs lie in [0, p).
Every other context, a subclass of PrimeFieldCtx too, runs the element
bodies on its methods.  Every power but one of F_p, which is the builtin
pow, goes through power, the one square-and-multiply loop: FieldCtx.pow,
uni_pow_mod, BiPoly.__pow__ and the series power each pass it a product.

uni_factor splits by polynomial powers (Cantor-Zassenhaus) except where a
quadratic is left: over odd q, x^2 + bx + c is irreducible iff
(b^2 - 4c)^((q - 1)/2) = -1, and otherwise has the roots (-b +- r)/2, r
the square root of b^2 - 4c by Tonelli-Shanks (Tonelli 1891, Shanks 1973)
on the context's own operations, so F_p runs it on ints.

The context kernels sub_mul_rows (the Milnor reduction's step) and
mul_series (the truncated series product) are written once, in FieldCtx, as
big-int products (Kronecker substitution, Harvey 2009) over each context's
codec; HNMap.apply sums its chart rows over the same codec.  _ints turns
rows into ints over one denominator and bounds them, _elems turns slots
back into elements.  An element is 2k - 1 ints (k = 1 over F_p and Q), its
k coordinates and k - 1 zeros, so a product of two lands in its own 2k - 1
slots.  A product slot then sums at most t terms, t the smaller count of
nonzero ints of the two rows, and is at most
  (p - 1)^2 t <= (p - 1)^2 len over F_p,
  (p - 1)^2 t <= (p - 1)^2 k len per inner slot over F_{p^k},
  max|a| max|b| t <= max|a| max|b| len over Q, the rows scaled to ints,
in absolute value, len the shorter row's length.  The signed w-byte slots
hold that (and in sub_mul_rows the row taken from) and unpack offset by
half, 2^(8w - 1) rounded down to a multiple of p: nonnegative slots, and
only _elems over Q has to take the offset off.
"""

import functools
import math
import random
import struct
from fractions import Fraction
from itertools import chain, islice

from .errors import (Char0IrreducibleRemainder, Char0Unsupported,
                     DivisionByZero, InputError, InternalError,
                     ZeroPolynomial)


# Miller-Rabin with the first thirteen prime bases decides every n below
# this bound (Sorenson and Webster 2015)
PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (bound, m): the first m prime bases decide every n below bound, the least
# strong pseudoprime to all of them (Jaeschke 1993; Jiang and Deng 2014;
# Sorenson and Webster 2015)
_BASES_BY_BOUND = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
                   (2152302898747, 5), (3474749660383, 6),
                   (341550071728321, 7), (3825123056546413051, 9),
                   (318665857834031151167461, 12), (PRIME_TEST_LIMIT, 13))

# struct codes of the standard little-endian unsigned sizes in bytes; the
# lower-case codes are the signed ones
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# rational roots of a polynomial of degree 3 or more are found among
# quotients of divisors of the end coefficients, which are listed by trial
# division up to their square root
RATIONAL_ROOT_LIMIT = 10 ** 12
# field_ctx's largest degree k (adjoin_splitting's fields are not capped):
# for the largest prime below PRIME_TEST_LIMIT the modulus search at k = 8
# takes 0.08 s at seed 0 and 0.06-0.95 s at seeds 0-9 (2-vCPU VM)
EXT_DEGREE_LIMIT = 8
# random draws per equal-degree split or non-residue search; a draw succeeds
# with probability near 1/2 (1/3 for a non-residue of F_3), so running out of
# them means a broken input
SPLIT_TRIES = 64


def is_prime(n):
    """Deterministic Miller-Rabin for n below PRIME_TEST_LIMIT, with the
    fewest prime bases that decide n's size."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    if n >= PRIME_TEST_LIMIT:
        raise InputError(f"primality of {n} is only decided below "
                         f"PRIME_TEST_LIMIT = {PRIME_TEST_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    m = next(m for bound, m in _BASES_BY_BOUND if n < bound)
    for b in _PRIME_BASES[:m]:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def power(mul, a, e, one):
    """a^e for an int e >= 0, by squaring from the top bit of e down
    (Knuth, TAOCP vol. 2, 4.6.3); one is a^0.  For e > 0 the result comes
    out of mul, one times a first, in bits(e) + popcount(e) - 1 products."""
    if not e:
        return one
    r = mul(one, a)
    for bit in f"{e:b}"[1:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, a)
    return r


def _pack_slots(ints, w):
    """The bytes of ints, each of absolute value below 2^(8w - 1), in
    consecutive little-endian w-byte two's-complement slots."""
    size = 1 << (w - 1).bit_length()  # the struct size that holds a slot
    if size > 8:
        return b"".join([c.to_bytes(w, "little", signed=True) for c in ints])
    data = struct.pack(f"<{len(ints)}{_STRUCT_CODES[size].lower()}", *ints)
    if w == size:
        return data
    buf = bytearray(w * len(ints))
    for t in range(w):
        buf[t::w] = data[t::size]
    return buf


def _slots_int(data, signs):
    """The int sum c_k 256^(wk) over the w-byte two's-complement slots c_k
    of the bytes data; signs has the top bit of each of them set."""
    u = int.from_bytes(data, "little")
    return u - ((u & signs) << 1)


def _unpack_slots(data, w, m):
    """The first m little-endian w-byte slots of the bytes data, as
    nonnegative ints."""
    size = 1 << (w - 1).bit_length()
    if size > 8:
        return [int.from_bytes(data[k:k + w], "little")
                for k in range(0, m * w, w)]
    if w == size:
        return struct.unpack_from(f"<{m}{_STRUCT_CODES[size]}", data)
    buf = bytearray(size * m)
    for t in range(w):
        buf[t::size] = data[t:m * w:w]
    return struct.unpack(f"<{m}{_STRUCT_CODES[size]}", buf)


def _slot_plan(bound, char, m):
    """(w, half, ones) for m w-byte slots that hold ints of absolute value
    at most bound: the offset half is 2^(8w - 1) rounded down to a multiple
    of char (of 1 when char is 0), so bound < half and half + bound < 256^w,
    and ones has a 1 in each slot."""
    c = char or 1
    w = (bound + c).bit_length() // 8 + 1
    return (w, (1 << (8 * w - 1)) // c * c,
            int.from_bytes((b"\1" + bytes(w - 1)) * m, "little"))


class FieldCtx:
    """Base arithmetic context; subclasses fix the element representation."""

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        return power(self.mul, a, n, self.one)

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def mul_int(self, a, n):
        return self.mul(a, self.from_int(n))

    def sub_mul_rows(self, g, f, q, n):
        """Rows g_j - q*f_j over the rows f_j of f, row j cut at length
        n - j, and whether some product term fell at or past its cut.

        Rows are little-endian coefficient lists in x without trailing
        zeros, q is one such list, row g_j is at most n - j long, and g may
        have fewer rows than f; rows past those of f are kept as they are
        and no argument is changed.  With q, f and g as ints over the
        denominators dq, df and dg, row j is the big int g_j dq df - q f_j dg,
        whose slots are the new row times dg dq df; all rows are packed, and
        unpacked, in one go.
        """
        out = list(g) + [[] for _ in range(len(f) - len(g))]
        js = [j for j, fj in enumerate(f) if fj]
        if not q or not js:
            return out, False
        s, lq = 2 * self.ext_degree - 1, len(q)
        (qi,), dq, tq = self._ints([q])
        fi, df, tf = self._ints([f[j] for j in js])
        gi, dg, tg = self._ints([out[j] for j in js])
        # a slot of q*f_j sums at most as many terms as q has nonzero ints;
        # q and the f_j are nonzero, so the bound covers their ints too
        terms = len(qi) - qi.count(0)
        # every product and every row g_j fits in top slots
        top = s * max(lq + max(map(len, f)), max(map(len, out)))
        w, half, ones = _slot_plan(tg * dq * df + tq * tf * terms * dg,
                                   self.characteristic, top)
        signs, offset = ones << (8 * w - 1), half * ones
        qp = _slots_int(_pack_slots(qi, w), signs) * dg
        fp = _pack_slots(list(chain.from_iterable(fi)), w)
        gp = _pack_slots(list(chain.from_iterable(gi)), w)
        cut, kept, widths, fa, ga = False, [], [], 0, 0
        for j, a, b in zip(js, fi, gi):
            m = lq + len(f[j]) - 1
            if m > n - j:
                cut, m = True, n - j
            m = max(m, len(out[j]))
            r = (_slots_int(gp[ga:ga + len(b) * w], signs) * (dq * df)
                 - qp * _slots_int(fp[fa:fa + len(a) * w], signs))
            fa, ga = fa + len(a) * w, ga + len(b) * w
            kept.append((r + offset).to_bytes(top * w, "little")[:m * s * w])
            widths.append(m)
        new = iter(self._elems(
            _unpack_slots(b"".join(kept), w, s * sum(widths)), half,
            dg * dq * df))
        zero = self.zero
        for j, m in zip(js, widths):
            row = list(islice(new, m))
            while row and row[-1] == zero:
                row.pop()
            out[j] = row
        return out, cut

    def mul_series(self, a, b, n):
        """a*b mod t^n as a list of exactly n entries.

        a and b are truncated series, little-endian coefficient lists of
        any length that may end in zeros; neither is changed.  With a and b
        as ints over the denominators da and db, one big-int product holds
        a*b times da db in its slots.
        """
        s, same = 2 * self.ext_degree - 1, a is b
        (ai,), da, ta = self._ints([a[:n]])
        (bi,), db, tb = ((ai,), da, ta) if same else self._ints([b[:n]])
        # a slot of a*b sums at most terms terms; the bound covers the ints
        # of a and b too unless one is zero
        terms = min(len(ai) - ai.count(0), len(bi) - bi.count(0))
        if not terms:
            return [self.zero] * n
        # the product has fewer than top - s slots
        top = len(ai) + len(bi) + s
        w, half, ones = _slot_plan(ta * tb * terms, self.characteristic, top)
        signs = ones << (8 * w - 1)
        r = _slots_int(_pack_slots(ai, w), signs)
        r *= r if same else _slots_int(_pack_slots(bi, w), signs)
        # |r| >= 256^(wK) / 4 for its top nonzero slot K, so no entry past
        # the first m is nonzero, and m s < K + s + 2 <= top
        m = min((r.bit_length() + 1) // (8 * w * s) + 1, n)
        data = (r + half * ones).to_bytes(top * w, "little")
        return (self._elems(_unpack_slots(data, w, m * s), half, da * db)
                + [self.zero] * (n - m))

    def __eq__(self, other):
        return (type(self) is type(other)
                and self.characteristic == other.characteristic
                and self.ext_degree == other.ext_degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((type(self).__name__, self.characteristic,
                     self.ext_degree, self.modulus))


def _canon(c):
    """The rational c as an int when it is integral, else as a Fraction."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class RationalCtx(FieldCtx):
    """The rationals; an element is an int when it is integral and a
    Fraction only when it has a denominator, never a float."""

    characteristic = 0
    ext_degree = 1
    order = None
    modulus = None
    zero = 0
    one = 1

    def __init__(self, seed=0):
        self.seed = seed

    def from_int(self, n):
        return _canon(n)

    def add(self, a, b):
        return _canon(a + b)

    def sub(self, a, b):
        return _canon(a - b)

    def neg(self, a):
        return _canon(-a)

    def mul(self, a, b):
        return _canon(a * b)

    def is_zero(self, a):
        return not a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return _canon(1 / Fraction(a))

    # the codec of the packed kernels: rows over their common denominator;
    # entries may be Fractions or ints, and the shared zero, which series
    # are full of, is passed over without a method call
    def _ints(self, rows):
        zero = self.zero
        d = math.lcm(*[c.denominator for r in rows for c in r
                       if c is not zero])
        ints = [[0 if c is zero else c.numerator * (d // c.denominator)
                 for c in r] for r in rows]
        return ints, d, max((max(map(abs, r)) for r in ints if r), default=0)

    def _elems(self, slots, half, d):
        if d == 1:
            return [c - half for c in slots]
        return [0 if c == half else _canon(Fraction(c - half, d))
                for c in slots]

    def rand_elem(self, rng):
        return rng.randint(-9, 9)

    def to_str(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"


class PrimeFieldCtx(FieldCtx):
    """F_p; elements are ints in [0, p)."""

    ext_degree = 1
    modulus = None

    def __init__(self, p, seed=0):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self.seed = seed
        self.zero = 0
        self.one = 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def rand_elem(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)

    # the codec of the packed kernels: a row is its own ints, each in
    # [0, p), and half is a multiple of p
    def _ints(self, rows):
        return rows, 1, self.p - 1

    def _elems(self, slots, half, d):
        p = self.p
        return [c % p for c in slots]

    def to_str(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"


class ExtFieldCtx(FieldCtx):
    """F_{p^k}, k > 1; elements are length-k int tuples in the generator g."""

    def __init__(self, p, k, modulus=None, seed=0):
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if k < 2:
            raise InputError("extension degree must be at least 2")
        self.p = p
        self.k = k
        self.characteristic = p
        self.ext_degree = k
        self.order = p ** k
        self.seed = seed
        self.base = PrimeFieldCtx(p, seed)
        if modulus is None:
            modulus = _find_modulus(p, k, seed)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise InputError("modulus must be monic of degree k")
            if not _uni_is_irreducible(self.base, list(modulus)):
                raise InputError("modulus is not irreducible")
        self.modulus = modulus
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self.gen = ((0, 1) + (0,) * (k - 2))
        # t^(k+i) mod modulus, used to fold products back into degree < k
        red = [tuple((-modulus[j]) % p for j in range(k))]
        for _ in range(k - 2):
            cur = [0] + list(red[-1])
            hi = cur.pop()
            red.append(tuple((cur[j] + hi * red[0][j]) % p for j in range(k)))
        self._red = red
        self._inverses = {}  # inv's memo: one extended Euclid per element

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return self._fold(prod)

    def _fold(self, prod):
        """The element with coefficients prod in g, of degree <= 2k - 2:
        each g^i with i >= k becomes its remainder by the modulus."""
        p, k = self.p, self.k
        low = list(prod[:k])
        for i in range(k, len(prod)):
            c = prod[i] % p
            if c:
                for j, r in enumerate(self._red[i - k]):
                    low[j] += c * r
        return tuple(v % p for v in low)

    def inv(self, a):
        r = self._inverses.get(a)
        if r is None:
            if all(x == 0 for x in a):
                raise DivisionByZero("inverse of 0")
            g, s, _ = uni_egcd(self.base, uni_trim(self.base, list(a)),
                               list(self.modulus))
            c = self.base.inv(g[0])
            s = [x * c % self.p for x in s] + [0] * self.k
            r = self._inverses[a] = tuple(s[:self.k])
        return r

    # the codec of the packed kernels: an element is its k coordinates in
    # [0, p) and k - 1 zero slots, and half is a multiple of p
    def _ints(self, rows):
        s = 2 * self.k - 1
        out = [[0] * (s * len(row)) for row in rows]
        for flat, row in zip(out, rows):
            for i, col in enumerate(zip(*row)):
                flat[i::s] = col
        return out, 1, self.p - 1

    def _elems(self, slots, half, d):
        s, fold = 2 * self.k - 1, self._fold
        return [fold(slots[i:i + s]) for i in range(0, len(slots), s)]

    def rand_elem(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.k))

    def elements(self):
        for n in range(self.order):
            digits = []
            for _ in range(self.k):
                n, d = divmod(n, self.p)
                digits.append(d)
            yield tuple(digits)

    def to_str(self, a):
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = a[i] % self.p
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                v = "g" if i == 1 else f"g^{i}"
                parts.append(v if c == 1 else f"{c}*{v}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def field_ctx(p=0, k=1, modulus=None, seed=0):
    """Context factory: p == 0 gives Q, k == 1 gives F_p, else F_{p^k}
    for k up to EXT_DEGREE_LIMIT."""
    if not 1 <= k <= (EXT_DEGREE_LIMIT if p else 1):
        raise InputError(f"extension degree {k} is outside 1.." + (
            f"EXT_DEGREE_LIMIT = {EXT_DEGREE_LIMIT}" if p else "1 over Q"))
    if p == 0:
        return RationalCtx(seed)
    if k == 1:
        return PrimeFieldCtx(p, seed)
    return ExtFieldCtx(p, k, modulus, seed)


# ---------------------------------------------------------------------------
# univariate polynomials


def uni_trim(ctx, f):
    while f and ctx.is_zero(f[-1]):
        f.pop()
    return f

def uni_deg(f):
    return len(f) - 1


def uni_order(ctx, f):
    """Index of the first nonzero coefficient, None when all vanish; f may
    be a polynomial or a truncated series."""
    return next((k for k, c in enumerate(f) if not ctx.is_zero(c)), None)


def uni_add(ctx, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = ctx.add(out[i], c)
    return uni_trim(ctx, out)


def uni_neg(ctx, f):
    return [ctx.neg(c) for c in f]


def uni_sub(ctx, f, g):
    return uni_add(ctx, f, uni_neg(ctx, g))


def uni_scale(ctx, f, c):
    if ctx.is_zero(c):
        return []
    return [ctx.mul(a, c) for a in f]


def _mul_ints(f, g):
    """The product of two int lists, unreduced; it may end in zeros."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for b in g:
                out[i] += a * b
                i += 1
    return out


def _divmod_ints(p, f, g, inv):
    """(q, r) of the int list f by g over F_p, inv the inverse of g's top
    coefficient: each step reduces only the top coefficient it clears, and
    r is reduced once at the end."""
    n = len(g) - 1
    r, low, q = list(f), g[:n], []
    for i in range(len(f) - 1, n - 1, -1):
        c = r[i] * inv % p
        q.append(c)
        if c:
            i -= n
            for b in low:
                r[i] -= c * b
                i += 1
    q.reverse()
    r = [c % p for c in r[:n]]
    while q and not q[-1]:
        q.pop()
    while r and not r[-1]:
        r.pop()
    return q, r


def uni_mul(ctx, f, g):
    if not f or not g:
        return []
    if type(ctx) is PrimeFieldCtx:
        out = [c % ctx.p for c in _mul_ints(f, g)]
        while out and not out[-1]:
            out.pop()
        return out
    out = [ctx.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if ctx.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return uni_trim(ctx, out)


def uni_divmod(ctx, f, g):
    if not g:
        raise DivisionByZero("division by the zero polynomial")
    if type(ctx) is PrimeFieldCtx:
        return _divmod_ints(ctx.p, f, g, ctx.inv(g[-1]))
    r = list(f)
    dg = uni_deg(g)
    inv_lead = ctx.inv(g[-1])
    q = [ctx.zero] * max(0, len(f) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if ctx.is_zero(c):
            continue
        c = ctx.mul(c, inv_lead)
        q[i - dg] = c
        for j in range(dg + 1):
            r[i - dg + j] = ctx.sub(r[i - dg + j], ctx.mul(c, g[j]))
    return uni_trim(ctx, q), uni_trim(ctx, r)


def uni_rem(ctx, f, g):
    return uni_divmod(ctx, f, g)[1]


def uni_quo(ctx, f, g):
    return uni_divmod(ctx, f, g)[0]


def uni_monic(ctx, f):
    if not f:
        return []
    return uni_scale(ctx, f, ctx.inv(f[-1]))


def _primitive(ctx, f):
    """Coprime ints proportional to f over Q; [] for []."""
    (z,), _, _ = ctx._ints([f])
    g = math.gcd(*z)
    return [c // g for c in z]


def uni_gcd(ctx, f, g):
    """The monic gcd; [] when f and g are both zero.  Euclid over F_q; over
    Q the primitive remainder sequence on integer rows (Collins 1967, Brown
    1971), each pseudo-remainder divided by its content."""
    if ctx.characteristic:
        a, b = list(f), list(g)
        while b:
            a, b = b, uni_rem(ctx, a, b)
        return uni_monic(ctx, a)
    a, b = _primitive(ctx, f), _primitive(ctx, g)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, lb, n = a, b[-1], len(b)
        while len(r) >= n:
            # r := (lb r - lead(r) x^k b) / gcd(lb, lead(r)), the top cancels
            h = math.gcd(lb, r[-1])
            s, t, k = lb // h, r.pop() // h, len(r) - n + 1
            r = [c * s for c in r[:k]] + [
                c * s - t * e for c, e in zip(r[k:], b)]
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive(ctx, r)
    if b:
        return [1]
    return [_canon(Fraction(c, a[-1])) for c in a]


def uni_egcd(ctx, f, g):
    """(d, s, t) with s*f + t*g = d; d is the (non-normalized) gcd."""
    r0, r1 = list(f), list(g)
    s0, s1 = [ctx.one], []
    t0, t1 = [], [ctx.one]
    while r1:
        q, r = uni_divmod(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, uni_sub(ctx, s0, uni_mul(ctx, q, s1))
        t0, t1 = t1, uni_sub(ctx, t0, uni_mul(ctx, q, t1))
    return r0, s0, t0


def uni_eval(ctx, f, x):
    if type(ctx) is PrimeFieldCtx:
        acc, p = 0, ctx.p
        for c in reversed(f):
            acc = (acc * x + c) % p
        return acc
    acc = ctx.zero
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def uni_root_mult(ctx, f, r):
    """(m, g) with f = (u - r)^m g and g(r) != 0, for nonzero f."""
    lin = [ctx.neg(r), ctx.one]
    m = 0
    while len(f) > 1:
        q, rem = uni_divmod(ctx, f, lin)
        if rem:
            break
        f, m = q, m + 1
    return m, f


def uni_deriv(ctx, f):
    out = [ctx.mul_int(f[i], i) for i in range(1, len(f))]
    return uni_trim(ctx, out)


def uni_pow_mod(ctx, f, e, m):
    """f^e mod m, through power on a product taken mod m."""
    if type(ctx) is PrimeFieldCtx:
        # a product goes unreduced into a division that needs no inverse
        p, mono = ctx.p, uni_monic(ctx, m)

        def mul_mod(a, c):
            return _divmod_ints(p, _mul_ints(a, c), mono, 1)[1]
    else:
        def mul_mod(a, c):
            return uni_rem(ctx, uni_mul(ctx, a, c), m)
    one, b = uni_rem(ctx, [ctx.one], m), uni_rem(ctx, f, m)
    return power(mul_mod, b, e, one)


# ---------------------------------------------------------------------------
# factorization over finite fields


def _uni_pth_root(ctx, f):
    p = ctx.characteristic
    e = p ** (ctx.ext_degree - 1)
    return [ctx.pow(f[i], e) for i in range(0, len(f), p)]


def uni_squarefree(ctx, f):
    """Monic f as a product of pairwise-coprime squarefree parts [(g, mult)]."""
    out = []
    if uni_deg(f) < 1:
        return out
    fp = uni_deriv(ctx, f)
    if not fp:
        for g, m in uni_squarefree(ctx, _uni_pth_root(ctx, f)):
            out.append((g, m * ctx.characteristic))
        return out
    a = uni_gcd(ctx, f, fp)
    w = uni_quo(ctx, f, a)
    i = 1
    while uni_deg(w) > 0:
        y = uni_gcd(ctx, w, a)
        z = uni_quo(ctx, w, y)
        if uni_deg(z) > 0:
            out.append((z, i))
        i += 1
        w = y
        a = uni_quo(ctx, a, y)
    if uni_deg(a) > 0:
        for g, m in uni_squarefree(ctx, _uni_pth_root(ctx, a)):
            out.append((g, m * ctx.characteristic))
    return out


def _disc(ctx, f):
    """The discriminant b^2 - 4c of the monic quadratic f = [c, b, 1]."""
    return ctx.sub(ctx.mul(f[1], f[1]), ctx.mul_int(f[0], 4))


def _is_square(ctx, a):
    """Whether a is a nonzero square of F_q, q odd (Euler's criterion)."""
    return ctx.is_one(ctx.pow(a, (ctx.order - 1) // 2))


def _sqrt(ctx, a, rng):
    """A square root of the nonzero square a of F_q, q odd (Tonelli 1891,
    Shanks 1973).

    With q - 1 = 2^e t, t odd, x = a^((t + 1)/2) has x^2 = a b, b = a^t of
    order 2^i, i < e.  While b != 1, x takes a factor of c = z^t, z a
    non-residue drawn from the source rng() returns, that lowers i;
    q = 3 mod 4 needs no z.
    """
    q = ctx.order
    e, t = 0, q - 1
    while t % 2 == 0:
        e, t = e + 1, t // 2
    x, b = ctx.pow(a, (t + 1) // 2), ctx.pow(a, t)
    if ctx.is_one(b):
        return x
    for _ in range(SPLIT_TRIES):
        z = ctx.rand_elem(rng())
        if not ctx.is_zero(z) and not _is_square(ctx, z):
            break
    else:
        raise InternalError(f"square root: no non-residue of F_{q} in "
                            f"SPLIT_TRIES = {SPLIT_TRIES} draws")
    c, m = ctx.pow(z, t), e
    while not ctx.is_one(b):
        i, b2 = 1, ctx.mul(b, b)
        while not ctx.is_one(b2):
            i, b2 = i + 1, ctx.mul(b2, b2)
        if i >= m:
            raise InternalError(f"square root of a non-square in F_{q}")
        for _ in range(m - i - 1):
            c = ctx.mul(c, c)
        x, c = ctx.mul(x, c), ctx.mul(c, c)
        b, m = ctx.mul(b, c), i
    return x


def _uni_ddf(ctx, f):
    """Monic squarefree f -> [(product of its degree-d factors, d, s)]; s is
    x^((q - 1)/2) mod f on the d = 1 entry for odd q and deg f >= 3, and None
    otherwise.  Over odd q a quadratic is one entry, d = 1 when its
    discriminant is a square and d = 2 when not."""
    q = ctx.order
    if q % 2 and uni_deg(f) == 2:
        return [(f, 1 if _is_square(ctx, _disc(ctx, f)) else 2, None)]
    out = []
    x = [ctx.zero, ctx.one]
    h = uni_rem(ctx, x, f)
    d, s = 0, None
    while uni_deg(f) > 0 and 2 * (d + 1) <= uni_deg(f):
        d += 1
        if d == 1 and q % 2:
            s = uni_pow_mod(ctx, x, (q - 1) // 2, f)
            h = uni_rem(ctx, uni_mul(ctx, x, uni_mul(ctx, s, s)), f)
        else:
            h = uni_pow_mod(ctx, h, q, f)
        g = uni_gcd(ctx, f, uni_sub(ctx, h, uni_rem(ctx, x, f)))
        if uni_deg(g) > 0:
            out.append((g, d, s if d == 1 else None))
            f = uni_quo(ctx, f, g)
            h = uni_rem(ctx, h, f)
    if uni_deg(f) > 0:
        out.append((f, uni_deg(f), None))
    return out


def _uni_edf(ctx, f, d, rng, s=None):
    """Split a monic product of distinct irreducibles, all of degree d, by
    draws from the source rng() returns; s, x^((q - 1)/2) modulo a multiple
    of f, makes the first try u = x.  Over odd q a quadratic with d = 1 is
    (x - (-b + r)/2)(x - (-b - r)/2), r the square root of its
    discriminant."""
    n = uni_deg(f)
    if n == d:
        return [f]
    q = ctx.order
    if q % 2 and n == 2:
        r, half = _sqrt(ctx, _disc(ctx, f), rng), ctx.inv(ctx.from_int(2))
        return [[ctx.mul(ctx.add(f[1], v), half), ctx.one]
                for v in (r, ctx.neg(r))]
    for _ in range(SPLIT_TRIES):
        if s is None:
            u = ([ctx.rand_elem(rng()), ctx.one] if d == 1 and q % 2 else
                 uni_trim(ctx, [ctx.rand_elem(rng()) for _ in range(n)]))
            if uni_deg(u) < 1:
                continue
            if q % 2:
                s = uni_pow_mod(ctx, u, (q ** d - 1) // 2, f)
            else:
                # absolute trace of u down to F_2
                s = acc = u
                for _ in range(d * ctx.ext_degree - 1):
                    acc = uni_rem(ctx, uni_mul(ctx, acc, acc), f)
                    s = uni_add(ctx, s, acc)
        g = uni_gcd(ctx, f, uni_sub(ctx, s, [ctx.one]) if q % 2 else s)
        s = None
        if 0 < uni_deg(g) < n:
            return (_uni_edf(ctx, g, d, rng)
                    + _uni_edf(ctx, uni_quo(ctx, f, g), d, rng))
    raise InternalError(f"equal-degree split: no split of a degree-{n} "
                        f"product of degree-{d} factors over F_{q} in "
                        f"SPLIT_TRIES = {SPLIT_TRIES} tries")


def _flat(f):
    out = []
    for c in f:
        if isinstance(c, tuple):
            out.extend(c)
        else:
            out.append(c)
    return tuple(out)


def uni_factor(ctx, f):
    """Full factorization over a finite field.

    Returns (leading coefficient, [(monic irreducible coefficient list, mult)]),
    sorted deterministically.  Splitting randomness is seeded from the context
    seed and the input, so results do not depend on call order; it is seeded
    only when a split draws.

    Squarefree parts g split by degree, then into irreducibles (Cantor and
    Zassenhaus 1981).  Over odd q one power s = x^((q - 1)/2) mod g serves
    twice: x^q = x s^2 gives the linear part L = gcd(g, x^q - x), and
    gcd(L, s - 1) its nonzero square roots; random (x + a)^((q - 1)/2) split
    only what that leaves whole (Rabin 1980).  A quadratic, a part g or a
    piece of L, takes no power: x^2 + bx + c splits iff its discriminant
    b^2 - 4c is a square, by Euler's criterion, into the roots (-b +- r)/2,
    r its Tonelli-Shanks square root (Shanks 1973).  Char 2 splits by the
    trace.
    """
    if ctx.characteristic == 0:
        raise Char0Unsupported("factorization needs a finite field")
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    lead = f[-1]
    if uni_deg(f) == 0:
        return lead, []
    if uni_deg(f) == 1:  # its own factorization
        return lead, [(uni_monic(ctx, f), 1)]
    # the splitting draws, seeded on the first one: most inputs take none
    rng = functools.cache(lambda: random.Random(repr((
        ctx.seed, ctx.characteristic, ctx.ext_degree, _flat(f)))))
    out = []
    for g, m in uni_squarefree(ctx, uni_monic(ctx, f)):
        for h, d, s in _uni_ddf(ctx, g):
            for irr in _uni_edf(ctx, h, d, rng, s):
                out.append((irr, m))
    out.sort(key=lambda fm: (uni_deg(fm[0]), _flat(fm[0])))
    return lead, out


def _int_divisors(n):
    n = abs(n)
    if n > RATIONAL_ROOT_LIMIT:
        raise InputError(f"rational roots need the divisors of {n}, listed "
                         f"only up to RATIONAL_ROOT_LIMIT = "
                         f"{RATIONAL_ROOT_LIMIT}")
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def _root_candidates(z):
    """Rationals among which lie the roots of the coprime ints z, a
    polynomial of degree >= 1 with z[0] != 0: in closed form at degree 1
    and 2, else every +-r/s, r | z[0] and s | z[-1]."""
    if len(z) == 2:
        return {_canon(Fraction(-z[0], z[1]))}
    if len(z) == 3:
        c, b, a = z
        disc = b * b - 4 * a * c
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return set()
        return {_canon(Fraction(-b + e, 2 * a)) for e in (s, -s)}
    return {_canon(Fraction(e * r, s)) for r in _int_divisors(z[0])
            for s in _int_divisors(z[-1]) for e in (1, -1)}


def uni_rational_roots(ctx, f):
    """Rational roots with multiplicities, plus the rootless cofactor."""
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    roots = []
    low = 0
    while low < len(f) and f[low] == 0:
        low += 1
    if low:
        roots.append((0, low))
        f = f[low:]
    if uni_deg(f) < 1:
        return roots, list(f)
    for cand in sorted(_root_candidates(_primitive(ctx, f))):
        m, f = uni_root_mult(ctx, f, cand)
        if m:
            roots.append((cand, m))
    return roots, f


# ---------------------------------------------------------------------------
# extensions and embeddings


def _uni_is_irreducible(ctx, f):
    """Rabin's test for monic f of degree >= 1 over a finite field; over
    odd q a quadratic is irreducible iff its discriminant is a non-square."""
    n = uni_deg(f)
    if n == 1:
        return True
    q = ctx.order
    if q % 2 and n == 2:
        disc = _disc(ctx, f)
        return not ctx.is_zero(disc) and not _is_square(ctx, disc)
    x = [ctx.zero, ctx.one]
    xm = uni_rem(ctx, x, f)
    if uni_pow_mod(ctx, x, q ** n, f) != xm:
        return False
    for r in _prime_divisors(n):
        h = uni_pow_mod(ctx, x, q ** (n // r), f)
        if uni_deg(uni_gcd(ctx, f, uni_sub(ctx, h, xm))) != 0:
            return False
    return True


def _find_modulus(p, k, seed):
    base = PrimeFieldCtx(p, seed)
    rng = random.Random(repr((seed, p, k, "modulus")))
    while True:
        f = [rng.randrange(p) for _ in range(k)] + [1]
        if f[0] == 0:
            f[0] = 1 + rng.randrange(p - 1)
        if _uni_is_irreducible(base, f):
            return tuple(f)


def embedding(src, dst):
    """A field homomorphism src -> dst (src degree must divide dst degree)."""
    if src is dst or src == dst:
        return lambda a: a
    if src.characteristic != dst.characteristic:
        raise InputError("incompatible characteristics")
    if dst.ext_degree % src.ext_degree != 0:
        raise InputError("no embedding: degree does not divide")
    if src.ext_degree == 1:
        return lambda a: dst.from_int(a)
    mod = [dst.from_int(c) for c in src.modulus]
    _, fac = uni_factor(dst, mod)
    roots = sorted(dst.neg(g[0]) for g, _ in fac if uni_deg(g) == 1)
    if not roots:
        raise InputError("modulus does not split in target field")
    r = roots[0]
    return lambda a: uni_eval(dst, [dst.from_int(c) for c in a], r)


def adjoin_splitting(f, ctx, extend=True):
    """Smallest extension where f splits.

    Returns (new_ctx, embed, roots) with roots a list of (root, multiplicity)
    in the new context.  Over Q only rational roots are supported; a nonlinear
    irreducible remainder raises Char0IrreducibleRemainder.  With extend
    False a finite field is held to the same rule: a factor of degree > 1
    raises InputError before any extension is built.
    """
    if ctx.characteristic == 0:
        roots, rem = uni_rational_roots(ctx, f)
        if uni_deg(rem) >= 1:
            raise Char0IrreducibleRemainder(
                "irrational roots needed over Q; rerun over F_p with a prime "
                "p larger than mu + ord(f) - 1, mu from `singcurve mu`")
        return ctx, (lambda a: a), roots
    _, fac = uni_factor(ctx, f)
    k2 = ctx.ext_degree
    for g, _ in fac:
        k2 = math.lcm(k2, ctx.ext_degree * uni_deg(g))
    if k2 == ctx.ext_degree:
        roots = sorted((ctx.neg(g[0]), m) for g, m in fac)
        return ctx, (lambda a: a), roots
    if not extend:
        raise InputError(f"face roots need GF({ctx.characteristic}^{k2}), "
                         f"and the field may not be extended past {ctx!r}")
    ctx2 = ExtFieldCtx(ctx.characteristic, k2, seed=ctx.seed)
    emb = embedding(ctx, ctx2)
    f2 = [emb(c) for c in f]
    _, fac2 = uni_factor(ctx2, f2)
    if any(uni_deg(g) != 1 for g, _ in fac2):
        raise InputError("splitting field computation failed")
    roots = sorted((ctx2.neg(g[0]), m) for g, m in fac2)
    return ctx2, emb, roots
