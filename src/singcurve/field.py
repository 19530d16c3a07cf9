"""Prime fields, their extensions, the rationals, and univariate arithmetic.

An element of F_p is an int in [0, p); an element of F_{p^k} with k > 1 is a
length-k tuple of ints (coefficients of the generator g, constant term first);
a rational is a fractions.Fraction.  A FieldCtx interprets these values and
carries all arithmetic.  Univariate polynomials are little-endian coefficient
lists with no trailing zeros ([] is the zero polynomial), handled by the
uni_* functions, which all take the context as first argument.  The two
context kernels, sub_mul_rows (the Milnor reduction's step) and mul_series
(the truncated series product), are big-int products over F_p, and
mul_series is one over Q as well.
"""

import math
import random
import struct
from fractions import Fraction

from .errors import (Char0IrreducibleRemainder, Char0Unsupported,
                     DivisionByZero, InputError, ZeroPolynomial)


# Miller-Rabin with the first twelve prime bases decides every n below this
# bound (Sorenson and Webster 2015)
PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# struct codes of the standard little-endian unsigned sizes in bytes
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# rational roots are found among quotients of divisors of the end
# coefficients, which are listed by trial division up to their square root
RATIONAL_ROOT_LIMIT = 10 ** 12


def is_prime(n):
    """Deterministic Miller-Rabin for n below PRIME_TEST_LIMIT."""
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
    for b in _PRIME_BASES:
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


def _slot_size(w):
    """The struct size that holds a w-byte slot, None past 8 bytes."""
    return next((s for s in _STRUCT_CODES if s >= w), None)


def _pack_slots(row, w, size):
    """The int with the entries of row, each below 256^w, in consecutive
    little-endian w-byte slots; size is _slot_size(w)."""
    if size is None:
        return int.from_bytes(b"".join([c.to_bytes(w, "little")
                                        for c in row]), "little")
    data = struct.pack(f"<{len(row)}{_STRUCT_CODES[size]}", *row)
    buf = bytearray(w * len(row))
    for t in range(w):
        buf[t::w] = data[t::size]
    return int.from_bytes(buf, "little")


def _unpack_slots(data, w, size, m):
    """The first m little-endian w-byte slots of the bytes data, as ints;
    size is _slot_size(w)."""
    if size is None:
        return [int.from_bytes(data[k:k + w], "little")
                for k in range(0, m * w, w)]
    buf = bytearray(size * m)
    for t in range(w):
        buf[t::size] = data[t:m * w:w]
    return struct.unpack(f"<{m}{_STRUCT_CODES[size]}", buf)


def _trim_series(a, n):
    """The first n entries of a without trailing zeros, for contexts whose
    only zero element is falsy."""
    k = min(len(a), n)
    while k and not a[k - 1]:
        k -= 1
    return a[:k]


def _integral(row):
    """(ints, d) with ints = d*row, d the lcm of row's denominators."""
    d = math.lcm(*[c.denominator for c in row])
    return [c.numerator * (d // c.denominator) for c in row], d


def _pack_signed(row, w, size):
    """_pack_slots for ints of either sign, each below 2^(8w - 1) in
    absolute value: the packed positive part minus the packed negative
    part."""
    return (_pack_slots([max(c, 0) for c in row], w, size)
            - _pack_slots([max(-c, 0) for c in row], w, size))


class FieldCtx:
    """Base arithmetic context; subclasses fix the element representation."""

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        r, b = self.one, a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

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
        zeros, q is one such list, and g may have fewer rows than f; rows
        past those of f are kept as they are and no argument is changed.
        This default walks the nonzero entries of each f_j.
        """
        mul, add, is_zero = self.mul, self.add, self.is_zero
        neg_q = [(k, self.neg(c)) for k, c in enumerate(q) if not is_zero(c)]
        dq = len(q) - 1
        out = list(g) + [[] for _ in range(len(f) - len(g))]
        cut = False
        for j, fj in enumerate(f):
            if not fj:
                continue
            width = n - j
            # None marks a zero that no term has reached yet
            row = [None if is_zero(v) else v for v in out[j]]
            row += [None] * (min(width, len(fj) + dq) - len(row))
            for i, c in enumerate(fj):
                if is_zero(c):
                    continue
                if i + dq >= width:
                    cut = True
                for k, b in neg_q:
                    if i + k >= width:
                        break
                    v, w = row[i + k], mul(b, c)
                    row[i + k] = w if v is None else add(v, w)
            out[j] = uni_trim(self, [self.zero if v is None else v
                                     for v in row])
        return out, cut

    def mul_series(self, a, b, n):
        """a*b mod t^n as a list of exactly n entries.

        a and b are truncated series, little-endian coefficient lists of
        any length that may end in zeros; neither is changed.  This default
        is the schoolbook loop over the nonzero entries.
        """
        out = [self.zero] * n
        add, mul, is_zero = self.add, self.mul, self.is_zero
        nz = [(j, bj) for j, bj in enumerate(b[:n]) if not is_zero(bj)]
        for i, ai in enumerate(a[:n]):
            if is_zero(ai):
                continue
            lim = n - i
            for j, bj in nz:
                if j >= lim:
                    break
                out[i + j] = add(out[i + j], mul(ai, bj))
        return out

    def __eq__(self, other):
        return (type(self) is type(other)
                and self.characteristic == other.characteristic
                and self.ext_degree == other.ext_degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((type(self).__name__, self.characteristic,
                     self.ext_degree, self.modulus))


class RationalCtx(FieldCtx):
    """The rationals; elements are Fractions."""

    characteristic = 0
    ext_degree = 1
    order = None
    modulus = None
    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self, seed=0):
        self.seed = seed

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return 1 / Fraction(a)

    def mul_series(self, a, b, n):
        """FieldCtx.mul_series as one big-int product.

        Each argument is scaled to integers over the lcm of its
        denominators, and its positive and negative parts are packed apart
        with one w-byte slot per coefficient and subtracted.  w is wide
        enough that 2^(8w - 1) exceeds max|a_i| max|b_j| min(len a, len b),
        which bounds every coefficient of the product, so the product
        holds them in signed slots.  Adding 2^(8w - 1) to each slot that is
        kept makes them all nonnegative, so they unpack without carries;
        the offset is taken off again.  Entries may be Fractions or ints.
        """
        same = a is b
        a, b = _trim_series(a, n), _trim_series(b, n)
        if not a or not b:
            return [self.zero] * n
        (ia, da), (ib, db) = _integral(a), _integral(b)
        w = (max(map(abs, ia)) * max(map(abs, ib))
             * min(len(a), len(b))).bit_length() // 8 + 1
        size = _slot_size(w)
        m = min(len(a) + len(b) - 1, n)
        half, kept = 1 << (8 * w - 1), (1 << (8 * w * m)) - 1
        # half in each of the m kept slots
        offset = half * (kept // ((1 << (8 * w)) - 1))
        ai = _pack_signed(ia, w, size)
        bi = ai if same else _pack_signed(ib, w, size)
        data = ((ai * bi + offset) & kept).to_bytes(m * w, "little")
        d = da * db
        out = [Fraction(c - half, d) for c in _unpack_slots(data, w, size, m)]
        return out + [self.zero] * (n - m)

    def rand_elem(self, rng):
        return Fraction(rng.randint(-9, 9))

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

    def sub_mul_rows(self, g, f, q, n):
        """FieldCtx.sub_mul_rows with one big-int product per row.

        q and each f_j are packed into ints with one w-byte slot per
        coefficient, w wide enough for (p - 1)^2 len(q), which bounds every
        coefficient of q*f_j; the product's slots are then its coefficients
        (Kronecker substitution, Harvey 2009).  Every entry must be an int
        in [0, p).
        """
        p, lq = self.p, len(q)
        # max: the entries themselves must fit when q is empty
        w = ((p - 1) ** 2 * max(lq, 1)).bit_length() // 8 + 1
        size = _slot_size(w)
        qi = _pack_slots(q, w, size)
        out = list(g) + [[] for _ in range(len(f) - len(g))]
        cut = False
        for j, fj in enumerate(f):
            if not fj:
                continue
            m = lq + len(fj) - 1
            if m > n - j:
                cut, m = True, n - j
            data = (qi * _pack_slots(fj, w, size)).to_bytes(
                (lq + len(fj) - 1) * w, "little")
            gj = out[j] + [0] * (m - len(out[j]))
            row = [(a - c) % p
                   for a, c in zip(gj, _unpack_slots(data, w, size, m))]
            row += gj[m:]
            while row and not row[-1]:
                row.pop()
            out[j] = row
        return out, cut

    def mul_series(self, a, b, n):
        """FieldCtx.mul_series as one big-int product.

        a and b are packed into ints with one w-byte slot per coefficient,
        w wide enough for (p - 1)^2 min(len a, len b), which bounds every
        coefficient of a*b; the product's slots are then its coefficients
        (Kronecker substitution, Harvey 2009).  Every entry must be an int
        in [0, p): a negative one cannot be packed and a larger one can
        carry into the next slot.
        """
        p, same = self.p, a is b
        a, b = _trim_series(a, n), _trim_series(b, n)
        if not a or not b:
            return [0] * n
        w = ((p - 1) ** 2 * min(len(a), len(b))).bit_length() // 8 + 1
        size = _slot_size(w)
        m = min(len(a) + len(b) - 1, n)
        ai = _pack_slots(a, w, size)
        bi = ai if same else _pack_slots(b, w, size)
        data = (ai * bi).to_bytes((len(a) + len(b) - 1) * w, "little")
        return [c % p for c in _unpack_slots(data, w, size, m)] + [0] * (n - m)

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
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                red = self._red[i - k]
                for j in range(k):
                    prod[j] += c * red[j]
        return tuple(v % p for v in prod[:k])

    def inv(self, a):
        if all(x == 0 for x in a):
            raise DivisionByZero("inverse of 0")
        g, s, _ = uni_egcd(self.base, uni_trim(self.base, list(a)),
                           list(self.modulus))
        c = self.base.inv(g[0])
        s = [x * c % self.p for x in s]
        s += [0] * (self.k - len(s))
        return tuple(s[:self.k])

    def is_zero(self, a):
        return all(x % self.p == 0 for x in a)

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
    """Context factory: p == 0 gives Q, k == 1 gives F_p, else F_{p^k}."""
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


def uni_mul(ctx, f, g):
    if not f or not g:
        return []
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


def uni_gcd(ctx, f, g):
    a, b = list(f), list(g)
    while b:
        a, b = b, uni_rem(ctx, a, b)
    return uni_monic(ctx, a)


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
    r = uni_rem(ctx, [ctx.one], m)
    b = uni_rem(ctx, f, m)
    while e:
        if e & 1:
            r = uni_rem(ctx, uni_mul(ctx, r, b), m)
        b = uni_rem(ctx, uni_mul(ctx, b, b), m)
        e >>= 1
    return r


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


def _uni_ddf(ctx, f):
    """Monic squarefree f -> [(product of its degree-d factors, d)]."""
    q = ctx.order
    out = []
    x = [ctx.zero, ctx.one]
    h = uni_rem(ctx, x, f)
    d = 0
    while uni_deg(f) > 0 and 2 * (d + 1) <= uni_deg(f):
        d += 1
        h = uni_pow_mod(ctx, h, q, f)
        g = uni_gcd(ctx, f, uni_sub(ctx, h, uni_rem(ctx, x, f)))
        if uni_deg(g) > 0:
            out.append((g, d))
            f = uni_quo(ctx, f, g)
            h = uni_rem(ctx, h, f)
    if uni_deg(f) > 0:
        out.append((f, uni_deg(f)))
    return out


def _uni_edf(ctx, f, d, rng):
    """Split a monic product of distinct irreducibles, all of degree d."""
    n = uni_deg(f)
    if n == d:
        return [f]
    q = ctx.order
    while True:
        u = uni_trim(ctx, [ctx.rand_elem(rng) for _ in range(n)])
        if uni_deg(u) < 1:
            continue
        if ctx.characteristic == 2:
            # absolute trace of u down to F_2
            h = list(u)
            acc = list(u)
            for _ in range(d * ctx.ext_degree - 1):
                acc = uni_rem(ctx, uni_mul(ctx, acc, acc), f)
                h = uni_add(ctx, h, acc)
        else:
            h = uni_pow_mod(ctx, u, (q ** d - 1) // 2, f)
            h = uni_sub(ctx, h, [ctx.one])
        g = uni_gcd(ctx, f, h)
        if 0 < uni_deg(g) < n:
            return (_uni_edf(ctx, g, d, rng)
                    + _uni_edf(ctx, uni_quo(ctx, f, g), d, rng))


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
    seed and the input, so results do not depend on call order.
    """
    if ctx.characteristic == 0:
        raise Char0Unsupported("factorization needs a finite field")
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    lead = f[-1]
    if uni_deg(f) == 0:
        return lead, []
    rng = random.Random(repr((ctx.seed, ctx.characteristic, ctx.ext_degree,
                              _flat(f))))
    out = []
    for g, m in uni_squarefree(ctx, uni_monic(ctx, f)):
        for h, d in _uni_ddf(ctx, g):
            for irr in _uni_edf(ctx, h, d, rng):
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


def uni_rational_roots(ctx, f):
    """Rational roots with multiplicities, plus the rootless cofactor."""
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    roots = []
    low = 0
    while low < len(f) and f[low] == 0:
        low += 1
    if low:
        roots.append((Fraction(0), low))
        f = f[low:]
    if uni_deg(f) < 1:
        return roots, list(f)
    den = math.lcm(*[c.denominator for c in f])
    zf = [int(c * den) for c in f]
    cont = math.gcd(*zf)
    zf = [c // cont for c in zf]
    cands = set()
    for r in _int_divisors(zf[0]):
        for s in _int_divisors(zf[-1]):
            cands.add(Fraction(r, s))
            cands.add(Fraction(-r, s))
    for cand in sorted(cands):
        m, f = uni_root_mult(ctx, f, cand)
        if m:
            roots.append((cand, m))
    return roots, f


# ---------------------------------------------------------------------------
# extensions and embeddings


def _uni_is_irreducible(ctx, f):
    """Rabin's test for monic f of degree >= 1 over a finite field."""
    n = uni_deg(f)
    if n == 1:
        return True
    q = ctx.order
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


def adjoin_splitting(f, ctx):
    """Smallest extension where f splits.

    Returns (new_ctx, embed, roots) with roots a list of (root, multiplicity)
    in the new context.  Over Q only rational roots are supported; a nonlinear
    irreducible remainder raises Char0IrreducibleRemainder.
    """
    if ctx.characteristic == 0:
        roots, rem = uni_rational_roots(ctx, f)
        if uni_deg(rem) >= 1:
            raise Char0IrreducibleRemainder(
                "irrational roots needed over Q; rerun over F_p with a prime "
                "p larger than -M + ord(f)")
        return ctx, (lambda a: a), roots
    _, fac = uni_factor(ctx, f)
    k2 = ctx.ext_degree
    for g, _ in fac:
        k2 = math.lcm(k2, ctx.ext_degree * uni_deg(g))
    if k2 == ctx.ext_degree:
        roots = sorted((ctx.neg(g[0]), m) for g, m in fac)
        return ctx, (lambda a: a), roots
    ctx2 = ExtFieldCtx(ctx.characteristic, k2, seed=ctx.seed)
    emb = embedding(ctx, ctx2)
    f2 = [emb(c) for c in f]
    _, fac2 = uni_factor(ctx2, f2)
    if any(uni_deg(g) != 1 for g, _ in fac2):
        raise InputError("splitting field computation failed")
    roots = sorted((ctx2.neg(g[0]), m) for g, m in fac2)
    return ctx2, emb, roots
