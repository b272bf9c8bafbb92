"""numpy's ``default_rng(seed).binomial(n, p)`` stream in pure Python, bit for bit.

``simulate --shots N`` draws one binomial count per generator.  Importing
numpy for those draws costs about 110 ms a process; a draw here costs about
6 us, so this module is the faster of the two below roughly 15,000 draws.  It
reproduces numpy's stream exactly, so a seeded record is the one numpy gives:

- ``SeedSequence(seed).generate_state(4, uint64)`` seeds PCG64, the 128-bit
  LCG with the XSL-RR 128/64 output function (O'Neill 2014), and each double
  is the top 53 bits of one output;
- ``binomial`` follows numpy's ``random_binomial``: inversion when
  min(p, 1 - p) n <= 30, else BTPE (Kachitvichyanukul & Schmeiser 1988).

Python's arithmetic follows C's where the two differ: an int64 expression that
can overflow (n + 1 in BTPE's explicit ratio, -k*k in its squeeze) wraps
through ``wrap64``; the four counts of BTPE's final test are formed as
doubles and its terms summed in the order numpy's compiled code uses; and a
zero v is tested before ``math.log``, which raises where C returns -inf.
"""

import math
import operator

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
#: SeedSequence's hash constants and the size of its pool of 32-bit words.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4


def wrap64(x: int) -> int:
    """``x`` as a C int64 holds it: reduced into [-2**63, 2**63)."""
    return ((x + (1 << 63)) & MASK64) - (1 << 63)


def seed_state(seed) -> list:
    """The four 64-bit words ``SeedSequence(seed).generate_state(4, np.uint64)``."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    entropy = [seed & MASK32]
    while seed > MASK32:
        seed >>= 32
        entropy.append(seed & MASK32)

    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    words, hash_const = [], INIT_B
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def stirling_tail(x: float) -> float:
    """The Stirling-series correction BTPE's final test adds per factorial."""
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0


class PCG64:
    """numpy's PCG64 bit generator as ``numpy.random.default_rng(seed)`` seeds it."""

    def __init__(self, seed):
        # PCG's srandom: inc = 2 * stream + 1, then two LCG steps from state 0
        # with the seed added in between
        s_hi, s_lo, i_hi, i_lo = seed_state(seed)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        self.state = ((self.inc + (s_hi << 64 | s_lo)) * MULTIPLIER + self.inc) & MASK128

    def next_uint64(self) -> int:
        """Advance the LCG and return the XSL-RR output of the new state."""
        self.state = (self.state * MULTIPLIER + self.inc) & MASK128
        rot = self.state >> 122
        x = (self.state >> 64 ^ self.state) & MASK64
        return (x >> rot | x << (-rot & 63)) & MASK64

    def next_double(self) -> float:
        """A double uniform on [0, 1) from the top 53 bits of one output."""
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def binomial(self, n: int, p: float) -> int:
        """One draw of ``Generator.binomial(n, p)``, for 0 <= n < 2**63 and p in [0, 1]."""
        n = operator.index(n)
        if not 0 <= n < 1 << 63:  # numpy takes n as an int64
            raise ValueError(f"n must lie in [0, 2**63), got {n}")
        if not 0.0 <= p <= 1.0:  # NaN fails this comparison too
            raise ValueError(f"p must lie in [0, 1], got {p!r}")
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self.inversion(n, p) if p * n <= 30.0 else self.btpe(n, p)
        q = 1.0 - p
        return n - (self.inversion(n, q) if q * n <= 30.0 else self.btpe(n, q))

    def inversion(self, n: int, p: float) -> int:
        """numpy's ``random_binomial_inversion``: sequential search from
        P(0) = exp(n log1p(-p)), restarted past about ten standard deviations."""
        q = 1.0 - p
        qn = math.exp(n * math.log1p(-p))
        mean = n * p
        bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
        x, px, u = 0, qn, self.next_double()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.next_double()
            else:
                u -= px
                px = (n - x + 1) * p * px / (x * q)
        return x

    def btpe(self, n: int, p: float) -> int:
        """numpy's ``random_binomial_btpe`` for p <= 1/2: triangle, parallelogram
        and exponential-tail proposals with squeezed acceptance."""
        q = 1.0 - p
        fm = n * p + p
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl, xr = xm - p1, xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * p)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * p * q
        while True:
            u = self.next_double() * p4
            v = self.next_double()
            if u <= p1:
                return math.floor(xm - p1 * v + u)
            if u <= p2:
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:
                if v == 0.0:  # C takes log(0) = -inf, then rejects
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr

            k = abs(y - m)
            if k <= 20 or k >= nrq / 2.0 - 1:
                s = p / q
                a = s * wrap64(n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                return y

            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = wrap64(-k * k) / (2 * nrq)
            # a parallelogram v can round to <= 0, where C's log gives -inf or
            # NaN; either way numpy accepts
            big_a = math.log(v) if v > 0.0 else -math.inf
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            # numpy forms these four counts in double arithmetic, so each
            # integer is rounded to a double before it is added to
            y_d, m_d, n_d = float(y), float(m), float(n)
            x1, f1, z, w = y_d + 1.0, m_d + 1.0, n_d + 1.0 - m_d, n_d - y_d + 1.0
            bound = (
                xm * math.log(f1 / x1)
                + (n - m + 0.5) * math.log(z / w)
                + (y - m) * math.log(w * p / (x1 * q))
                + stirling_tail(f1)
                + stirling_tail(z)
                + stirling_tail(x1)
                + stirling_tail(w)
            )
            if big_a > bound:
                continue
            return y
