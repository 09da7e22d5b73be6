"""Integer arithmetic on numbers that come from outside, in bounded time.

Primality is a Miller-Rabin test with the first twelve primes as bases,
which is deterministic below 2^64.  Cyclic orders are factored into prime
powers by trial division, which is the whole job below 2^32.  Past 2^16 the
cofactor left is tested once for being a power of one prime below 2^64 (an
integer root finds the power, Miller-Rabin certifies the prime); if it is
not, trial division goes on to 2^20, the cofactor is tested again, and a
number still unfactored is refused with an InputError instead of being
factored for hours.  So a number is refused exactly when, after its prime
factors up to 2^20 are divided out, what is left is at least 2^40 and not
a power of one prime below 2^64.
"""

from __future__ import annotations

import math
import sys
from functools import cache

from .errors import InputError

__all__ = ["is_prime", "prime_powers", "power", "integer"]

PRIME_LIMIT = 1 << 64           # primes are certified below this
_TRIAL = 1 << 16                # trial division before the first power test
_BUDGET = 1 << 20               # trial division before giving up
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# orders must print: Python refuses to convert longer integers to text
MAX_DIGITS = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@cache
def is_prime(n: int) -> bool:
    """Whether n is a prime below PRIME_LIMIT, where a Miller-Rabin test on
    these bases is certain; memoised, as every piece asks it."""
    if not 1 < n < PRIME_LIMIT:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for a root below 2^65: Newton's method from just
    above a float estimate."""
    x = int(2 ** (math.log2(n) / k) * (1 + 1e-12)) + 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(n: int) -> tuple[int, int] | None:
    """(q, k) with q a prime below PRIME_LIMIT and q^k = n, or None, for n
    with no prime factor up to the first trial bound."""
    bits = n.bit_length()
    # q < 2^64 needs k >= bits/64.  The largest k with an exact root leaves
    # a root that is no power, so n is a prime power exactly when that root
    # is prime.
    for k in range(bits // 16, -(-bits // 64) - 1, -1):
        q = _iroot(n, k)
        if q ** k == n:
            return (q, k) if is_prime(q) else None
    return None


def prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e in the factorisation of n >= 1."""
    out = []
    d, stop = 2, _TRIAL
    while d * d <= n:
        if d > stop:
            # n has no prime factor up to stop
            found = _prime_power(n)
            if found:
                out.append(found)
                return out
            if stop == _BUDGET:
                raise InputError(
                    f"cannot factor a {n.bit_length()}-bit number in bounded "
                    "time: it has no prime factor below 2^20 and is not a "
                    "power of one prime below 2^64")
            stop = _BUDGET
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def power(base: int, exp: int) -> int:
    """base ** exp for exp >= 0, refused when exp is negative or the result
    would have more than MAX_DIGITS digits."""
    if exp < 0:
        raise InputError(f"{base}^{exp} has a negative exponent")
    # the first test keeps a huge exp from overflowing the float product
    if abs(base) > 1 and (exp > 4 * MAX_DIGITS
                          or exp * math.log10(abs(base)) >= MAX_DIGITS):
        raise InputError(f"{base}^{exp} has more than {MAX_DIGITS} digits")
    return base ** exp


def integer(value) -> int:
    """int(value), a value int() refuses (not a number, or more digits than
    Python reads) being an InputError with int()'s own message."""
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from None
