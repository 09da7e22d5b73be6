import pytest

from chang.arith import MAX_DIGITS, is_prime, power, prime_powers
from chang.errors import InputError


def naive_prime_powers(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(n, 1)] if n > 1 else out


def test_small_numbers_factor_as_by_trial_division():
    for n in list(range(1, 5000)) + [2 ** 31 - 1, 2 ** 32 - 5, 3 ** 20,
                                      65521 * 65519, 4294967291 * 2]:
        assert prime_powers(n) == naive_prime_powers(n), n
        assert is_prime(n) == (naive_prime_powers(n) == [(n, 1)]), n


def test_large_primes_and_prime_powers():
    big = [2 ** 61 - 1, 1000000000000000003, 2 ** 64 - 59]   # primes
    for p in big:
        assert is_prime(p)
        assert prime_powers(p) == [(p, 1)]
        assert prime_powers(12 * p ** 3) == [(2, 2), (3, 1), (p, 3)]
    assert prime_powers(65537 ** 2) == [(65537, 2)]      # just past 2^16
    # no prime power: trial division goes on past 2^16
    assert prime_powers(65537 * 65539) == [(65537, 1), (65539, 1)]
    assert prime_powers(3 * 1048573 * 1048571 ** 2) == [
        (3, 1), (1048571, 2), (1048573, 1)]
    # strong pseudoprimes to the first few prime bases
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert not is_prime(2 ** 64 - 57)
    assert not is_prime(2 ** 64 + 13)   # a prime, past the certified range


class Counted(int):
    """An int that counts the remainders taken of it."""
    divisions = 0

    def __mod__(self, d):
        Counted.divisions += 1
        return int.__mod__(self, d)


def test_unfactorable_numbers_are_refused_in_bounded_work():
    for n in (1000000007 * 998244353, (2 ** 64 + 13) ** 2,
              (2 ** 61 - 1) * (2 ** 64 - 59), 1048583 * 1048589):
        Counted.divisions = 0
        with pytest.raises(InputError, match="^cannot factor a"):
            prime_powers(Counted(n))
        # one remainder per odd trial divisor up to 2^20, plus the
        # primality tests' twelve
        assert Counted.divisions < (1 << 19) + 100, n


def test_power_refuses_numbers_too_long_to_print():
    assert power(2, 5000) == 2 ** 5000
    assert power(7, 0) == 1 and power(1, 10 ** 9) == 1
    for exp in (100000, 10 ** 400):
        with pytest.raises(InputError, match=f"has more than {MAX_DIGITS} "
                                             "digits$"):
            power(2, exp)


def test_power_refuses_negative_exponents():
    assert power(-2, 3) == -8
    for base, exp in ((2, -1), (0, -1), (1, -5)):
        with pytest.raises(InputError, match=f"^{base}\\^{exp} has a "
                                             "negative exponent$"):
            power(base, exp)
    # a negative base is bounded like a positive one
    with pytest.raises(InputError, match="digits$"):
        power(-2, 10 ** 400)
