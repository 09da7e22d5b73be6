import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chang import f2, smash
from chang.complexes import cbot, ceta, cfull, ctop, moore, sphere
from chang.smash import PARAMS

EXPONENTS = (1, 2, 3, 4, 5)
# the 41 pieces of the benchmark's wide workload
WIDE_PIECES = ([moore(2, u, 3) for u in EXPONENTS] + [ceta(5)]
               + [cbot(r, 5) for r in EXPONENTS]
               + [ctop(5, s) for s in EXPONENTS]
               + [cfull(r, 5, s) for r in EXPONENTS for s in EXPONENTS])


def classified_pairs():
    """Every classified pair type over the {1,2,3} parameter grid (one
    ordering each; the suite commutes them where needed), then a coprime
    odd Moore pair and three sphere pairs."""
    return smash.classified_pairs() + [
        (moore(3, 1, 3), moore(5, 2, 3)),
        (sphere(3), cbot(2, 5)),
        (sphere(4), moore(2, 2, 3)),
        (sphere(3), sphere(5)),
    ]


def every_piece():
    """Every piece of every kind at exponents 1..6, primes 2, 3, 5 and 7,
    and the four lowest dimensions of its kind."""
    out = []
    for k in range(4):
        out += [sphere(3 + k), ceta(5 + k)]
        for e in range(1, 7):
            out += [moore(p, e, 3 + k) for p in (2, 3, 5, 7)]
            out += [cbot(e, 5 + k), ctop(5 + k, e)]
            out += [cfull(e, 5 + k, f) for f in range(1, 7)]
    return out


def elementary_samples():
    out = [sphere(3), sphere(4), sphere(6), moore(2, 1, 3), moore(2, 3, 4),
           moore(3, 2, 5), ceta(5), ceta(7), ctop(5, 2), cbot(3, 6),
           cfull(1, 5, 2), cfull(2, 8, 1)]
    return out


def invertible(n):
    """Every invertible n x n matrix over F2, as mask tuples (small n only)."""
    if n == 0:
        yield ()
        return
    for cand in product(range(1, 1 << n), repeat=n):
        if f2.rank(cand) == n:
            yield cand
