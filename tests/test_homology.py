from itertools import product

from hypothesis import given, settings, strategies as st

from chang.complexes import cbot, ceta, cfull, ctop, moore, sphere, wedge
from chang.homology import GradedAbelianGroup, integral_homology, kunneth
from chang.matrix import smith_normal_form
from chang.matrix import _summand_chain
from chang.steenrod import mod2_cohomology

from conftest import PARAMS, elementary_samples


def tensor_chain_homology(a, b) -> GradedAbelianGroup:
    """Independent route: homology of the tensor of the cellular chain
    complexes (Smith normal form per degree)."""
    ca, ba = _summand_chain(a)
    cb, bb = _summand_chain(b)
    cells = [(i, j) for i in range(len(ca)) for j in range(len(cb))]
    dim = {c: ca[c[0]] + cb[c[1]] for c in cells}
    bnd: dict[tuple, int] = {}
    for (i, j) in cells:
        for (fr, to), v in ba.items():
            if fr == i:
                bnd[((i, j), (to, j))] = bnd.get(((i, j), (to, j)), 0) + v
        sign = -1 if ca[i] % 2 else 1
        for (fr, to), v in bb.items():
            if fr == j:
                bnd[((i, j), (i, to))] = bnd.get(((i, j), (i, to)), 0) + sign * v
    degrees = sorted(set(dim.values()))
    by_deg = {d: [c for c in cells if dim[c] == d] for d in degrees}

    def matrix(d):
        rows = by_deg.get(d - 1, [])
        cols = by_deg.get(d, [])
        return [[bnd.get((c, r), 0) for c in cols] for r in rows]

    out = {}
    for d in degrees:
        diag_in = smith_normal_form(matrix(d + 1))
        rank_out = sum(1 for v in smith_normal_form(matrix(d)) if v)
        rank_in = sum(1 for v in diag_in if v)
        free = len(by_deg[d]) - rank_out - rank_in
        factors = [0] * free + [v for v in diag_in if v > 1]
        if factors:
            out[d] = factors
    return GradedAbelianGroup(out)


def test_elementary_homology_tables():
    assert integral_homology(wedge(cbot(2, 5))).components == {3: (4,), 5: (0,)}
    assert integral_homology(wedge(moore(3, 2, 4))).components == {4: (9,)}
    assert integral_homology(wedge(ctop(5, 3))).components == {3: (0,), 4: (8,)}
    assert integral_homology(wedge(cfull(1, 5, 2))).components == \
        {3: (2,), 4: (4,)}
    assert integral_homology(wedge(ceta(5))).components == {3: (0,), 5: (0,)}


def test_kunneth_sphere_and_moore_values():
    hs = kunneth(integral_homology(wedge(sphere(3))),
                 integral_homology(wedge(sphere(4))))
    assert hs.components == {7: (0,)}
    # frozen from the chain-level oracle below: gcd tensor + torsion product
    hm = kunneth(integral_homology(wedge(moore(2, 2, 3))),
                 integral_homology(wedge(moore(2, 3, 3))))
    assert hm.components == {6: (4,), 7: (4,)}
    assert hm == tensor_chain_homology(moore(2, 2, 3), moore(2, 3, 3))


def test_kunneth_eta_times_four_cell():
    for r, s in product(PARAMS, PARAMS):
        h = kunneth(integral_homology(wedge(ceta(5))),
                    integral_homology(wedge(cfull(r, 5, s))))
        assert h.components == {6: (2 ** r,), 7: (2 ** s,),
                                8: (2 ** r,), 9: (2 ** s,)}


def test_kunneth_against_chain_oracle_exhaustive():
    samples = elementary_samples()
    for a in samples:
        for b in samples:
            got = kunneth(integral_homology(wedge(a)),
                          integral_homology(wedge(b)))
            assert got == tensor_chain_homology(a, b), (a, b)


@st.composite
def _prime_power_groups(draw):
    comps = {}
    for _ in range(draw(st.integers(0, 5))):
        d = draw(st.integers(3, 9))
        q = draw(st.one_of(st.just(0),
                           st.builds(pow, st.sampled_from([2, 3, 5]),
                                     st.integers(1, 6))))
        comps.setdefault(d, []).append(q)
    return GradedAbelianGroup(comps)


@given(_prime_power_groups(), _prime_power_groups())
@settings(max_examples=200)
def test_kunneth_output_is_already_canonical(a, b):
    # kunneth keeps its gcd terms without factoring them again; they must
    # be exactly what the canonicalising constructor would make of them
    got = kunneth(a, b).components
    assert got == GradedAbelianGroup(got).components
    assert all(q != 1 for orders in got.values() for q in orders)


def _graded_groups(draw):
    comps = {}
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(3, 9))
        q = draw(st.sampled_from([0, 2, 3, 4, 8, 9, 5]))
        comps.setdefault(d, []).append(q)
    return GradedAbelianGroup(comps)


graded_groups = st.composite(_graded_groups)


@given(graded_groups(), graded_groups())
@settings(max_examples=150)
def test_kunneth_commutative(a, b):
    assert kunneth(a, b) == kunneth(b, a)


@given(graded_groups(), graded_groups(), graded_groups())
@settings(max_examples=100)
def test_kunneth_associative(a, b, c):
    assert kunneth(kunneth(a, b), c) == kunneth(a, kunneth(b, c))


def test_universal_coefficients_consistency():
    # dim H^d(-;Z/2) = (# Z and 2-power factors of H_d) + (# 2-power of H_{d-1})
    samples = [wedge(a) for a in elementary_samples()]
    exps = range(1, 6)
    samples += [wedge(moore(p, u, 3)) for p in (2, 3, 5) for u in exps]
    samples += [wedge(c) for u in exps for c in (cbot(u, 5), ctop(5, u))]
    samples += [wedge(cfull(r, 5, s)) for r, s in product(exps, exps)]
    samples.append(wedge(moore(2, 1, 3), cfull(2, 5, 1), sphere(4)))
    from chang.complexes import smash_atom
    samples.append(wedge(smash_atom(moore(2, 2, 3), ceta(5)), moore(2, 2, 7)))
    for w in samples:
        h = integral_homology(w)
        m = mod2_cohomology(w)
        degs = set(h.degrees()) | {d + 1 for d in h.degrees()} | set(m.degrees())
        for d in degs:
            count = sum(1 for q in h[d] if q == 0 or q % 2 == 0)
            count += sum(1 for q in h[d - 1] if q != 0 and q % 2 == 0)
            assert m.dim(d) == count, (w, d)


def test_primary_decomposition_is_canonical():
    assert GradedAbelianGroup({7: [24]}) == GradedAbelianGroup({7: [8, 3]})
    assert GradedAbelianGroup({7: [4]}) != GradedAbelianGroup({7: [2, 2]})
