import json
import os
import subprocess
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from chang.complexes import (cbot, ceta, cfull, ctop, moore, smash_atom,
                             sphere, suspend, wedge)
from chang.homology import integral_homology
from chang.smash import smash_decompose
from chang.steenrod import (SqModule, _summand_sq, cartan_smash_sq,
                            mod2_cohomology, module_id, poincare_mod2)

from conftest import PARAMS, WIDE_PIECES, classified_pairs, every_piece


def _action(m: SqModule, k: int, label: str) -> set[str]:
    """Image of Sq^k on the named basis element, as a set of target labels."""
    for d in m.degrees():
        labs = m.labels(d)
        if label in labs:
            mask = m.op(k, d)[labs.index(label)]
            tgt = m.labels(d + k)
            return {tgt[j] for j in range(len(tgt)) if mask >> j & 1}
    raise KeyError(label)


def test_elementary_sq_actions():
    m = mod2_cohomology(wedge(moore(2, 1, 3)))
    assert _action(m, 1, "u3") == {"u4"}
    assert _action(mod2_cohomology(wedge(moore(2, 2, 3))), 1, "u3") == set()
    assert mod2_cohomology(wedge(moore(3, 2, 3))).dims() == {}
    for c in (ceta(5), ctop(5, 2), cbot(2, 5)):
        mm = mod2_cohomology(wedge(c))
        assert _action(mm, 2, "u3") == {"u5"}
    f = mod2_cohomology(wedge(cfull(1, 5, 2)))
    assert _action(f, 1, "v3") == {"v4"}
    assert _action(f, 1, "vb4") == set()         # s > 1
    assert _action(f, 2, "v3") == {"v5"}
    f = mod2_cohomology(wedge(cfull(2, 5, 1)))
    assert _action(f, 1, "v3") == set()
    assert _action(f, 1, "vb4") == {"v5"}        # s = 1
    assert _action(f, 1, "v4") == set()
    assert _action(mod2_cohomology(wedge(ctop(5, 1))), 1, "u4") == {"u5"}
    assert _action(mod2_cohomology(wedge(cbot(1, 5))), 1, "u3") == {"u4"}


def test_sq4_vanishes_on_elementary_pieces():
    for c in (sphere(5), moore(2, 1, 3), ceta(5), ctop(5, 1), cbot(3, 5),
              cfull(1, 5, 1)):
        assert not mod2_cohomology(wedge(c)).ops[4]


def pair_label(a: str, b: str) -> str:
    return f"{a}⊗{b}"


def test_bot_bot_action_list():
    # smash of two three-cell complexes with torsion on the bottom
    for r, rp in product(PARAMS, PARAMS):
        m = cartan_smash_sq(mod2_cohomology(wedge(cbot(r, 5))),
                            mod2_cohomology(wedge(cbot(rp, 5))))
        T = pair_label
        assert _action(m, 4, T("u3", "u3")) == {T("u5", "u5")}
        assert _action(m, 2, T("u3", "u5")) == {T("u5", "u5")}
        assert _action(m, 2, T("u5", "u3")) == {T("u5", "u5")}
        expected = {T("u3", "u5"), T("u5", "u3")}
        if r == rp == 1:
            expected.add(T("u4", "u4"))
        assert _action(m, 2, T("u3", "u3")) == expected
        assert _action(m, 2, T("u4", "u4")) == set()
        assert _action(m, 2, T("u3", "u4")) == {T("u5", "u4")}
        assert _action(m, 2, T("u4", "u3")) == {T("u4", "u5")}


def test_bot_full_action_list():
    for u, r, s in product(PARAMS, PARAMS, PARAMS):
        m = cartan_smash_sq(mod2_cohomology(wedge(cbot(u, 5))),
                            mod2_cohomology(wedge(cfull(r, 5, s))))
        T = pair_label
        assert _action(m, 4, T("u3", "v3")) == {T("u5", "v5")}
        assert _action(m, 2, T("u3", "v5")) == {T("u5", "v5")}
        assert _action(m, 2, T("u5", "v3")) == {T("u5", "v5")}
        expected = {T("u3", "v5"), T("u5", "v3")}
        if u == r == 1:
            expected.add(T("u4", "v4"))
        assert _action(m, 2, T("u3", "v3")) == expected
        assert _action(m, 2, T("u3", "v4")) == {T("u5", "v4")}
        assert _action(m, 2, T("u4", "v3")) == {T("u4", "v5")}
        exp_bar = {T("u5", "vb4")}
        if u == s == 1:
            exp_bar.add(T("u4", "v5"))
        assert _action(m, 2, T("u3", "vb4")) == exp_bar


def test_full_full_action_list():
    for r, s, rp, sp in product(PARAMS, PARAMS, PARAMS, PARAMS):
        m = cartan_smash_sq(mod2_cohomology(wedge(cfull(r, 5, s))),
                            mod2_cohomology(wedge(cfull(rp, 5, sp))))
        T = pair_label
        assert _action(m, 4, T("v3", "v3")) == {T("v5", "v5")}
        assert _action(m, 2, T("v3", "v5")) == {T("v5", "v5")}
        assert _action(m, 2, T("v5", "v3")) == {T("v5", "v5")}
        expected = {T("v3", "v5"), T("v5", "v3")}
        if r == rp == 1:
            expected.add(T("v4", "v4"))
        assert _action(m, 2, T("v3", "v3")) == expected
        assert _action(m, 2, T("v3", "v4")) == {T("v5", "v4")}
        assert _action(m, 2, T("v4", "v3")) == {T("v4", "v5")}
        exp = {T("v5", "vb4")}
        if r == sp == 1:
            exp.add(T("v4", "v5"))
        assert _action(m, 2, T("v3", "vb4")) == exp
        exp = {T("vb4", "v5")}
        if rp == s == 1:
            exp.add(T("v5", "v4"))
        assert _action(m, 2, T("vb4", "v3")) == exp


def test_sq4_by_cartan_is_square_of_sq2():
    m = cartan_smash_sq(mod2_cohomology(wedge(cbot(1, 5))),
                        mod2_cohomology(wedge(cbot(1, 5))))
    assert _action(m, 4, pair_label("u3", "u3")) == {pair_label("u5", "u5")}


def test_poincare_dimensions():
    assert poincare_mod2(wedge(cfull(2, 5, 3))) == {3: 1, 4: 2, 5: 1}
    assert poincare_mod2(wedge(sphere(6))) == {6: 1}
    m = cartan_smash_sq(mod2_cohomology(wedge(cfull(1, 5, 2))),
                        mod2_cohomology(wedge(cfull(2, 5, 1))))
    assert m.dims() == {6: 1, 7: 4, 8: 6, 9: 4, 10: 1}


def test_constructed_modules_satisfy_relations():
    # the constructor enforces Sq1Sq1 = 0 and Sq2Sq2 = Sq1Sq2Sq1; build a
    # spread of modules to exercise it
    for r, s in product(PARAMS, PARAMS):
        cartan_smash_sq(mod2_cohomology(wedge(cfull(r, 5, s))),
                        mod2_cohomology(wedge(ctop(5, s))))
        mod2_cohomology(wedge(smash_atom(moore(2, r, 3), ceta(5)),
                              cfull(r, 9, s)))


def test_atom_module_inside_wedge_gets_prefixed_labels():
    w = wedge(smash_atom(moore(2, 1, 3), ceta(5)), moore(2, 1, 7))
    m = mod2_cohomology(w)
    assert m.dim(6) == 1 and m.dim(7) == 2
    # summand index prefixes keep wedge bases disjoint (atoms sort last)
    assert all("." in lab for lab in m.labels(6) + m.labels(7))


# --- reference implementations the library's fast paths must agree with ---

def _cartan_oracle(A: SqModule, B: SqModule) -> SqModule:
    """The Cartan formula component by component: every x_i @ y_j indexed
    through a dict, every output bit looked up separately, and Sq^3 x
    worked out entry by entry as Sq^1 of Sq^2 x."""
    index: dict[tuple[int, int, int, int], int] = {}
    keys: dict[int, list[tuple[int, int, int, int]]] = {}
    basis: dict[int, list[str]] = {}
    for da in A.degrees():
        for db in B.degrees():
            for i, la in enumerate(A.labels(da)):
                for j, lb in enumerate(B.labels(db)):
                    index[da, i, db, j] = len(keys.setdefault(da + db, []))
                    keys[da + db].append((da, i, db, j))
                    basis.setdefault(da + db, []).append(f"{la}⊗{lb}")

    def sq3(m: SqModule, d: int) -> list[int]:
        out = []
        for two in m.op(2, d):
            acc = 0
            for j in range(m.dim(d + 2)):
                if two >> j & 1:
                    acc ^= m.op(1, d + 2)[j]
            out.append(acc)
        return out

    def masks_of(m: SqModule, k: int, d: int) -> list[int]:
        if k == 0:
            return [1 << i for i in range(m.dim(d))]
        return sq3(m, d) if k == 3 else list(m.op(k, d))

    ops: dict[int, dict[int, list[int]]] = {1: {}, 2: {}, 4: {}}
    for d, ks in keys.items():
        for n in (1, 2, 4):
            masks = []
            for da, i, db, j in ks:
                acc = 0
                for p in range(n + 1):
                    ma = masks_of(A, p, da)[i]
                    mb = masks_of(B, n - p, db)[j]
                    for na in range(A.dim(da + p)):
                        for nb in range(B.dim(db + n - p)):
                            if ma >> na & 1 and mb >> nb & 1:
                                acc ^= 1 << index[da + p, na, db + n - p, nb]
                masks.append(acc)
            ops[n][d] = masks
    return SqModule(basis, ops[1], ops[2], ops[4])


def _direct_sum(a: SqModule, b: SqModule) -> SqModule:
    """Pairwise direct sum, b's basis after a's in each degree."""
    basis = {d: a.labels(d) + b.labels(d) for d in set(a.basis) | set(b.basis)}
    ops = {k: {d: list(a.op(k, d)) + [m << a.dim(d + k) for m in b.op(k, d)]
               for d in basis} for k in (1, 2, 4)}
    return SqModule(basis, ops[1], ops[2], ops[4])


def _fold(parts) -> SqModule:
    """Direct sum of the parts by a pairwise fold, with "i." label prefixes."""
    total = SqModule()
    for i, m in enumerate(parts):
        prefixed = SqModule({d: tuple(f"{i}.{x}" for x in v)
                             for d, v in m.basis.items()},
                            m.ops[1], m.ops[2], m.ops[4])
        total = _direct_sum(total, prefixed)
    return total


def _same_module(got: SqModule, want: SqModule) -> bool:
    return (got == want and got.action_lines() == want.action_lines()
            and all(got.labels(d) == want.labels(d) for d in want.degrees()))


def test_cartan_kernel_matches_componentwise_oracle():
    # every ordered pair: the kernel visits the nonzero rows of each side
    # apart, so A @ B and B @ A take different paths through it
    for a, b in product(WIDE_PIECES, repeat=2):
        A, B = mod2_cohomology(a), mod2_cohomology(b)
        assert _same_module(cartan_smash_sq(A, B), _cartan_oracle(A, B)), (a, b)
    atoms = [smash_atom(moore(2, 3, 4), cbot(1, 7)),
             smash_atom(ceta(6), cfull(2, 5, 3)),
             smash_atom(cbot(1, 5), ctop(7, 2)),
             smash_atom(moore(2, 1, 5), ceta(5))]
    for atom, c in product(atoms, (cfull(1, 5, 1), moore(2, 1, 3), atoms[0])):
        assert atom.shift > 0, atom
        A, B = mod2_cohomology(atom), mod2_cohomology(c)
        for X, Y in ((A, B), (B, A)):
            assert _same_module(cartan_smash_sq(X, Y), _cartan_oracle(X, Y))
    # on every piece and atom Sq^1 Sq^2 = Sq^2 Sq^1; on RP^4 they differ
    # (Sq^2 Sq^1 x = x^4, Sq^1 Sq^2 x = 0), so only here does it matter
    # which of the two stands in for Sq^3
    rp4 = SqModule({d: (f"x{d}",) for d in (1, 2, 3, 4)},
                   sq1={1: [1], 3: [1]}, sq2={2: [1]})
    assert rp4.composite(1, 2, 1) is None and rp4.composite(1, 1, 2) == [1]
    for c in WIDE_PIECES[:12] + atoms:
        A = mod2_cohomology(c)
        for X, Y in ((A, rp4), (rp4, A)):
            assert _same_module(cartan_smash_sq(X, Y), _cartan_oracle(X, Y))
    wedges = [(wedge(moore(2, 1, 3), cfull(1, 5, 2)), wedge(ceta(5), cbot(1, 5))),
              (wedge(cfull(2, 5, 1), ctop(5, 1), moore(2, 3, 3)),
               wedge(cfull(1, 5, 1), cbot(2, 5))),
              (wedge(sphere(3), cbot(1, 5), cfull(3, 5, 1)),
               wedge(smash_atom(moore(2, 1, 3), ceta(5)), moore(2, 2, 4)))]
    for x, y in wedges:
        for X, Y in ((x, y), (y, x)):
            A, B = mod2_cohomology(X), mod2_cohomology(Y)
            assert _same_module(cartan_smash_sq(A, B), _cartan_oracle(A, B))


def _shifted(m: SqModule, k: int, label) -> SqModule:
    """m suspended k times, labels renamed by label(old label, new degree)."""
    return SqModule({d + k: tuple(label(x, d + k) for x in v)
                     for d, v in m.basis.items()},
                    *({d + k: v for d, v in m.ops[n].items()} for n in (1, 2, 4)))


def test_suspended_and_wedge_modules_match_a_fold():
    atom = smash_atom(moore(2, 1, 3), ceta(5))
    for k in (1, 3):
        # an atom's labels keep the base degrees of its factors
        want = _shifted(mod2_cohomology(atom), k, lambda x, d: x)
        assert _same_module(mod2_cohomology(suspend(atom, k)), want)
        # an elementary piece's labels carry the suspended degree
        for c in (cbot(2, 5), cfull(1, 5, 3), moore(2, 1, 3)):
            want = _shifted(mod2_cohomology(c), k,
                            lambda x, d: x.rstrip("0123456789") + str(d))
            assert _same_module(mod2_cohomology(suspend(c, k)), want)
    for pieces in ((cfull(1, 9, 2), moore(2, 2, 6)),
                   (suspend(atom, 2), cbot(1, 8), ceta(7)),
                   (moore(3, 1, 4), sphere(5), cfull(2, 5, 1))):
        w = wedge(*pieces)
        parts = [mod2_cohomology(c) for c in w.summands]
        assert _same_module(mod2_cohomology(w), _fold(parts))
        total = integral_homology(w.summands[0])
        for c in w.summands[1:]:
            total = total.direct_sum(integral_homology(c))
        assert integral_homology(w) == total


def test_constructor_rejects_broken_relations():
    with pytest.raises(ValueError, match="Sq\\^1 Sq\\^1"):
        SqModule({3: ("a",), 4: ("b",), 5: ("c",)}, sq1={3: [1], 4: [1]})
    with pytest.raises(ValueError, match="Sq\\^2 Sq\\^2"):
        SqModule({3: ("a",), 5: ("b",), 7: ("c",)}, sq2={3: [1], 5: [1]})
    with pytest.raises(ValueError, match="bad source size"):
        SqModule({3: ("a",), 4: ("b",)}, sq1={3: [1, 0]})
    with pytest.raises(ValueError, match="out of range"):
        SqModule({3: ("a",), 4: ("b",)}, sq1={3: [2]})


def test_module_ids_are_module_equality():
    pairs = (list(combinations_with_replacement(WIDE_PIECES, 2))
             + classified_pairs())
    found = set(WIDE_PIECES)
    for a, b in pairs:
        found.update((a, b))
        found.update(smash_decompose(wedge(a), wedge(b)).output.summands)
    summands = set()
    for c in found:
        for k in (0, 1, 2):
            summands.update(suspend(c, k).summands)
    summands = sorted(summands, key=lambda c: c.sort_key)
    assert sum(hasattr(c, "shift") for c in summands) > 50     # atoms
    by_id: dict[int, list] = {}
    for c in summands:
        by_id.setdefault(module_id(c), []).append(c)
    for first, *rest in by_id.values():
        for c in rest:
            assert _summand_sq(c) == _summand_sq(first), (str(c), str(first))
    firsts = [members[0] for members in by_id.values()]
    for i, c in enumerate(firsts):
        for d in firsts[i + 1:]:
            assert _summand_sq(c) != _summand_sq(d), (str(c), str(d))
    # exponents >= 2 look alike mod 2; exponent 1 is a Sq^1
    assert module_id(cfull(2, 5, 3)) == module_id(cfull(3, 5, 2))
    assert module_id(cfull(1, 5, 2)) != module_id(cfull(2, 5, 2))
    # every module that is zero shares one id
    assert module_id(moore(3, 1, 3)) == module_id(moore(5, 2, 4))


# One grid pass in a fresh process, with every Cartan product counted under
# each name the package binds it to: the pair-tensor memo is process-wide,
# so only a fresh process shows how many tensors a pass builds.  A second
# pass must build none.
_GRID_BUILDS = """
import json, sys
from chang import steenrod
from chang.complexes import SmashAtom
from chang.smash import smash_decompose
from conftest import classified_pairs

calls = []
build = steenrod.cartan_smash_sq
for name, mod in list(sys.modules.items()):
    if name.split(".")[0] == "chang" and hasattr(mod, "cartan_smash_sq"):
        mod.cartan_smash_sq = lambda A, B: calls.append(1) or build(A, B)
smashed, atoms = set(), []
for a, b in classified_pairs():
    x, y = (a, b) if a.sort_key <= b.sort_key else (b, a)
    smashed.add((steenrod.module_id(x), steenrod.module_id(y)))
    for c in smash_decompose(a, b).output.summands:
        if isinstance(c, SmashAtom):
            smashed.add((steenrod.module_id(c.left), steenrod.module_id(c.right)))
            atoms.append(c)
first = len(calls)
for a, b in classified_pairs():
    smash_decompose(b, a)
unshifted = [c for c in atoms if not c.shift]
print(json.dumps({
    "calls": first, "again": len(calls) - first, "smashed": len(smashed),
    "unshifted": len(unshifted),
    "shared": all(steenrod.mod2_cohomology(c)
                  is steenrod.pair_tensor(c.left, c.right) for c in unshifted),
}))
"""


def test_grid_pass_builds_each_tensor_once():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    out = subprocess.run([sys.executable, "-c", _GRID_BUILDS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["calls"] == got["smashed"] > 0, got
    assert got["again"] == 0, got
    assert got["unshifted"] and got["shared"], got


# The 861 pairs of the 41 wide pieces, twice, in a fresh process: each piece
# value is validated once (the constructors intern it), and each ordered
# pair of module ids gets one Cartan product.  Counts, not timings, so the
# gain of interning and of the pair-tensor memo cannot slip unseen.
_WIDE_BUILDS = """
import json, sys
from collections import Counter
from chang import steenrod
from chang.complexes import ElementaryComplex, SmashAtom
from chang.smash import smash_decompose
from conftest import WIDE_PIECES

checks = Counter()
check = ElementaryComplex.__post_init__
def counted_check(c):
    checks[c.kind, c.dim, c.p, c.r, c.s] += 1
    check(c)
ElementaryComplex.__post_init__ = counted_check
calls = []
build = steenrod.cartan_smash_sq
for name, mod in list(sys.modules.items()):
    if name.split(".")[0] == "chang" and hasattr(mod, "cartan_smash_sq"):
        mod.cartan_smash_sq = lambda A, B: calls.append(1) or build(A, B)
pairs = [(a, b) for i, a in enumerate(WIDE_PIECES) for b in WIDE_PIECES[i:]]
smashed = set()
for a, b in pairs:
    x, y = (a, b) if a.sort_key <= b.sort_key else (b, a)
    smashed.add((steenrod.module_id(x), steenrod.module_id(y)))
    for c in smash_decompose(a, b).output.summands:
        if isinstance(c, SmashAtom):
            smashed.add((steenrod.module_id(c.left), steenrod.module_id(c.right)))
first, validated = len(calls), sum(checks.values())
for a, b in pairs:
    smash_decompose(b, a)
print(json.dumps({
    "pairs": len(pairs), "calls": first, "again": len(calls) - first,
    "smashed": len(smashed), "validated": validated,
    "values": len(checks), "most": max(checks.values()),
    "revalidated": sum(checks.values()) - validated,
}))
"""


def test_wide_pairs_validate_each_piece_and_build_each_tensor_once():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    out = subprocess.run([sys.executable, "-c", _WIDE_BUILDS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["pairs"] == 861, got
    assert got["validated"] == got["values"] > 0 and got["most"] == 1, got
    assert got["revalidated"] == 0, got
    assert got["calls"] == got["smashed"] > 0, got
    assert got["again"] == 0, got


def test_lone_summand_module_is_not_rewedged(monkeypatch):
    from chang import steenrod
    from chang.complexes import ElementaryComplex, SmashAtom
    # a suspended M(2,3)^M(2,3) atom still reads as its four-cell complex
    square = SmashAtom(moore(2, 1, 3), moore(2, 1, 3), 1)
    assert steenrod.mod2_cohomology(square) is \
        steenrod.mod2_cohomology(cfull(1, 9, 1))
    # so does one whose factors are built directly, not interned
    direct = SmashAtom(ElementaryComplex("moore", 3, 2, 1),
                       ElementaryComplex("moore", 3, 2, 1))
    assert steenrod.mod2_cohomology(direct) is \
        steenrod.mod2_cohomology(cfull(1, 8, 1))
    monkeypatch.setattr(steenrod, "wedge", None)
    atoms = [smash_atom(cbot(1, 5), cbot(2, 5)),
             SmashAtom(moore(2, 2, 3), ceta(5), 3)]
    for c in WIDE_PIECES + atoms:
        assert steenrod.mod2_cohomology(c) is steenrod._summand_sq(c)


def test_class_modules_are_each_pieces_own_module():
    # one module per mod-2 class, shared by its pieces: each piece's module
    # is the one _elementary_sq builds for it, labels and masks included,
    # and ids stay module equality
    from chang import steenrod
    ids: dict = {}
    for c in every_piece():
        direct = steenrod._elementary_sq(c)
        assert steenrod._summand_sq(c) == direct, str(c)
        content = (tuple(sorted(direct.basis.items())),
                   tuple(tuple(sorted(direct.ops[k].items()))
                         for k in (1, 2, 4)))
        assert ids.setdefault(content, module_id(c)) == module_id(c), str(c)
    assert len(set(ids.values())) == len(ids)


# Every piece of every_piece, and the outputs of the 861 wide pairs, in a
# fresh process: _elementary_sq runs once per mod-2 class (kind, dimension,
# each attaching degree as odd, 2 mod 4 or 0 mod 4), not once per piece.
_CLASS_BUILDS = """
import json
from collections import Counter
from chang import steenrod
from chang.smash import smash_decompose
from conftest import WIDE_PIECES, every_piece

built = Counter()
build = steenrod._elementary_sq
def counted(c):
    degrees = c.boundary().values()
    built[c.kind, c.dim, tuple(1 if q % 2 else q % 4 for q in degrees)] += 1
    return build(c)
steenrod._elementary_sq = counted
pieces = set(every_piece())
for c in pieces:
    steenrod.module_id(c)
    steenrod.mod2_cohomology(c)
for i, a in enumerate(WIDE_PIECES):
    for b in WIDE_PIECES[i:]:
        for c in smash_decompose(a, b).output.summands:
            pieces.add(c)
            steenrod.module_id(c)
print(json.dumps({"pieces": len(pieces), "builds": sum(built.values()),
                  "classes": len(built), "most": max(built.values())}))
"""


def test_elementary_modules_are_built_once_per_mod2_class():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    out = subprocess.run([sys.executable, "-c", _CLASS_BUILDS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["most"] == 1 and got["builds"] == got["classes"], got
    assert got["classes"] * 4 < got["pieces"], got
