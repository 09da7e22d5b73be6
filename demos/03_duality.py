"""Spanier-Whitehead duality on the classified universe.

dual(X, sdim=m) applies the m-duality; with no argument the smallest
window consistent with every summand is inferred.  At a fixed window m the
functor is an involution, dual(dual(X, m), m) == X; it swaps the
three-cell families, reverses the four-cell exponents, and is equivariant
for smash decomposition.  With the window inferred, each call infers its
own window, so it is not an involution in general: dual(dual(S(5))) is
S(3).  The mixed wedge below happens to come back to itself.
"""

from chang import (cbot, ceta, cfull, ctop, dual, integral_homology, moore,
                   smash_atom, smash_decompose, sphere, wedge)

# The pairing of families inside one window.
for c in (sphere(5), sphere(6), moore(2, 3, 5), ceta(7), cbot(2, 7),
          ctop(7, 3), cfull(2, 7, 3)):
    print(f"D({c}) = {dual(wedge(c), 12)}")

# Involution, and window inference on a mixed wedge.
w = wedge(moore(2, 1, 5), cbot(2, 7), sphere(6))
print(f"\nD(D({w})) = {dual(dual(w))} (window inferred)")

# Atoms dualize factor by factor in the doubled window.
atom = smash_atom(ceta(5), cfull(2, 5, 3))
print(f"D({atom}) = {dual(wedge(atom), 16)}")

# Equivariance: dualizing the factors and decomposing agrees with
# decomposing first and dualizing the answer.
x, y = moore(2, 2, 3), cfull(1, 5, 3)
lhs = dual(smash_decompose(wedge(x), wedge(y)).output, 16)
rhs = smash_decompose(dual(wedge(x), 8), dual(wedge(y), 8)).output
print(f"\nD({x} ^ {y}) = {lhs}")
print(f"D{x} ^ D{y}  = {rhs}")
assert lhs == rhs

# Homology reflects through the window: free parts at m-d, torsion at m-1-d.
h = integral_homology(wedge(cbot(2, 7)))
hd = integral_homology(dual(wedge(cbot(2, 7)), 12))
print(f"\nH(Cbot(2,7)) = {h}")
print(f"H(DCbot(2,7)) = {hd}")
