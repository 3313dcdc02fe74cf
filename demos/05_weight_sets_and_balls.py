"""
Hamming balls and independent weight sets in Z_p^n
==================================================

The ball S collects vectors close (in Hamming distance) to the all-ones
vector; the two-sided weight set I collects vectors whose coordinate
weights stay below n/2 - r in both orientations.  Differences of I-members
are then too light to reach the ball: I is independent in Cay(Z_p^n, S).
"""

from chroma.exact import Surd
from chroma.kneser import HammingBallSet, independent_set, ones_weight

# -- the coordinate weight behind both sets ---------------------------------

p = 5
for x in (1, 2, 4):
    print(f"weight of coordinate value {x} (p={p}):", ones_weight(p, [x]))

# -- ball sizes grow with the radius ----------------------------------------

print("\nball around the all-ones vector, p=3, n=2:")
for r_sq in (1, 2, 4):
    ball = HammingBallSet(3, 2, Surd.sqrt(1, r_sq))
    print(f"  radius sqrt({r_sq}): {ball.to_element_set().count} members")

# -- the default radius is honest about degeneracy --------------------------

res = independent_set(3, 8)
print("\np=3, n=8, default radius p*sqrt(n):",
      "degenerate (threshold %s below zero)" % res.threshold
      if res.degenerate else res.count)

# relaxing to radius sqrt(n) gives a nonempty exact set at desk scale
res = independent_set(3, 8, Surd.sqrt(1, 8))
print("relaxed radius sqrt(8): %d members" % res.count)
print("one member:", res.members_coords()[-1].tolist())

# -- at p = 2 the weight is the Hamming weight and x = -x ------------------

res = independent_set(2, 9)                   # default radius sqrt(n) at p = 2
print("\nZ_2^9, radius sqrt(9): %d members (vectors of weight <= %s)"
      % (res.count, res.threshold))

# -- beyond the enumeration cap the count is still exact --------------------

res = independent_set(3, 14, Surd.sqrt(1, 14))
print("\np=3, n=14 is beyond member enumeration: %d members exactly, density %.6f"
      % (res.count, res.density))
res = independent_set(3, 400, Surd.sqrt(1, 400))
print("p=3, n=400, radius sqrt(400): density %.6e" % res.density)
