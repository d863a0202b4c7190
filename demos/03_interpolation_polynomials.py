"""Interpolation polynomials: vanishing conditions, duality, shifted restriction.

Run:  python demos/03_interpolation_polynomials.py

The interpolation polynomial of a shape is pinned by where it vanishes:
at every evaluation point q^mu of weight up to its degree except its own,
where it takes the hook-product value.  It then vanishes at all points
whose shape does not contain it (extra vanishing), satisfies an evaluation
duality, and restricts to the two-alphabet world through shifted Newton
sums.
"""

from macrui import (duality_check, evaluate_at_partition, fat_hook_point,
                    hook_product, interpolation_by_branching,
                    interpolation_polynomial, partitions_of, partitions_up_to,
                    shifted_super_macdonald, shifted_super_tableau_sum)

print("=" * 72)
print("1. The vanishing characterization, solved exactly.")
print("=" * 72)
lam = (2,)
P = interpolation_polynomial(lam, 3)
print(f"\nshape {lam}, three variables:\n    {P}\n")
for mu in partitions_up_to(3):
    val = evaluate_at_partition(P, mu)
    mark = "<- hook product" if mu == lam else ""
    print(f"    value at q^{str(mu):10s} = {val} {mark}")
print("\n    extra vanishing holds beyond the defining set: the nonzero")
print("    values above are exactly the points whose shape contains", lam)

print()
print("=" * 72)
print("2. Two constructions, one polynomial: the vanishing solve and the")
print("   tableau sum by the branching recursion.")
print("=" * 72)
for d in range(4):
    for shape in partitions_of(d, max_length=3):
        same = interpolation_by_branching(shape, 3) == interpolation_polynomial(shape, 3)
        print(f"    {str(shape):12s} vanishing = branching: {same}")

print()
print("=" * 72)
print("3. Evaluation duality: the value at q^mu equals a hook ratio times")
print("   the conjugate polynomial's value at t-powers of the conjugate.")
print("=" * 72)
for lam in [(2,), (2, 1), (1, 1, 1)]:
    for mu in [(1,), (2, 1), (3,)]:
        print(f"    lam={str(lam):10s} mu={str(mu):8s} duality: {duality_check(lam, mu)}")

print()
print("=" * 72)
print("4. Shifted restriction to two alphabets: values at fat-hook points")
print("   reproduce the vanishing pattern, including the hook normalization.")
print("=" * 72)
n = m = 1
for lam in [(1,), (2,), (1, 1)]:
    S = shifted_super_macdonald(lam, n, m)
    own = S.evaluate(fat_hook_point(lam, n, m)) == hook_product(lam)
    comb = shifted_super_tableau_sum(lam, n, m) == S
    print(f"    lam={str(lam):8s} value at own point = hook: {own}   "
          f"bitableau formula: {comb}")
lam, off = (2,), (1, 1)
S = shifted_super_macdonald(lam, n, m)
print(f"    lam={lam} vanishes at the point of {off}: "
      f"{S.evaluate(fat_hook_point(off, n, m)).is_zero()}")
print(f"    off-hook shape (2,2) restricts to zero: "
      f"{shifted_super_macdonald((2, 2), n, m).is_zero()}")
