"""Local asymptotic power of the test, three ways.

With q groups the limiting scores are independent normals Z_g + xi_g * delta.
When the rejection budget K = floor(alpha * 2^(q-1)) equals 1, the power has
the closed form pi_L + pi_R, a pair of one-sided-power products that cross at
delta = 0 with common value 2^-q.  Monte Carlo covers every case.  For q <= 4
``power_exact`` gives the same Monte Carlo count under its 'exact_enum' label:
the ordering enumeration it once ran summed to exactly that count on the same
draws.  Below it runs on other draws than ``power_mc`` (seed 1 against 2), so
the two lines differ by sampling error.
"""

import numpy as np

from crscombine import LimitParams, power_exact, power_k1, power_mc

# Five equally sized groups with unit score scale (ratio xi/sigma = 1)
lp = LimitParams(xi=np.full(5, 1 / np.sqrt(5)), sigma=np.full(5, 1 / np.sqrt(5)))

print("one-sided components over delta (q = 5, K = 1):")
print(f"{'delta':>6} {'pi_L':>10} {'pi_R':>10} {'power':>10}")
for delta in np.linspace(-2, 2, 9):
    est = power_k1(lp, delta)
    left, right = est.components
    print(f"{delta:6.1f} {left:10.5f} {right:10.5f} {est.value:10.5f}")
print("pi_L falls, pi_R rises; both equal 1/32 at delta = 0.\n")

# Two independent Monte Carlo estimates at q = 4 with budget K = 2 (alpha = 0.25)
lp4 = LimitParams(xi=np.full(4, 0.5), sigma=np.array([1.0, 2.0, 0.5, 1.5]))
exact = power_exact(lp4, 1.0, alpha=0.25, term_reps=200_000, seed=1)
mc = power_mc(lp4, 1.0, alpha=0.25, reps=200_000, seed=2)
print("q = 4, alpha = 0.25 (budget 2), delta = 1:")
print(f"  exact enumeration: {exact.value:.4f} (se {exact.mc_se:.4f})")
print(f"  direct simulation: {mc.value:.4f} (se {mc.mc_se:.4f})")

# The closed form applies whenever the budget is 1
k1 = power_k1(lp4, 1.0, alpha=0.14)
mc1 = power_mc(lp4, 1.0, alpha=0.14, reps=200_000, seed=3)
print("same scales at alpha = 0.14 (budget 1):")
print(f"  closed form:       {k1.value:.4f}")
print(f"  direct simulation: {mc1.value:.4f} (se {mc1.mc_se:.4f})")
