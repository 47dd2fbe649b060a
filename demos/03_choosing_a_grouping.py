"""Pick the pairing of control and treated clusters that maximizes power.

On a heterogeneous DID draw the achievable power varies a lot across the 720
ways of pairing 6 control with 6 treated clusters.  The interval-partitioned
assignment programs find the best pairing from q-bar^2 pair statistics; the
log-linear shortcut solves a single assignment problem but can misrank.
"""

import warnings

import numpy as np

from crscombine import (
    DgpSpec,
    combine_exhaustive_psi,
    combine_k1,
    combine_loglinear,
    dgp_hypothesis,
    gen_dgp,
    psi_matrix,
)
from crscombine.combine import _k1_power_of_perm, _perm_of_grouping

# One draw from the most heterogeneous design: clusters 1-3, 6-9, 12 have
# inflated scales, so matching loud treated clusters with loud controls pays.
spec = DgpSpec(variant="dgp2", h=4)
panel = gen_dgp(spec, seed=7)
delta = -2.0 * np.sqrt(panel.n)
h = dgp_hypothesis(alpha=0.05, delta=delta)

psi = psi_matrix(panel, h, model="ar1")
print("estimated Psi matrix (rows = controls 7-12, cols = treated 1-6):")
print(np.round(psi.values, 3))

grouping, estimate, diag = combine_k1(psi, delta, A=200)
feasible = sum(rec["feasible"] for rec in diag)
print(f"\ninterval search: {feasible}/{len(diag)} subprograms feasible")
print(f"chosen pairing:  {grouping.to_literal()}  power {estimate.value:.4f}")

oracle_grouping, oracle = combine_exhaustive_psi(psi, delta, alpha=0.05, method="k1")
print(f"exhaustive oracle: {oracle_grouping.to_literal()}  power {oracle.value:.4f}")

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # the baseline warns about its own quality
    baseline, _ = combine_loglinear(psi)
ll_power, _, _ = _k1_power_of_perm(psi, _perm_of_grouping(psi, baseline))
print(f"log-linear baseline: {baseline.to_literal()}  power {ll_power:.4f}")

rng = np.random.default_rng(0)
rand_powers = []
for _ in range(50):
    cols = rng.permutation(6)
    value, _, _ = _k1_power_of_perm(psi, cols)
    rand_powers.append(value)
print(f"random pairings: mean power {np.mean(rand_powers):.4f}, "
      f"range [{min(rand_powers):.4f}, {max(rand_powers):.4f}]")
