"""Asymptotic regimes: many antennas, or many sub-bands.

With a growing array the net energy scales linearly in the antenna count
and probing loses its purpose (every band hardens to the same power).
With growing bandwidth the story inverts: the ideal harvest grows like
log(bands), but probing cost grows linearly, so the net energy saturates
at a ceiling set by the effective SNR; the ceiling has a closed form
through the Lambert W function.  Each many-antenna row also carries a
seeded Monte Carlo of the optimized protocol, with its standard error.
"""

from dataclasses import replace

from wetopt import SystemParams, asymptotics, optimizer, run_two_phase

print(__doc__)

trials = 20_000
print("Many antennas (16 bands, 4 active, 10 ms blocks):")
sim_head = f"simulated, {trials} trials"
print(f"      m | net energy / (scale * m) | {sim_head:>25} | probing share of pilots")
base = SystemParams(m=4, n=16, n2=4, ps=0.06, eta=0.8, t=1e-2, beta=1e-6, n0=1e-19)
for m in (10, 100, 1000, 10000):
    p = replace(base, m=m)
    sol = optimizer.optimize_training(p)
    limit = asymptotics.large_antenna_limit(p)
    rep = run_two_phase(sol.plan, p, trials, seed=50 + m)
    sim = rep.mean_qnet / limit.qnet_limit
    sim_se = rep.stderr / limit.qnet_limit
    share = sol.plan.e1 * sol.plan.n1 / sol.plan.cost
    print(
        f"  {m:5d} | {sol.qnet_star / limit.qnet_limit:24.4f} "
        f"| {sim:13.4f} +/- {sim_se:.1e} | {share:.3f}"
    )

print("\nMany sub-bands (single antenna, one active band, 50 ms blocks):")
print("     n | net power (nW) | ideal (nW) | ceiling (nW)")
siso = SystemParams(m=1, n=20, n2=1, ps=0.06, eta=0.8, t=0.05, beta=1e-6, n0=1e-19)
for n in (20, 100, 500, 2000):
    p = replace(siso, n=n)
    sol = optimizer.optimize_training(p)
    ideal = asymptotics.perfect_csi_average(p)
    bound = asymptotics.saturation_bound(p)
    print(
        f"  {n:4d} | {sol.qnet_star / p.t * 1e9:12.3f} "
        f"| {ideal / p.t * 1e9:8.3f}  | {bound.bound / p.t * 1e9:10.3f}"
    )
print(
    "\nThe ideal column keeps climbing (log growth); the net column stalls"
    "\nagainst the ceiling: past a point, wider spectrum buys nothing."
    "\n(With a single antenna the ceiling is exact, hence the equal columns;"
    "\nfor m > 1 it is a strict upper bound.)"
)
