"""The two-phase design against four benchmark schemes.

Free perfect channel knowledge is the unbeatable ceiling; blind isotropic
transmission the floor.  Probing alone (band selection, no beamforming)
and refinement alone (beamforming on unranked bands) each capture one of
the two gains; training every band ("brute force") captures both but
pays the largest pilot bill.  The optimized two-phase design beats every
practical alternative.
"""

from wetopt import (
    BruteForce,
    NoCsi,
    PerfectCsi,
    Phase1Only,
    Phase2Only,
    SystemParams,
    optimizer,
    run_benchmark,
    run_two_phase,
)

p = SystemParams(m=20, n=866, n2=16, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
trials, seed = 3000, 7

print(__doc__)
print(f"{p.m} antennas, block {p.t * 1e3:.1f} ms, {trials} trials\n")

sol = optimizer.optimize_training(p)
rows = [("perfect CSI (ceiling)", run_benchmark(PerfectCsi(), p, trials, seed))]
rows.append(("two-phase (optimized)", run_two_phase(sol.plan, p, trials, seed)))

bf_energy, _ = optimizer.solve_brute_force(p)
rows.append(
    ("brute force (all bands)", run_benchmark(BruteForce(bf_energy), p, trials, seed))
)
p2, _ = optimizer.solve_phase2_only(p)
rows.append(("refinement only", run_benchmark(Phase2Only(p2.e2), p, trials, seed)))
p1, _ = optimizer.solve_phase1_only(p)
rows.append(
    ("probing only", run_benchmark(Phase1Only(p1.n1, p1.e1), p, trials, seed))
)
rows.append(("no CSI (floor)", run_benchmark(NoCsi(), p, trials, seed)))

print("scheme                   | net power (uW) | pilot cost (pJ)")
for name, rep in rows:
    print(
        f"{name:24s} | {rep.mean_qnet / p.t * 1e6:9.3f}      "
        f"| {rep.training_cost * 1e12:9.3f}"
    )
