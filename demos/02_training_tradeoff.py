"""How many sub-bands should the receiver probe?

The ISM-band scenario: 866 sub-bands, 16 active, 60 dB path loss.
Probing more bands buys frequency diversity but the pilot bill grows
linearly, so the net harvested power peaks at an interior number of
probed bands.  The analytic optimum is cross-checked by simulating the
full two-phase protocol.
"""

from wetopt import SystemParams, optimizer, run_two_phase

p = SystemParams(m=10, n=866, n2=16, ps=0.06, eta=0.8, t=5e-5, beta=1e-6, n0=1e-19)

print(__doc__)
print(f"block length {p.t * 1e3:.2f} ms, {p.m} antennas\n")
print("probed | phase-1 pilot | net power  | net power   |  gap")
print("bands  | per band (pJ) | analytic   | simulated   | (std errs)")

trials = 4000
grid = (16, 40, 100, 200, 400, 866)
curve = optimizer.solve_curve(grid, p)  # every n1 of the grid in one lockstep pass
for i, n1 in enumerate(grid):
    plan, value = curve.plan(i, p), float(curve.value[i])
    rep = run_two_phase(plan, p, trials, seed=20 + i)
    z = (rep.mean_qnet - value) / rep.stderr
    print(
        f"  {n1:4d} |   {plan.e1 * 1e12:9.4f}   | {value / p.t * 1e6:7.3f} uW "
        f"| {rep.mean_qnet / p.t * 1e6:7.3f} uW  | {z:+.2f}"
    )

sol = optimizer.optimize_training(p)
print(
    f"\nGlobal optimum: probe {sol.plan.n1} bands, "
    f"net {sol.qnet_star / p.t * 1e6:.3f} uW "
    f"(no-CSI baseline {p.eta_t_ps * p.beta * p.n2 / p.t * 1e6:.3f} uW)"
)
