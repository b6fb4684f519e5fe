"""How many sites buy a Bell violation as the local dimension grows?

Maximally entangled states stop violating the moment Bell inequality at
d = 4.  Optimised correlated amplitudes rescue it for every dimension --
at a price paid in sites.  This scan reproduces the anchor points: three
sites suffice for qubits and qutrits, while d = 5 first violates at N = 9.

The second table fixes N = 10 and walks up in dimension: all three
nonlocality strengths fade as d grows, and they fade in hierarchy order
(B_BELL <= B_EPR <= B_ENT at every point).
"""

from spinmoments import SpinQuantum, min_sites_for_violation, optimize_amplitudes
from spinmoments.kinds import Bell, EntanglementCJ, Steering

print("Minimum sites for a Bell violation (optimised amplitudes, n_max = 30)")
print(f"{'d':>3} {'min N':>6} {'B at min N':>12}")
for d in range(2, 7):
    res = min_sites_for_violation(SpinQuantum(d - 1), Bell(), 30)
    shown = res.min_n if res.min_n is not None else f">{res.n_max_searched}"
    print(f"{d:>3} {shown:>6} {res.b_at_min_n:>12.6f}")

print()
print("Fixed N = 10, optimised per point: violation strength vs dimension")
print(f"{'d':>3} {'B_BELL':>10} {'B_EPR':>10} {'B_ENT':>10}")
for d in range(2, 10):
    j = SpinQuantum(d - 1)
    row = [
        optimize_amplitudes(j, 10, kind).best_b
        for kind in (Bell(), Steering(1), EntanglementCJ())
    ]
    print(f"{d:>3} {row[0]:>10.4g} {row[1]:>10.4g} {row[2]:>10.4g}")

print()
print("Entanglement stays detectable for every d; the Bell test gives out")
print("first and needs ever more sites as the dimension climbs.")
