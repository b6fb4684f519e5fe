"""Spin-1 (qutrit) sites: maximally entangled vs optimised amplitudes.

Two correlated families sit behind every spin-1 number here:

* the bosonic family, amplitudes ((J-m)!(J+m)!)^((N-2)/2) -- at two sites
  this is the maximally entangled qutrit pair, and it keeps B_BELL below
  2/sqrt(3) ~ 1.1547 however many sites join;
* the one-parameter family (1, r, 1), whose Bell ratio

      B_BELL = 2^((N+2)/2) r / sqrt((r^2 + 2)(2^N r^2 + 2))

  can be tuned per N.  The optimum drifts to r ~ 2^((2-N)/4) and pushes
  B_BELL toward sqrt(2) -- a stronger violation than any maximally
  entangled qutrit state delivers.

Two sites never violate the Bell bound for spin 1 (B = 2 sqrt(2)/3 < 1);
three are enough, with or without optimisation, and entanglement and
steering are certified from N = 2 via the uncertainty-bound criteria.
"""

import math

from spinmoments import (
    Bosonic,
    SpinQuantum,
    b_bell,
    b_ent_cj,
    b_steer_t,
    make_state,
    optimize_amplitudes,
)
from spinmoments.kinds import Bell

one = SpinQuantum(2)

print("Bosonic (maximally entangled at N=2) vs optimised (1, r, 1)")
print(f"{'N':>3} {'B_BELL bosonic':>15} {'B_BELL optimal':>15} {'r_mid/r_out':>12}"
      f" {'B_EPR':>9} {'B_ENT':>9}")
for n in (2, 3, 4, 6, 8, 12, 20, 30):
    boson = make_state(Bosonic(), one, n)
    report = optimize_amplitudes(one, n, Bell())
    r_mid = report.best_r[1] / report.best_r[0]
    print(
        f"{n:>3} {b_bell(boson):>15.6f} {report.best_b:>15.6f} {r_mid:>12.5f}"
        f" {b_steer_t(boson, 1):>9.5f} {b_ent_cj(boson):>9.4g}"
    )

print()
print(f"bosonic large-N Bell limit:  2/sqrt(3) = {2 / math.sqrt(3):.6f}")
print(f"optimised large-N Bell limit:  sqrt(2) = {math.sqrt(2):.6f}")
print(f"optimal r at N=3 is 2^(-1/4) = {2 ** -0.25:.5f}")
