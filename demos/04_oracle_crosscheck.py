"""The brute-force oracle vs the closed forms, plus two consistency properties.

Every closed-form ratio in this package is a one-line power sum over the
magnetic quantum number m.  The oracle knows none of that: it takes the
state's nonzero amplitudes in the d^N product basis and sums every product
of site operators, each a band of its spin matrix, over them.  Where both
run, they must agree -- this is the package's principal self-check, and
`spinmoments verify` sweeps it over every built-in family, criterion and
feasible (J, N).

Also shown:

* unit-convention invariance: rescaling all spin matrices by 2 (the Pauli
  convention for spin 1/2) multiplies L and R by 2^(2N) and leaves B
  untouched;
* the exhaustive sign search: scanning all 2^N ladder-sign patterns and
  2^T bound-sign patterns confirms the canonical all-minus/one-plus choice
  is already optimal for these symmetric states.
"""

import math

from spinmoments import Bosonic, GeneralizedGHZ, SpinQuantum, UniformMax, make_state
from spinmoments import analytic, evaluate, lhs_moment, rhs_moment
from spinmoments.criteria import Backend
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, Steering
from spinmoments.oracle import b_from_moments

CASES = [
    ("uniform  J=1   N=4", make_state(UniformMax(), SpinQuantum(2), 4)),
    ("bosonic  J=3/2 N=5", make_state(Bosonic(), SpinQuantum(3), 5)),
    ("bosonic  J=5/2 N=4", make_state(Bosonic(), SpinQuantum(5), 4)),
    ("ghz 0.62 J=1/2 N=8", make_state(GeneralizedGHZ(0.62), SpinQuantum(1), 8)),
]
KINDS = [("bell", Bell()), ("epr1", Steering(1)), ("ent-cj", EntanglementCJ())]

print("closed form vs support sum")
print(f"{'state':<20} {'kind':<7} {'B closed':>14} {'B oracle':>14} {'rel diff':>10}")
for label, state in CASES:
    n = state.n_sites
    for kind_label, kind in KINDS:
        closed = analytic.b_ratio(state, kind)
        dense = b_from_moments(lhs_moment(state, (-1,) * n), rhs_moment(state, kind))
        rel = abs(closed - dense) / dense
        print(f"{label:<20} {kind_label:<7} {closed:>14.10f} {dense:>14.10f} {rel:>10.1e}")

print()
print("Pauli-unit rescaling (scale = 2) on the spin-1/2 GHZ Bell test")
ghz = make_state(GeneralizedGHZ(math.pi / 4), SpinQuantum(1), 4)
for scale in (1.0, 2.0):
    lhs = lhs_moment(ghz, (-1,) * 4, scale=scale)
    rhs = rhs_moment(ghz, Bell(), scale=scale)
    print(f"  scale {scale:.0f}:  L = {lhs:<10.6g} R = {rhs:<10.6g} B = {b_from_moments(lhs, rhs):.12f}")

print()
print("exhaustive sign search vs the canonical pattern")
state = make_state(Bosonic(), SpinQuantum(2), 4)
for kind_label, kind in [("bell", Bell()), ("ent-hz", EntanglementHZ())]:
    canonical = evaluate(state, kind, backend=Backend.ORACLE)
    exhaustive = evaluate(state, kind, "exhaustive")
    print(
        f"  {kind_label:<7} canonical B = {canonical.b:.10f}   "
        f"exhaustive B = {exhaustive.b:.10f}   "
        f"signs s={exhaustive.signs.s_token()} l={exhaustive.signs.l_token() or '-'}"
    )
