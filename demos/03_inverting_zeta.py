"""Recovering a path from its zeta image.

Shows the pair inverse (which needs both images), then value iteration,
which zeta_inverse runs and which is proven to end, and the paper's
constructions, which stay callable as cross-checks: the square case, the
bounce-pinned chain for b = a*k + 1, and the memoized delta recursion.
Run:  python demos/03_inverting_zeta.py
"""

import rational_dyck as rd
from rational_dyck.bounce import fuss_delta_trace, search_delta_traces

P = rd.make_path(5, 8, "NNNENEEENEEEE")
Q, R = rd.zeta(P), rd.eta(P)

print("P:", P)
print("Q = zeta(P):", Q, "   R = eta(P):", R)
print()

print("pairing the steps of Q with the steps of R rotated half a turn:")
print("  gamma:", rd.pair_gamma(Q, R).cycle_from(1))
print("  iota(Q, R) =", rd.iota(Q, R), "== P:", rd.iota(Q, R) == P)
print()

print("inverting one image:")
result = rd.zeta_inverse_detailed(Q)
print(f"  zeta_inverse answered by {result.strategy!r}: {result.path}")
[(_, deltas)], _ = search_delta_traces(Q)
print("  delta trace of the predecessor chain:", deltas)
print()

square = rd.lowest_path(4, 5)
qs = rd.zeta(square)
print("square case: chi is path reversal, so one image suffices")
print("  zeta^-1 of", qs, "-> iota(Q, reverse(Q)) =", rd.iota(qs, rd.reverse(qs)))
print()

fuss = rd.make_path(3, 7, "NNENEEEEEE")
qf = rd.zeta(fuss)
bounce = rd.initial_bounce(qf)
print("width-7 = 3*2+1 grid: the bounce inside the image pins delta exactly")
print(f"  bounce of {qf}: v={list(bounce.v)} h={list(bounce.h)}"
      f"  so delta = {bounce.v_total + bounce.h_total + 1}")
print("  chain inverse:", rd.zeta_inverse_fuss(qf), "== original:",
      rd.zeta_inverse_fuss(qf) == fuss, " deltas:", list(fuss_delta_trace(qf)))
print()

print("general case: memoized recursion over the delta window")
for p in rd.enumerate_paths(5, 8)[:5]:
    [(path, deltas)], _ = search_delta_traces(rd.zeta(p))
    print(f"  {rd.zeta(p)} -> {path}  deltas={list(deltas)}")

print()
print("the conjugate-area involution chi = eta after inverting zeta:")
print("  chi(Q) =", rd.chi(Q), " chi(chi(Q)) == Q:", rd.chi(rd.chi(Q)) == Q)
