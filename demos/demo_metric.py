"""Orbit distances and the stable translation length.

The distance to the n-th translate, minimized over the plane action, splits
into independent real and imaginary problems with closed-form minimizers.
Per step it converges to log(rho / sqrt(det)) of the matrix part; for a
determinant-one stretch that is the log of the stretch factor, while plane
orbits sit at distance zero.
"""

import math

import numpy as np

from stabdyn import cover, families
from stabdyn.lattice import IntMatrix
from stabdyn.metric import (
    A_functional,
    B_functional,
    csv_rows,
    dB_over_set,
    quotient_distance,
    stable_translation_length,
)
from stabdyn.stability import (
    AutoequivalenceData,
    CentralCharge,
    SemistableDatum,
    StabilityData,
    act_on_stability,
    verify_triple,
)

sigma = StabilityData(
    Z=CentralCharge(((1.0, 0.0), (0.0, 1.0))),
    semistables=(
        SemistableDatum((1, 0), 0.0),
        SemistableDatum((0, 1), 0.5),
        SemistableDatum((1, 1), 0.25),
    ),
)

# pure scaling moves every mass by e^pi; pure rotation moves every phase
print("distance under pure scaling: %.6f (pi = %.6f)"
      % (dB_over_set(sigma, act_on_stability(sigma, cover.from_complex(1j))), math.pi))
print("distance under half rotation: %.6f"
      % dB_over_set(sigma, act_on_stability(sigma, cover.from_complex(0.5))))

# the stretch triple: displacement per step equals the stretch log
P = IntMatrix(((2, 1), (1, 1)))
g = cover.lift_from(P.to_float(), math.atan2(1.0, 2.0) / math.pi)
triple = verify_triple(AutoequivalenceData(P=P), sigma, g)
rep = stable_translation_length(triple, n_max=64)
print("\nstretch triple:")
print("  closed form: %.8f" % rep.closed_form)
print("  estimate at n=64: %.8f (gap %.4f)" % (rep.estimate, abs(rep.estimate - rep.closed_form)))
print("  infimum over sampled n of d_n/n: %.8f" % rep.fekete_min)
print("  sample stream:")
print(csv_rows(rep.samples[:4]))

# the two functionals at a hand-picked twist
n = 16
alpha = complex(-cover.power(g, n).f0, 0.0)
print("A at the recentering twist: %.4f (< 1)"
      % A_functional(g, n, alpha, phases=sigma.phases()))
print("B, operator norm: %.4f   B, charge-set norm: %.4f"
      % (B_functional(g, n, 0.0),
         B_functional(g, n, 0.0, S=[(z.real, z.imag) for z in sigma.charges()])))

# plane orbits have identically zero quotient distance
gep = verify_triple(
    AutoequivalenceData(P=IntMatrix(((0, -1), (1, 0)))), sigma, cover.from_complex(0.5)
)
s = quotient_distance(gep, 32)
print("\nplane orbit at n=32: distance %.2e at twist %.3f%+.3fi"
      % (s.distance, s.alpha_opt.real, s.alpha_opt.imag))

# random determinant-one families converge to their closed forms
rng = np.random.default_rng(9)
for kind in ("hyperbolic", "elliptic"):
    t = families.compatible_triple(rng, rank=2, kind=kind)
    r = stable_translation_length(t, n_max=128)
    print("%s family: estimate %.5f closed form %.5f" % (kind, r.estimate, r.closed_form))
