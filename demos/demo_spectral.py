"""Exact spectral data of integer matrices, cross-checked by norm growth.

The library keeps the characteristic and minimal polynomials exact (Krylov
chains e_j, A e_j, A^2 e_j, ... through one fraction-free elimination over
Python integers) and only goes numerical at the final root extraction, so
repeated eigenvalues keep their exact multiplicities.  The norm-growth
estimator is an independent oracle for the same quantities: it never looks at
eigenvalues, only at log ||A^n|| along a schedule.
"""

import numpy as np

from stabdyn.lattice import (
    IntMatrix,
    char_poly,
    growth_rate_estimate,
    min_poly,
    poly_growth_rate,
    spectral_data,
    spectral_radius,
)

examples = {
    "identity": [[1, 0], [0, 1]],
    "shear by 3": [[1, 3], [0, 1]],
    "stretch": [[2, 1], [1, 1]],
    "two shear blocks": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 5], [0, 0, 0, 1]],
}

for name, rows in examples.items():
    A = IntMatrix(tuple(map(tuple, rows)))
    print("=== %s: %s" % (name, rows))
    print("  char poly (descending):", char_poly(A))
    print("  min poly  (descending):", min_poly(A)[0])
    data = spectral_data(A)
    print("  spectral radius: %.12g" % data.rho)
    print("  polynomial growth rate s:", data.s)
    for ev in data.eigenvalues:
        print(
            "  eigenvalue %.6g%+.6gi x%d, Jordan blocks %s"
            % (ev.value.real, ev.value.imag, ev.multiplicity, list(ev.block_sizes))
        )
    est = growth_rate_estimate(A)
    print(
        "  norm-growth oracle: rho_est %.12g (gap %.1e), s_est %.3f"
        % (est.rho_est, abs(est.rho_est - data.rho), est.s_est)
    )
    print()

# the two routes agree across a random integer family
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(25):
    n = int(rng.integers(2, 6))
    A = IntMatrix(tuple(map(tuple, rng.integers(-3, 4, size=(n, n)).tolist())))
    rho = spectral_radius(A)
    if rho == 0.0:
        continue
    worst = max(worst, abs(rho - growth_rate_estimate(A).rho_est))
print("worst |exact - estimated| spectral radius over the random family: %.2e" % worst)
print("Jordan growth of the shear:", poly_growth_rate(IntMatrix(((1, 3), (0, 1)))))
