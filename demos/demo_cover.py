"""Arithmetic in the universal cover of GL+(2,R).

An element is a positive-determinant matrix plus the value of its lifted
circle map at 0.  The demo walks through lifting, the group law, translation
numbers and the shape classification.
"""


import numpy as np

from stabdyn.cover import (
    classify,
    compose,
    evaluate,
    from_complex,
    inverse,
    lift_from,
    power,
    translation_number,
)

# deck translations: same matrix, different sheet
g0 = lift_from(np.eye(2), 0.0)
g2 = lift_from(np.eye(2), 2.0)
print("identity sheet:       f(0.25) =", evaluate(g0, 0.25))
print("shifted sheet (+2):   f(0.25) =", evaluate(g2, 0.25))

# the plane embeds in the cover as scalings times rotations
alpha = 0.5 + 0.3j
g = from_complex(alpha)
print("\nplane element alpha = %s" % alpha)
print("  matrix:\n", np.asarray(g.m))
print("  translation number: %.6f (= Re alpha)" % translation_number(g, 256))

# the embedding is a homomorphism
a, b = 0.4 - 0.2j, -1.1 + 0.5j
lhs = compose(from_complex(a), from_complex(b))
rhs = from_complex(a + b)
print("  homomorphism gap:", np.max(np.abs(np.asarray(lhs.m) - np.asarray(rhs.m))))

# a stretch fixes its eigen-phases; everything else drifts toward the
# expanding axis, so the translation number is zero
h = lift_from(np.diag([2.0, 0.5]), 0.0)
print("\nstretch diag(2, 1/2):")
print("  f(0)   =", evaluate(h, 0.0))
print("  f(0.5) =", evaluate(h, 0.5))
print("  f(0.25) =", evaluate(h, 0.25), "(attracted toward 0)")
print("  translation number:", translation_number(h, 1024))
print("  after a deck shift:", translation_number(compose(from_complex(1.0), h), 1024))

# power reads the matrix and the lift of g^n off the closed-form power record
q = power(from_complex(0.5), 4)
print("\nquarter rotation to the fourth: f0 =", q.f0, "(a full deck shift)")
e = compose(h, inverse(h))
print("stretch times its inverse: f0 =", e.f0)

# classification flags
for name, elem in [
    ("plane element", from_complex(0.3)),
    ("literal stretch", h),
    ("shear", lift_from([[1.0, 1.0], [0.0, 1.0]], 0.0)),
    ("conjugated stretch", lift_from([[2.0, -1.5], [0.0, 0.5]], 0.0)),
]:
    rec = classify(elem)
    print(
        "%-20s type=%-10s literal=%s conjugate=%s scalar-rotation=%s stretch=%s"
        % (name, rec.conjugacy_type, rec.pseudo_anosov_literal,
           rec.pseudo_anosov_conjugate, rec.gepner, rec.stretch)
    )
