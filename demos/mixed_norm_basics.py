# Mixed Lebesgue norms L^p_{x'} L^s_{x''}: the inner norm runs over the
# second coordinate group first, the outer norm over the first group.
# Order matters, and Minkowski's integral inequality says which order is
# smaller: the larger exponent goes outermost.

import numpy as np

from mixnorm import (
    GridSpec,
    MixedNormSpec,
    SampledFunction,
    gaussian_product,
    mixed_norm,
)
from mixnorm.grids import SPACE

# ----------------------------------------------------------------------
# Closed form on a product Gaussian: exp(-pi x^2) exp(-2 pi y^2) has
# mixed (p, s) norm (p a)^(-1/2p) (s b)^(-1/2s) with a = 1, b = 2

grid = GridSpec.default()
F = gaussian_product(grid, [1.0, 2.0])
p, s = 4.0 / 3.0, 2.0
computed = mixed_norm(F, MixedNormSpec.standard("4/3", 2))
closed = p ** (-0.5 / p) * (2.0 * s) ** (-0.5 / s)
print(f"mixed (4/3, 2) norm: {computed:.12f}  closed form: {closed:.12f}")
# L^2 of L^2 is L^2
l2 = mixed_norm(F, MixedNormSpec.standard(2, 2))
print(f"plain L^2 norm:      {l2:.12f}  closed form: {(2*1.0)**-0.25 * (2*2.0)**-0.25:.12f}")

# ----------------------------------------------------------------------
# The 2x2 identity matrix with unit cells separates the two orders:
# inner-l1-then-outer-l2 gives sqrt(2), the other order gives 2. A spec
# names the outer exponent, the group the inner norm runs over, and the
# inner exponent, so both orders keep l^2 on the first group


def both_orders(F, a, b):
    """L^a over the first group and L^b over the second, with the a norm
    outermost and then with the b norm outermost."""
    return mixed_norm(F, MixedNormSpec(a, 1, b)), mixed_norm(F, MixedNormSpec(b, 0, a))


cells = GridSpec(1, 1, n=2, extent=2.0)
identity = SampledFunction(cells, np.eye(2, dtype=complex), SPACE)
larger_outermost, smaller_outermost = both_orders(identity, 2, 1)
print()
print(f"larger exponent outermost:  {larger_outermost:.12f}")
print(f"smaller exponent outermost: {smaller_outermost:.12f}")
print(f"Minkowski ordering holds:   {larger_outermost <= smaller_outermost + 1e-10}")

# ----------------------------------------------------------------------
# The ordering is not an accident of that matrix; random nonnegative
# arrays never violate it

rng = np.random.default_rng(0)
violations = 0
for _ in range(200):
    values = rng.random((4, 4))
    box = SampledFunction(GridSpec(1, 1, 4, 4.0), values.astype(complex), SPACE)
    larger_outermost, smaller_outermost = both_orders(box, "5/2", "4/3")
    if not larger_outermost <= smaller_outermost + 1e-10:
        violations += 1
print(f"violations over 200 random arrays: {violations}")

# ----------------------------------------------------------------------
# Mixed-norm Holder: ||FG||_(u,v) <= ||F||_(p,s) ||G||_(q,t) with
# reciprocals adding; (2, 2) and (2, 2) give (1, 1). Matched Gaussians
# give equality


def holder_ratio(F, G):
    product = F.with_values(F.values * G.values)
    l22 = MixedNormSpec.standard(2, 2)
    return mixed_norm(product, MixedNormSpec.standard(1, 1)) / (
        mixed_norm(F, l22) * mixed_norm(G, l22)
    )


G = gaussian_product(grid, [1.0, 2.0])
print()
print(f"Holder ratio, matched factors:    {holder_ratio(F, G):.12f}")
H = gaussian_product(grid, [2.0, 1.0])
print(f"Holder ratio, mismatched factors: {holder_ratio(F, H):.12f}")
