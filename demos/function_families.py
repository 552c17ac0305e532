# The trial-function families, and the containment discipline that makes
# DFT results trustworthy: every generator proves that the essential
# support and bandwidth fit the grid before sampling, and refuses with
# the required extent when they do not.

import numpy as np

from mixnorm import (
    GenerationError,
    GridSpec,
    gaussian_product,
    near_delta_family,
    random_ensemble,
    shear_product,
)
from mixnorm.gaussians import unit_gaussian

grid2 = GridSpec.default()
grid1 = GridSpec.default(d2=0)

# ----------------------------------------------------------------------
# Product Gaussians, random mixtures, shears, near-deltas

families = {
    "gaussian_product": gaussian_product(grid2, [1.0, 2.0]),
    "random_ensemble": random_ensemble(grid2, 6, seed=0),
    "shear_product": shear_product(unit_gaussian(), unit_gaussian(), grid2),
    "near_delta": near_delta_family(grid2, unit_gaussian(), 0.5),
}
for name, F in families.items():
    peak = float(np.max(np.abs(F.values)))
    print(f"{name:>18}: shape {F.values.shape}, peak |F| = {peak:.4f}, "
          f"family tag '{F.descriptor['family']}'")

# ----------------------------------------------------------------------
# Containment: a Gaussian too wide for the grid is refused, and the
# error names the extent that would have been needed

narrow = gaussian_product(grid1, [16.0])  # fine: e^{-pi (4x)^2} fits easily
print()
print(f"scale 16 accepted, peak {float(np.max(np.abs(narrow.values))):.4f}")
try:
    gaussian_product(grid1, [1.0 / 256.0])  # e^{-pi (x/16)^2}: 16x the unit width
except GenerationError as error:
    print(f"scale 1/256 refused: {error}")

# ----------------------------------------------------------------------
# Descriptors make trials reproducible: a descriptor's parameters are its
# generator's arguments, so the seed and complexity it records rebuild the
# same trial bit for bit

original = families["random_ensemble"]
descriptor = original.descriptor
regenerated = random_ensemble(grid2, **descriptor["parameters"], seed=descriptor["seed"])
print()
print(f"descriptor: {descriptor}")
print(f"regenerate max error: {float(np.max(np.abs(regenerated.values - original.values))):.1e}")
