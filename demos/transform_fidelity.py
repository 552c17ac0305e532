# The centered, continuum-normalized DFT: F-hat(k) = h * sum_j f(x_j)
# exp(-2 pi i x_j xi_k), with both grids symmetric about zero. On a
# 256-point, extent-16 grid this reproduces the continuum transform of
# well-contained functions essentially to machine precision.

import numpy as np

from mixnorm import GridSpec, fourier, gaussian_product, random_ensemble

grid = GridSpec.default(d2=0)

# ----------------------------------------------------------------------
# The standard Gaussian exp(-pi x^2) is its own transform

f = gaussian_product(grid, [1.0])
error = np.max(np.abs(fourier(f).values - f.values))
print(f"self-duality error of exp(-pi x^2): {error:.3e}")

# ----------------------------------------------------------------------
# A shift becomes a modulation: f(x - a) -> exp(-2 pi i a xi) f-hat(xi)

shift = 16  # grid points, so a = 1.0
a = shift * grid.spacing
shifted = f.with_values(np.roll(f.values, shift))
xi = grid.freq_coords()
predicted = fourier(f).values * np.exp(-2j * np.pi * a * xi)
print(f"shift-modulation error: {np.max(np.abs(fourier(shifted).values - predicted)):.3e}")

# ----------------------------------------------------------------------
# Plancherel on a random Gaussian ensemble

worst_plancherel = 0.0
for seed in range(20):
    g = random_ensemble(grid, 6, seed)
    ghat = fourier(g)
    space = np.sqrt(np.sum(np.abs(g.values) ** 2) * grid.spacing)
    freq = np.sqrt(np.sum(np.abs(ghat.values) ** 2) * grid.freq_spacing)
    worst_plancherel = max(worst_plancherel, abs(space - freq) / space)
print(f"worst Plancherel mismatch over 20 ensembles: {worst_plancherel:.3e}")
