"""
From raw cube to model input: whitening and mirrored patches
============================================================

The classifier never sees raw spectra.  Each pixel is decorrelated by a
PCA whitening transform fitted on the whole cube, and each training
sample is a small spatial patch around a labeled pixel, mirror-padded at
the scene borders.
"""

import numpy as np

from hsicaps import (
    apply_whitening,
    extract_patches,
    fit_whitening,
    invert_whitening,
    make_synthetic_cube,
    reflect_index,
)

np.set_printoptions(precision=3, suppress=True)

cube = make_synthetic_cube(32, 32, 8, 3, noise_sigma=0.3, seed=7)
pixels = cube.values.reshape(-1, cube.channels)
cov = np.cov(pixels.T, bias=True)
print(f"scene: {cube.height} x {cube.width} x {cube.channels}, "
      f"{cube.num_classes()} classes")
print(f"raw spectra: channel variances spread over "
      f"[{cov.diagonal().min():.3f}, {cov.diagonal().max():.3f}], "
      f"largest off-diagonal covariance {np.abs(cov - np.diag(cov.diagonal())).max():.3f}")

transform = fit_whitening(cube, epsilon=1e-9)
white = apply_whitening(cube, transform)
wpix = white.values.reshape(-1, cube.channels)
wcov = wpix.T @ wpix / len(wpix)
print(f"whitened:   mean magnitude {np.abs(wpix.mean(axis=0)).max():.2e}, "
      f"covariance off identity by {np.abs(wcov - np.eye(cube.channels)).max():.2e}")

# components come out ordered by decreasing variance, so the first whitened
# channels carry the class structure
print("eigenvalue order (descending):",
      (1.0 / transform.inv_sqrt_eigs**2 - 1e-9)[:4], "...")

restored = invert_whitening(white, transform)
print(f"round trip error: {np.abs(restored.values - cube.values).max():.2e}\n")

# --- mirrored patch extraction ---------------------------------------------
# A 5x5 patch at the scene corner needs pixels outside the image; indices
# reflect at the border without repeating the edge pixel.

print("reflect_index against a size-4 axis:")
for idx in range(-3, 7):
    print(f"  {idx:3d} -> {reflect_index(idx, 4)}")

patch = extract_patches(cube, np.array([[0, 0]]), 5)[0]
corner = cube.values[0, 0]
print(f"\npatch at (0, 0): shape {patch.shape}, label {cube.labels[0, 0]}")
print("center equals the cube pixel:", np.array_equal(patch[2, 2], corner))
print("mirrored neighbors match their sources:",
      np.array_equal(patch[0, 2], cube.values[2, 0]),
      np.array_equal(patch[2, 0], cube.values[0, 2]))
