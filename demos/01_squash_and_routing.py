"""
Squashing and routing-by-agreement, on numbers small enough to follow
=====================================================================

Two ideas carry the whole classifier: a nonlinearity that encodes
"existence" in a vector's length, and an iteration that decides which
parent capsule each child should report to.  This script pins both down
with hand-sized tensors.
"""

import numpy as np

from hsicaps import Architecture, ModelParams, forward_batch, squash

np.set_printoptions(precision=4, suppress=True)

# --- the squashing nonlinearity --------------------------------------------
# A vector of norm h keeps its direction and moves to norm h^2 / (1 + h^2).
# Short vectors get crushed toward zero, long ones saturate just below 1.

print("squash: input norm -> output norm")
for h in (0.1, 0.5, 1.0, 2.0, 5.0, 1000.0):
    vec = np.array([h, 0.0])
    out = squash(vec)
    print(f"  {h:8.1f} -> {np.linalg.norm(out):.6f}")
print("  (norm 1 lands exactly on 0.5; the curve never reaches 1)\n")

# --- routing on a rigged example -------------------------------------------
# Three child capsules vote for two classes.  The transformation matrices
# are rigged: every child's prediction for class 1 points the same way,
# while the class 2 predictions disagree with each other.  Agreement should
# pull the coupling toward class 1 as the iterations proceed.
#
# The children come out of a hand-set one-pixel model, so the routing below
# is the model's own.  With a 1x1 patch and kernels of size 1, each of the
# pixel's three channels becomes one child capsule: channel value x turns
# into the two maps (x, 1 - x), and identity window tensors pass them on as
# the child squash((x, 1 - x)).

arch = Architecture(
    channels=3,
    num_classes=2,
    patch_size=1,
    spatial_filters=1,
    primary_kernel_size=1,
    primary_stride=1,
    capsule_arrays=1,
    capsule_dim=2,
    window_size=1,
    window_stride=1,
    window_count=1,
    window_capsule_dim=2,
    class_capsule_dim=2,
)
pixel = np.array([1.0, 0.8, 0.9]).reshape(1, 1, 1, 3)  # (B, size, size, channels)

matrices = np.zeros((1, 3, 2, 2, 2))  # (arrays, positions, classes, out_dim, dim)
matrices[0, :, 0] = [[2.0, 0.0], [0.0, 2.0]]  # class 1: same map everywhere
matrices[0, 0, 1] = [[0.0, 2.0], [2.0, 0.0]]  # class 2: three clashing maps
matrices[0, 1, 1] = [[-2.0, 0.0], [0.0, -2.0]]
matrices[0, 2, 1] = [[0.0, -2.0], [-2.0, 0.0]]

params = ModelParams(
    arch,
    spatial_kernels=np.ones((1, 1, 1)),  # pass each channel value through
    spatial_bias=np.zeros(1),
    primary_kernels=np.array([[[1.0]], [[-1.0]]]),  # maps x and 1 - x
    primary_bias=np.array([0.0, 1.0]),
    window_tensors=np.eye(2).reshape(1, 2, 1, 1, 2),  # identity
    window_bias=np.zeros((1, 2)),
    class_matrices=matrices,
)

print("routing: coupling of each child to class 1, per iteration count")
for iterations in (1, 2, 3, 4):
    _, cache = forward_batch(params, pixel, iterations, keep_cache=True)
    # each routing entry holds one iteration's (coupling, weighted sums,
    # parents); the coupling is (samples, classes, children)
    coupling = cache.pieces[0].routing[-1][0][0]
    print(f"  r={iterations}: {coupling[0]}")
print("  (r=1 is the uniform start; agreement then concentrates mass)\n")

acts, cache = forward_batch(params, pixel, 3, keep_cache=True)
coupling = cache.pieces[0].routing[-1][0][0]
print(f"child capsules, one per row:\n{cache.pieces[0].window_caps[:, 0]}")
lengths = np.linalg.norm(acts[0], axis=-1)
print(f"class capsule lengths after 3 iterations: {lengths}")
print(f"predicted class: {int(np.argmax(lengths)) + 1}")
print("each child's coupling sums to 1 over the classes:", coupling.sum(axis=0))
