"""Walkthrough: unfoldings, mode products, and the tensor text format.

Run from anywhere after installing the package:

    python3 demos/01_tensor_basics.py
"""

import tempfile
from pathlib import Path

import numpy as np

from tarst.tensor_io import read_tensor, write_tensor
from tarst.tensor_ops import frobenius_norm, multi_mode_product, unfold

# A tiny 2 x 2 x 2 tensor whose entries are just 1..8, so every rearrangement
# is easy to check by eye.
x = np.arange(1.0, 9.0).reshape(2, 2, 2)
print("tensor, shape", x.shape)
print(x)

# The mode-k unfolding puts index k on the rows and flattens the rest into
# columns. Mode 0 keeps the first index as rows:
for k in range(3):
    print(f"\nmode-{k} unfolding ({unfold(x, k).shape[0]} x {unfold(x, k).shape[1]}):")
    print(unfold(x, k))

# It is numpy's moveaxis + reshape, so numpy undoes it exactly, bit for bit.
for k in range(3):
    rest = x.shape[:k] + x.shape[k + 1:]
    back = np.moveaxis(unfold(x, k).reshape((x.shape[k],) + rest), 0, k)
    assert np.array_equal(back, x)
print("\nmoveaxis(unfold(x, k).reshape(...), 0, k) == x for every mode: True")

# A mode product multiplies one mode by a matrix. multi_mode_product takes
# one factor per mode; identities leave modes 1 and 2 alone while mode 0
# is averaged:
avg = np.full((1, 2), 0.5)
mean0 = multi_mode_product(x, [avg, np.eye(2), np.eye(2)])
print("\naverage over mode 0, shape", mean0.shape)
print(mean0)

# Unfoldings preserve the Frobenius norm; it is the same set of numbers.
print("\n||x||_F =", frobenius_norm(x))
print("||unfold(x, 1)||_F =", frobenius_norm(unfold(x, 1)))

# The text format: the order on the first line, the extents on the second,
# then one trailing-axis row per line. repr() floats round trip exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "x.txt"
    write_tensor(x, path)
    print("\nfile contents:")
    print(path.read_text())
    back = read_tensor(path)
    print("read back identical:", np.array_equal(back, x))
