"""Test helper: a matrix written as the long-format CSV that `schur-bound --points` reads."""

import csv

import numpy as np


def write_matrix_csv(m, path) -> None:
    """Header i,j,re,im, then one row per entry in row-major order, floats as repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "re", "im"])
        for (i, j), v in np.ndenumerate(np.asarray(m, dtype=complex)):
            writer.writerow([i, j, repr(float(v.real)), repr(float(v.imag))])
