"""Seeded wide regression data with a hinge target, and a round-trip-exact CSV writer.

``hingetree.gen_synthetic`` stops at d=2; the ``cli-wide`` workload needs
d=16 so that every ridge system in a split is 17x17.
"""
from __future__ import annotations

import numpy as np

GENERATOR = "perfbench.widedata.wide_hinge"


def wide_hinge(n_train: int, n_test: int, d: int, sigma: float, seed: int):
    """Draw train and test rows from one seeded piecewise-linear target.

    Inputs are uniform on [-1, 1]^d.  The target is a linear trend plus
    the max-hinges of four random pairs of affine functions, plus
    ``sigma`` times standard normal noise.  The seed fixes the target and
    every row.  Returns ``(X_train, y_train, X_test, y_test, provenance)``.
    """
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    trend = rng.normal(0.0, 0.5, size=d)
    hinges = [(rng.normal(0.0, 1.0, size=d + 1), rng.normal(0.0, 1.0, size=d + 1))
              for _ in range(4)]

    def draw(n):
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        Xa = np.hstack([X, np.ones((n, 1))])
        y = X @ trend
        for a, b in hinges:
            y = y + np.maximum(Xa @ a, Xa @ b)
        return X, y + sigma * rng.standard_normal(n)

    X_train, y_train = draw(n_train)
    X_test, y_test = draw(n_test)
    provenance = {"generator": GENERATOR, "n": n_train + n_test, "n_train": n_train,
                  "n_test": n_test, "d": d, "sigma": sigma, "seed": seed}
    return X_train, y_train, X_test, y_test, provenance


def write_csv(path: str, X: np.ndarray, y: np.ndarray) -> None:
    """Header ``x1..xd,y``; ``repr`` floats, so reading the file back gives the same bits."""
    header = ",".join([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row, target in zip(X.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row + [target])) + "\n")
