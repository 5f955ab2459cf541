"""Synthetic benchmark generation, CSV ingestion, splitting, standardization."""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .errors import (
    DegenerateSplit,
    EmptyInput,
    MissingTarget,
    NonNumericCell,
    ParseError,
)


@dataclass
class Dataset:
    """Immutable sample matrix with targets.

    ``provenance`` records where the data came from (synthetic generator
    parameters or source file), and is carried through splits.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    provenance: dict
    target_name: str = "y"

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _sinc(X):
    # -sin(5*pi*x) / (5*pi*x), with the removable singularity at 0 -> -1.
    return -np.sinc(5.0 * X[:, 0])


def _twisted_sigmoid(X):
    x = X[:, 0]
    return 2.0 / (1.0 + np.exp(-3.0 * x)) - 0.8 * x


def _f1(X):
    x1, x2 = X[:, 0], X[:, 1]
    return (0.5 * x1 ** 3 - 2.0 * x1 * x2 ** 2
            + 3.0 * np.sin(4.0 * x1) * np.cos(2.0 * x2)
            + 0.1 * np.exp(-(x1 ** 2 + x2 ** 2)))


def _f2(X):
    x1, x2 = X[:, 0], X[:, 1]
    return np.sin(3.0 * x1) + np.cos(2.0 * x2) + 0.5 * np.sin(5.0 * x1) * np.cos(4.0 * x2)


def _f3(X):
    x1, x2 = X[:, 0], X[:, 1]
    r = np.sqrt(x1 ** 2 + x2 ** 2) + 1e-6
    return (x1 ** 2 - x2 ** 2) / (0.5 + r ** 2) + np.sin(r) * np.exp(-r)


def _f4(X):
    x1, x2 = X[:, 0], X[:, 1]
    return (2.0 * np.exp(-((x1 - 1.0) ** 2 + (x2 - 1.0) ** 2) / 0.5)
            - 3.0 * np.exp(-((x1 + 1.0) ** 2 + (x2 + 1.5) ** 2) / 0.3)
            + 0.5 * x1)


# name -> (function on an (n, d) matrix, d, domain low, domain high)
SYNTHETIC_FUNCTIONS = {
    "sinc": (_sinc, 1, -1.5, 1.5),
    "twisted_sigmoid": (_twisted_sigmoid, 1, -3.0, 3.0),
    "f1": (_f1, 2, -3.0, 3.0),
    "f2": (_f2, 2, -3.0, 3.0),
    "f3": (_f3, 2, -3.0, 3.0),
    "f4": (_f4, 2, -3.0, 3.0),
}


def gen_synthetic(name: str, n: int, sigma: float = 0.0, seed: int = 0) -> Dataset:
    """Sample a synthetic benchmark: uniform inputs, Gaussian target noise.

    Inputs are drawn i.i.d. uniform over the function's domain; targets
    are the true function values plus ``sigma`` times seeded standard
    normal draws.  With ``sigma=0`` regeneration is bit-identical.
    """
    if name not in SYNTHETIC_FUNCTIONS:
        raise ValueError(f"unknown synthetic function {name!r}; "
                         f"choices: {sorted(SYNTHETIC_FUNCTIONS)}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and non-negative")
    fn, d, low, high = SYNTHETIC_FUNCTIONS[name]
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    X = rng.uniform(low, high, size=(n, d))
    y = fn(X)
    if sigma > 0:
        y = y + sigma * rng.standard_normal(n)
    names = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    return Dataset(
        X=X,
        y=y,
        feature_names=names,
        provenance={"kind": "synthetic", "name": name, "n": n,
                    "sigma": sigma, "seed": seed},
    )


def _read_csv(path: str, header: bool, target=None):
    """Parse a numeric CSV into ``(values, names, target_index)``.

    ``target`` (a header name or a 0-based index) is resolved, and the
    file checked to hold a target plus at least one feature, before any
    cell is parsed; with ``target=None`` every column is a feature and the
    index is None.  A cell that is not a finite number raises
    :class:`NonNumericCell` at its 1-based file row and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = [(i + 1, line.rstrip("\n").rstrip("\r")) for i, line in enumerate(fh)]
    rows = [(lineno, line.split(",")) for lineno, line in raw if line.strip()]
    if not rows:
        raise EmptyInput(f"{path} contains no rows")

    names = None
    if header:
        names = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
    if not rows:
        raise EmptyInput(f"{path} contains no data rows")

    width = len(rows[0][1])
    if target is not None and width < 2:
        raise ParseError(rows[0][0], 1, "need a target column plus at least one feature")
    if names is None:
        names = [f"c{i}" for i in range(width)]
    elif len(names) != width:
        raise ParseError(rows[0][0], min(len(names), width) + 1,
                         "header and data column counts differ")

    t_idx = None
    if isinstance(target, str):
        if not header:
            raise MissingTarget("target by name requires a header row")
        if target not in names:
            raise MissingTarget(f"target column {target!r} not in header {names}")
        t_idx = names.index(target)
    elif target is not None:
        t_idx = int(target)
        if not 0 <= t_idx < width:
            raise MissingTarget(f"target index {t_idx} outside 0..{width - 1}")

    values = np.empty((len(rows), width))
    for r, (lineno, cells) in enumerate(rows):
        if len(cells) != width:
            raise ParseError(lineno, min(len(cells), width) + 1,
                             f"expected {width} columns, got {len(cells)}")
        for c, cell in enumerate(cells):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise NonNumericCell(lineno, c + 1, cell.strip()) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise NonNumericCell(rows[r][0], c + 1, rows[r][1][c].strip())
    return values, names, t_idx


def load_csv(path: str, target, header: bool = True) -> Dataset:
    """Read a comma-separated numeric file.

    Dialect: comma separator, '.' decimal point, optional single header
    row, no quoting.  ``target`` is a column name (header required) or a
    0-based index.  Features are the remaining columns in file order.
    Blank lines are ignored; row/col positions in errors are 1-based file
    coordinates.  ``nan`` and ``inf`` cells are rejected.
    """
    values, names, t_idx = _read_csv(path, header, target)
    keep = [i for i in range(len(names)) if i != t_idx]
    return Dataset(
        X=values[:, keep],
        y=values[:, t_idx],
        feature_names=[names[i] for i in keep],
        provenance={"kind": "file", "path": str(path), "target_column": target},
        target_name=names[t_idx],
    )


def load_features(path: str, header: bool = True):
    """Read a CSV of numeric feature rows (no target column).

    Same dialect as :func:`load_csv`.  Returns ``(X, feature_names)``.
    """
    values, names, _ = _read_csv(path, header)
    return values, names


def write_csv(ds: Dataset, path: str) -> None:
    """Write features plus the target column, round-trip-exact decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*ds.feature_names, ds.target_name]) + "\n")
        for row, target in zip(ds.X, ds.y):
            cells = [f"{v:.17g}" for v in row] + [f"{target:.17g}"]
            fh.write(",".join(cells) + "\n")


def split_train_test(ds: Dataset, train_fraction: float, seed: int = 0):
    """Seeded uniform shuffle; the first ceil(fraction * N) rows train.

    Every row lands on exactly one side.  Raises DegenerateSplit if a side
    would be empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = ds.n
    n_train = math.ceil(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise DegenerateSplit(f"{train_fraction} of {n} rows leaves one side empty")
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    order = rng.permutation(n)
    parts = []
    for tag, idx in (("train", order[:n_train]), ("test", order[n_train:])):
        parts.append(dc_replace(
            ds,
            X=ds.X[idx],
            y=ds.y[idx],
            provenance={**ds.provenance, "subset": tag,
                        "train_fraction": train_fraction, "split_seed": seed},
        ))
    return parts[0], parts[1]


def _finite(value) -> bool:
    """Whether a decoded JSON value is a number, not a boolean, with a finite float value."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@dataclass
class StandardizeTransform:
    """Per-feature affine transform fitted on training data."""

    shift: np.ndarray
    scale: np.ndarray
    constant_mask: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``(X - shift) / scale``; an overflow gives an infinity for the caller's check."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return (np.asarray(X, dtype=float) - self.shift) / self.scale

    def to_dict(self) -> dict:
        return {
            "shift": [float(v) for v in self.shift],
            "scale": [float(v) for v in self.scale],
            "constant_mask": [bool(v) for v in self.constant_mask],
        }

    @classmethod
    def from_dict(cls, doc) -> "StandardizeTransform":
        """The transform that :meth:`to_dict` wrote.

        Raises ``ValueError`` unless ``doc`` holds three lists of one length:
        finite ``shift`` values, finite non-zero ``scale`` values and boolean
        ``constant_mask`` flags.
        """
        shift, scale, mask = (doc.get(k) if isinstance(doc, dict) else None
                              for k in ("shift", "scale", "constant_mask"))
        if not (all(isinstance(v, list) and len(v) == len(shift) for v in (shift, scale, mask))
                and all(map(_finite, shift + scale)) and 0 not in scale
                and all(type(v) is bool for v in mask)):
            raise ValueError("expected lists shift, scale and constant_mask of one length, "
                             "with finite shifts, finite non-zero scales and boolean flags")
        return cls(shift=np.asarray(shift, dtype=float), scale=np.asarray(scale, dtype=float),
                   constant_mask=np.asarray(mask, dtype=bool))


def standardize(train: Dataset, test: Dataset | None = None):
    """Zero-mean unit-variance features, fitted on train only.

    Zero-variance features are flagged and passed through unchanged.
    Targets are untouched.  Returns (train, test, transform); test is
    None when not supplied.
    """
    mean = train.X.mean(axis=0)
    std = train.X.std(axis=0)
    constant = std == 0.0
    transform = StandardizeTransform(
        shift=np.where(constant, 0.0, mean),
        scale=np.where(constant, 1.0, std),
        constant_mask=constant,
    )
    train_out = dc_replace(train, X=transform.apply(train.X))
    test_out = None
    if test is not None:
        test_out = dc_replace(test, X=transform.apply(test.X))
    return train_out, test_out, transform


def parse_dataset_spec(spec: str, target="y", header: bool = True) -> Dataset:
    """Resolve a CLI dataset argument.

    Synthetic form: ``name:n=<N>:sigma=<s>:seed=<k>`` (or a bare name with
    defaults n=1000, sigma=0, seed=0).  Anything else is treated as a CSV
    path.
    """
    head = spec.split(":", 1)[0]
    if head in SYNTHETIC_FUNCTIONS:
        params = {"n": 1000, "sigma": 0.0, "seed": 0}
        for part in spec.split(":")[1:]:
            if "=" not in part:
                raise ValueError(f"bad synthetic spec component {part!r}")
            key, value = part.split("=", 1)
            if key == "n":
                params["n"] = int(value)
            elif key == "sigma":
                params["sigma"] = float(value)
            elif key == "seed":
                params["seed"] = int(value)
            else:
                raise ValueError(f"unknown synthetic spec key {key!r}")
        return gen_synthetic(head, params["n"], params["sigma"], params["seed"])
    if not os.path.exists(spec):
        raise EmptyInput(f"{spec!r} is neither a file nor a synthetic spec")
    return load_csv(spec, target=target, header=header)
