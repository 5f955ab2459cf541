from dataclasses import replace

import numpy as np
import pytest

from hingetree.tree import Internal, Leaf, predict


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_regression(seed, n, d, noise=0.1):
    """Well-conditioned random regression data with a planted linear signal."""
    gen = np.random.default_rng(seed)
    X = gen.normal(0.0, 1.0, size=(n, d))
    w = gen.normal(0.0, 1.0, size=d)
    b = gen.normal()
    y = X @ w + b + noise * gen.normal(size=n)
    return X, y


def hinge_regression(seed, n, d, noise=0.05):
    """Seeded max-hinge target on d features: two random affine pieces plus noise."""
    gen = np.random.default_rng(seed)
    X = gen.uniform(-1.0, 1.0, size=(n, d))
    Xa = np.hstack([X, np.ones((n, 1))])
    a = gen.normal(size=d + 1)
    b = gen.normal(size=d + 1)
    y = np.maximum(Xa @ a, Xa @ b) + noise * gen.normal(size=n)
    return X, y


def unordered_partition(s1, n):
    """The partition {S1, S2} of n rows with first side ``s1``, whichever side comes first."""
    first = np.zeros(n, dtype=bool)
    first[s1] = True
    return frozenset((first.tobytes(), (~first).tobytes()))


def nested_document(depth):
    """A tree document whose root heads a chain of ``depth`` internal nodes."""
    leaf = '{"leaf": {"theta": [0.0, 0.0], "n_train": 1}}'
    node = leaf
    for _ in range(depth):
        node = (f'{{"internal": {{"kind": "max", "theta1": [1.0, 0.0], "theta2": [0.0, 0.0], '
                f'"used_fallback": false, "left": {node}, "right": {leaf}}}}}')
    return (f'{{"format_version": 1, "kind": "hrt", "d": 1, "config": {{"split": {{}}}}, '
            f'"root": {node}}}')


def relabel_leaves(model):
    """Copy of ``model`` whose leaf k predicts the constant k; returns (copy, n_train per leaf).

    Nodes cannot be changed in place, so the copy is a new tree of new
    leaves under the original splits, left to right.
    """
    counts = []

    def walk(node):
        if isinstance(node, Leaf):
            theta = np.zeros(model.d + 1)
            theta[-1] = float(len(counts))
            counts.append(node.n_train)
            return Leaf(theta=theta, n_train=node.n_train)
        return Internal(split=node.split, left=walk(node.left), right=walk(node.right))

    return replace(model, root=walk(model.root)), counts


def walked_boost(model, x):
    """The ensemble's value from each learner's scalar walk, added in stage order."""
    total = model.f0
    for learner in model.learners:
        total += model.eta * predict(learner, x)
    return total
