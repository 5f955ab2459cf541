"""Every workload's inputs are a function of the seed alone."""
import numpy as np
import pytest

import run
import widedata
from workloads import WORKLOADS


def test_the_command_line_offers_every_workload():
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)


def _arrays(inputs):
    return {k: v for k, v in inputs.items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_bit_identical_inputs(name):
    wl = WORKLOADS[name]
    a, b = wl.inputs(7), wl.inputs(7)
    assert a["provenance"] == b["provenance"]
    assert _arrays(a).keys() == _arrays(b).keys() and _arrays(a)
    for key, arr in _arrays(a).items():
        assert arr.dtype == b[key].dtype and arr.tobytes() == b[key].tobytes(), key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_other_inputs(name):
    wl = WORKLOADS[name]
    a, b = wl.inputs(7), wl.inputs(8)
    assert not np.array_equal(a["X"], b["X"])


def test_wide_csv_is_bit_identical_and_reads_back_exactly(tmp_path):
    from hingetree import datasets

    X, y, _, _, prov = widedata.wide_hinge(50, 10, 16, 0.1, 3)
    assert (prov["d"], prov["n"], prov["sigma"], prov["seed"]) == (16, 60, 0.1, 3)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    widedata.write_csv(str(first), X, y)
    widedata.write_csv(str(second), X, y)
    assert first.read_bytes() == second.read_bytes()
    ds = datasets.load_csv(str(first), "y")
    assert ds.X.tobytes() == X.tobytes() and ds.y.tobytes() == y.tobytes()
