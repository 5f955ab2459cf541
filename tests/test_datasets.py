import numpy as np
import pytest
from mpmath import mp, mpf, pi, sin

from hingetree import (
    Dataset,
    DegenerateSplit,
    EmptyInput,
    MissingTarget,
    NonNumericCell,
    ParseError,
    gen_synthetic,
    load_csv,
    load_features,
    parse_dataset_spec,
    split_train_test,
    standardize,
    write_csv,
)
from hingetree.datasets import SYNTHETIC_FUNCTIONS


class TestGenerators:
    def test_twisted_sigmoid_at_origin(self):
        fn = SYNTHETIC_FUNCTIONS["twisted_sigmoid"][0]
        assert fn(np.array([[0.0]]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_f2_at_origin(self):
        fn = SYNTHETIC_FUNCTIONS["f2"][0]
        assert fn(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_sinc_against_high_precision_oracle(self):
        mp.dps = 50
        u = 5 * pi * mpf("0.1")
        oracle = float(-sin(u) / u)
        fn = SYNTHETIC_FUNCTIONS["sinc"][0]
        assert fn(np.array([[0.1]]))[0] == pytest.approx(oracle, abs=1e-15)
        assert oracle == pytest.approx(-2.0 / np.pi, abs=1e-15)

    def test_sinc_removable_singularity(self):
        fn = SYNTHETIC_FUNCTIONS["sinc"][0]
        assert fn(np.array([[0.0]]))[0] == -1.0

    def test_domains_and_shapes(self):
        for name, (_, d, low, high) in SYNTHETIC_FUNCTIONS.items():
            ds = gen_synthetic(name, 500, 0.0, seed=1)
            assert ds.X.shape == (500, d)
            assert ds.y.shape == (500,)
            assert ds.X.min() >= low and ds.X.max() <= high
            assert len(ds.feature_names) == d

    def test_noiseless_regeneration_is_bit_identical(self):
        a = gen_synthetic("f3", 200, 0.0, seed=9)
        b = gen_synthetic("f3", 200, 0.0, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_noise_is_exactly_scaled_seeded_draws(self):
        clean = gen_synthetic("sinc", 300, 0.0, seed=5)
        small = gen_synthetic("sinc", 300, 0.025, seed=5)
        large = gen_synthetic("sinc", 300, 0.05, seed=5)
        assert np.array_equal(clean.X, small.X) and np.array_equal(clean.X, large.X)
        np.testing.assert_allclose((small.y - clean.y) / 0.025,
                                   (large.y - clean.y) / 0.05, rtol=1e-12)

    def test_all_generators_finite_at_scale(self):
        for name in SYNTHETIC_FUNCTIONS:
            ds = gen_synthetic(name, 1_000_000, 0.0, seed=3)
            assert np.all(np.isfinite(ds.y))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic("nope", 10)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and non-negative"):
            gen_synthetic("f1", 20, sigma)


class TestCsv:
    def test_header_fixture(self, tmp_path):
        path = tmp_path / "fixture.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, target="y")
        assert ds.feature_names == ["a", "b"]
        assert ds.n == 3 and ds.d == 2
        np.testing.assert_array_equal(ds.X, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(ds.y, [3, 6, 9])

    def test_headerless_by_index_matches_headered_twin(self, tmp_path):
        headered = tmp_path / "h.csv"
        headered.write_text("a,b,y\n1.5,2,3\n4,5.25,6\n")
        bare = tmp_path / "b.csv"
        bare.write_text("1.5,2,3\n4,5.25,6\n")
        by_name = load_csv(headered, target="y")
        by_index = load_csv(bare, target=2, header=False)
        np.testing.assert_array_equal(by_name.X, by_index.X)
        np.testing.assert_array_equal(by_name.y, by_index.y)

    def test_round_trip_identity(self, tmp_path):
        ds = gen_synthetic("f1", 150, 0.05, seed=2)
        path = tmp_path / "round.csv"
        write_csv(ds, path)
        back = load_csv(path, target="y")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert back.feature_names == ds.feature_names

    def test_missing_target(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MissingTarget):
            load_csv(path, target="y")

    def test_non_numeric_cell_has_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,3\n4,oops,6\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, target="y")
        assert err.value.row == 3 and err.value.col == 2

    @pytest.mark.parametrize("cell, row, col", [("nan", 3, 2), ("inf", 2, 3), ("-inf", 3, 1)])
    def test_non_finite_cell_has_location(self, tmp_path, cell, row, col):
        lines = [["a", "b", "y"], ["1", "2", "3"], ["4", "5", "6"]]
        lines[row - 1][col - 1] = cell
        path = tmp_path / "nonfinite.csv"
        path.write_text("".join(",".join(line) + "\n" for line in lines))
        for load in (lambda: load_csv(path, target="y"), lambda: load_features(path)):
            with pytest.raises(NonNumericCell) as err:
                load()
            assert err.value.row == row and err.value.col == col

    def test_ragged_row_is_parse_error(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, target="y")
        assert err.value.row == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyInput):
            load_csv(path, target="y")

    def test_load_features(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("u,v\n1,2\n3,4\n")
        X, names = load_features(path)
        assert names == ["u", "v"]
        np.testing.assert_array_equal(X, [[1, 2], [3, 4]])


class TestSplit:
    def test_seventy_thirty(self):
        ds = gen_synthetic("sinc", 10, 0.0, seed=0)
        train, test = split_train_test(ds, 0.7, seed=1)
        assert train.n == 7 and test.n == 3

    def test_same_seed_identical(self):
        ds = gen_synthetic("sinc", 50, 0.0, seed=0)
        a_train, a_test = split_train_test(ds, 0.5, seed=42)
        b_train, b_test = split_train_test(ds, 0.5, seed=42)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_test.y, b_test.y)

    def test_union_is_original_multiset(self):
        ds = gen_synthetic("f4", 37, 0.1, seed=6)
        train, test = split_train_test(ds, 0.6, seed=7)
        rows = np.vstack([np.column_stack([train.X, train.y]),
                          np.column_stack([test.X, test.y])])
        original = np.column_stack([ds.X, ds.y])
        key = lambda m: m[np.lexsort(m.T)]
        assert np.array_equal(key(rows), key(original))

    def test_degenerate_split_rejected(self):
        ds = gen_synthetic("sinc", 10, 0.0, seed=0)
        with pytest.raises(DegenerateSplit):
            split_train_test(ds, 0.95, seed=0)  # ceil(9.5) = 10 leaves no test rows

    def test_bad_fraction_rejected(self):
        ds = gen_synthetic("sinc", 10, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_train_test(ds, 1.0, seed=0)


class TestStandardize:
    def test_already_standardized_is_identity(self):
        gen = np.random.default_rng(3)
        X = gen.normal(size=(400, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        ds = Dataset(X=X, y=gen.normal(size=400), feature_names=list("abc"),
                     provenance={"kind": "synthetic"})
        out, _, transform = standardize(ds)
        assert np.all(np.abs(transform.shift) <= 1e-12)
        assert np.all(np.abs(transform.scale - 1.0) <= 1e-12)

    def test_constant_feature_flagged_and_untouched(self):
        gen = np.random.default_rng(4)
        X = np.column_stack([np.full(50, 3.0), gen.normal(size=50)])
        ds = Dataset(X=X, y=gen.normal(size=50), feature_names=["c", "v"],
                     provenance={})
        out, _, transform = standardize(ds)
        assert transform.constant_mask.tolist() == [True, False]
        np.testing.assert_array_equal(out.X[:, 0], X[:, 0])

    def test_train_moments_and_test_uses_train_transform(self):
        gen = np.random.default_rng(5)
        train = Dataset(X=gen.normal(2.0, 3.0, size=(300, 4)),
                        y=gen.normal(size=300), feature_names=list("abcd"),
                        provenance={})
        test = Dataset(X=gen.normal(2.0, 3.0, size=(100, 4)),
                       y=gen.normal(size=100), feature_names=list("abcd"),
                       provenance={})
        train2, test2, transform = standardize(train, test)
        assert np.all(np.abs(train2.X.mean(axis=0)) <= 1e-12)
        assert np.all(np.abs(train2.X.var(axis=0) - 1.0) <= 1e-9)
        np.testing.assert_allclose(test2.X, (test.X - transform.shift) / transform.scale)
        np.testing.assert_array_equal(train2.y, train.y)

    def test_transform_round_trips_through_dict(self):
        gen = np.random.default_rng(6)
        ds = Dataset(X=gen.normal(size=(40, 2)), y=gen.normal(size=40),
                     feature_names=["a", "b"], provenance={})
        _, _, transform = standardize(ds)
        from hingetree import StandardizeTransform

        back = StandardizeTransform.from_dict(transform.to_dict())
        np.testing.assert_array_equal(back.shift, transform.shift)
        np.testing.assert_array_equal(back.scale, transform.scale)


class TestDatasetSpec:
    def test_full_synthetic_spec(self):
        ds = parse_dataset_spec("sinc:n=123:sigma=0.5:seed=9")
        assert ds.n == 123
        assert ds.provenance == {"kind": "synthetic", "name": "sinc", "n": 123,
                                 "sigma": 0.5, "seed": 9}

    def test_bare_name_uses_defaults(self):
        ds = parse_dataset_spec("f2")
        assert ds.n == 1000 and ds.d == 2

    def test_csv_path(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(gen_synthetic("sinc", 20, 0.0, seed=0), path)
        ds = parse_dataset_spec(str(path))
        assert ds.n == 20

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_dataset_spec("sinc:n=10:bogus=3")

    def test_missing_file_rejected(self):
        with pytest.raises(EmptyInput):
            parse_dataset_spec("/no/such/file.csv")
