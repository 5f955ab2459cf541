import codecs
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpf, pi, sin

from hingetree import (
    Dataset,
    DegenerateSplit,
    EmptyInput,
    MissingTarget,
    NonFiniteInput,
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

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            gen_synthetic("f1", 0)

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

    def test_non_numeric_cell_in_a_wide_row_has_location(self, tmp_path):
        # A row is converted whole; a bad cell still names its own column.
        path = tmp_path / "wide.csv"
        rows = [[f"x{c}" for c in range(1, 17)] + ["y"],
                [str(0.25 * c) for c in range(17)], [str(c - 8.5) for c in range(17)]]
        rows[2][8] = "1.5.2"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        with pytest.raises(NonNumericCell, match="'1.5.2'") as err:
            load_csv(path, target="y")
        assert (err.value.row, err.value.col) == (3, 9)
        rows[2][8] = "-0.5"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        ds = load_csv(path, target="y")
        assert ds.X[1].tolist() == [float(cell) for cell in rows[2][:16]]

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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("body, row, col", [
        (b"\xff,2,3", 2, 1),
        (b"1,2,3{nl}{nl}4,5\xe9,6", 4, 2),
        (b"1,2,3{nl}4,5,\xc3", 3, 3),
    ], ids=["first-cell", "after-blank-line", "truncated-last-cell"])
    def test_byte_that_is_not_utf8_has_location(self, tmp_path, newline, body, row, col):
        nl = newline.encode()
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b,y" + nl + body.replace(b"{nl}", nl) + nl)
        for load in (lambda: load_csv(path, target="y"), lambda: load_features(path)):
            with pytest.raises(ParseError, match="is not UTF-8 text") as err:
                load()
            assert (err.value.row, err.value.col) == (row, col)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheet programs start a UTF-8 CSV with one; here it precedes the target's name.
        plain = tmp_path / "plain.csv"
        plain.write_text("y,a\n3,1\n6,4\n")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        ds = load_csv(marked, target="y")
        assert (ds.target_name, ds.feature_names) == ("y", ["a"])
        assert ds.X.tolist() == [[1.0], [4.0]] and ds.y.tolist() == [3.0, 6.0]
        X, names = load_features(marked)
        assert names == ["y", "a"] and X.tolist() == load_features(plain)[0].tolist()

    @pytest.mark.parametrize("body, row, col", [
        (b"\xff,b,y\n1,2,3\n", 1, 1),
        (b"a,b,y\n1,\xff,3\n", 2, 2),
        (b"a,b,y\n1,2,3\n4,5,\xc3", 3, 3),
    ], ids=["header", "data-row", "truncated-last-cell"])
    def test_byte_order_mark_keeps_bad_byte_location(self, tmp_path, body, row, col):
        path = tmp_path / "marked.csv"
        for prefix in (b"", codecs.BOM_UTF8):
            path.write_bytes(prefix + body)
            for load in (lambda: load_csv(path, target="y"), lambda: load_features(path)):
                with pytest.raises(ParseError, match="is not UTF-8 text") as err:
                    load()
                assert (err.value.row, err.value.col) == (row, col)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings_and_blank_lines(self, tmp_path, newline):
        path = tmp_path / "endings.csv"
        path.write_bytes(newline.join(["a,y", "1,2", "", "3,4", "5,x"]).encode())
        with pytest.raises(NonNumericCell) as err:
            load_csv(path, target="y")
        assert (err.value.row, err.value.col) == (5, 2)
        path.write_bytes(newline.join(["a,y", "1,2", "", "3,4", ""]).encode())
        ds = load_csv(path, target="y")
        assert ds.X.tolist() == [[1.0], [3.0]] and ds.y.tolist() == [2.0, 4.0]

    def test_ragged_row_is_parse_error(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, target="y")
        assert err.value.row == 3

    @pytest.mark.parametrize("text, target, header, error, message, col", [
        ("7\n8\n", 0, False, ParseError, "need a target column plus at least one feature", 1),
        ("a,b,y\n1,2\n", "y", True, ParseError, "header and data column counts differ", 3),
        ("1,2,3\n", "y", False, MissingTarget, "target by name requires a header row", None),
        ("1,2,3\n", 3, False, MissingTarget, "target index 3 outside 0..2", None),
    ], ids=["one-column", "short-data", "name-without-header", "index-outside"])
    def test_target_and_width_checks(self, tmp_path, text, target, header, error, message,
                                     col):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(error, match=message) as err:
            load_csv(path, target=target, header=header)
        if col is not None:
            assert (err.value.row, err.value.col) == (1 + header, col)

    @pytest.mark.parametrize("header", [True, False])
    def test_non_finite_cell_after_blank_lines_has_location(self, tmp_path, header):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b,y\n" * header + "\n1,2,3\n\n\n4,5,6\n \n7,-inf,9\n")
        with pytest.raises(NonNumericCell, match="'-inf'") as err:
            load_csv(path, target=2, header=header)
        assert (err.value.row, err.value.col) == (7 + header, 2)

    def test_rows_are_checked_for_shape_before_values_for_finiteness(self, tmp_path):
        # Every row is converted before any value is tested, as the whole-file reader did.
        path = tmp_path / "order.csv"
        path.write_text("a,y\n1,nan\n3\n")
        with pytest.raises(ParseError, match="expected 2 columns, got 1") as err:
            load_csv(path, target="y")
        assert (err.value.row, err.value.col) == (3, 2)

    def test_peak_memory_is_a_few_times_the_file(self, tmp_path):
        # 4,000 rows of 17 round-trip floats, as in a d = 16 training file (about 1.3 MB).
        values = np.random.default_rng(0).normal(size=(4000, 17))
        path = tmp_path / "wide.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join([f"x{j}" for j in range(1, 17)] + ["y"]) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in values.tolist())
        size = path.stat().st_size
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ds = load_csv(path, target="y")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert ds.X.tobytes() == values[:, :16].tobytes()
        assert ds.y.tobytes() == values[:, 16].tobytes()
        assert peak < 4 * size, f"peak {peak} bytes for a file of {size}"

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

    @pytest.mark.parametrize("large", [lambda gen: gen.uniform(-1e160, 1e160, 50),  # std
                                       lambda gen: np.full(50, 1e308)],  # mean
                             ids=["std", "mean"])
    def test_feature_too_large_is_named(self, large):
        gen = np.random.default_rng(7)
        X = np.column_stack([gen.normal(size=50), large(gen), 1e160 * gen.normal(size=50)])
        ds = Dataset(X=X, y=gen.normal(size=50), feature_names=["a", "b", "c"], provenance={})
        with pytest.raises(NonFiniteInput, match="^feature 'b' is too large to standardize"):
            standardize(ds)

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

    def test_component_without_a_value_rejected(self):
        with pytest.raises(ValueError, match="bad synthetic spec component 'n'"):
            parse_dataset_spec("f1:n:seed=3")

    def test_bare_name_uses_defaults(self):
        ds = parse_dataset_spec("f2")
        assert ds.n == 1000 and ds.d == 2

    def test_csv_path(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(gen_synthetic("sinc", 20, 0.0, seed=0), path)
        ds = parse_dataset_spec(str(path))
        assert ds.n == 20

    def test_csv_without_options_reads_column_y_under_a_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a\n1,10\n2,20\n3,30\n")
        ds = parse_dataset_spec(str(path))
        assert ds.feature_names == ["a"]
        np.testing.assert_array_equal(ds.y, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.X, [[10.0], [20.0], [30.0]])

    # target and header describe a CSV file; a synthetic spec used to ignore them.
    @pytest.mark.parametrize("options, named", [
        ({"target": "x1"}, "target"), ({"target": "y"}, "target"),
        ({"header": False}, "header"), ({"header": True}, "header"),
        ({"target": 0, "header": False}, "target and header"),
    ])
    def test_csv_options_with_a_synthetic_spec_rejected(self, options, named):
        with pytest.raises(ValueError, match=f"^{named}: the synthetic spec 'f1:n=5:seed=1' "
                                             "is not a CSV file$"):
            parse_dataset_spec("f1:n=5:seed=1", **options)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_dataset_spec("sinc:n=10:bogus=3")

    # The message names the key and the spec, which int()'s and float()'s do not.
    @pytest.mark.parametrize("spec, message", [
        ("f1:n=abc", "n must be an integer, got 'abc'"),
        ("f1:n=5:seed=1.5", "seed must be an integer, got '1.5'"),
        ("f1:sigma=x", "sigma must be a number, got 'x'"),
    ])
    def test_value_not_of_its_keys_type_rejected(self, spec, message):
        with pytest.raises(ValueError, match=f"^synthetic spec '{spec}': {message}$"):
            parse_dataset_spec(spec)

    # A repeated key is refused, not overwritten by its last value.
    @pytest.mark.parametrize("spec, key", [("f1:n=5:n=400", "n"),
                                           ("f2:seed=1:sigma=0:seed=1", "seed")])
    def test_repeated_key_rejected(self, spec, key):
        with pytest.raises(ValueError,
                           match=f"^synthetic spec '{spec}' gives '{key}' more than once$"):
            parse_dataset_spec(spec)

    def test_missing_file_rejected(self):
        with pytest.raises(EmptyInput):
            parse_dataset_spec("/no/such/file.csv")
