"""Blob generation, stratified splitting, priors, and the CSV format."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contradist import dataset
from contradist.dataset import (
    BlobSpec,
    DomainDataset,
    Priors,
    estimate_prior,
    load_csv,
    make_blobs,
    preset_domains,
    preset_names,
    save_csv,
    split,
    write_rows,
)
from contradist.errors import CsvParseError, ValidationError


def two_blob_spec(samples=2000, std=0.5, rotation=0.0, offset=(0.0, 0.0), seed=0):
    return BlobSpec(
        classes=(((-2.0, 0.0), std), ((2.0, 0.0), std)),
        samples_per_class=samples,
        rotation_deg=rotation,
        offset=offset,
        seed=seed,
    )


class TestBlobSpec:
    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValidationError):
            BlobSpec(classes=(((0, 0), 0.0), ((1, 1), 1.0)), samples_per_class=5)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValidationError):
            two_blob_spec(samples=0)

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            BlobSpec(classes=(((0, 0), 1.0),), samples_per_class=5)

    def test_dict_round_trip(self):
        obj = {
            "classes": [{"center": [-2, 0], "std": 0.5}, {"center": [2.0, 0.0], "std": 0.5}],
            "samples_per_class": 2000,
            "rotation_deg": 30,
            "offset": [1.0, -2],
            "seed": 9,
        }
        spec = two_blob_spec(rotation=30.0, offset=(1.0, -2.0), seed=9)
        assert BlobSpec.from_dict(obj) == spec

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"rotation": 30}, "unknown blob spec key 'rotation'"),
            ({"classes": [{"centre": [0, 0], "std": 1}] * 2}, "unknown blob class key 'centre'"),
            ({"rotation_deg": "steep"}, "could not convert string to float: 'steep'"),
            ({"classes": 3}, "malformed blob spec"),
            ({"rotation_deg": True}, "expected a number, got True"),
            ({"offset": [0, False]}, "expected a number, got False"),
            ({"classes": [{"center": [True, 0], "std": 1}] * 2}, "expected a number, got True"),
            ({"classes": [{"center": [0, 0], "std": True}] * 2}, "expected a number, got True"),
            ({"classes": [{"center": [0, 0, 9], "std": 1}] * 2}, "center must be a 2-vector"),
            ({"classes": [{"center": [0], "std": 1}] * 2}, "center must be a 2-vector"),
            ({"classes": [{"center": "12", "std": 1}] * 2}, "center must be a list of numbers"),
            ({"classes": [{"center": 3, "std": 1}] * 2}, "center must be a list of numbers"),
            ({"offset": "05"}, "offset must be a list of numbers, got '05'"),
            ({"offset": {"x": 0, "y": 5}}, "offset must be a list of numbers"),
        ],
    )
    def test_from_dict_rejects(self, change, message):
        obj = {"classes": [{"center": [0, 0], "std": 1}] * 2, "samples_per_class": 5, **change}
        with pytest.raises(ValidationError, match=message):
            BlobSpec.from_dict(obj)


class TestMakeBlobs:
    def test_two_classes_of_2000_give_4000_rows(self):
        ds = make_blobs(two_blob_spec())
        assert ds.n == 4000
        assert np.array_equal(np.bincount(ds.labels), [2000, 2000])

    def test_degenerate_std_collapses_to_rotated_offset_centers(self):
        spec = BlobSpec(
            classes=(((-2.0, 0.0), 1e-12), ((2.0, 0.0), 1e-12)),
            samples_per_class=50,
            rotation_deg=30.0,
            offset=(1.0, -1.0),
            seed=4,
        )
        ds = make_blobs(spec)
        theta = math.radians(30.0)
        for c, (center, _) in enumerate(spec.classes):
            expected = (
                center[0] * math.cos(theta) - center[1] * math.sin(theta) + 1.0,
                center[0] * math.sin(theta) + center[1] * math.cos(theta) - 1.0,
            )
            rows = ds.features[ds.labels == c]
            assert np.max(np.abs(rows - expected)) <= 1e-9

    def test_same_seed_is_bit_identical(self):
        a = make_blobs(two_blob_spec(seed=77))
        b = make_blobs(two_blob_spec(seed=77))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_rotation_preserves_pairwise_distances(self):
        plain = make_blobs(two_blob_spec(samples=60, seed=5))
        rotated = make_blobs(two_blob_spec(samples=60, rotation=137.0, seed=5))

        def pdist(x):
            diff = x[:, None, :] - x[None, :, :]
            return np.sqrt((diff**2).sum(-1))

        assert np.max(np.abs(pdist(plain.features) - pdist(rotated.features))) <= 1e-9


class TestSplit:
    def test_even_split_of_4000(self):
        ds = make_blobs(two_blob_spec())
        train, test = split(ds, 0.5, seed=1)
        assert (train.n, test.n) == (2000, 2000)
        assert np.array_equal(np.bincount(train.labels), [1000, 1000])
        assert np.array_equal(np.bincount(test.labels), [1000, 1000])

    def test_single_sample_class_cannot_stratify(self):
        ds = DomainDataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        with pytest.raises(ValidationError):
            split(ds, 0.5, seed=0)

    def test_fraction_bounds(self):
        ds = make_blobs(two_blob_spec(samples=10))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                split(ds, bad, seed=0)

    def test_stratified_counts_match_remainder_rule(self):
        # brute-force oracle: group rows by class, apply floor+remainder
        rng = np.random.default_rng(0)
        sizes = [13, 40, 27]
        labels = np.concatenate([np.full(n, c) for c, n in enumerate(sizes)])
        features = rng.normal(size=(labels.size, 2))
        ds = DomainDataset(features, labels)
        train, test = split(ds, 0.7, seed=3)
        for c, n_c in enumerate(sizes):
            expected_train = math.floor(0.7 * n_c)
            if expected_train < 0.7 * n_c:
                expected_train += 1
            assert int((train.labels == c).sum()) == expected_train
            assert int((test.labels == c).sum()) == n_c - expected_train

    def test_fraction_filling_a_class_is_rejected(self):
        ds = make_blobs(two_blob_spec(samples=2))
        with pytest.raises(ValidationError):
            split(ds, 0.75, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 30), min_size=1, max_size=4),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32),
    )
    def test_union_of_splits_is_input(self, sizes, fraction, seed):
        assume(all(math.ceil(fraction * n) < n for n in sizes))
        labels = np.concatenate([np.full(n, c) for c, n in enumerate(sizes)])
        features = np.arange(labels.size, dtype=np.float64).reshape(-1, 1) * [1.0, 2.0]
        ds = DomainDataset(features, labels)
        train, test = split(ds, fraction, seed=seed)
        merged = np.vstack([train.features, test.features])
        assert train.n + test.n == ds.n
        # row identity makes union/disjointness checkable by first coordinate
        ids = np.sort(merged[:, 0])
        assert np.array_equal(ids, np.arange(labels.size, dtype=np.float64))
        for c, n_c in enumerate(sizes):
            assert (train.labels == c).sum() + (test.labels == c).sum() == n_c

    def test_deterministic_per_seed(self):
        ds = make_blobs(two_blob_spec(samples=50))
        a1, b1 = split(ds, 0.3, seed=5)
        a2, b2 = split(ds, 0.3, seed=5)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.features, b2.features)


class TestEstimatePrior:
    def test_balanced(self):
        assert np.allclose(estimate_prior(np.array([0, 0, 1, 1]), 2).probs, [0.5, 0.5])

    def test_skewed(self):
        assert np.allclose(estimate_prior(np.array([0, 0, 0, 1]), 2).probs, [0.75, 0.25])

    def test_matches_independent_counting_pass(self):
        rng = np.random.default_rng(123)
        labels = rng.choice(2, size=1000, p=[0.9, 0.1])
        prior = estimate_prior(labels, 2)
        counts = [0, 0]
        for label in labels:
            counts[label] += 1
        assert prior.probs[0] == counts[0] / 1000
        assert prior.probs[1] == counts[1] / 1000

    def test_empty_vector_rejected(self):
        with pytest.raises(ValidationError):
            estimate_prior(np.array([], dtype=np.int64), 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            estimate_prior(np.array([0, 3]), 2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=200))
    def test_output_satisfies_prior_invariants(self, labels):
        prior = estimate_prior(np.array(labels), 5)
        assert prior.probs.min() >= 0
        assert abs(prior.probs.sum() - 1.0) <= 1e-9


class TestPriors:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Priors(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Priors(np.array([0.5, 0.6]))


class TestCsv:
    def test_round_trip_labeled(self, tmp_path):
        ds = make_blobs(two_blob_spec(samples=25, rotation=13.0, seed=3))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path, k=2)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_awkward_floats(self, tmp_path):
        features = np.array([[0.1, 1 / 3], [1e-300, -0.0], [1.7976931348623157e308, 2.5]])
        ds = DomainDataset(features, np.array([0, 1, 0]))
        path = tmp_path / "x.csv"
        save_csv(ds, path)
        assert np.array_equal(load_csv(path).features, features)

    def test_unlabeled_round_trip(self, tmp_path):
        ds = DomainDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), None)
        path = tmp_path / "u.csv"
        save_csv(ds, path)
        text = path.read_text()
        assert text.splitlines()[0] == "f0,f1,label"
        assert text.splitlines()[1].endswith(",-1")
        assert load_csv(path).labels is None

    @pytest.mark.parametrize(
        "labels, expected",
        [
            (np.array([0, 2, 1]), b"f0,f1,label\n0.1,-2.5e-310,0\n0.3333333333333333,1e+20,2\n-0.0,7.0,1\n"),
            (None, b"f0,f1,label\n0.1,-2.5e-310,-1\n0.3333333333333333,1e+20,-1\n-0.0,7.0,-1\n"),
        ],
        ids=["labeled", "unlabeled"],
    )
    def test_exact_bytes(self, tmp_path, labels, expected):
        features = np.array([[0.1, -2.5e-310], [1.0 / 3.0, 1e20], [-0.0, 7.0]])
        path = tmp_path / "x.csv"
        save_csv(DomainDataset(features, labels), path)
        assert path.read_bytes() == expected

    def test_signed_zeros_in_one_column_keep_their_signs(self, tmp_path):
        features = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0]])
        path = tmp_path / "z.csv"
        save_csv(DomainDataset(features, np.array([0, 0, 1, 1])), path)
        assert path.read_bytes() == (
            b"f0,f1,label\n0.0,1.0,0\n-0.0,1.0,0\n0.0,-0.0,1\n-0.0,0.0,1\n"
        )

    def test_csv_bytes_do_not_depend_on_the_row_block(self, tmp_path, monkeypatch):
        ds = make_blobs(two_blob_spec(samples=5, rotation=13.0, seed=3))
        save_csv(ds, tmp_path / "whole.csv")
        monkeypatch.setattr(dataset, "_ROW_BLOCK", 3)
        save_csv(ds, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_inconsistent_width_names_row_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(path)

    def test_label_out_of_range_at_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,5\n")
        with pytest.raises(CsvParseError, match="row 1"):
            load_csv(path, k=2)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,nan,0\n")
        with pytest.raises(CsvParseError, match="row 1"):
            load_csv(path)

    def test_mixed_labeling_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,-1\n1.0,2.0,0\n")
        with pytest.raises(CsvParseError, match="row 2"):
            load_csv(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1.0,2.0,0\n")
        with pytest.raises(CsvParseError):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            load_csv(path)


# Doubles where repr is easy to get wrong: signed zeros, the smallest and
# largest subnormals, and both sides of the switches to exponent form.
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e-05, 9.999999999999999e-06, 0.0001, 1e16, 9999999999999998.0, 1e+17,
]
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
_ROWS = st.integers(1, 4).flatmap(
    lambda k: st.lists(
        st.tuples(
            st.lists(_FLOATS, min_size=k, max_size=k),
            st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-(2**63), 2**63 - 1)),
        ),
        max_size=12,
    )
)


class TestWriteRows:
    @pytest.mark.parametrize("block", [1, 3, 8192])
    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS)
    @example(
        rows=[
            ([0.0, 1e-05], -1),
            ([-0.0, 9.999999999999999e-06], 0),
            ([5e-324, 1e16], -1),
            ([0.0, 9999999999999998.0], 2),
            ([-0.0, -5e-324], -1),
        ]
    )
    def test_bytes_equal_repr_of_each_row(self, tmp_path_factory, block, rows):
        """Deduplicating by bit pattern, in any block size, changes no byte."""
        k = len(rows[0][0]) if rows else 1
        floats = np.array([f for f, _ in rows], dtype=np.float64).reshape(len(rows), k)
        ints = np.array([i for _, i in rows], dtype=np.int64)
        header = [f"f{j}" for j in range(k)] + ["label"]
        path = tmp_path_factory.getbasetemp() / f"rows-{block}.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_ROW_BLOCK", block)
            write_rows(path, header, [*floats.T, ints])
        expected = "".join(",".join(map(repr, [*f, i])) + "\n" for f, i in rows)
        assert path.read_bytes() == (",".join(header) + "\n" + expected).encode()


class TestPresets:
    def test_names(self):
        assert preset_names() == ["aligned", "overlap-source", "rotated"]

    @pytest.mark.parametrize("name", ["aligned", "rotated", "overlap-source"])
    def test_two_domains_with_two_classes(self, name):
        domains = preset_domains(name, seed=1, samples_per_class=10)
        assert sorted(domains) == ["d0", "d1"]
        for spec in domains.values():
            assert spec.num_classes == 2
            assert spec.samples_per_class == 10

    def test_unknown_preset_lists_options(self):
        with pytest.raises(ValidationError, match="aligned"):
            preset_domains("nope", seed=0)

    def test_domain_seeds_differ(self):
        domains = preset_domains("aligned", seed=1)
        assert domains["d0"].seed != domains["d1"].seed
