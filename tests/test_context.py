"""Attribute tables, mutual information, and context selection."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenecheck import (
    DuplicateError,
    EmptyCorpusError,
    FormatError,
    PLACEHOLDER,
    SchemaError,
    load_attributes,
    mutual_information,
    partition_corpus,
    score_attributes,
)

SCHEMA = {"location": ["inside", "outside"], "lighting": ["soft", "hard"]}


def _table(records):
    return load_attributes(records, SCHEMA)


class TestLoadAttributes:
    def test_missing_attribute_becomes_placeholder(self):
        table = _table([{"image_id": "a", "attributes": {"lighting": "soft"}}])
        assert table.value("a", "location") == PLACEHOLDER
        assert table.value("a", "lighting") == "soft"

    def test_allowed_value_accepted(self):
        table = _table([{"image_id": "a", "attributes": {"location": "inside"}}])
        assert table.value("a", "location") == "inside"

    def test_disallowed_value_rejected(self):
        with pytest.raises(SchemaError):
            _table([{"image_id": "a", "attributes": {"location": "underwater"}}])

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            _table([{"image_id": "a", "attributes": {"mood": "calm"}}])

    def test_duplicate_image_id_rejected(self):
        with pytest.raises(DuplicateError):
            _table(
                [
                    {"image_id": "a", "attributes": {}},
                    {"image_id": "a", "attributes": {}},
                ]
            )

    @pytest.mark.parametrize(
        "annotations",
        [{"image_id": "a", "attributes": {}}, '[{"image_id": "a"}]', None],
        ids=["dict", "json-text", "none"],
    )
    def test_records_that_are_not_a_list_rejected(self, annotations):
        with pytest.raises(FormatError, match="must be a JSON array") as exc:
            load_attributes(annotations, SCHEMA)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "attributes", [None, ["inside"], "inside", 3], ids=["null", "list", "string", "number"]
    )
    def test_attributes_that_are_not_an_object_rejected(self, attributes):
        records = [{"image_id": "b", "attributes": {}}, {"image_id": "a", "attributes": attributes}]
        message = "^attributes of image 'a' are .*, not a JSON object$"
        with pytest.raises(FormatError, match=message) as exc:
            _table(records)
        assert "\n" not in str(exc.value)

    def test_unknown_image_reads_as_placeholder(self):
        table = _table([{"image_id": "a", "attributes": {}}])
        assert table.value("zzz", "location") == PLACEHOLDER


def mi_oracle(counts):
    """Brute-force double sum over the joint table."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    joint = counts / total
    pl = joint.sum(axis=1)
    pa = joint.sum(axis=0)
    acc = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                acc += joint[i, j] * math.log(joint[i, j] / (pl[i] * pa[j]))
    return acc


class TestMutualInformation:
    def test_product_form_joint_is_independent(self, rng):
        for _ in range(20):
            u = rng.uniform(0.1, 1.0, size=4)
            v = rng.uniform(0.1, 1.0, size=6)
            joint = np.outer(u, v)
            assert abs(mutual_information(joint)) <= 1e-12

    def test_diagonal_uniform_binary_is_ln2(self):
        assert mutual_information([[5, 0], [0, 5]]) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_all_zero_table_has_zero_mi(self):
        # No observation, so no dependence.
        assert mutual_information(np.zeros((3, 3))) == 0.0

    def test_matches_double_sum_oracle(self, rng):
        for _ in range(100):
            counts = rng.integers(0, 40, size=(4, 6)).astype(float)
            if counts.sum() == 0:
                continue
            assert mutual_information(counts) == pytest.approx(
                mi_oracle(counts), abs=1e-10
            )

    def test_self_information_equals_entropy(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            weights = rng.integers(1, 50, size=n).astype(float)
            joint = np.diag(weights)
            p = weights / weights.sum()
            entropy = -sum(pi * math.log(pi) for pi in p)
            assert mutual_information(joint) == pytest.approx(entropy, abs=1e-10)

    def test_non_negative(self, rng):
        for _ in range(50):
            counts = rng.integers(0, 10, size=(3, 3)).astype(float)
            if counts.sum() == 0:
                continue
            assert mutual_information(counts) >= -1e-12


class TestScoreAttributes:
    def test_constant_attribute_ineligible_zero_mi(self):
        records = [
            {"image_id": f"im{i}", "attributes": {"location": "inside", "lighting": "soft"}}
            for i in range(10)
        ]
        table = _table(records)
        labels = {f"im{i}": Counter({1: 1, 2: i % 2}) for i in range(10)}
        report = score_attributes(table, labels)
        score = report["attributes"]["location"]
        assert score["mutual_information"] == pytest.approx(0.0, abs=1e-12)
        assert not score["eligible"]
        assert score["observed_values"] == 1
        assert report["ranking"] == [] and report["selected"] is None

    def test_separating_attribute_matches_oracle(self):
        # location exactly separates {tv, sofa} images from {horse, car}.
        records = []
        labels = {}
        for i in range(8):
            inside = i % 2 == 0
            records.append(
                {
                    "image_id": f"im{i}",
                    "attributes": {"location": "inside" if inside else "outside"},
                }
            )
            labels[f"im{i}"] = Counter({10: 1, 11: 1} if inside else {20: 1, 21: 1})
        table = _table(records)
        report = score_attributes(table, labels)
        # joint over (class, value incl. placeholder column)
        joint = np.array([[4, 0, 0], [4, 0, 0], [0, 4, 0], [0, 4, 0]], dtype=float)
        assert report["attributes"]["location"]["mutual_information"] == pytest.approx(
            mi_oracle(joint), abs=1e-10
        )
        assert report["ranking"][0] == report["selected"] == "location"

    def test_generating_attribute_ranked_first(self, rng):
        records = []
        labels = {}
        for i in range(60):
            inside = bool(rng.integers(2))
            records.append(
                {
                    "image_id": f"im{i}",
                    "attributes": {
                        "location": "inside" if inside else "outside",
                        "lighting": ["soft", "hard"][int(rng.integers(2))],
                    },
                }
            )
            pool = [1, 2, 3] if inside else [4, 5, 6]
            labels[f"im{i}"] = Counter(
                {int(rng.choice(pool)): 1, int(rng.choice(pool)): 1}
            )
        report = score_attributes(_table(records), labels)
        assert report["ranking"][0] == "location"
        assert report["attributes"]["location"]["eligible"]

    def test_ranking_invariant_under_image_duplication(self):
        records = []
        labels = {}
        for i in range(20):
            inside = i % 2 == 0
            records.append(
                {
                    "image_id": f"im{i}",
                    "attributes": {
                        "location": "inside" if inside else "outside",
                        "lighting": ["soft", "hard"][i % 3 == 0],
                    },
                }
            )
            labels[f"im{i}"] = Counter({1 if inside else 2: 1, 3: 1})
        base = score_attributes(_table(records), labels)
        doubled_records = []
        doubled_labels = {}
        for rec in records:
            for copy in ("x", "y"):
                rid = rec["image_id"] + copy
                doubled_records.append({"image_id": rid, "attributes": rec["attributes"]})
                doubled_labels[rid] = labels[rec["image_id"]]
        doubled = score_attributes(_table(doubled_records), doubled_labels)
        assert doubled["ranking"] == base["ranking"]
        for name in base["attributes"]:
            assert doubled["attributes"][name]["mutual_information"] == pytest.approx(
                base["attributes"][name]["mutual_information"], abs=1e-12
            )

    def test_placeholder_counts_hit_coverage(self):
        records = [
            {"image_id": "a", "attributes": {"location": "inside"}},
            {"image_id": "b", "attributes": {}},
        ]
        table = _table(records)
        labels = {"a": Counter({1: 1}), "b": Counter({2: 1})}
        report = score_attributes(table, labels)
        assert report["attributes"]["location"]["coverage"] == 0.5
        assert not report["attributes"]["location"]["eligible"]

    @pytest.mark.parametrize(
        "n_outside, n_unannotated, eligible",
        [(2, 1, True), (2, 2, False), (1, 1, False)],
        ids=["at-both-thresholds", "coverage-below", "balance-below"],
    )
    def test_coverage_and_balance_thresholds_are_095_and_010(
        self, n_outside, n_unannotated, eligible
    ):
        # 20 images: coverage 19/20 and balance 2/20 are the least that qualify.
        values = ["outside"] * n_outside + [None] * n_unannotated
        values += ["inside"] * (20 - len(values))
        records = [
            {"image_id": f"im{i}", "attributes": {"location": v} if v else {}}
            for i, v in enumerate(values)
        ]
        labels = {f"im{i}": Counter({1: 1}) for i in range(20)}
        score = score_attributes(_table(records), labels)["attributes"]["location"]
        assert score["coverage"] == (20 - n_unannotated) / 20
        assert score["balance"] == n_outside / 20
        assert score["eligible"] is eligible

    def test_images_without_objects_score_zero_mi(self):
        # Each joint table is all zero.
        records = [{"image_id": "a", "attributes": {"location": "inside", "lighting": "soft"}}]
        report = score_attributes(_table(records), {"a": Counter()})
        assert [s["mutual_information"] for s in report["attributes"].values()] == [0.0, 0.0]

    def test_no_labels_rejected(self):
        with pytest.raises(EmptyCorpusError):
            score_attributes(_table([]), {})


class TestPartition:
    def test_single_value_single_group(self):
        records = [
            {"image_id": f"im{i}", "attributes": {"location": "inside"}} for i in range(4)
        ]
        table = _table(records)
        groups = partition_corpus([f"im{i}" for i in range(4)], table, "location")
        assert set(groups) == {"inside"}
        assert groups["inside"] == [f"im{i}" for i in range(4)]

    def test_mixed_values_and_placeholder(self):
        records = [
            {"image_id": "a", "attributes": {"location": "inside"}},
            {"image_id": "b", "attributes": {"location": "outside"}},
            {"image_id": "c", "attributes": {}},
        ]
        groups = partition_corpus(["a", "b", "c"], _table(records), "location")
        assert groups == {"inside": ["a"], "outside": ["b"], PLACEHOLDER: ["c"]}

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            partition_corpus(["a"], _table([{"image_id": "a", "attributes": {}}]), "nope")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["inside", "outside", None]), max_size=30))
    def test_partition_is_disjoint_and_exhaustive(self, values):
        records = [
            {
                "image_id": f"im{i}",
                "attributes": {} if v is None else {"location": v},
            }
            for i, v in enumerate(values)
        ]
        ids = [r["image_id"] for r in records]
        groups = partition_corpus(ids, _table(records), "location")
        combined = [i for group in groups.values() for i in group]
        assert sorted(combined) == sorted(ids)
        assert len(combined) == len(set(combined))
