import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sigfuse import evaluate
from sigfuse.data import Dataset, SyntheticSpec, ViewSpec, synth_generate
from sigfuse.evaluate import (EvalReport, LabelError, UndefinedAPError,
                              average_precision, combination_sweep,
                              evaluate_mask, parse_report_csv, report_emit,
                              scores_to_aps)
from sigfuse.model import PROFILES, build_net, net_forward
from sigfuse.nn import make_rng


def brute_force_ap(scores, labels):
    """Independent oracle: walk the ranking prefix by prefix, accumulate
    precision at every recall increase (same stable descending tie rule)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    tp = 0
    area = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            tp += 1
            recall_step = 1.0 / n_pos
            precision = tp / rank
            area += recall_step * precision
    return area


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(np.array([0.9, 0.8, 0.2, 0.1]),
                                 np.array([1, 1, 0, 0])) == 1.0

    def test_worked_case(self):
        ap = average_precision(np.array([0.9, 0.8, 0.7, 0.6]),
                               np.array([1, 0, 1, 0]))
        np.testing.assert_allclose(ap, (1.0 + 2.0 / 3.0) / 2.0)

    def test_monotone_transform_invariance(self):
        rng = make_rng(8)
        scores = rng.standard_normal(30)
        labels = (rng.random(30) > 0.6).astype(int)
        labels[0] = 1
        a = average_precision(scores, labels)
        b = average_precision(np.exp(3 * scores) + 5, labels)
        assert a == b

    def test_zero_positives_signaled(self):
        with pytest.raises(UndefinedAPError):
            average_precision(np.array([0.5, 0.2]), np.array([0, 0]))

    def test_matches_brute_force_exhaustively(self):
        rng = make_rng(9)
        for n in range(1, 7):
            for labels in itertools.product([0, 1], repeat=n):
                if not any(labels):
                    continue
                for _ in range(3):
                    scores = rng.random(n)
                    ours = average_precision(scores, np.array(labels))
                    assert abs(ours - brute_force_ap(scores.tolist(), labels)) < 1e-12

    def test_ties_with_brute_force(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1])
        assert average_precision(scores, labels) == pytest.approx(
            brute_force_ap(scores.tolist(), labels.tolist()), abs=1e-15)

    def test_one_iff_positives_outrank_negatives(self):
        rng = make_rng(10)
        for _ in range(50):
            scores = rng.random(12)
            labels = (rng.random(12) > 0.5).astype(int)
            if not labels.any():
                labels[0] = 1
            ap = average_precision(scores, labels)
            separated = scores[labels == 1].min() > scores[labels == 0].max() \
                if (labels == 0).any() else True
            assert (ap == 1.0) == separated


def reference_average_precision(scores, labels):
    """The per-column formula `_column_aps` replaced; it fixes the bits."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise ValueError(f"need matching 1-D score/label arrays, got "
                         f"{scores.shape} and {labels.shape}")
    if not labels.any():
        raise UndefinedAPError("no positive labels")
    order = np.argsort(-scores, kind="stable")
    hits = labels[order].astype(np.float64)
    precision_at = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float(precision_at[hits == 1].mean())


def reference_scores_to_aps(scores, labels):
    """The per-attribute loop `scores_to_aps` replaced."""
    n_attr = labels.shape[1]
    aps = np.full(n_attr, np.nan)
    for a in range(n_attr):
        try:
            aps[a] = reference_average_precision(scores[:, a], labels[:, a])
        except UndefinedAPError:
            pass
    defined = aps[~np.isnan(aps)]
    if defined.size == 0:
        raise UndefinedAPError("every attribute has undefined AP on this split")
    return aps, float(defined.mean())


def assert_bits_match_reference(scores, labels):
    """`scores_to_aps` and `average_precision` give the reference's bytes,
    or raise where it raises."""
    try:
        want = reference_scores_to_aps(scores, labels)
    except UndefinedAPError:
        with pytest.raises(UndefinedAPError):
            scores_to_aps(scores, labels)
    else:
        aps, mean = scores_to_aps(scores, labels)
        assert aps.tobytes() == want[0].tobytes()
        assert np.float64(mean).tobytes() == np.float64(want[1]).tobytes()
    for col in range(labels.shape[1]):
        if labels[:, col].any():
            got = average_precision(scores[:, col], labels[:, col])
            ref = reference_average_precision(scores[:, col], labels[:, col])
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        else:
            with pytest.raises(UndefinedAPError, match="no positive labels"):
                average_precision(scores[:, col], labels[:, col])


# ties, +/-0, a saturated sigmoid, subnormals and NaNs, mixed with any float
_SCORE_EDGES = [0.0, -0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, 5e-324, -5e-324, np.nan, -np.nan]
_LABEL_DTYPES = [np.uint8, np.int64, np.float64, np.bool_]


@st.composite
def score_label_matrices(draw):
    n, n_attr = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    elements = st.one_of(st.sampled_from(_SCORE_EDGES),
                         st.floats(-2.0, 2.0, allow_nan=False))
    scores = draw(arrays(np.float64, (n, n_attr), elements=elements))
    labels = draw(arrays(draw(st.sampled_from(_LABEL_DTYPES)), (n, n_attr),
                         elements=st.integers(0, 1)))
    return scores, labels


class TestColumnKernel:
    @given(score_label_matrices())
    @example((np.array([[0.3]]), np.array([[1]], dtype=np.uint8)))        # n = 1, L = 1
    @example((np.array([[0.3]]), np.array([[0.0]])))                      # n = 1, no positive
    @example((np.array([[0.5, 0.5, np.nan]] * 3), np.eye(3)))             # ties and NaN
    @example((np.array([[0.0], [-0.0], [0.0]]), np.array([[0], [1], [1]])))  # +/-0
    @settings(max_examples=300, deadline=None)
    def test_bits_match_reference(self, case):
        assert_bits_match_reference(*case)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_match_reference_at_sweep_shape(self, seed):
        rng = make_rng(seed)
        scores = rng.random((1000, 8))
        scores[:, 1] = 1.0 - 2.0 ** -53 * rng.integers(1, 4, 1000)  # saturated, tied
        labels = (rng.random((1000, 8)) < np.linspace(0.02, 0.9, 8)).astype(np.float64)
        labels[:, 7] = 0  # an attribute without positives
        assert_bits_match_reference(scores, labels)

    def test_distinct_scores_take_the_quicksort_ranking(self):
        rng = make_rng(5)
        scores = rng.permutation(4000).reshape(1000, 4) / 4000.0
        labels = (rng.random((1000, 4)) < 0.4).astype(np.uint8)
        real_argsort, stable_calls = np.argsort, []

        def spying(a, *args, kind=None, **kwargs):
            if kind == "stable":
                stable_calls.append(a.shape)
            return real_argsort(a, *args, kind=kind, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "argsort", spying)
            aps, _ = scores_to_aps(scores, labels)
        assert stable_calls == []
        assert aps.tobytes() == reference_scores_to_aps(scores, labels)[0].tobytes()

    def test_tied_column_falls_back_to_the_stable_ranking(self):
        rng = make_rng(6)
        n = 1000
        scores = np.stack([rng.random(n), rng.integers(0, 3, n) / 4.0], axis=1)
        labels = (rng.random((n, 2)) < 0.3).astype(np.float64)
        keys = -scores[:, 1]
        quick, stable = np.argsort(keys), np.argsort(keys, kind="stable")
        # the case only tests the fallback if the quicksort ranking scores differently
        hits = labels[quick, 1]
        quick_ap = (np.cumsum(hits) / np.arange(1, n + 1))[hits == 1].mean()
        assert not np.array_equal(quick, stable)
        assert quick_ap != reference_average_precision(scores[:, 1], labels[:, 1])
        assert_bits_match_reference(scores, labels)

    @pytest.mark.parametrize("scores_shape, labels_shape",
                             [((5, 3), (5, 2)), ((5, 2), (4, 2)), ((5,), (5,)),
                              ((2, 5, 2), (2, 5, 2))])
    def test_shape_mismatch_raises(self, scores_shape, labels_shape):
        with pytest.raises(ValueError, match="matching 2-D"):
            scores_to_aps(np.zeros(scores_shape), np.ones(labels_shape))

    def test_average_precision_keeps_its_messages(self):
        with pytest.raises(ValueError, match="matching 1-D"):
            average_precision(np.zeros((3, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError, match="matching 1-D"):
            average_precision(np.zeros(0), np.ones(0))
        with pytest.raises(UndefinedAPError, match="no positive labels"):
            average_precision(np.zeros(3), np.zeros(3))

    def test_empty_split_is_undefined(self):
        with pytest.raises(UndefinedAPError, match="every attribute"):
            scores_to_aps(np.zeros((0, 3)), np.zeros((0, 3)))


def stable_argsort_calls(scores, labels):
    """`scores_to_aps(scores, labels)` and the row shapes `np.argsort` was
    asked to sort stably on the way."""
    real_argsort, stable_calls = np.argsort, []

    def spying(a, *args, kind=None, **kwargs):
        if kind == "stable":
            stable_calls.append(a.shape)
        return real_argsort(a, *args, kind=kind, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argsort", spying)
        result = scores_to_aps(scores, labels)
    return result, stable_calls


class TestRankOnceKernel:
    """The per-column reference's bytes from the kernel that ranks once and
    takes precision k / (r + 1) at the positives."""

    def test_bits_match_reference_at_2_17_rows(self):
        rng = make_rng(11)
        n = 1 << 17
        scores = rng.random((n, 6))
        scores[:, 4] = rng.integers(0, 50, n) / 64.0  # tied
        labels = (rng.random((n, 6)) < np.array([0.5, 0.01, 0.99, 0.3, 0.2, 1e-4]))
        labels = labels.astype(np.uint8)
        assert_bits_match_reference(scores, labels)

    def test_columns_of_one_or_all_positives(self):
        rng = make_rng(12)
        n = 300
        scores = rng.random((n, 5))
        labels = np.zeros((n, 5))
        labels[:, 0] = 1                                # every row positive
        labels[137, 1] = 1                              # one positive
        labels[np.argmin(scores[:, 2]), 2] = 1          # the only positive ranks last
        labels[np.argmax(scores[:, 3]), 3] = 1          # ... or first
        labels[:, 4] = rng.random(n) < 0.5
        aps, _ = scores_to_aps(scores, labels)
        assert aps[0] == 1.0 and aps[3] == 1.0
        assert aps[2] == 1.0 / n
        assert_bits_match_reference(scores, labels)

    def test_tied_rows_among_distinct_rows_keep_their_offset(self):
        rng = make_rng(13)
        n = 500
        scores = rng.permutation(6 * n).reshape(n, 6) / (6.0 * n)  # distinct
        scores[:, 2] = rng.integers(0, 4, n) / 4.0               # ties
        scores[:, 5] = 0.0
        scores[::3, 5] = -0.0                                    # +/-0 only
        labels = (rng.random((n, 6)) < 0.4).astype(np.float64)
        (aps, mean), stable_calls = stable_argsort_calls(scores, labels)
        assert stable_calls == [(n,), (n,)]
        want = reference_scores_to_aps(scores, labels)
        assert aps.tobytes() == want[0].tobytes()
        assert np.float64(mean).tobytes() == np.float64(want[1]).tobytes()


class TestLabelRefusals:
    """AP is defined for 0/1 labels; any other value is refused, where the
    old kernel scored it."""

    @pytest.mark.parametrize("bad, dtype, shown", [
        (2, np.int64, "2"), (0.5, np.float64, "0.5"), (-1, np.int8, "-1"),
        (np.nan, np.float64, "nan")])
    def test_the_value_is_named(self, bad, dtype, shown):
        scores = np.array([0.9, 0.6, 0.3, 0.1])
        labels = np.array([1, 0, bad, 0], dtype=dtype)
        message = f"labels must be 0 or 1, got {shown}$"
        with pytest.raises(LabelError, match=message):
            average_precision(scores, labels)
        with pytest.raises(LabelError, match=message):
            scores_to_aps(np.stack([scores, scores], axis=1),
                          np.stack([np.array([0, 1, 0, 0], dtype=dtype), labels], axis=1))
        assert issubclass(LabelError, ValueError)

    @pytest.mark.parametrize("labels", [[2, 0, 1], [1, 0, -1], [2, 0, 0]])
    def test_cases_that_once_scored(self, labels):
        scores = np.array([0.9, 0.5, 0.1])
        with pytest.raises(LabelError, match="labels must be 0 or 1"):
            average_precision(scores, np.array(labels))
        with pytest.raises(LabelError, match="labels must be 0 or 1"):
            scores_to_aps(scores[:, None], np.array(labels)[:, None])

    def test_all_zero_labels_stay_undefined(self):
        with pytest.raises(UndefinedAPError):
            average_precision(np.array([0.5, 0.2]), np.array([0.0, -0.0]))


def toy_dataset(seed=0, n_attr=4):
    spec = SyntheticSpec(latent_dim=6,
                         views=(ViewSpec("fv", 10, 0.1), ViewSpec("cnn", 8, 0.2),
                                ViewSpec("lbp", 6, 0.4)),
                         n_attributes=n_attr, n_train=80, n_val=40, n_test=60,
                         seed=seed)
    table, banks = synth_generate(spec)
    return Dataset(table, banks)


def toy_net(dataset, seed=0):
    import dataclasses
    profile = dataclasses.replace(PROFILES["desk"],
                                  n_outputs=dataset.table.n_attributes)
    return build_net(dataset.kind_dims(), profile, seed)


class TestEvaluateMask:
    def test_constant_scores_match_brute_force(self):
        labels = np.array([[1], [0], [1], [0], [0]], dtype=float)
        scores = np.full((5, 1), 0.5)
        aps, mean = scores_to_aps(scores, labels)
        expected = brute_force_ap([0.5] * 5, [1, 0, 1, 0, 0])
        assert aps[0] == pytest.approx(expected, abs=1e-15)
        assert mean == pytest.approx(expected, abs=1e-15)

    def test_perfect_oracle_scores(self):
        labels = (make_rng(11).random((50, 3)) > 0.5).astype(float)
        aps, mean = scores_to_aps(labels.astype(float), labels)
        assert mean == 1.0

    def test_random_net_near_prevalence(self):
        dataset = toy_dataset()
        net = toy_net(dataset)
        aps, mean = evaluate_mask(net, dataset, "test", ["fv", "cnn", "lbp"])
        _, _, y = dataset.arrays("test")
        prevalence = y.mean()
        # untrained scores should sit near the prevalence baseline, far from 1
        assert abs(mean - prevalence) < 0.25

    def test_undefined_attribute_excluded(self):
        labels = np.array([[1, 0], [0, 0], [1, 0]], dtype=float)
        scores = make_rng(12).random((3, 2))
        aps, mean = scores_to_aps(scores, labels)
        assert np.isnan(aps[1])
        assert mean == pytest.approx(aps[0])

    def test_missing_bank(self):
        dataset = toy_dataset()
        net = toy_net(dataset)
        del dataset.banks["cnn"]
        with pytest.raises(ValueError):
            evaluate_mask(net, dataset, "test", ["fv", "cnn"])


class TestCombinationSweep:
    def test_seven_masks_for_three_kinds(self):
        dataset = toy_dataset()
        report = combination_sweep(toy_net(dataset), dataset, "test")
        assert len(report.masks) == 7
        assert len(set(report.masks)) == 7

    def test_single_kind_aggregate(self):
        dataset = toy_dataset()
        dataset.banks = {"fv": dataset.banks["fv"]}
        report = combination_sweep(toy_net(dataset), dataset, "test")
        assert len(report.masks) == 1
        assert report.aggregate_mean == report.mean_ap[0]
        assert report.aggregate_std == 0.0

    def test_aggregate_recomputable_from_rows(self):
        dataset = toy_dataset()
        report = combination_sweep(toy_net(dataset), dataset, "test")
        means = np.array(report.mean_ap)
        assert abs(report.aggregate_mean - means.mean()) < 1e-12
        assert abs(report.aggregate_std - means.std()) < 1e-12

    def test_per_mask_mean_recomputable(self):
        dataset = toy_dataset()
        report = combination_sweep(toy_net(dataset), dataset, "test")
        for aps, mean in zip(report.per_attribute, report.mean_ap):
            defined = aps[~np.isnan(aps)]
            assert abs(mean - defined.mean()) < 1e-12


def sweep_by_mask(net, dataset, split) -> EvalReport:
    """The combination sweep as one `evaluate_mask` call per mask."""
    kinds = net.kind_names()
    masks = [tuple(k for i, k in enumerate(kinds) if bits & (1 << i))
             for bits in range(1, 1 << len(kinds))]
    rows = [evaluate_mask(net, dataset, split, mask) for mask in masks]
    return EvalReport(kinds, list(dataset.table.names), masks,
                      [aps for aps, _ in rows], [mean for _, mean in rows])


def dataset_with_empty_attribute():
    """The toy dataset with no positives for attribute 2 in the test split."""
    dataset = toy_dataset()
    for img_id in dataset.table.ids_for("test"):
        row = dataset.table.rows[img_id].copy()
        row[2] = 0
        dataset.table.rows[img_id] = row
    return dataset


class TestSweepFromCachedBranches:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_per_mask_evaluation(self, monkeypatch, seed):
        dataset = dataset_with_empty_attribute()
        net = toy_net(dataset, seed=seed)
        scored = []  # the trunk scores of every mask, from both sweeps
        real_scores_to_aps = evaluate.scores_to_aps

        def recording(scores, labels):
            scored.append(scores.tobytes())
            return real_scores_to_aps(scores, labels)

        monkeypatch.setattr(evaluate, "scores_to_aps", recording)
        got, want = combination_sweep(net, dataset, "test"), sweep_by_mask(net, dataset, "test")
        assert scored[:7] == scored[7:]
        assert got.masks == want.masks
        assert got.kind_names == want.kind_names
        assert got.attribute_names == want.attribute_names
        for a, b in zip(got.per_attribute, want.per_attribute):
            assert np.array_equal(a, b, equal_nan=True)
            assert np.isnan(a[2])
        assert got.mean_ap == want.mean_ap
        for fmt in ("csv", "markdown"):
            assert report_emit(got, fmt).encode() == report_emit(want, fmt).encode()

    def test_each_branch_encodes_the_split_once(self, monkeypatch):
        dataset = toy_dataset()
        net = toy_net(dataset)
        calls = {"branch": [], "arrays": 0}
        branch_forward, arrays = evaluate.branch_forward, Dataset.arrays

        def counting_branch(x, branch):
            calls["branch"].append(branch)
            return branch_forward(x, branch)

        def counting_arrays(self, *args, **kwargs):
            calls["arrays"] += 1
            return arrays(self, *args, **kwargs)

        monkeypatch.setattr(evaluate, "branch_forward", counting_branch)
        monkeypatch.setattr(Dataset, "arrays", counting_arrays)
        report = combination_sweep(net, dataset, "test")
        assert len(report.masks) == 7
        assert calls["arrays"] == 1
        assert len(calls["branch"]) == 3
        assert {id(b) for b in calls["branch"]} == {id(b) for b in net.branches}

    @pytest.mark.parametrize("missing", [["cnn"], ["cnn", "lbp"], ["fv"]])
    def test_missing_bank_names_the_first_missing_kind(self, missing):
        dataset = toy_dataset()
        net = toy_net(dataset)
        for kind in missing:
            del dataset.banks[kind]
        with pytest.raises(ValueError) as want:
            sweep_by_mask(net, dataset, "test")
        with pytest.raises(ValueError) as got:
            combination_sweep(net, dataset, "test")
        assert str(got.value) == str(want.value)
        assert repr(missing[0]) in str(got.value)


class TestReportEmit:
    def _report(self):
        dataset = toy_dataset()
        return combination_sweep(toy_net(dataset), dataset, "test")

    def test_mask_labels(self):
        report = self._report()
        labels = [report.mask_label(m) for m in report.masks]
        assert "FCL" in labels and "FxL" in labels and "xxL" in labels
        assert report.mask_label(("fv", "lbp")) == "FxL"

    def test_csv_shape_and_roundtrip(self):
        report = self._report()
        text = report_emit(report, "csv")
        parsed = parse_report_csv(text)
        assert len(parsed["mean_ap"]) == 7
        for mask, mean in zip(report.masks, report.mean_ap):
            reparsed = parsed["mean_ap"][report.mask_label(mask)]
            assert abs(reparsed - mean) <= 1e-6 * max(1.0, abs(mean))
        agg = parsed["aggregate"]
        assert abs(agg[0] - report.aggregate_mean) <= 1e-6

    def test_markdown_has_one_row_per_mask(self):
        report = self._report()
        text = report_emit(report, "markdown")
        lines = [l for l in text.splitlines() if l.startswith("|")]
        # header + separator + 7 masks + aggregate
        assert len(lines) == 10

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            report_emit(self._report(), "yaml")
