"""Average precision, per-mask evaluation and the feature-combination sweep.

The sweep asks the dataset for the split once and runs each branch over
it once; every mask is then scored by merging the cached branch outputs
into its signature and running the trunk, as the client does before it
sends a frame.

AP uses the interpolation-free discrete estimator: mean precision at the
ranks of the positives after a stable descending sort (ties broken by
ascending original index); the k-th positive at 0-based rank r has
precision k / (r + 1). Labels must be 0 or 1, and any other value (a
CelebA -1, a 2, a NaN) raises `LabelError`. One kernel, `_column_aps`,
ranks every attribute of a score matrix at once. Attributes without
positives in a split have undefined AP; they are excluded from means and
rendered as n/a.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import (HybridNet, bits_to_mask, branch_forward, merge_sum,
                    net_forward, normalize_mask, trunk_forward)


class UndefinedAPError(ValueError):
    """AP is undefined when a split has no positives for an attribute."""


class LabelError(ValueError):
    """AP ranks 0/1 labels; any other label value has no AP."""


def _column_aps(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The AP of every column of matching (n, L) arrays of scores and 0/1
    labels; NaN where a column has no positive.

    All columns are ranked by one quicksort. A row of distinct keys has one
    sorted order, the stable one, so only rows with a tie, a +/-0 pair or a
    NaN (found on the keys the quicksort order gathers) are ranked again
    with a stable sort. A stable sort of every row gives the same order at
    ~4.5x the cost for float64 keys, and tied rows are rare in trained
    nets' scores.
    With 0/1 labels the k-th positive of a column, at 0-based rank r, has
    precision k / (r + 1): the float cumsum of the hits up to it is k
    exactly. Each column's AP is the pairwise sum of its contiguous slice
    of one flat precision array over its count, which has the bits of
    `mean()` over the precisions at that column's positives.
    """
    n, n_cols = scores.shape
    keys = np.negative(scores.T, order="C")  # C-order rows: argsort copies none
    order = np.argsort(keys, axis=1)
    order += n * np.arange(n_cols)[:, None]  # flat indices into (L, n) rows
    ranked = keys.ravel()[order]
    for row in np.flatnonzero(~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)):
        order[row] = np.argsort(keys[row], kind="stable") + row * n
    positive = np.flatnonzero(np.equal(labels.T, 1, order="C").ravel()[order])
    if positive.size != np.count_nonzero(labels):
        bad = labels[(labels != 0) & (labels != 1)].flat[0].item()
        raise LabelError(f"labels must be 0 or 1, got {bad!r}")
    row_starts = n * np.arange(n_cols + 1)
    bounds = np.searchsorted(positive, row_starts)  # each column's slice
    counts = np.diff(bounds)
    k = np.arange(1, positive.size + 1) - np.repeat(bounds[:-1], counts)
    precision = k / (positive + 1 - np.repeat(row_starts[:-1], counts))  # k / (r + 1)
    aps = np.full(n_cols, np.nan)
    for col in np.flatnonzero(counts).tolist():
        aps[col] = np.add.reduce(precision[bounds[col]:bounds[col + 1]]) / counts[col]
    return aps


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size == 0:
        raise ValueError(f"need matching 1-D score/label arrays, got "
                         f"{scores.shape} and {labels.shape}")
    if not labels.any():
        raise UndefinedAPError("no positive labels")
    return float(_column_aps(scores[:, None], labels[:, None])[0])


def evaluate_mask(net: HybridNet, dataset: Dataset, split: str,
                  mask) -> tuple[np.ndarray, float]:
    """Per-attribute APs (NaN where undefined) and their mean for one mask."""
    active = normalize_mask(mask, net)
    _, xs, y = dataset.arrays(split, kinds=active)
    _, scores = net_forward(xs, active, net)
    return scores_to_aps(scores, y)


def scores_to_aps(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-attribute APs (NaN where undefined) and their mean for matching
    (n, L) score and label matrices."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ValueError(f"need matching 2-D score/label arrays, got "
                         f"{scores.shape} and {labels.shape}")
    aps = _column_aps(scores, labels)
    defined = aps[~np.isnan(aps)]
    if defined.size == 0:
        raise UndefinedAPError("every attribute has undefined AP on this split")
    return aps, float(np.add.reduce(defined) / defined.size)


@dataclass
class EvalReport:
    kind_names: list[str]
    attribute_names: list[str]
    masks: list[tuple[str, ...]]       # evaluated mask per row, kind order
    per_attribute: list[np.ndarray]    # APs per mask, NaN = undefined
    mean_ap: list[float]               # mean AP per mask

    @property
    def aggregate_mean(self) -> float:
        return float(np.mean(self.mean_ap))

    @property
    def aggregate_std(self) -> float:
        return float(np.std(self.mean_ap))  # population std across masks

    def mask_label(self, mask) -> str:
        present = set(mask)
        return "".join(k[0].upper() if k in present else "x" for k in self.kind_names)


def combination_sweep(net: HybridNet, dataset: Dataset, split: str) -> EvalReport:
    """Evaluate every nonempty feature combination (2^K - 1 masks).

    Each branch encodes the split once; a mask's signature merges the
    cached outputs of its kinds. `merge_sum` adds in a canonical order and
    each branch sees the matrix `evaluate_mask` would give it, so every AP
    equals the per-mask `evaluate_mask` result bit for bit.
    """
    kinds = net.kind_names()
    _, xs, y = dataset.arrays(split, kinds=kinds)
    encoded = {k: branch_forward(xs[k], net.branch_for(k)) for k in kinds}
    masks, per_attr, means = [], [], []
    for bits in range(1, 1 << len(kinds)):
        mask = tuple(bits_to_mask(bits, net))
        scores = trunk_forward(merge_sum([encoded[k] for k in mask]), net.trunk)
        aps, mean = scores_to_aps(scores, y)
        masks.append(mask)
        per_attr.append(aps)
        means.append(mean)
    return EvalReport(kinds, list(dataset.table.names), masks, per_attr, means)


def report_emit(report: EvalReport, fmt: str) -> str:
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _emit_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["mask", "attribute", "ap"])
    for mask, aps in zip(report.masks, report.per_attribute):
        label = report.mask_label(mask)
        for name, ap in zip(report.attribute_names, aps):
            w.writerow([label, name, "n/a" if np.isnan(ap) else f"{ap:.6g}"])
    for mask, mean in zip(report.masks, report.mean_ap):
        w.writerow([report.mask_label(mask), "mean_ap", f"{mean:.6g}"])
    w.writerow(["aggregate", f"{report.aggregate_mean:.6g}", f"{report.aggregate_std:.6g}"])
    return buf.getvalue()


def _emit_markdown(report: EvalReport) -> str:
    headers = ["mask"] + report.attribute_names + ["mean AP"]
    rows = []
    for mask, aps, mean in zip(report.masks, report.per_attribute, report.mean_ap):
        cells = ["n/a" if np.isnan(a) else f"{a:.4f}" for a in aps]
        rows.append([report.mask_label(mask)] + cells + [f"{mean:.4f}"])
    rows.append(["aggregate"] + [""] * len(report.attribute_names)
                + [f"{report.aggregate_mean:.4f} +/- {report.aggregate_std:.4f}"])
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


def parse_report_csv(text: str) -> dict:
    """Reparse an emitted CSV into {(mask, attribute): ap, ...} plus aggregates."""
    out = {"rows": {}, "mean_ap": {}, "aggregate": None}
    for row in csv.reader(io.StringIO(text)):
        if not row or row[0] == "mask":
            continue
        if row[0] == "aggregate":
            out["aggregate"] = (float(row[1]), float(row[2]))
        elif row[1] == "mean_ap":
            out["mean_ap"][row[0]] = float(row[2])
        else:
            out["rows"][(row[0], row[1])] = None if row[2] == "n/a" else float(row[2])
    return out
