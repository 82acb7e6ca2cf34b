"""Dataset loading, rescaling, splitting, PCA reduction, and synthetic mixtures."""
import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LabeledDataset",
    "SplitSpec",
    "ScaleParams",
    "ProjectionParams",
    "load_csv",
    "scale_features",
    "split",
    "pca_reduce",
    "make_synthetic_mixture",
    "three_normal_preset",
]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix with contiguous integer class labels.

    features : (N, D) float array, finite entries only.
    labels   : (N,) int array with values in [0, class_count).
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    names: tuple | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ValueError("features must be a non-empty N x D matrix")
        if y.shape != (f.shape[0],):
            raise ValueError("labels must be a length-N vector")
        if not np.isfinite(f).all():
            raise ValueError("features contain NaN or Inf")
        if self.class_count < 1 or y.min() < 0 or y.max() >= self.class_count:
            raise ValueError("labels must lie in [0, class_count)")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, indices):
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(self.features[idx], self.labels[idx],
                              self.class_count, self.names, dict(self.meta))

    def with_features(self, features, names=None):
        return LabeledDataset(np.asarray(features, dtype=float), self.labels,
                              self.class_count, names, dict(self.meta))


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the seed that fixes the shuffle."""

    ratios: tuple = (0.6, 0.2, 0.2)
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        r = tuple(float(v) for v in self.ratios)
        if len(r) != 3 or any(not (0.0 < v < 1.0) for v in r):
            raise ValueError("each split fraction must lie in (0, 1)")
        if abs(sum(r) - 1.0) > 1e-12:
            raise ValueError("split fractions must sum to 1")
        object.__setattr__(self, "ratios", r)


@dataclass(frozen=True)
class ScaleParams:
    """Per-feature affine map sending the fitted min to -1 and max to +1.

    Constant features map to 0. Data outside the fitted range maps outside
    [-1, 1], which is intended for validation/test portions.
    """

    low: np.ndarray
    high: np.ndarray

    def transform(self, ds: LabeledDataset) -> LabeledDataset:
        return ds.with_features(self.transform_features(ds.features), ds.names)

    def transform_features(self, x):
        x = np.asarray(x, dtype=float)
        span = self.high - self.low
        safe = np.where(span == 0, 1.0, span)
        out = 2.0 * (x - self.low) / safe - 1.0
        return np.where(span == 0, 0.0, out)

    def to_dict(self):
        return {"low": self.low.tolist(), "high": self.high.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["low"], dtype=float), np.asarray(d["high"], dtype=float))


@dataclass(frozen=True)
class ProjectionParams:
    """Centered projection onto the leading eigenvectors of a training covariance."""

    mean: np.ndarray
    components: np.ndarray  # (D, d), orthonormal columns

    def transform(self, ds: LabeledDataset) -> LabeledDataset:
        return ds.with_features(self.transform_features(ds.features), None)

    def transform_features(self, x):
        return (np.asarray(x, dtype=float) - self.mean) @ self.components


def load_csv(path, label_column, has_header=False):
    """Load a numeric CSV with one label column into a LabeledDataset.

    Parameters
    ----------
    path : str or Path
        Comma-separated file. Every feature cell must parse as a finite float.
    label_column : int or str
        0-based column index, or a column name (requires has_header=True).
    has_header : bool
        Whether the first row holds column names.

    Labels are re-encoded to 0..C-1 by the sorted order of the original label
    values (numeric order when every label parses as a number, lexicographic
    otherwise). Row order is preserved. A single-class file is accepted but
    flagged in meta["single_class"].
    """
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = None
        for i, row in enumerate(reader):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if has_header and header is None:
                header = [c.strip() for c in row]
                continue
            rows.append([c.strip() for c in row])
    if not rows:
        raise ValueError(f"empty dataset: {path}")

    if isinstance(label_column, str):
        if header is None:
            raise ValueError("label column given by name but the file has no header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(f"label column {label_column!r} not found in header") from None
    else:
        label_idx = int(label_column)

    width = len(rows[0])
    if not (0 <= label_idx < width):
        raise ValueError(f"label column index {label_idx} out of range for {width} columns")

    n, d = len(rows), width - 1
    if d < 1:
        raise ValueError("dataset needs at least one feature column")
    features = np.empty((n, d), dtype=float)
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged row {r}: expected {width} cells, got {len(row)}")
        j = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                raw_labels.append(cell)
                continue
            try:
                v = float(cell)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                raise ValueError(f"non-numeric cell at ({r}, {c})")
            features[r, j] = v
            j += 1

    try:
        keys = [float(v) for v in raw_labels]
    except ValueError:
        keys = raw_labels
    order = sorted(set(keys))
    encode = {v: i for i, v in enumerate(order)}
    labels = np.array([encode[k] for k in keys], dtype=int)

    names = None
    if header is not None:
        names = tuple(h for i, h in enumerate(header) if i != label_idx)
    meta = {"source": str(path), "label_values": [str(v) for v in order]}
    if len(order) == 1:
        meta["single_class"] = True
    return LabeledDataset(features, labels, len(order), names, meta)


def scale_features(ds: LabeledDataset):
    """Fit the [-1, 1] per-feature scaling on ds and return (scaled ds, params)."""
    low = ds.features.min(axis=0)
    high = ds.features.max(axis=0)
    params = ScaleParams(low, high)
    return params.transform(ds), params


def _allocate(total, ratios):
    # largest-remainder allocation; ties go to the earlier split
    raw = np.asarray(ratios) * total
    counts = np.floor(raw).astype(int)
    for j in np.argsort(-(raw - counts), kind="stable")[: total - counts.sum()]:
        counts[j] += 1
    return counts


def _cut(idx, ratios):
    """The three consecutive portions of idx sized by _allocate."""
    return np.split(idx, np.cumsum(_allocate(len(idx), ratios))[:2])


def split(ds: LabeledDataset, spec: SplitSpec):
    """Partition ds into (train, validation, test) per spec.

    The split is deterministic given spec.seed and exhaustive (every index is
    used exactly once). Stratified mode allocates per class with the
    largest-remainder rule, so class proportions hold within one sample.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        per_class = []
        for c in range(ds.class_count):
            idx = np.flatnonzero(ds.labels == c)
            if len(idx) < 3:
                raise ValueError(f"stratified split needs >= 3 members per class; class {c} has {len(idx)}")
            rng.shuffle(idx)
            per_class.append(_cut(idx, spec.ratios))
        parts = [np.concatenate(p) for p in zip(*per_class)]
    else:
        parts = _cut(rng.permutation(ds.n), spec.ratios)
    parts = [np.sort(p) for p in parts]
    if any(len(p) == 0 for p in parts):
        raise ValueError("split produced an empty portion; dataset too small for these ratios")
    return tuple(ds.subset(p) for p in parts)


def pca_reduce(train: LabeledDataset, d, *others):
    """Project onto the top-d eigenvectors of the training covariance.

    Returns (ProjectionParams, (reduced train, *reduced others)). Any extra
    datasets are projected with the training mean and components.
    """
    dim = train.dim
    if not (1 <= d <= dim):
        raise ValueError(f"target dimension {d} outside [1, {dim}]")
    mean = train.features.mean(axis=0)
    centered = train.features - mean
    cov = (centered.T @ centered) / train.n
    w, u = np.linalg.eigh(cov)
    u = u[:, np.argsort(w)[::-1][:d]].copy()
    # deterministic sign: largest-magnitude entry of each component positive
    for j in range(u.shape[1]):
        i = np.argmax(np.abs(u[:, j]))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    params = ProjectionParams(mean, u)
    reduced = tuple(params.transform(x) for x in (train, *others))
    return params, reduced


def make_synthetic_mixture(components, n, seed):
    """Draw n labeled samples from a Gaussian mixture.

    components : sequence of (weight, mean, covariance, class_label)
        Weights must be positive and sum to 1; covariances symmetric PD.
    """
    weights = np.array([float(c[0]) for c in components])
    if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("component weights must be non-negative and sum to 1")
    means = [np.asarray(c[1], dtype=float) for c in components]
    chols = []
    for _, _, cov, _ in components:
        cov = np.asarray(cov, dtype=float)
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("non-PD covariance: not symmetric")
        try:
            chols.append(np.linalg.cholesky(cov))
        except np.linalg.LinAlgError:
            raise ValueError("non-PD covariance") from None
    classes = np.array([int(c[3]) for c in components])
    if classes.min() < 0:
        raise ValueError("class labels must be non-negative")

    rng = np.random.default_rng(seed)
    assign = rng.choice(len(components), size=n, p=weights)
    dim = means[0].shape[0]
    x = np.empty((n, dim))
    for j in range(len(components)):
        idx = np.flatnonzero(assign == j)
        if len(idx):
            x[idx] = means[j] + rng.standard_normal((len(idx), dim)) @ chols[j].T
    labels = classes[assign]
    return LabeledDataset(x, labels, int(classes.max()) + 1,
                          meta={"source": "synthetic", "seed": int(seed)})


def three_normal_preset(scale=3.0, elongation=2.5, dim=10):
    """Fixed 3-class Gaussian mixture preset ("3-Normal"-like).

    Class c is centered at scale * e_c in dim dimensions with a diagonal
    covariance elongated (sd = elongation) along axis (c + 1) mod 3 and unit
    elsewhere, so each class has a distinct anisotropy and most axes carry no
    class signal. Weights are equal.
    """
    if dim < 3:
        raise ValueError(f"the three-class preset needs dim >= 3, got {dim}")
    components = []
    for c in range(3):
        mean = np.zeros(dim)
        mean[c] = scale
        sd = np.ones(dim)
        sd[(c + 1) % 3] = elongation
        components.append((1.0 / 3.0, mean, np.diag(sd ** 2), c))
    return components
