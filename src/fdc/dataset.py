"""Point-set and labeled-sample containers, file ingestion, synthetic data,
and a simulated Massart example oracle.

All randomness is drawn from counter-based substreams (see fdc.rng): a draw is
a pure function of (seed, stream tag, draw index), so any prefix or batch of
draws is reproducible byte for byte and parallel draws match serial draws.
"""

import codecs
import csv
import json
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

from . import rng
from .errors import EmptyInput, NonInteger, ParseError, ZeroPoint

# Stream tags.  Each named purpose owns a tag so draws never alias.
TAG_MARGINAL = 1
TAG_FLIP = 2
TAG_GAUSS = 3
TAG_HARD_DIR = 4
TAG_HARD_SCALE = 5
TAG_HARD_FRAME = 6
TAG_HARD_MIX = 7
TAG_HARD_COMBO = 8
TAG_WSTAR = 9
TAG_MIX_COMP = 10


def sign_pm1(t):
    """sign with sign(0) = +1, the boundary-label convention used throughout."""
    return np.where(np.asarray(t) >= 0, 1, -1).astype(np.int64)


@dataclass
class PointSet:
    """Finite multiset of nonzero integer points in Z^d."""

    dim: int
    points: np.ndarray
    bit_complexity: int = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points)
        if not np.issubdtype(pts.dtype, np.integer):
            raise NonInteger("PointSet coordinates must be integers")
        pts = pts.astype(np.int64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ParseError(f"points shape {pts.shape} does not match dim {self.dim}")
        if pts.shape[0] == 0:
            raise EmptyInput("PointSet must contain at least one point")
        zero_rows = np.nonzero(~pts.any(axis=1))[0]
        if zero_rows.size:
            raise ZeroPoint(line=int(zero_rows[0]) + 1)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "bit_complexity", int(int(np.max(np.abs(pts))).bit_length()))

    @property
    def n(self):
        return self.points.shape[0]


def as_point_array(point_set):
    """(n, d) int64 array of a PointSet or of an array-like of integer rows;
    raises EmptyInput when there is no row."""
    pts = np.asarray(getattr(point_set, "points", point_set), dtype=np.int64)
    if pts.shape[0] == 0:
        raise EmptyInput("empty point set")
    return pts


@dataclass
class LabeledDataset:
    """PointSet plus one label in {-1, +1} per point."""

    base: PointSet
    labels: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.labels).astype(np.int64)
        if y.shape != (self.base.n,):
            raise ParseError(f"labels shape {y.shape} vs {self.base.n} points")
        if not np.all(np.isin(y, (-1, 1))):
            raise ParseError("labels must be -1 or +1")
        y.flags.writeable = False
        object.__setattr__(self, "labels", y)

    @property
    def n(self):
        return self.base.n


@dataclass
class MarginalSpec:
    """Distribution over integer points.

    kind = "uniform": uniform over ``support`` (a PointSet).
    kind = "gaussian": N(0, scale^2 I) rounded to the integer grid, bounded by
        2^bits; zero roundings are redrawn from the draw's own substream.
    kind = "mixture": mixture of gaussian components [(weight, scale), ...],
        discretized the same way.
    """

    kind: str
    support: PointSet = None
    scale: float = 64.0
    bits: int = 12
    components: tuple = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "mixture"):
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        if self.kind == "uniform" and self.support is None:
            raise ValueError("uniform marginal needs a support PointSet")


@dataclass
class EtaSpec:
    """Per-point flip-rate function, always bounded by the model's eta_bound.

    kind = "constant": eta(x) = value.
    kind = "margin_inverse": eta(x) = bound / (1 + |w*.x| / (s * ||x||)),
        larger flip rate close to the separator.
    kind = "table": explicit per-point rates keyed by coordinate tuple, with
        ``default`` elsewhere.
    """

    kind: str = "constant"
    value: float = 0.0
    margin_scale: float = 0.1
    table: dict = None
    default: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "margin_inverse", "table"):
            raise ValueError(f"unknown eta kind {self.kind!r}")


@dataclass
class MassartModel:
    """Ground truth: unit weight vector, flip-rate spec, and marginal."""

    w_star: np.ndarray
    eta_bound: float
    eta: EtaSpec
    marginal: MarginalSpec

    def __post_init__(self):
        w = np.asarray(self.w_star, dtype=np.float64)
        if abs(np.linalg.norm(w) - 1.0) > 1e-12:
            raise ValueError("w_star must be a unit vector (within 1e-12)")
        w.flags.writeable = False
        object.__setattr__(self, "w_star", w)
        if not (0.0 <= self.eta_bound < 0.5):
            raise ValueError("eta_bound must lie in [0, 1/2)")

    @property
    def dim(self):
        return self.w_star.shape[0]


def eta_values(model, X):
    """Vector of flip rates eta(x) for the rows of X; all <= eta_bound."""
    spec = model.eta
    n = np.asarray(X).shape[0]
    if spec.kind == "constant":
        vals = np.full(n, spec.value, dtype=np.float64)
    elif spec.kind == "margin_inverse":
        Xf = np.asarray(X, dtype=np.float64)
        norms = np.linalg.norm(Xf, axis=1)
        margins = np.abs(Xf @ model.w_star) / np.maximum(norms, 1e-300)
        vals = model.eta_bound / (1.0 + margins / spec.margin_scale)
    else:
        table = spec.table or {}
        vals = np.array(
            [table.get(tuple(int(v) for v in row), spec.default) for row in np.asarray(X)],
            dtype=np.float64,
        )
    if np.any(vals > model.eta_bound + 1e-12):
        raise ValueError("eta(x) exceeds eta_bound")
    return np.minimum(vals, model.eta_bound)


def _draw_gaussian_grid(seed, indices, dim, scale, bits, tag=TAG_GAUSS):
    """Discretized-gaussian draws: round(scale * N(0, I)) clipped to |c| < 2^bits.

    Zero roundings are redrawn deterministically from the same per-index
    substream (bounded retries, then a fixed unit vector).
    """
    idx = np.asarray(indices, dtype=np.uint64)
    lim = 2 ** int(bits) - 1
    X = np.zeros((idx.size, dim), dtype=np.int64)
    todo = np.arange(idx.size)
    for attempt in range(8):
        if todo.size == 0:
            break
        z = rng.normals(seed, tag + 16 * attempt, idx[todo], cols=dim)
        cand = np.clip(np.rint(z * scale), -lim, lim).astype(np.int64)
        ok = cand.any(axis=1)
        X[todo[ok]] = cand[ok]
        todo = todo[~ok]
    if todo.size:
        X[todo, 0] = 1
    return X


def draw_marginal(marginal, n, seed, start_index=0):
    """n points from the marginal, draws indexed start_index..start_index+n-1."""
    idx = np.arange(start_index, start_index + n, dtype=np.uint64)
    if marginal.kind == "uniform":
        rows = rng.integers(seed, TAG_MARGINAL, idx, marginal.support.n)
        return marginal.support.points[rows]
    if marginal.kind == "gaussian":
        dim = marginal.support.dim if marginal.support is not None else None
        if dim is None:
            raise ValueError("gaussian marginal needs dim via a support template")
        return _draw_gaussian_grid(seed, idx, dim, marginal.scale, marginal.bits)
    # mixture
    comps = marginal.components
    weights = np.array([w for w, _ in comps], dtype=np.float64)
    weights = np.cumsum(weights / weights.sum())
    u = rng.uniform01(seed, TAG_MIX_COMP, idx)
    comp = np.searchsorted(weights, u)
    dim = marginal.support.dim
    X = np.zeros((n, dim), dtype=np.int64)
    for c, (_, scale) in enumerate(comps):
        sel = comp == c
        if sel.any():
            X[sel] = _draw_gaussian_grid(seed, idx[sel], dim, scale, marginal.bits,
                                         tag=TAG_GAUSS + 256 * (c + 1))
    return X


def massart_draw(model, n, seed, start_index=0):
    """n i.i.d. labeled examples from the Massart oracle.

    x ~ marginal; y = sign(w*.x) flipped independently with probability eta(x);
    sign(0) = +1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    X = draw_marginal(model.marginal, n, seed, start_index=start_index)
    idx = np.arange(start_index, start_index + n, dtype=np.uint64)
    clean = sign_pm1(X.astype(np.float64) @ model.w_star)
    flips = rng.uniform01(seed, TAG_FLIP, idx) < eta_values(model, X)
    y = np.where(flips, -clean, clean)
    return LabeledDataset(PointSet(model.dim, X), y)


def _hard_directions(dim, n, bits, seed):
    """Integer direction vectors, independent of ``bits`` once bits >= 8.

    Half the directions are small random integer vectors; the other half are
    integer combinations of a low-dimensional frame plus +-1 noise, so they
    hug a low-dimensional subspace without lying in it exactly.
    """
    dir_range = 8
    i_all = np.arange(n, dtype=np.uint64)
    flat = np.arange(n * dim, dtype=np.uint64)
    dirs = (rng.integers(seed, TAG_HARD_DIR, flat, 2 * dir_range + 1) - dir_range).reshape(n, dim)
    if bits >= 8 and dim >= 2:
        kappa = max(1, dim // 3)
        fflat = np.arange(kappa * dim, dtype=np.uint64)
        frame = (rng.integers(seed, TAG_HARD_FRAME, fflat, 7) - 3).reshape(kappa, dim)
        for r in range(kappa):
            if not frame[r].any():
                frame[r, r % dim] = 1
        near = rng.uniform01(seed, TAG_HARD_MIX, i_all) < 0.5
        cflat = np.arange(n * kappa, dtype=np.uint64)
        combo = (rng.integers(seed, TAG_HARD_COMBO, cflat, 7) - 3).reshape(n, kappa)
        noise_flat = np.arange(n * dim, dtype=np.uint64)
        noise = (rng.integers(seed, TAG_HARD_COMBO + 1, noise_flat, 3) - 1).reshape(n, dim)
        near_dirs = 4 * (combo @ frame) + noise
        dirs = np.where(near[:, None], near_dirs, dirs)
    zero = ~dirs.any(axis=1)
    dirs[zero, 0] = 1
    return dirs


def gen_hard_instance(dim, n, bits, eta, seed, eta_kind="constant"):
    """Hard bit-complexity instance: common directions, per-point power-of-two
    scales spread up to 2^bits.

    Direction vectors, the target w*, and all labels depend only on
    (dim, n, seed), never on bits, so paired instances across bit budgets have
    identical direction sets and identical labels.
    """
    if bits < 4:
        raise ValueError("bits must be >= 4")
    if bits > 62:
        raise ValueError("bits above 62 would overflow int64 coordinates")
    dirs = _hard_directions(dim, n, bits, seed)
    b_dir = int(int(np.max(np.abs(dirs))).bit_length())
    head = max(0, bits - b_dir)
    i_all = np.arange(n, dtype=np.uint64)
    s = np.floor(rng.uniform01(seed, TAG_HARD_SCALE, i_all) * (head + 1)).astype(np.int64)
    s = np.minimum(s, head)
    points = dirs * (np.int64(1) << s)[:, None]

    w = rng.normals(seed, TAG_WSTAR, np.arange(1, dtype=np.uint64), cols=dim)[0]
    w = w / np.linalg.norm(w)

    base = PointSet(dim, points)
    if eta_kind == "constant":
        spec = EtaSpec("constant", value=eta)
    else:
        spec = EtaSpec(eta_kind)
    model = MassartModel(w, eta, spec, MarginalSpec("uniform", support=base))

    clean = sign_pm1(dirs.astype(np.float64) @ w)
    flips = rng.uniform01(seed, TAG_FLIP, i_all) < eta_values(model, dirs)
    y = np.where(flips, -clean, clean)
    return model, LabeledDataset(base, y)


# ---------------------------------------------------------------------------
# File ingestion / serialization
# ---------------------------------------------------------------------------

# CSV point files: UTF-8 text, one point per line, cells separated by commas.
# Lines end in LF, CRLF or CR.  Blank lines and lines of only ASCII whitespace and
# commas are skipped; the first remaining line is a header when its first cell
# is not an integer.  A cell is an ASCII optional sign and digits inside int64,
# with whitespace (any character str.isspace accepts) around it and optional
# '"' quoting allowed.
_BLANK = b" \t\x0b\x0c\x1c\x1d\x1e\x1f,"  # the bytes a skipped line consists of
_INTEGER = re.compile(r"[+-]?[0-9]+")
_NUMERIC_START = re.compile(r"[+-]?[\d.]")  # a cell that begins like a number
_INT64 = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))


def _int64_array(points):
    """(n, d) int64 array of integer rows.  A coordinate outside int64 raises
    ParseError naming its row's 1-based position."""
    try:
        return np.array(points, dtype=np.int64)
    except OverflowError:
        for i, row in enumerate(points, start=1):
            for v in row:
                if not _INT64[0] <= v <= _INT64[1]:
                    raise ParseError(f"coordinate {v} is outside the int64 range",
                                     line=i) from None
        raise


def _read_csv_rows(path):
    """(data lines as bytes, their 1-based line numbers): the file's lines
    without a leading byte order mark, skipped lines and header.  The first
    kept line is a header only when its first cell does not begin like a
    number (an optional sign, then a digit or '.'), so a malformed first
    data row is a fault, not a header.  A byte sequence that is not UTF-8
    raises ParseError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b".").splitlines())  # breaks before it, + 1
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None
    lines = data.removeprefix(codecs.BOM_UTF8).splitlines()  # at LF, CRLF and CR only
    keep = np.fromiter(map(bool, map(bytes.lstrip, lines, repeat(_BLANK))),
                       dtype=bool, count=len(lines))
    if keep.any():
        first = int(np.argmax(keep))
        try:
            cell = next(csv.reader([lines[first].decode()]))[0].strip()
        except csv.Error:
            pass  # not a header; _csv_fault names the line
        else:
            if not _NUMERIC_START.match(cell):
                keep[first] = False  # a header
    return list(compress(lines, keep)), np.flatnonzero(keep) + 1


def _rows_to_array(rows, labeled):
    """(X, y) from ``_read_csv_rows``' output in one np.loadtxt pass; the
    label and zero-row checks run on the arrays, and a fault names the first
    line that has one."""
    lines, line_no = rows
    if not lines:
        raise ParseError("no data rows")
    try:
        with warnings.catch_warnings():
            # NumPy 1.23-1.26 read a cell that is not an int64 integer ('1.5',
            # '1e3', 2**63) as a float and cast it, with only this warning.
            warnings.filterwarnings("error", message=".*integer via a float",
                                    category=DeprecationWarning)
            A = np.loadtxt(lines, dtype=np.int64, delimiter=",", comments=None,
                           quotechar='"', ndmin=2, encoding="utf-8")
    except (ValueError, DeprecationWarning) as exc:
        raise _csv_fault(lines, line_no, labeled, exc) from None
    if labeled and A.shape[1] < 2:
        raise ParseError("labeled file needs at least 2 columns", line=int(line_no[0]))
    X, y = (A[:, :-1], A[:, -1]) if labeled else (A, None)
    bad_label = (y != 1) & (y != -1) if labeled else np.zeros(len(A), dtype=bool)
    bad = np.flatnonzero(bad_label | ~X.any(axis=1))
    if bad.size:
        r = bad[0]
        if bad_label[r]:
            raise ParseError(f"label must be -1 or 1, got {y[r]}", line=int(line_no[r]))
        raise ZeroPoint(line=int(line_no[r]))
    return X, y


def _csv_fault(lines, line_no, labeled, exc):
    """The typed error of the first data line that is ragged, holds a cell
    that is not an int64 integer, has a bad label or is zero.  Called only
    once np.loadtxt has rejected the lines."""
    width = None
    for line, n in zip(lines, line_no.tolist()):
        try:
            cells = [c.strip() for c in next(csv.reader([line.decode()]))]
        except csv.Error as err:
            return ParseError(f"unreadable row: {err}", line=n)
        if width is None:
            width = len(cells)
            if labeled and width < 2:
                return ParseError("labeled file needs at least 2 columns", line=n)
        if len(cells) != width:
            return ParseError(f"expected {width} columns, got {len(cells)}", line=n)
        for c in cells:
            if not _INTEGER.fullmatch(c):
                return NonInteger(f"coordinate {c!r} is not an integer", line=n)
        for c in cells:  # int() refuses more than 4300 digits; int64 needs 19
            if len(c.lstrip("+-").lstrip("0")) > 19:
                return ParseError(f"value {c[:24]}... is outside the int64 range", line=n)
        vals = [int(c) for c in cells]
        if labeled:
            if vals[-1] not in (-1, 1):
                return ParseError(f"label must be -1 or 1, got {vals[-1]}", line=n)
            vals = vals[:-1]
        for v in vals:
            if not _INT64[0] <= v <= _INT64[1]:
                return ParseError(f"coordinate {v} is outside the int64 range", line=n)
        if not any(vals):
            return ZeroPoint(line=n)
    return ParseError(f"unreadable CSV data: {exc}")


def _json_list(doc, key):
    value = doc.get(key)
    if not isinstance(value, list):
        raise ParseError(f'"{key}" must be a list' if key in doc else f'no "{key}" list')
    return value


def _json_points(pts):
    """The JSON "points" rows as an int64 array, checked in a few passes over
    the coordinates; None when they are well formed but some coordinate lies
    outside int64.  A faulty row raises the typed error of the first one:
    not a list, ragged, a coordinate that is not a JSON integer (true and
    false are not), or zero."""
    widths = {*map(len, pts)} if {*map(type, pts)} == {list} else ()
    if len(widths) == 1 and {*map(type, chain.from_iterable(pts))} <= {int}:
        (d,) = widths
        try:
            X = np.fromiter(chain.from_iterable(pts), dtype=np.int64,
                            count=len(pts) * d).reshape(len(pts), d)
        except OverflowError:
            X = None
        else:
            if X.any(axis=1).all():
                return X
    for i, row in enumerate(pts, start=1):
        if not isinstance(row, list):
            raise ParseError(f"a point must be a list of coordinates, got {row!r}", line=i)
        if len(row) != len(pts[0]):
            raise ParseError(f"expected {len(pts[0])} columns, got {len(row)}", line=i)
        for v in row:
            if type(v) is not int:
                raise NonInteger(f"coordinate {v!r} is not an integer", line=i)
        if not any(row):
            raise ZeroPoint(line=i)
    return None


def _json_labels(labels):
    """The JSON "labels" list as an int64 array of -1 and 1; the first other
    value raises ParseError naming its record."""
    if {*map(type, labels)} <= {int}:
        try:
            y = np.array(labels, dtype=np.int64)
        except OverflowError:
            pass
        else:
            if np.all((y == 1) | (y == -1)):
                return y
    for i, v in enumerate(labels, start=1):
        if type(v) is not int or v not in (-1, 1):
            raise ParseError(f"label must be -1 or 1, got {v!r}", line=i)
    return np.array(labels, dtype=np.int64)


def _json_to_arrays(path, labeled):
    """(X, y, dim) from a JSON document {"dim": d, "points": [[...], ...],
    "labels": [...]}, validated as strictly as a CSV file; a record's 1-based
    position stands for its line.  A document that is not valid JSON, or not
    of this shape, raises ParseError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or a non-UTF-8 byte
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                             line=getattr(exc, "lineno", None)) from None
    if not isinstance(doc, dict):
        raise ParseError('the JSON document must be an object with a "points" list')
    pts = _json_list(doc, "points")
    if not pts:
        raise ParseError("no data rows")
    X = _json_points(pts)
    y = None
    if labeled:
        y = _json_labels(_json_list(doc, "labels"))
    if X is None:
        X = _int64_array(pts)  # raises, naming the row
    dim = doc.get("dim", X.shape[1])
    if type(dim) is not int:
        raise ParseError(f'"dim" must be an integer, got {dim!r}')
    return X, y, dim


def load_points(path, format=None):
    """PointSet from a CSV or JSON file; every column is a coordinate."""
    fmt = format or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "csv":
        X, _ = _rows_to_array(_read_csv_rows(path), labeled=False)
        return PointSet(X.shape[1], X)
    X, _, dim = _json_to_arrays(path, labeled=False)
    return PointSet(dim, X)


def load_labeled(path, format=None):
    """LabeledDataset from CSV (last column = label) or JSON."""
    fmt = format or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "csv":
        X, y = _rows_to_array(_read_csv_rows(path), labeled=True)
        return LabeledDataset(PointSet(X.shape[1], X), y)
    X, y, dim = _json_to_arrays(path, labeled=True)
    return LabeledDataset(PointSet(dim, X), y)


def _write_csv(path, rows, header=None):
    """Integer rows as CSV, byte for byte what ``csv.writer`` writes: no
    quoting, every line ending in CRLF."""
    lines = [",".join(map(str, r)) for r in rows.tolist()]
    if header:
        lines.insert(0, ",".join(header))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([*lines, ""]))


def save_points_csv(path, point_set):
    _write_csv(path, point_set.points)


def save_labeled_csv(path, dataset, header=False):
    names = [f"x{i}" for i in range(dataset.base.dim)] + ["y"]
    _write_csv(path, np.column_stack([dataset.base.points, dataset.labels]),
               header=names if header else None)
