"""Point-set and labeled-sample containers, file ingestion, synthetic data,
and a simulated Massart example oracle.  A Massart model's marginal is
uniform over a finite support, so every draw is a support row.

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
from .exact import NO_NEGATION

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

_INT64 = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))
# A coordinate of -2^63 (exact.NO_NEGATION) is refused where points enter,
# masked only when an array's minimum is -2^63.


def sign_pm1(t):
    """sign with sign(0) = +1, the boundary-label convention used throughout."""
    return np.where(np.asarray(t) >= 0, 1, -1).astype(np.int64)


@dataclass
class PointSet:
    """Finite multiset of nonzero integer points in Z^d, none with a
    coordinate -2^63 (ParseError naming the 1-based row).  ``points`` is a
    read-only int64 array; it shares memory with an int64 array it is
    given, and the given array stays writable."""

    dim: int
    points: np.ndarray
    bit_complexity: int = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points)
        if not np.issubdtype(pts.dtype, np.integer):
            raise NonInteger("PointSet coordinates must be integers")
        pts = pts.astype(np.int64, copy=False).view()
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ParseError(f"points shape {pts.shape} does not match dim {self.dim}")
        bad = ~pts.any(axis=1)
        if pts.min(initial=0) == _INT64[0]:
            bad |= (pts == _INT64[0]).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad)) + 1
            raise ParseError(NO_NEGATION, line=i) if pts[i - 1].any() else ZeroPoint(line=i)
        self._set_points(pts)

    def _set_points(self, pts):
        if pts.shape[0] == 0:
            raise EmptyInput("PointSet must contain at least one point")
        pts.flags.writeable = False
        self.dim, self.points = pts.shape[1], pts
        self.bit_complexity = max(-int(pts.min()), int(pts.max())).bit_length()

    @classmethod
    def _checked(cls, pts):
        """The PointSet of int64 rows known to be nonzero, checked no more."""
        out = cls.__new__(cls)
        out._set_points(pts)
        return out

    def take(self, index):
        """The PointSet of the rows points[index]; they passed this set's
        checks, so only the bit complexity is found again."""
        return self._checked(self.points[index])

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


class LabeledDataset:
    """PointSet plus one label in {-1, +1} per point, also held as a
    weighted support: point i and its label are row index[i] of ``support``
    (a PointSet) and of ``support_labels``.  Built from its points, a
    dataset is its own support with the identity index; ``from_support``
    builds one from a support and an index, and its ``base`` is built only
    when asked for."""

    def __init__(self, base, labels):
        y = np.asarray(labels).astype(np.int64)
        if y.shape != (base.n,):
            raise ParseError(f"labels shape {y.shape} vs {base.n} points")
        if not np.all(np.isin(y, (-1, 1))):
            raise ParseError("labels must be -1 or +1")
        y.flags.writeable = False
        self.labels = self.support_labels = y
        self.support, self._base, self._index = base, base, None

    @classmethod
    def from_support(cls, support, labels, index=None):
        """The dataset whose point i is support row index[i] with label
        labels[index[i]]; index None is the identity.  The labels are
        checked on the support, and every support row should be some
        point's, so that the support's bit complexity is the dataset's."""
        data = cls(support, labels)
        if index is not None:
            data._index, data.labels = np.asarray(index).view(), data.labels[index]
            data._index.flags.writeable = data.labels.flags.writeable = False
            data._base = None
        return data

    @property
    def base(self):
        """The PointSet of every point; support.take(index), made when
        first asked for."""
        if self._base is None:
            self._base = self.support.take(self._index)
        return self._base

    @property
    def index(self):
        """Each point's support row; the identity is made when asked for."""
        return np.arange(self.n) if self._index is None else self._index

    @property
    def n(self):
        return self.labels.shape[0]


@dataclass
class EtaSpec:
    """Per-point flip-rate function, always bounded by the model's eta_bound.

    kind = "constant": eta(x) = value.
    kind = "margin_inverse": eta(x) = bound / (1 + |w*.x| / (s * ||x||)),
        larger flip rate close to the separator.
    """

    kind: str = "constant"
    value: float = 0.0
    margin_scale: float = 0.1

    def __post_init__(self):
        if self.kind not in ("constant", "margin_inverse"):
            raise ValueError(f"unknown eta kind {self.kind!r}")


@dataclass
class MassartModel:
    """Ground truth: unit weight vector, flip-rate spec, and the finite
    support whose rows the marginal draws uniformly."""

    w_star: np.ndarray
    eta_bound: float
    eta: EtaSpec
    support: PointSet

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
    else:
        Xf = np.asarray(X, dtype=np.float64)
        norms = np.linalg.norm(Xf, axis=1)
        margins = np.abs(Xf @ model.w_star) / np.maximum(norms, 1e-300)
        vals = model.eta_bound / (1.0 + margins / spec.margin_scale)
    if np.any(vals > model.eta_bound + 1e-12):
        raise ValueError("eta(x) exceeds eta_bound")
    return np.minimum(vals, model.eta_bound)


def _draw_gaussian_grid(seed, indices, dim, scale, bits):
    """Discretized-gaussian draws: round(scale * N(0, I)) clipped to |c| < 2^bits.

    Zero roundings are redrawn deterministically from the same per-index
    substream (bounded retries, then a fixed unit vector).
    """
    idx = np.asarray(indices, dtype=np.uint64)
    # 2^bits - 1 rounds to 2^bits in binary64 from bits 54 on, so the float
    # clip only keeps the cast inside int64 and the int64 clip is the bound.
    top = 2.0 ** int(bits)
    lim = 2 ** int(bits) - 1
    X = np.zeros((idx.size, dim), dtype=np.int64)
    todo = np.arange(idx.size)
    for attempt in range(8):
        if todo.size == 0:
            break
        z = rng.normals(seed, TAG_GAUSS + 16 * attempt, idx[todo], cols=dim)
        cand = np.clip(np.rint(z * scale), -top, top).astype(np.int64)
        np.clip(cand, -lim, lim, out=cand)
        ok = cand.any(axis=1)
        X[todo[ok]] = cand[ok]
        todo = todo[~ok]
    if todo.size:
        X[todo, 0] = 1
    return X


def massart_draw(model, n, seed, start_index=0):
    """n i.i.d. labeled examples from the Massart oracle, draws indexed
    start_index..start_index+n-1: the points and labels of
    ``massart_draw_rows``.

    x uniform over the support; y = sign(w*.x) flipped independently with
    probability eta(x); sign(0) = +1.

    Held as ``load_labeled`` reads its CSV file back: when at most half of
    the draws are distinct (support row, label) pairs, the support is those
    pairs in order of first draw, with an index; else its own support.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows, y = massart_draw_rows(model, seed, range(start_index, start_index + n))
    pair = 2 * rows + (y > 0)  # each draw's (support row, label) pair
    slot = np.full(2 * model.support.n, n)
    np.minimum.at(slot, pair, np.arange(n))  # each pair's first draw; n if none
    first = np.sort(slot[slot < n])  # the drawn pairs' first draws, in order
    if 2 * len(first) > n:
        return LabeledDataset(model.support.take(rows), y)
    slot[pair[first]] = np.arange(len(first))  # each drawn pair's support row
    return LabeledDataset.from_support(model.support.take(rows[first]), y[first], slot[pair])


def massart_draw_rows(model, seed, indices, rows=None, labeled=True):
    """The Massart draws ``indices``, by support row: (rows, y), where draw
    indices[i] is support row rows[i] with label y[i].  The row comes from
    the marginal's stream, the clean label and the flip rate are fixed per
    support row, and only the flip uniform is drawn per draw.

    ``indices`` is an array of draw indices or a counter range (see fdc.rng).
    ``rows`` given (this function's rows for the same indices) labels draws
    already made; ``labeled=False`` draws the rows alone and returns y None.
    """
    S = model.support.points
    if rows is None:
        rows = rng.integers(seed, TAG_MARGINAL, indices, S.shape[0])
    if not labeled:
        return rows, None
    clean = sign_pm1(S.astype(np.float64) @ model.w_star)[rows]
    flips = rng.uniform01(seed, TAG_FLIP, indices) < eta_values(model, S)[rows]
    return rows, np.where(flips, -clean, clean)


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
    model = MassartModel(w, eta, spec, base)

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
    """(lines to parse as bytes, each data line's index among them or None,
    the data lines' 1-based line numbers).  The data lines are the file's
    lines without a leading byte order mark, skipped lines and header.
    When at most half of the file's lines are distinct, the lines to parse
    are the distinct data lines in order of first occurrence, and skipped
    lines are found once per distinct line; otherwise they are the data
    lines and the index is None.  The first kept line is a header only
    when its first cell does not begin like a number (an optional sign,
    then a digit or '.'), so a malformed first data row is a fault, not a
    header; a later copy of the header's bytes is a data line.  A byte
    sequence that is not UTF-8 raises ParseError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if not data.isascii():  # ASCII bytes are UTF-8 text
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b".").splitlines())  # breaks before it, + 1
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None
    lines = data.removeprefix(codecs.BOM_UTF8).splitlines()  # at LF, CRLF and CR only
    distinct, code = list(dict.fromkeys(lines)), None  # code: each line's index in it
    if 2 * len(distinct) <= len(lines):  # else the index costs more than it saves
        ids = dict(zip(distinct, range(len(distinct))))
        code = np.fromiter(map(ids.__getitem__, lines), dtype=np.intp, count=len(lines))
    distinct = lines if code is None else distinct
    keep = np.fromiter(map(bool, map(bytes.lstrip, distinct, repeat(_BLANK))),
                       dtype=bool, count=len(distinct))
    if code is not None:
        keep = keep[code]
    if keep.any():
        first = int(np.argmax(keep))
        try:
            cell = next(csv.reader([lines[first].decode()]))[0].strip()
        except csv.Error:
            pass  # not a header; _csv_fault names the line
        else:
            if not _NUMERIC_START.match(cell):
                keep[first] = False  # a header
    line_no = np.flatnonzero(keep) + 1
    if code is None:
        return list(compress(lines, keep)), None, line_no
    code = code[line_no - 1]
    used = np.zeros(len(distinct), dtype=bool)
    used[code] = True
    return list(compress(distinct, used)), (np.cumsum(used) - 1)[code], line_no


def _rows_to_array(rows, labeled):
    """(X, y, index) from ``_read_csv_rows``' output: one np.loadtxt pass
    over the lines to parse gives the support rows X and labels y, and data
    line i is support row index[i] (index None: the identity).  The label,
    zero-row and -2^63 checks run on the support, and a fault names the
    first data line that has one.  np.loadtxt joins a line whose '"' is
    left open to the next one; a row count that differs from the line count
    is a fault, never a row spread over two lines."""
    lines, index, line_no = rows
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
        if len(A) != len(lines):
            raise ValueError("a quoted cell runs on into the next line")
    except (ValueError, DeprecationWarning) as exc:
        if index is not None:
            lines = list(map(lines.__getitem__, index.tolist()))  # in file order
        raise _csv_fault(lines, line_no, labeled, exc) from None
    if labeled and A.shape[1] < 2:
        raise ParseError("labeled file needs at least 2 columns", line=int(line_no[0]))
    X, y = (A[:, :-1], A[:, -1]) if labeled else (A, None)
    bad_label = (y != 1) & (y != -1) if labeled else np.zeros(len(A), dtype=bool)
    bad = bad_label | ~X.any(axis=1)
    if X.min(initial=0) == _INT64[0]:
        bad |= (X == _INT64[0]).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad if index is None else bad[index]))  # first data line
        r = i if index is None else index[i]
        if bad_label[r]:
            raise ParseError(f"label must be -1 or 1, got {y[r]}", line=int(line_no[i]))
        if X[r].any():
            raise ParseError(NO_NEGATION, line=int(line_no[i]))
        raise ZeroPoint(line=int(line_no[i]))
    return X, y, index


def _csv_fault(lines, line_no, labeled, exc):
    """The typed error of the first data line that is ragged, holds a cell
    that is not an int64 integer, has a bad label, holds -2^63 or is zero.
    Called only once np.loadtxt has rejected the lines."""
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
        if _INT64[0] in vals:
            return ParseError(NO_NEGATION, line=n)
        if not any(vals):
            return ZeroPoint(line=n)
    return ParseError(f"unreadable CSV data: {exc}")


def load_json(path):
    """The JSON document in ``path``, read as UTF-8 whatever the locale;
    ParseError when it is not valid JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or a non-UTF-8 byte
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                             line=getattr(exc, "lineno", None)) from None


def finite_array(value, what, name, shape=None):
    """A JSON field as a float array of finite numbers (of ``shape`` if
    given); ParseError naming the document ``what`` and the field
    otherwise."""
    arr = np.asarray(value)
    if (arr.dtype.kind not in "iuf" or (shape is not None and arr.shape != shape)
            or not np.all(np.isfinite(arr))):
        raise ParseError(f"{what} field {name!r} is not finite numbers"
                         + (f" of shape {shape}" if shape is not None else ""))
    return arr.astype(np.float64)


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
    doc = load_json(path)
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
        X, _, index = _rows_to_array(_read_csv_rows(path), labeled=False)
        support = PointSet._checked(X)
        return support if index is None else support.take(index)
    X, _, dim = _json_to_arrays(path, labeled=False)
    return PointSet(dim, X)


def load_labeled(path, format=None):
    """LabeledDataset from CSV (last column = label) or JSON.  A CSV file
    keeps the reader's support: its distinct lines, when at most half of
    its lines are distinct, with each data line's index among them; other
    files are their own support."""
    fmt = format or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "csv":
        X, y, index = _rows_to_array(_read_csv_rows(path), labeled=True)
        return LabeledDataset.from_support(PointSet._checked(X), y, index)
    X, y, dim = _json_to_arrays(path, labeled=True)
    return LabeledDataset(PointSet(dim, X), y)


CSV_WRITE_ROWS = 4096  # rows formatted per write


def _write_csv(path, rows, header=None, index=None):
    """Integer rows as CSV, byte for byte what ``csv.writer`` writes: no
    quoting, every line ending in CRLF.  Rows are formatted by one ``%``
    format of a repeated ``%d,...,%d\\r\\n`` line.  Without an index the
    file is ``rows``, formatted and written CSV_WRITE_ROWS rows at a time, so
    only one block's text is in memory; with one, each row is formatted once
    and the file's lines rows[index] are written CSV_WRITE_ROWS at a time."""
    line = ",".join(["%d"] * rows.shape[1]) + "\r\n"

    def text(block):
        return line * len(block) % tuple(block.ravel().tolist())

    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        if index is None:
            for s in range(0, len(rows), CSV_WRITE_ROWS):
                fh.write(text(rows[s:s + CSV_WRITE_ROWS]))
            return
        lines = text(rows).splitlines(keepends=True)
        for s in range(0, len(index), CSV_WRITE_ROWS):
            fh.write("".join(map(lines.__getitem__, index[s:s + CSV_WRITE_ROWS].tolist())))


def save_labeled_csv(path, dataset, header=False):
    names = [f"x{i}" for i in range(dataset.support.dim)] + ["y"]
    _write_csv(path, np.column_stack([dataset.support.points, dataset.support_labels]),
               header=names if header else None, index=dataset._index)
