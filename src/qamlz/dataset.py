"""Event data model, synthetic generation, CSV ingestion, preselection and sample splitting.

Events are weighted, tagged feature vectors, stored column-wise in a
`Dataset` (numpy arrays): an event is one row of `values` with its tag,
weight and process. All containers are immutable after construction;
generation derives one RNG stream per event from (seed, event index) so
results are independent of evaluation order. The streams are seeded and
drawn chunk by chunk through `_sweep.STREAMS`: in C where the compiled
library holds them, and otherwise one numpy generator per event, with the
same values: each attempt's value is summed in one fixed order, with no
BLAS product.
"""

from __future__ import annotations

import csv
import ctypes
import io
import math
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import _sweep
from .errors import ConfigError, DataError

PROCESSES = ("signal", "wjets", "ttbar", "other")

#: Discriminating variables of the reference search, in canonical order.
BASE_VARIABLES = (
    "pt_lep", "eta_lep", "q_lep", "met", "mt", "n_jets",
    "pt_jet1", "ht", "disc_b", "n_b", "pt_b", "dr_lb",
)

#: Extra columns consumed only by the default preselection.
PRESELECTION_VARIABLES = ("eta_jet1", "is_muon", "pt_lep2", "pt_jet2", "dphi_j1j2")


def _repeated(names: Sequence[str]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted(n for n, count in Counter(names).items() if count > 1)


class Dataset:
    """Ordered, immutable collection of events over a fixed variable schema."""

    __slots__ = ("schema", "values", "tags", "weights", "processes")

    def __init__(
        self,
        schema: Sequence[str],
        values: np.ndarray,
        tags: np.ndarray,
        weights: np.ndarray,
        processes: Sequence[str],
    ):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        tags = np.asarray(tags, dtype=np.int8)
        weights = np.asarray(weights, dtype=np.float64)
        processes_arr = np.asarray(processes, dtype=object)
        n = values.shape[0] if values.ndim == 2 else 0
        if values.ndim != 2 or values.shape[1] != len(schema):
            raise DataError(
                f"values must be (n, {len(schema)}) for schema of size {len(schema)}"
            )
        repeated = _repeated(schema)
        if repeated:
            raise DataError(f"schema names {repeated} more than once")
        if not (len(tags) == len(weights) == len(processes_arr) == n):
            raise DataError("tags/weights/processes length mismatch")
        if n and not np.isin(tags, (-1, 1)).all():
            raise DataError("tags must be +1 or -1")
        if n and not (np.isfinite(weights) & (weights >= 0)).all():
            raise DataError("weights must be finite and non-negative")
        with np.errstate(over="ignore"):
            if not np.isfinite(weights.sum()):
                raise DataError("the weights' total overflows the float range")
        if n and not np.isfinite(values).all():
            raise DataError("event values must be finite")
        bad = set(processes_arr) - set(PROCESSES)
        if bad:
            raise DataError(f"unknown processes {sorted(bad)}; expected subset of {PROCESSES}")
        for arr in (values, tags, weights, processes_arr):
            arr.setflags(write=False)
        object.__setattr__(self, "schema", tuple(schema))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "processes", processes_arr)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Dataset is immutable")

    def __reduce__(self):
        return (
            Dataset,
            (self.schema, np.asarray(self.values), np.asarray(self.tags),
             np.asarray(self.weights), list(self.processes)),
        )

    def __len__(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.schema.index(name)
        except ValueError:
            raise DataError(f"variable {name!r} not in schema") from None
        return self.values[:, j]

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Column-ordered value matrix for the requested variables."""
        idx = []
        for name in names:
            if name not in self.schema:
                raise DataError(f"variable {name!r} not in schema")
            idx.append(self.schema.index(name))
        return self.values[:, idx]

    def select(self, mask_or_indices) -> "Dataset":
        sel = np.asarray(mask_or_indices)
        return Dataset(
            self.schema,
            self.values[sel],
            self.tags[sel],
            self.weights[sel],
            self.processes[sel],
        )

    # -- CSV round trip ------------------------------------------------

    def to_csv(self, path: str | Path | None = None) -> str | None:
        """Write `tag,weight,process,<schema...>` rows; returns the text when path is None."""
        header = io.StringIO()
        # csv.writer quotes only the characters of its line terminator, and a
        # reader also ends a line at "\r": quote as for "\r\n", end the line with "\n"
        csv.writer(header, lineterminator="\r\n").writerow(("tag", "weight", "process")
                                                           + self.schema)
        buf = io.StringIO()
        buf.write(header.getvalue()[:-2] + "\n")
        # process names and numbers hold no character a CSV must quote
        for tag, weight, process, values in zip(self.tags.tolist(), self.weights.tolist(),
                                                self.processes, self.values.tolist()):
            buf.write(",".join((str(tag), repr(weight), process, *map(repr, values))) + "\n")
        text = buf.getvalue()
        if path is None:
            return text
        Path(path).write_text(text, encoding="utf-8")
        return None


#: numpy.loadtxt arguments of both columnar reads in `_load_columns`
_LOADTXT = dict(delimiter=",", skiprows=1, comments=None, quotechar='"', encoding="utf-8",
                ndmin=2)
#: bytes of characters the two readers treat apart: numpy strips U+001C-U+001F
#: from a number as whitespace and `float()` does not; the csv module refuses
#: NUL before Python 3.11
_ROW_LOOP_BYTES = (b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
#: the largest `csv.field_size_limit`, which is a C long
_FIELD_LIMIT = 2 ** (8 * ctypes.sizeof(ctypes.c_long) - 1) - 1


@contextmanager
def _reading(path: Path):
    """A read of `path` by `csv.reader`, whose cells may then be as long as
    numpy's reader takes them: the field size limit is raised to its largest
    for the read, and restored after. A file that cannot be opened, decoded
    or tokenised is raised as a `DataError` naming it."""
    limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: unreadable CSV ({exc})") from None
    except OSError as exc:
        raise DataError(f"cannot read event file {path}: {exc.strerror or exc}") from None
    finally:
        csv.field_size_limit(limit)


def _read_header(path: Path, reader,
                 schema: Sequence[str] | None) -> tuple[list[str], Sequence[str]]:
    """The stripped header row and the schema, checked against each other."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, expected a header row") from None
    header = [h.strip() for h in header]
    repeated = _repeated(header)
    if repeated:
        raise DataError(f"{path}: header names {repeated} more than once")
    if schema is None:
        schema = [c for c in header if c not in ("tag", "weight", "process")]
    missing = [c for c in ("tag", "weight", "process", *schema) if c not in header]
    if missing:
        raise DataError(f"{path}: missing required columns {missing}")
    return header, schema


def load_events(path: str | Path, schema: Sequence[str] | None = None) -> Dataset:
    """Parse a CSV event file.

    The header must name a superset of `schema` plus `tag`, `weight` and
    `process`; unknown columns are ignored. Without a `schema`, every other
    header column is a variable, in header order. Rows are kept in file
    order. Parse failures, including a weight or value that is not finite,
    name the offending 1-based data row and column; a file that cannot be
    read or is not UTF-8 is a `DataError` too.

    The columns are parsed by numpy's C reader (`_load_columns`). A file it
    refuses, or whose columns fail a check, is read again row by row by
    `_load_rows`, the source of every error message. The two take the same
    files to the same bits.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"event file not found: {path}")
    with _reading(path):
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header, schema = _read_header(path, reader, schema)
            # numpy skips one line; a header with a quoted line break spans more
            one_line_header = reader.line_num == 1
        d = _load_columns(path, header, schema) if one_line_header else None
    return d if d is not None else _load_rows(path, schema)


def _load_columns(path: Path, header: list[str], schema: Sequence[str]) -> Dataset | None:
    """The events of `path` as numpy's C reader parses them, column by column,
    or None when it refuses the file or a column fails a check of `_load_rows`.

    Numbers are parsed as `float()` parses them (numpy calls the same
    string-to-double routine). A file holding a byte of `_ROW_LOOP_BYTES` is
    left to `_load_rows`. The read of `process` also takes the last header
    column, so a row with fewer cells than the header is refused, as
    `_load_rows` refuses it.
    """
    if _holds_row_loop_byte(path):
        return None
    try:
        with warnings.catch_warnings():
            # numpy warns of blank lines and of a file without data rows
            warnings.simplefilter("ignore", UserWarning)
            numbers = np.loadtxt(path, dtype=np.float64, **_LOADTXT,
                                 usecols=[header.index(c) for c in ("tag", "weight", *schema)])
            cells = np.loadtxt(path, dtype=object, **_LOADTXT,
                               usecols=(header.index("process"), len(header) - 1))
    except ValueError:
        return None
    processes = [p.strip() for p in cells[:, 0].tolist()]
    tags, weights = numbers[:, 0], numbers[:, 1]
    if not (np.isfinite(numbers).all() and np.isin(tags, (-1.0, 1.0)).all()
            and (weights >= 0).all() and set(processes) <= set(PROCESSES)):
        return None
    # copied, so that no column of the dataset keeps the parsed block alive
    return Dataset(schema, numbers[:, 2:], tags.astype(np.int8), weights.copy(), processes)


def _holds_row_loop_byte(path: Path) -> bool:
    """Whether the file holds a byte of `_ROW_LOOP_BYTES`; in UTF-8 each such
    byte is its own character."""
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if any(b in chunk for b in _ROW_LOOP_BYTES):
                return True
    return False


def _load_rows(path: str | Path, schema: Sequence[str] | None = None) -> Dataset:
    """`load_events` by a Python loop over the rows of `csv.reader`: the reader
    of files `_load_columns` refuses, and the source of every error message."""
    path = Path(path)
    with _reading(path), path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, schema = _read_header(path, reader, schema)
        col = {name: header.index(name) for name in header}

        def _num(row: list[str], r: int, name: str) -> float:
            cell = row[col[name]]
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {cell!r} at row {r}, column {name!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: non-finite value {cell!r} at row {r}, column {name!r}"
                )
            return value

        rows_v, rows_t, rows_w, rows_p = [], [], [], []
        for r, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < len(header):
                raise DataError(
                    f"{path}: row {r} has {len(row)} cells, header has {len(header)}"
                )
            tag = _num(row, r, "tag")
            if tag not in (-1.0, 1.0):
                raise DataError(f"{path}: tag must be +1 or -1 at row {r}, got {row[col['tag']]!r}")
            weight = _num(row, r, "weight")
            if weight < 0:
                raise DataError(f"{path}: negative weight at row {r}")
            process = row[col["process"]].strip()
            if process not in PROCESSES:
                raise DataError(
                    f"{path}: unknown process {process!r} at row {r}; expected one of {PROCESSES}"
                )
            rows_v.append([_num(row, r, name) for name in schema])
            rows_t.append(int(tag))
            rows_w.append(weight)
            rows_p.append(process)
    values = np.array(rows_v, dtype=np.float64).reshape(len(rows_t), len(schema))
    return Dataset(schema, values, rows_t, rows_w, rows_p)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessModel:
    """Truncated multivariate Gaussian for one process, over the spec schema."""

    mean: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]

    def factor(self) -> np.ndarray:
        """PSD square root of the covariance (eigen factor, deterministic)."""
        cov = np.asarray(self.cov, dtype=np.float64)
        w, v = np.linalg.eigh(cov)
        return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class GeneratorSpec:
    """Configuration of the synthetic event generator.

    `processes` must contain 'signal'; every other entry is a background
    process drawn with probability (1 - signal_fraction) * background_fractions[name].
    Total yields s_tot / b_tot are spread uniformly over the generated events
    of each class. `bounds` truncates listed variables (rejection with a
    capped retry count, then clipping); `integer_variables` are rounded after
    truncation.
    """

    schema: tuple[str, ...]
    processes: Mapping[str, ProcessModel]
    signal_fraction: float
    background_fractions: Mapping[str, float]
    s_tot: float
    b_tot: float
    bounds: Mapping[str, tuple[float | None, float | None]] = field(default_factory=dict)
    integer_variables: tuple[str, ...] = ()

    def __post_init__(self):
        k = len(self.schema)
        if k == 0:
            raise ConfigError("generator spec needs at least one variable in its schema")
        if "signal" not in self.processes:
            raise ConfigError("generator spec needs a 'signal' process")
        for name, pm in self.processes.items():
            if name not in PROCESSES:
                raise ConfigError(f"unknown process {name!r}")
            # row by row: numpy refuses a ragged covariance with a ValueError
            if len(pm.mean) != k or len(pm.cov) != k or any(len(row) != k for row in pm.cov):
                raise ConfigError(f"process {name!r}: mean/cov shape does not match schema")
            cov = np.asarray(pm.cov, dtype=np.float64)
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ConfigError(f"process {name!r}: covariance not symmetric")
            eigmin = float(np.linalg.eigvalsh(cov).min())
            if eigmin < -1e-9 * max(1.0, float(np.abs(cov).max())):
                raise ConfigError(f"process {name!r}: covariance not positive semi-definite")
        if not 0.0 < self.signal_fraction < 1.0:
            raise ConfigError("signal_fraction must be in (0, 1); a zero-probability class is not generable")
        bg = {n: f for n, f in self.background_fractions.items()}
        if set(bg) - (set(self.processes) - {"signal"}):
            raise ConfigError("background_fractions names an unknown process")
        if any(f < 0 for f in bg.values()) or abs(sum(bg.values()) - 1.0) > 1e-9:
            raise ConfigError("background_fractions must be non-negative and sum to 1")
        for v, bound in self.bounds.items():
            if v not in self.schema:
                raise ConfigError(f"bound on unknown variable {v!r}")
            if not isinstance(bound, (tuple, list)) or len(bound) != 2:
                raise ConfigError(f"bound on {v!r} must be a (lower, upper) pair, got {bound!r}")
            lo, hi = bound
            if lo is not None and hi is not None and lo > hi:
                raise ConfigError(f"bound on {v!r}: lower end {lo} exceeds upper end {hi}")
        for v in self.integer_variables:
            if v not in self.schema:
                raise ConfigError(f"integer variable {v!r} not in schema")


_MAX_TRUNCATION_TRIES = 100
#: events drawn together; bounds the size of the per-chunk arrays
_CHUNK = 1024


def _draw_chunk(streams, signal_fraction, bg_cum, means, facs, lo, hi):
    """Each event's process index into `means` and `facs`, and its first
    Gaussian attempt inside the bounds, or else the one after the last
    check, unclipped.

    Event r draws from its own stream in `streams` (see `_sweep.NumpyStreams`):
    the class uniform, the process uniform of a background event (`head`),
    then attempts of model proc[r] (`values`), each computed in one fixed
    order and tested until one lies inside [lo, hi]. Both stream kinds
    compute the values in that order, so both return the bits of each
    event's attempts drawn and tested alone.
    """
    u_bg = streams.head(signal_fraction)
    bg = ~np.isnan(u_bg)
    proc = np.zeros(len(u_bg), dtype=np.int64)
    proc[bg] = 1 + np.searchsorted(bg_cum, u_bg[bg], side="right")
    return proc, streams.values(proc, means, facs, lo, hi, _MAX_TRUNCATION_TRIES)


def generate_synthetic(spec: GeneratorSpec, n_events: int, seed: int) -> Dataset:
    """Draw `n_events` events; deterministic and schedule-independent for a fixed seed.

    Class and process are sampled per event; per-class weights are set after
    the fact so signal weights sum to s_tot and background weights to b_tot.
    Event i draws only from its own stream, numpy's `default_rng` of the key
    (seed, i): a class uniform, a process uniform for background events, then
    Gaussian attempts z until one lies inside `bounds`, each of value x_i =
    mean_i + (fac_i0 z_0 + fac_i1 z_1 + ...), summed in j order from the
    first product. Events are generated in chunks: `_sweep.STREAMS` seeds the
    chunk's streams, draws their uniforms and computes and tests their
    attempts; the values are those of drawing and testing each event's
    attempts one by one. `seed` must lie in [0, 2**64).
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be a non-negative 64-bit integer")
    if n_events <= 0:
        raise ConfigError("n_events must be positive")
    bg_names = [n for n in spec.processes if n != "signal"]
    names = np.array(["signal", *bg_names], dtype=object)
    means = np.array([spec.processes[n].mean for n in names], dtype=np.float64)
    facs = np.array([spec.processes[n].factor() for n in names])
    bg_cum = np.cumsum([spec.background_fractions.get(n, 0.0) for n in bg_names])
    # an unbounded side is infinite, which passes every test and clips nothing
    lo = np.full(len(spec.schema), -np.inf)
    hi = np.full(len(spec.schema), np.inf)
    for v, (a, b) in spec.bounds.items():
        if a is not None:
            lo[spec.schema.index(v)] = a
        if b is not None:
            hi[spec.schema.index(v)] = b

    values = np.empty((n_events, len(spec.schema)), dtype=np.float64)
    proc = np.empty(n_events, dtype=np.intp)  # index into names
    for start in range(0, n_events, _CHUNK):
        stop = min(start + _CHUNK, n_events)
        proc[start:stop], values[start:stop] = _draw_chunk(
            _sweep.STREAMS(int(seed), start, stop), spec.signal_fraction, bg_cum, means, facs,
            lo, hi)

    def clip(cols: np.ndarray) -> np.ndarray:  # min(max(v, lo), hi), as Python orders ties
        cols = np.where(lo > cols, lo, cols)
        return np.where(hi < cols, hi, cols)

    values = clip(values)
    int_idx = [spec.schema.index(v) for v in spec.integer_variables]
    values[:, int_idx] = np.rint(values[:, int_idx])
    values = clip(values)  # rounding may step outside a tight bound

    tags = np.where(proc == 0, 1, -1).astype(np.int8)
    n_sig = int((tags == 1).sum())
    n_bg = n_events - n_sig
    if n_sig == 0 or n_bg == 0:
        raise DataError(
            f"generated sample has an empty class (signal={n_sig}, background={n_bg}); "
            "increase n_events"
        )
    weights = np.where(tags == 1, spec.s_tot / n_sig, spec.b_tot / n_bg)
    return Dataset(spec.schema, values, tags, weights, names[proc])


# ---------------------------------------------------------------------------
# Preselection
# ---------------------------------------------------------------------------


def apply_preselection(d: Dataset) -> Dataset:
    """Kinematic preselection favouring a hard-MET, single-lepton topology.

    Keeps exactly the events passing every cut; event order is preserved.
    Muon/electron thresholds differ, so the lepton requirements depend on the
    `is_muon` flag; the dijet-angle veto applies only when a second hard jet
    is present. A cut variable absent from the schema is a `DataError`.
    """
    c = d.column
    lepton = np.where(c("is_muon") >= 0.5,
                      (c("pt_lep") > 3.5) & (np.abs(c("eta_lep")) < 2.4),
                      (c("pt_lep") > 5.0) & (np.abs(c("eta_lep")) < 2.5))
    keep = ((c("met") > 280.0) & (c("pt_jet1") > 110.0) & (np.abs(c("eta_jet1")) < 2.4)
            & (c("ht") > 200.0) & (c("pt_lep2") <= 20.0)  # veto a second lepton above 20 GeV
            & lepton & ((c("pt_jet2") <= 60.0) | (c("dphi_j1j2") < 2.5)))
    return d.select(keep)


# ---------------------------------------------------------------------------
# Sample splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSplit:
    """Disjoint train/test/assess partition; train and test sizes differ by at most 1."""

    train: Dataset
    test: Dataset
    assess: Dataset


def split_samples(
    d: Dataset,
    seed: int,
    qa_fraction: float = 0.5,
    assess_processes: Sequence[str] = (),
) -> SampleSplit:
    """Split into assess and an annealing half, itself halved into train and test.

    A seeded uniform shuffle is followed by contiguous slicing, so the split
    is reproducible and independent of input order statistics. Events whose
    process is listed in `assess_processes` bypass the shuffle and are routed
    entirely to the assess sample.
    """
    if len(d) < 4:
        raise DataError("need at least 4 events to split")
    if not 0.0 < qa_fraction < 1.0:
        raise ConfigError("qa_fraction must be in (0, 1)")
    forced = np.isin(d.processes.astype(str), list(assess_processes))
    pool = np.flatnonzero(~forced)
    rng = np.random.default_rng(seed)
    perm = pool[rng.permutation(len(pool))]
    n_qa = int(round(qa_fraction * len(perm)))
    qa, assess_idx = perm[:n_qa], perm[n_qa:]
    train_idx, test_idx = qa[: n_qa // 2], qa[n_qa // 2:]
    assess_idx = np.concatenate([assess_idx, np.flatnonzero(forced)])
    return SampleSplit(
        train=d.select(train_idx),
        test=d.select(test_idx),
        assess=d.select(assess_idx),
    )


# ---------------------------------------------------------------------------
# Ready-made generator specs
# ---------------------------------------------------------------------------


def two_gaussian_spec(
    variables: Sequence[str],
    signal_means: Sequence[float],
    background_means: Sequence[float],
    sigmas: Sequence[float] | float = 1.0,
    signal_fraction: float = 0.4,
    s_tot: float = 7_000.0,
    b_tot: float = 200_000.0,
) -> GeneratorSpec:
    """Minimal two-class spec: independent Gaussians per variable, one background process."""
    k = len(variables)
    sig = np.broadcast_to(np.asarray(sigmas, dtype=float), (k,))
    cov = tuple(map(tuple, np.diag(sig**2)))
    return GeneratorSpec(
        schema=tuple(variables),
        processes={
            "signal": ProcessModel(tuple(float(m) for m in signal_means), cov),
            "wjets": ProcessModel(tuple(float(m) for m in background_means), cov),
        },
        signal_fraction=signal_fraction,
        background_fractions={"wjets": 1.0},
        s_tot=s_tot,
        b_tot=b_tot,
    )


def default_generator_spec(
    s_tot: float = 7_000.0,
    b_tot: float = 200_000.0,
    signal_fraction: float = 0.4,
    wjets_fraction: float = 0.5,
) -> GeneratorSpec:
    """Stand-in for the simulated search samples: 12 discriminating variables
    plus the preselection-only columns, with a dialed signal/background
    separation and mild kinematic correlations.

    The numbers below are artifact defaults chosen so that most events pass
    the default preselection and no single variable separates perfectly.
    """
    schema = BASE_VARIABLES + PRESELECTION_VARIABLES
    #               ptl  etal  ql   met   mt   njet ptj1  ht  discb  nb  ptb  drlb | etaj1 ismu ptl2 ptj2 dphi
    mean_sig = [45.0, 0.0, 0.1, 430.0, 150.0, 3.6, 310.0, 560.0, 0.62, 1.3, 150.0, 1.7,
                0.0, 0.55, 4.0, 95.0, 1.45]
    mean_wj = [38.0, 0.0, 0.2, 345.0, 95.0, 3.0, 280.0, 470.0, 0.38, 0.7, 110.0, 2.1,
               0.0, 0.55, 5.0, 85.0, 1.65]
    mean_tt = [42.0, 0.0, 0.0, 330.0, 110.0, 4.4, 265.0, 520.0, 0.72, 1.7, 135.0, 1.5,
               0.0, 0.55, 9.0, 100.0, 1.60]
    sigma = [18.0, 1.2, 0.9, 80.0, 55.0, 1.3, 95.0, 150.0, 0.22, 0.9, 60.0, 0.8,
             1.1, 0.6, 7.0, 45.0, 0.75]

    corr = np.eye(len(schema))

    def couple(a: str, b: str, rho: float):
        i, j = schema.index(a), schema.index(b)
        corr[i, j] = corr[j, i] = rho

    couple("ht", "pt_jet1", 0.55)
    couple("ht", "n_jets", 0.45)
    couple("met", "mt", 0.35)
    couple("disc_b", "n_b", 0.50)
    couple("pt_b", "ht", 0.30)
    couple("pt_jet2", "ht", 0.35)
    sig_arr = np.asarray(sigma)
    cov = corr * np.outer(sig_arr, sig_arr)
    # guarantee PSD after the hand-set correlations
    eigmin = float(np.linalg.eigvalsh(cov).min())
    if eigmin < 1e-9:
        cov = cov + (1e-9 - eigmin) * np.diag(sig_arr**2)
    cov_t = tuple(map(tuple, cov))

    bounds = {
        "pt_lep": (3.0, None), "met": (0.0, None), "mt": (0.0, None),
        "n_jets": (1.0, 10.0), "pt_jet1": (20.0, None), "ht": (30.0, None),
        "disc_b": (0.0, 1.0), "n_b": (0.0, 6.0), "pt_b": (0.0, None),
        "dr_lb": (0.0, None), "q_lep": (-1.0, 1.0), "is_muon": (0.0, 1.0),
        "pt_lep2": (0.0, None), "pt_jet2": (0.0, None), "dphi_j1j2": (0.0, np.pi),
    }
    return GeneratorSpec(
        schema=schema,
        processes={
            "signal": ProcessModel(tuple(mean_sig), cov_t),
            "wjets": ProcessModel(tuple(mean_wj), cov_t),
            "ttbar": ProcessModel(tuple(mean_tt), cov_t),
        },
        signal_fraction=signal_fraction,
        background_fractions={"wjets": wjets_fraction, "ttbar": 1.0 - wjets_fraction},
        s_tot=s_tot,
        b_tot=b_tot,
        bounds=bounds,
        integer_variables=("n_jets", "n_b", "q_lep", "is_muon"),
    )
