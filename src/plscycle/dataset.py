"""Tabular data loading, missing-data handling, standardization, and the
MCA-based intensity scale for dichotomous blocks.

All standardization uses the population variance (divisor N), which makes a
single-predictor path coefficient exactly the Pearson correlation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import signal
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DataFileError
from .modelspec import ModelSpec

MISSING_TOKENS = ("", "NA")
MISSING_POLICIES = ("listwise", "mean")

# relative tolerance below which two leading principal inertias are one
# eigenspace and the first dimension must be pinned inside it
_TIE_RTOL = 1e-9

# a file to parse, or an array for ``simulate`` to write, of at least this many
# bytes is split between two processes; on a 2-vCPU VM a fork paid for itself
# from a file of about 1 MiB
_FORK_BYTES = 1 << 21


@dataclass(frozen=True)
class RawTable:
    """Parsed numeric table; NaN cells mark missing values."""

    header: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True)
class PreparedData:
    """Standardized indicator matrix partitioned into construct blocks.

    ``matrix`` columns follow block declaration order, with each
    mca-single-item block collapsed to one score column named after its
    construct. ``block_index`` maps construct name to a half-open column
    range. ``corr`` is formed on first use and kept, so treat instances as
    immutable.
    """

    matrix: np.ndarray
    block_index: dict[str, tuple[int, int]]
    columns: tuple[str, ...]
    n_input: int
    n_effective: int
    missing_policy: str
    missing_cells: dict[str, int]
    mca_inertia_share: dict[str, float]

    @cached_property
    def corr(self) -> np.ndarray:
        """Cross-product moments X'X/n of the standardized matrix, formed once."""
        return self.matrix.T @ self.matrix / self.matrix.shape[0]

    def score(self, name: str, weights: np.ndarray) -> np.ndarray:
        """The composite score of block ``name``: its rows times ``weights``."""
        return self.matrix[:, slice(*self.block_index[name])] @ weights


@dataclass(frozen=True)
class Moments:
    """Correlation matrix of standardized indicator columns, with their layout."""

    corr: np.ndarray
    block_index: dict[str, tuple[int, int]]
    columns: tuple[str, ...]


def load_table(path: str) -> RawTable:
    """Read a comma-separated UTF-8 table with a mandatory header row.

    Empty cells and the token ``NA`` become missing values. Raises
    DataFileError for unreadable or non-UTF-8 files, ragged rows (reported
    with their line number), duplicate column names, and non-numeric cells.

    A body with no quote, no carriage return and no blank line is parsed in
    one vectorized pass, which maps empty and ``NA`` cells to NaN; anything
    that pass cannot take as it is (a whitespace-only cell, a bad or
    non-finite number) goes to the row-by-row reader, which yields the same
    values and every diagnostic.
    """
    with _open_table(path) as handle:
        header = _read_header(csv.reader(handle), path)
    values = _parse_plain(path, len(header))
    if values is None:
        return _load_rows(path)
    return RawTable(header=header, values=values)


@contextlib.contextmanager
def _open_table(path: str):
    """The table as text; a byte that is not UTF-8 raises DataFileError."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataFileError(f"cannot read '{path}': {exc.strerror or exc}") from exc
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataFileError(f"'{path}' is not UTF-8 text ({exc.reason})") from None


def _read_header(reader, path: str) -> tuple[str, ...]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataFileError(f"'{path}' is empty, header row required") from None
    header = tuple(name.strip() for name in header)
    if any(not name for name in header):
        raise DataFileError(f"'{path}' has an empty column name in the header")
    if len(set(header)) != len(header):
        dupe = next(n for i, n in enumerate(header) if n in header[:i])
        raise DataFileError(f"duplicate column name '{dupe}' in '{path}'")
    return header


def _plain_body_rows(path: str) -> int | None:
    """Body line count, or None if the body has a quote, a CR or a blank line.

    A quote in the header could span lines, so it sends the whole file to the
    row-by-row reader. So does a blank body line: ``np.loadtxt`` skips it,
    where the row-by-row reader calls it a ragged row.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
        if b'"' in first or b"\r" in first:
            return None
        lines, last = 0, b"\n"
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            # named, not an inline temporary: that took ten times the page faults
            joined = last + chunk
            if b'"' in chunk or b"\r" in chunk:
                return None
            ends = np.flatnonzero(np.frombuffer(joined, np.uint8) == ord("\n"))
            if (np.diff(ends) == 1).any():
                return None
            lines += len(ends) - (last == b"\n")
            last = chunk[-1:]
    return lines + (last != b"\n")  # a last line may lack its newline


def _parse_plain(path: str, width: int) -> np.ndarray | None:
    """The body as an (n, width) array, NaN for missing cells, or None to fall back.

    A large body is parsed in two halves, the back one by a forked child.
    """
    rows = _plain_body_rows(path)
    if rows is None or rows < 2:
        return None
    half = rows // 2
    try:
        with _forked(
            lambda _: _loadtxt(path, half, rows - half, width), os.path.getsize(path) >= _FORK_BYTES
        ) as pipe:
            if pipe is None:
                return _loadtxt(path, 0, rows, width)
            values = np.empty((rows, width))
            values[:half] = _loadtxt(path, 0, half, width)
            if not _receive(pipe, values[half:]):
                values[half:] = _loadtxt(path, half, rows - half, width)
            return values
    except ValueError:
        return None


def _loadtxt(path: str, skip: int, rows: int, width: int) -> np.ndarray:
    """Body lines ``skip`` to ``skip + rows`` of a plain file; NaN marks a missing cell.

    ``np.loadtxt`` reads the path itself first, as a decoded copy of the body
    would take four bytes per character. It also takes ``nan`` and ``inf``, so
    that stands only if every value is finite. Failing that, the lines are read
    again through ``_missing_as_nan``, and stand only if no value is infinite.
    Raises ValueError unless every line gave a row of ``width`` values
    (``max_rows`` counts rows, not lines: the plain scan declines blank lines).
    """
    with warnings.catch_warnings():
        # loadtxt warns of lines with no data; the shape check rejects them
        warnings.simplefilter("ignore", UserWarning)
        try:
            values = np.loadtxt(
                path, delimiter=",", skiprows=1 + skip, max_rows=rows, ndmin=2,
                comments=None, encoding="utf-8-sig",
            )
            if not np.isfinite(values).all():
                raise ValueError("a nan or inf cell")
        except ValueError:
            with open(path, "rb") as handle:
                lines = itertools.islice(handle, 1 + skip, 1 + skip + rows)
                values = np.loadtxt(
                    map(_missing_as_nan, lines), delimiter=",", ndmin=2,
                    comments=None, encoding="utf-8",
                )
            if np.isinf(values).any():
                raise ValueError("an infinite cell")
    if values.shape != (rows, width):
        raise ValueError("not a plain numeric body")
    return values


def _missing_as_nan(line: bytes) -> bytes:
    """``line`` with each empty or (padded) ``NA`` cell rewritten to ``nan``.

    Raises ValueError on an ``n`` or ``N`` outside the ``NA`` tokens or a sign
    before one, so every NaN ``np.loadtxt`` gives is a missing cell.
    """
    line = b"," + line.rstrip(b"\n") + b","
    if b"n" in line:
        raise ValueError("an n outside an NA token")
    if b"N" in line:
        if b"N" in line.replace(b"NA", b"") or b"-NA" in line or b"+NA" in line:
            raise ValueError("an N outside an NA token, or a signed NA")
        line = line.replace(b"NA", b"nan")
    # ",,," holds two empty cells that share a comma, so one pass finds only the first
    return line.replace(b",,", b",nan,").replace(b",,", b",nan,")[1:-1]


@contextlib.contextmanager
def _forked(work, pays: bool):
    """Run ``work(request)`` in one forked child; yield a pipe to it and back.

    ``request()`` waits for the bytes the caller sends with ``_ask``, and
    ``work`` returns a bytes-like object. The child computes all of it first,
    so the caller does its own share meanwhile, then writes its length (8
    bytes, little-endian) and its bytes, and the caller reads no more than
    that length. A child that fails writes less than it promised, or nothing.
    No child runs, and the pipe is None, unless the fork ``pays``, on fewer
    than two CPUs, or where the fork fails. In each of these cases the caller
    does the child's share itself. Leaving the block reaps the child.
    """
    if (
        not pays
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2
    ):
        yield None
        return
    read_fd, write_fd = os.pipe()
    ask_fd, tell_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork beside BLAS threads; the child runs no BLAS
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        for fd in (read_fd, write_fd, ask_fd, tell_fd):
            os.close(fd)
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.close(tell_fd)
            requests = open(ask_fd, "rb")
            result = work(lambda: requests.read(_payload_size(requests) or 0))
            payload = memoryview(result).cast("B")
            with open(write_fd, "wb") as out:
                out.write(payload.nbytes.to_bytes(8, "little"))
                out.write(payload)
            status = 0
        finally:
            # no atexit handlers, no second flush of the parent's buffered files
            os._exit(status)
    os.close(write_fd)
    os.close(ask_fd)
    pipe = io.BufferedRWPair(io.FileIO(read_fd, "r"), io.FileIO(tell_fd, "w"))
    try:
        yield pipe
    finally:
        os.kill(pid, signal.SIGKILL)  # a no-op on a child that has exited
        os.waitpid(pid, 0)
        with contextlib.suppress(BrokenPipeError):  # a request the child never read
            pipe.close()


def _ask(pipe, request: np.ndarray, answer: np.ndarray) -> bool:
    """Send a forked child ``request``, length first; True if it filled ``answer``."""
    with contextlib.suppress(BrokenPipeError):
        pipe.write(request.nbytes.to_bytes(8, "little") + request.tobytes())
        pipe.flush()
        return _receive(pipe, answer)
    return False


def _payload_size(pipe) -> int | None:
    """The length a forked child promised, or None if it wrote nothing."""
    head = pipe.read(8)
    return int.from_bytes(head, "little") if len(head) == 8 else None


def _receive(pipe, into: np.ndarray) -> bool:
    """Read a forked child's result into ``into``; True if it filled it exactly."""
    view = memoryview(into).cast("B")
    return _payload_size(pipe) == view.nbytes and pipe.readinto(view) == view.nbytes


def _load_rows(path: str) -> RawTable:
    """Row-by-row reader: the reference parse, with line-numbered diagnostics."""
    with _open_table(path) as handle:
        reader = csv.reader(handle)
        header = _read_header(reader, path)
        width = len(header)
        rows: list[list[float]] = []
        for record in reader:
            line = reader.line_num
            if len(record) != width:
                raise DataFileError(f"ragged row at line {line}")
            parsed: list[float] = []
            for name, cell in zip(header, record):
                token = cell.strip()
                if token in MISSING_TOKENS:
                    parsed.append(math.nan)
                    continue
                try:
                    value = float(token)
                except ValueError:
                    raise DataFileError(
                        f"non-numeric value '{cell}' at line {line}, column '{name}'"
                    ) from None
                if not math.isfinite(value):
                    raise DataFileError(
                        f"non-numeric value '{cell}' at line {line}, column '{name}'"
                    )
                parsed.append(value)
            rows.append(parsed)
    if len(rows) < 2:
        raise DataFileError(f"'{path}' must contain at least 2 data rows")
    return RawTable(header=header, values=np.asarray(rows, dtype=np.float64))


def _csv_body(values: np.ndarray) -> Iterator[str]:
    """Rows as ``csv.writer`` writes them, a string a row, ``NA`` for a missing cell.

    A finite float's str is its repr, which never needs quoting and never
    holds ``nan``; a body without NaN is not searched for one.
    """
    rows = (",".join(map(repr, row.tolist())) + "\n" for row in values)
    if np.isnan(values).any():
        return (row.replace("nan", "NA") for row in rows)
    return rows


def write_table(path: str, table: RawTable) -> None:
    """Write ``table`` as the comma-separated UTF-8 text ``load_table`` reads.

    Values are written as ``repr`` gives them, so they read back exactly, and
    a NaN (missing) cell as ``NA``; an infinite value raises ValueError before
    the file is opened. The header goes through ``csv.writer``. A forked child
    formats the back half of a large body while this process writes the front
    half; the child's half reaches the file only once all of it has arrived,
    and if the child fails or answers short, the back half is formatted here.
    """
    values = table.values
    if np.isinf(values).any():
        raise ValueError("an infinite value cannot be written: load_table rejects it")
    half = len(values) // 2
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(table.header)
        with _forked(
            lambda _: "".join(_csv_body(values[half:])).encode("utf-8"), values.nbytes >= _FORK_BYTES
        ) as pipe:
            handle.writelines(_csv_body(values if pipe is None else values[:half]))
            if pipe is not None:
                size = _payload_size(pipe)
                back = pipe.read(size or 0)
                if len(back) != size:  # size is None if the child failed; short if it died
                    handle.writelines(_csv_body(values[half:]))
                else:
                    handle.flush()
                    handle.buffer.write(back)


def standardize_column(x: np.ndarray, name: str = "") -> np.ndarray:
    """Center and scale to unit population variance; error on zero variance."""
    mean = x.mean()
    std = x.std()
    if std <= 1e-12 * max(1.0, abs(mean)):
        label = f" in column '{name}'" if name else ""
        raise DataError(f"zero variance{label}")
    return (x - mean) / std


def _mca_svd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correspondence analysis of the complete disjunctive matrix.

    Returns (U, singular values, row masses) of the standardized residual
    matrix. The trivial dimension is removed by the residual centering.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] < 2 or block.shape[1] < 1:
        raise DataError("mca block must be a matrix with at least 2 rows")
    if not np.isin(block, (0.0, 1.0)).all():
        raise DataError("mca block entries must be 0 or 1")
    for j in range(block.shape[1]):
        if block[:, j].min() == block[:, j].max():
            raise DataError(f"mca variable {j + 1} has a single observed category")
    n, q = block.shape
    disjunctive = np.empty((n, 2 * q))
    disjunctive[:, 0::2] = block
    disjunctive[:, 1::2] = 1.0 - block
    probs = disjunctive / disjunctive.sum()
    row_mass = probs.sum(axis=1)
    col_mass = probs.sum(axis=0)
    residual = (probs - np.outer(row_mass, col_mass)) / np.sqrt(np.outer(row_mass, col_mass))
    u, s, _ = np.linalg.svd(residual, full_matrices=False)
    return u, s, row_mass


def mca_inertia_shares(block: np.ndarray) -> np.ndarray:
    """Principal inertias as fractions of the total inertia."""
    _, s, _ = _mca_svd(block)
    inertias = s**2
    return inertias / inertias.sum()


def mca_first_dimension(block: np.ndarray) -> tuple[np.ndarray, float]:
    """Standard row coordinates on the first MCA dimension of a binary block.

    Scores are oriented to correlate positively with the per-row count of
    ones, reading the dimension as an intensity scale. When the leading
    principal inertias tie (within relative tolerance 1e-9) the first
    dimension is pinned inside the tied eigenspace as the direction of
    maximal correlation with the row sums; this extends the orientation rule
    from a sign choice to a basis choice, making the result independent of
    the SVD driver's arbitrary basis for degenerate singular values.

    Returns (scores, share of total inertia carried by the first dimension).
    Scores have mean 0 and unit population variance.
    """
    block = np.asarray(block, dtype=np.float64)
    u, s, row_mass = _mca_svd(block)
    row_sums = block.sum(axis=1)
    centered = row_sums - row_sums.mean()
    tied = np.flatnonzero(s >= s[0] * (1.0 - _TIE_RTOL))
    if len(tied) > 1:
        dots = u[:, tied].T @ centered
        norm = np.linalg.norm(dots)
        if norm > 1e-12:
            direction = u[:, tied] @ (dots / norm)
        else:
            direction = u[:, tied[0]]
    else:
        direction = u[:, 0]
    scores = direction / np.sqrt(row_mass)
    if np.dot(scores, centered) < 0:
        scores = -scores
    inertias = s**2
    share = float(inertias[0] / inertias.sum())
    return scores, share


def prepare_blocks(
    raw: RawTable, spec: ModelSpec, missing_policy: str = "listwise"
) -> PreparedData:
    """Apply the missing-data policy, collapse MCA blocks, and standardize.

    ``listwise`` drops any row with a missing value among the model's
    indicator columns; ``mean`` imputes column means instead. MCA runs on the
    raw binary values of each mca-single-item block after the policy, and its
    score column is standardized along with everything else.
    """
    if missing_policy == "mean-impute":
        missing_policy = "mean"
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"unknown missing policy '{missing_policy}'")

    position = {name: i for i, name in enumerate(raw.header)}
    for block in spec.blocks:
        for col in block.indicators:
            if col not in position:
                raise DataError(f"indicator column '{col}' not found in data")

    selected = [position[col] for block in spec.blocks for col in block.indicators]
    sub = raw.values[:, selected]
    n_input = sub.shape[0]

    offsets: dict[str, tuple[int, int]] = {}
    cursor = 0
    for block in spec.blocks:
        offsets[block.name] = (cursor, cursor + len(block.indicators))
        cursor += len(block.indicators)

    missing_cells = {
        block.name: int(np.isnan(sub[:, slice(*offsets[block.name])]).sum())
        for block in spec.blocks
    }

    if missing_policy == "listwise":
        sub = sub[~np.isnan(sub).any(axis=1)]
    else:
        sub = sub.copy()
        for j in range(sub.shape[1]):
            col = sub[:, j]
            mask = np.isnan(col)
            if mask.all():
                raise DataError("column has no observed values")
            if mask.any():
                col[mask] = col[~mask].mean()

    n_effective = sub.shape[0]
    if n_effective < 10:
        raise DataError(
            f"too few rows after missing-data handling: {n_effective} < 10"
        )

    out_columns: list[np.ndarray] = []
    out_names: list[str] = []
    block_index: dict[str, tuple[int, int]] = {}
    inertia: dict[str, float] = {}
    for block in spec.blocks:
        lo, hi = offsets[block.name]
        values = sub[:, lo:hi]
        start = len(out_names)
        if block.mode == "mca-single-item":
            scores, share = mca_first_dimension(values)
            inertia[block.name] = share
            out_columns.append(standardize_column(scores, block.name))
            out_names.append(block.name)
        else:
            for k, col in enumerate(block.indicators):
                out_columns.append(standardize_column(values[:, k], col))
                out_names.append(col)
        block_index[block.name] = (start, len(out_names))

    return PreparedData(
        matrix=np.column_stack(out_columns),
        block_index=block_index,
        columns=tuple(out_names),
        n_input=n_input,
        n_effective=n_effective,
        missing_policy=missing_policy,
        missing_cells=missing_cells,
        mca_inertia_share=inertia,
    )
