"""Tabular data loading, missing-data handling, standardization, and the
MCA-based intensity scale for dichotomous blocks.

All standardization uses the population variance (divisor N), which makes a
single-predictor path coefficient exactly the Pearson correlation.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import signal
import warnings
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

    def moments(self) -> Moments:
        """The correlation matrix and its layout, without the rows."""
        return Moments(self.corr, self.block_index, self.columns)


@dataclass(frozen=True)
class Moments:
    """Correlation matrix of standardized indicator columns, with their layout.

    A fit on moments alone (a bootstrap replicate) builds no scores.
    """

    corr: np.ndarray
    block_index: dict[str, tuple[int, int]]
    columns: tuple[str, ...]


def load_table(path: str) -> RawTable:
    """Read a comma-separated UTF-8 table with a mandatory header row.

    Empty cells and the token ``NA`` become missing values. Raises
    DataFileError for unreadable files, ragged rows (reported with their line
    number), duplicate column names, and non-numeric cells.

    A body with no quote, no carriage return and no ``NA`` is parsed in one
    vectorized pass; anything that pass cannot take as it is (a missing cell,
    a blank line, a bad or non-finite number) goes to the row-by-row reader,
    which yields the same values and every diagnostic.
    """
    with _open_table(path) as handle:
        header = _read_header(csv.reader(handle), path)
    values = _parse_plain(path, len(header))
    if values is None:
        return _load_rows(path)
    return RawTable(header=header, values=values)


def _open_table(path: str):
    try:
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataFileError(f"cannot read '{path}': {exc.strerror or exc}") from exc


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
    """Body line count, or None if the body has a quote, a CR, an NA or a blank line.

    A header may hold ``NA`` inside a column name; a quote there could span
    lines, so it sends the whole file to the row-by-row reader. So does a
    blank body line: ``np.loadtxt`` skips it, where the row-by-row reader
    calls it a ragged row.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
        if b'"' in first or b"\r" in first:
            return None
        lines, last = 0, b"\n"
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            joined = last + chunk
            if b'"' in chunk or b"\r" in chunk or (b"N" in joined and b"NA" in joined):
                return None
            ends = np.flatnonzero(np.frombuffer(joined, np.uint8) == ord("\n"))
            if (np.diff(ends) == 1).any():
                return None
            lines += len(ends) - (last == b"\n")
            last = chunk[-1:]
    return lines + (last != b"\n")  # a last line may lack its newline


def _parse_plain(path: str, width: int) -> np.ndarray | None:
    """The body as an (n, width) array of finite floats, or None to fall back.

    ``np.loadtxt`` gives the value ``float`` gives for every cell it accepts,
    but it also accepts ``nan`` and ``inf``, so the result stands only if
    every value is finite and every body line gave a row. It reads the path
    itself: a decoded copy of the body would take four bytes per character.
    A large body is parsed in two halves, the back one by a forked child.
    """
    rows = _plain_body_rows(path)
    if rows is None or rows < 2:
        return None
    half = rows // 2
    try:
        with _forked(
            lambda: _loadtxt(path, half, rows - half, width), os.path.getsize(path)
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
    """Body lines ``skip`` to ``skip + rows`` of a plain file, all finite.

    Raises ValueError unless every one of those lines gave a row of ``width``
    values. ``max_rows`` counts rows, not lines, which is the same here
    because the plain scan declines blank lines.
    """
    with warnings.catch_warnings():
        # loadtxt warns of lines with no data; the shape check rejects them
        warnings.simplefilter("ignore", UserWarning)
        values = np.loadtxt(
            path, delimiter=",", skiprows=1 + skip, max_rows=rows, ndmin=2,
            comments=None, encoding="utf-8-sig",
        )
    if values.shape != (rows, width) or not np.isfinite(values).all():
        raise ValueError("not a plain numeric body")
    return values


@contextlib.contextmanager
def _forked(work, size: int):
    """Run ``work`` in one forked child; yield a pipe that reads back its result.

    ``work`` returns a bytes-like object. The child computes all of it first,
    so the caller does its own share meanwhile, then writes its length (8
    bytes, little-endian) and its bytes, and the caller reads no more than
    that length. A child that fails writes less than it promised, or nothing.
    No child runs, and the pipe is None, below ``_FORK_BYTES`` of ``size``,
    on fewer than two CPUs, or where the fork fails. In each of these cases
    the caller does the child's share itself. Leaving the block reaps the
    child.
    """
    if (
        size < _FORK_BYTES
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2
    ):
        yield None
        return
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork beside BLAS threads; the child runs no BLAS
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = memoryview(work()).cast("B")
            with open(write_fd, "wb") as out:
                out.write(payload.nbytes.to_bytes(8, "little"))
                out.write(payload)
            status = 0
        finally:
            # no atexit handlers, no second flush of the parent's buffered files
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            yield pipe
    finally:
        os.kill(pid, signal.SIGKILL)  # a no-op on a child that has exited
        os.waitpid(pid, 0)


def _payload_size(pipe) -> int | None:
    """The length a forked child promised, or None if it wrote nothing."""
    head = pipe.read(8)
    return int.from_bytes(head, "little") if len(head) == 8 else None


def _receive(pipe, into: np.ndarray) -> bool:
    """Read a forked child's result into ``into``; True if it filled it exactly."""
    view = memoryview(into).cast("B")
    return _payload_size(pipe) == view.nbytes and pipe.readinto(view) == view.nbytes


def _relay(pipe, out) -> bool:
    """Copy a forked child's result to the binary file ``out`` in 1 MiB chunks.

    True if all of it arrived; otherwise ``out`` may hold a part of it.
    """
    left = _payload_size(pipe)
    while left:
        chunk = pipe.read(min(left, 1 << 20))
        if not chunk:
            return False
        out.write(chunk)
        left -= len(chunk)
    return left == 0


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
