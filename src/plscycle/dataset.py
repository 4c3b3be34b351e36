"""Tabular data loading, missing-data handling, standardization, and the
MCA-based intensity scale for dichotomous blocks.

All standardization uses the population variance (divisor N), which makes a
single-predictor path coefficient exactly the Pearson correlation.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DataFileError
from .modelspec import ModelSpec

MISSING_TOKENS = ("", "NA")
MISSING_POLICIES = ("listwise", "mean")

# relative tolerance below which two leading principal inertias are one
# eigenspace and the first dimension must be pinned inside it
_TIE_RTOL = 1e-9


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
    range. Treat instances as immutable.
    """

    matrix: np.ndarray
    block_index: dict[str, tuple[int, int]]
    columns: tuple[str, ...]
    n_input: int
    n_effective: int
    missing_policy: str
    missing_cells: dict[str, int]
    mca_inertia_share: dict[str, float]

    def block_matrix(self, name: str) -> np.ndarray:
        lo, hi = self.block_index[name]
        return self.matrix[:, lo:hi]

    def moments(self) -> Moments:
        """Cross-product moments X'X/n of the standardized matrix, with its rows."""
        rows = {name: self.block_matrix(name) for name in self.block_index}
        corr = self.matrix.T @ self.matrix / self.matrix.shape[0]
        return Moments(corr, self.block_index, self.columns, rows)


@dataclass(frozen=True)
class Moments:
    """Correlation matrix of standardized indicator columns, with their layout.

    ``rows`` maps a construct to its block's n-row matrix when the rows are
    at hand; a fit without them (a bootstrap replicate) builds no scores.
    """

    corr: np.ndarray
    block_index: dict[str, tuple[int, int]]
    columns: tuple[str, ...]
    rows: dict[str, np.ndarray] | None = None


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
    """Body line count, or None if the file has a quote, a CR or an NA in its body.

    A header may hold ``NA`` inside a column name; a quote there could span
    lines, so it sends the whole file to the row-by-row reader.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
        if b'"' in first or b"\r" in first:
            return None
        lines, last = 0, b"\n"
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            if b'"' in chunk or b"\r" in chunk or b"NA" in last + chunk:
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    return lines + (last != b"\n")  # a last line may lack its newline


def _parse_plain(path: str, width: int) -> np.ndarray | None:
    """The body as an (n, width) array of finite floats, or None to fall back.

    ``np.loadtxt`` gives the value ``float`` gives for every cell it accepts,
    but it also accepts ``nan`` and ``inf`` and skips blank lines, so the
    result stands only if every value is finite and every body line gave a
    row. It reads the path itself: a decoded copy of the body would take four
    bytes per character.
    """
    rows = _plain_body_rows(path)
    if rows is None or rows < 2:
        return None
    try:
        with warnings.catch_warnings():
            # a body of blank lines warns "no data"; the shape check rejects it
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(
                path, delimiter=",", skiprows=1, ndmin=2, comments=None, encoding="utf-8-sig"
            )
    except ValueError:
        return None
    if values.shape != (rows, width) or not np.isfinite(values).all():
        return None
    return values


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
