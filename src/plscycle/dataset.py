"""Tabular data loading, missing-data handling, standardization, and the
MCA-based intensity scale for dichotomous blocks.

All standardization uses the population variance (divisor N), which makes a
single-predictor path coefficient exactly the Pearson correlation.
"""

from __future__ import annotations

import csv
import math
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
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataFileError(f"cannot read '{path}': {exc.strerror or exc}") from exc
    with handle:
        reader = csv.reader(handle)
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
