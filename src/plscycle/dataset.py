"""Tabular data loading, missing-data handling, standardization, and the
MCA-based intensity scale for dichotomous blocks.

All standardization uses the population variance (divisor N), which makes a
single-predictor path coefficient exactly the Pearson correlation.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import signal
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DataError, DataFileError
from .modelspec import ModelSpec

MISSING_TOKENS = ("", "NA")
MISSING_POLICIES = ("listwise", "mean")

# relative tolerance below which two leading singular values of the MCA are
# one eigenspace and the first dimension must be pinned inside it
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
    one vectorized pass, which maps empty, blank and ``NA`` cells to NaN;
    anything that pass cannot take as it is (a bad or non-finite number) goes
    to the row-by-row reader, which yields the same values and every
    diagnostic.
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


def _plain_body_rows(path: str) -> tuple[int, int, int] | None:
    """Body line count and the byte offsets where body lines 0 and count // 2 begin,
    or None if the body has fewer than two lines, a quote, a CR or a blank line.

    A quote in the header could span lines, so it sends the whole file to the
    row-by-row reader. So does a blank body line: ``np.loadtxt`` skips it,
    where the row-by-row reader calls it a ragged row.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
        if b'"' in first or b"\r" in first:
            return None
        last, starts, seen = b"\n", [], [0]  # each chunk's offset; the newlines before it
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            # named, not an inline temporary: that took ten times the page faults
            joined = last + chunk
            if b'"' in chunk or b"\r" in chunk:
                return None
            ends = np.flatnonzero(np.frombuffer(joined, np.uint8) == ord("\n"))
            if (np.diff(ends) == 1).any():
                return None
            starts.append(handle.tell() - len(chunk))
            seen.append(seen[-1] + len(ends) - (last == b"\n"))
            last = chunk[-1:]
        rows = seen[-1] + (last != b"\n")  # a last line may lack its newline
        if rows < 2:
            return None
        # body line rows // 2 begins after the newline of that number: read its chunk again
        # (a list of every newline's offset would leave the heap about 2 MB larger)
        i = int(np.searchsorted(seen, rows // 2)) - 1
        handle.seek(starts[i])
        ends = np.flatnonzero(np.frombuffer(handle.read(1 << 20), np.uint8) == ord("\n"))
    return rows, len(first), starts[i] + int(ends[rows // 2 - 1 - seen[i]]) + 1


def _parse_plain(path: str, width: int) -> np.ndarray | None:
    """The body as an (n, width) array, NaN for missing cells, or None to fall back.

    Where a forked child pays, it parses the back half of the body as this process
    parses the front; otherwise this process parses the body whole.
    """
    scan = _plain_body_rows(path)
    if scan is None:
        return None
    rows, front, back = scan
    half = rows // 2
    try:
        with _forked(
            lambda: [_loadtxt(path, back, rows - half, width)],
            os.path.getsize(path) >= _FORK_BYTES and _two_cpus(),
        ) as pipe:
            if pipe is None:  # one parse, not two halves copied into a third array
                return _loadtxt(path, front, rows, width)
            values = np.empty((rows, width))
            values[:half] = _loadtxt(path, front, half, width)
            if not _receive(pipe, values[half:]):
                values[half:] = _loadtxt(path, back, rows - half, width)
            return values
    except ValueError:
        return None


def _loadtxt(path: str, start: int, rows: int, width: int) -> np.ndarray:
    """``rows`` lines of a plain file's body from the byte ``start`` at which one
    begins; NaN marks a missing cell.

    ``np.loadtxt`` reads the lines as they are first, decoding one at a time, as a
    decoded copy of the body would take four bytes per character. It also takes
    ``nan`` and ``inf``, so that stands only if every value is finite. Failing that,
    the lines are read again through ``_missing_as_nan``, and stand only if no value
    is infinite. Raises ValueError unless every line gave a row of ``width`` values
    (``max_rows`` counts rows, not lines: the plain scan declines blank lines).
    """
    with warnings.catch_warnings(), open(path, "rb") as handle:
        # loadtxt warns of lines with no data; the shape check rejects them
        warnings.simplefilter("ignore", UserWarning)
        handle.seek(start)
        try:
            values = np.loadtxt(
                handle, delimiter=",", max_rows=rows, ndmin=2, comments=None, encoding="utf-8"
            )
            if not np.isfinite(values).all():
                raise ValueError("a nan or inf cell")
        except ValueError:
            handle.seek(start)
            values = np.loadtxt(
                map(_missing_as_nan, itertools.islice(handle, rows)), delimiter=",", ndmin=2,
                comments=None, encoding="utf-8",
            )
            if np.isinf(values).any():
                raise ValueError("an infinite cell")
    if values.shape != (rows, width):
        raise ValueError("not a plain numeric body")
    return values


def _missing_as_nan(line: bytes) -> bytes:
    """``line`` with each empty, blank or (padded) ``NA`` cell rewritten to ``nan``.

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
    if b" " in line or b"\t" in line:  # a cell of spaces and tabs is empty
        line = b",".join(cell if cell.strip(b" \t") else b"" for cell in line.split(b","))
    # ",,," holds two empty cells that share a comma, so one pass finds only the first
    return line.replace(b",,", b",nan,").replace(b",,", b",nan,")[1:-1]


@contextlib.contextmanager
def _forked(work, pays: bool):
    """Run ``work()`` in one forked child; yield a pipe that reads its result.

    ``work`` returns a list of bytes-like objects. The child computes all of
    them first, so the caller does its own share meanwhile, then writes their
    total length (8 bytes, little-endian) and each one's bytes in turn, and
    the caller reads no more than that length. A child that fails writes less
    than it promised, or nothing.
    No child runs, and the pipe is None, unless the fork ``pays``, or where the
    fork fails. In each of these cases the caller does the child's share itself.
    Leaving the block reaps the child.
    """
    if not pays or not hasattr(os, "fork"):
        yield None
        return
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork beside threads; a child may run a
            # GEMM, which OpenBLAS's fork handlers leave safe to do
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
            payload = [memoryview(part).cast("B") for part in work()]
            with open(write_fd, "wb") as out:
                out.write(sum(part.nbytes for part in payload).to_bytes(8, "little"))
                for part in payload:
                    out.write(part)
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


def _two_cpus() -> bool:
    """Whether this process may run on two CPUs, as a fork for a second CPU needs."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _payload_size(pipe) -> int | None:
    """The length a forked child promised, or None if it wrote nothing."""
    head = pipe.read(8)
    return int.from_bytes(head, "little") if len(head) == 8 else None


def _receive(pipe, into: np.ndarray) -> bool:
    """Read a forked child's result into the C-ordered ``into``; True if it came whole."""
    view = memoryview(into).cast("B")
    return _payload_size(pipe) == view.nbytes and pipe.readinto(view) == view.nbytes


def _copy(pipe, out) -> bool:
    """Copy a forked child's result to the file ``out``, at most 1 MiB at a time; True
    if all of it came. A partial result is cut back off ``out``."""
    start, size = out.tell(), _payload_size(pipe)
    left = size or 0
    while left and (part := pipe.read(min(left, 1 << 20))):
        out.write(part)
        left -= len(part)
    if size is not None and not left:
        return True
    out.seek(start)
    out.truncate()
    return False


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


# ``_csv_body`` formats this many cells at a time
_BLOCK_CELLS = 1 << 14
# a float decision nearer than this to a boundary goes to repr: the float
# error of the values compared is below 2^-48
_EXACT_MARGIN = 2.0**-36
# 10^s for s <= 20, exact doubles converted from exact integers
_POW10 = np.array([float(10**s) for s in range(21)])


@cache  # on first use: importing the module (``cyclic`` does) costs nothing
def _glyphs() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one uint32 each; where each digit goes.

    Layout row k, column 17 s + j: the place of digit k of c after the sign,
    at scale s with j trailing zeros; a trailing zero goes to the separator's
    place, which is written last.
    """
    table = np.empty((10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        table[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    k, s, j = np.ogrid[:17, :21, :17]
    place = np.maximum(s, 16) - 16 + k + (k > 16 - s)
    separator = np.maximum(17 - s, 1) + 1 + np.maximum(s - j, 1)
    layout = np.where(k < 17 - j, place, separator).reshape(17, -1)
    return table.view(np.uint32).reshape(-1), layout


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of each cell, where they can be told exactly.

    Returns ``(c, s, j, ok)``: where ``ok``, ``repr(abs(x))`` is the decimal
    ``c / 10**s`` written in positional notation, with ``10**16 <= c < 10**17``
    and exactly ``j`` trailing zeros in ``c``. N = |x|·10^s is held exactly as
    an int64 part and a fraction (Dekker's TwoProduct; 10^s is exact for
    s <= 22), and the rounding interval as N ± half an ulp, scaled the same
    way (the lower half halved at a power of two). The digits are the
    multiple of 10^j nearest N for the largest j that puts a multiple inside
    the interval (Ryu's rule, which is repr's shortest string). A cell is not
    ``ok``, and needs repr itself, if it is zero, NaN, below 1e-4 or from 1e16
    on (repr writes an exponent there), if log10 put N below 1e16 or its
    digits round up to 1e17, or if a decision falls within 2^-36 of an
    interval end or of a tie. So whether an interval end belongs to the
    interval never decides a cell.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 16 - np.floor(np.log10(a))
    ok = (s >= 1) & (s <= 20)
    s = np.where(ok, s, 16).astype(np.intp)
    a = np.where(ok, a, 1.0)
    scale = _POW10[s]
    top = a * scale
    a_hi, p_hi = a * 134217729.0, scale * 134217729.0  # 2^27 + 1: 26-bit halves
    a_hi -= a_hi - a
    p_hi -= p_hi - scale
    a_lo, p_lo = a - a_hi, scale - p_hi
    error = ((a_hi * p_hi - top) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    floor = np.floor(error)
    frac = error - floor  # N = whole + frac, 0 <= frac < 1
    whole = top.astype(np.int64) + floor.astype(np.int64)
    ok &= whole >= 10**16
    above = np.spacing(a) * 0.5 * scale
    below = np.where(a.view(np.int64) & ((1 << 52) - 1), above, 0.5 * above)  # 2^e: halved
    low, high = frac - below, frac + above
    for end in (low, high):
        ok &= np.abs(end - np.rint(end)) >= _EXACT_MARGIN
    low = whole + np.ceil(low).astype(np.int64)  # the interval's integers
    high = whole + np.floor(high).astype(np.int64)
    j = np.zeros(len(x), np.intp)
    at = np.arange(len(x))
    for k in range(1, 17):
        step = 10**k
        at = at[high[at] // step * step >= low[at]]
        if not len(at):
            break
        j[at] = k
    # the nearer of the multiples of 10^j just below and above N that is inside
    step = 10 ** np.arange(17)[j]
    down = whole // step * step
    skew = 2 * (whole - down) - step + 2 * frac  # (N - down) - (down + step - N)
    both = (down >= low) & (down + step <= high)
    c = np.where((down < low) | (both & (skew > 0)), down + step, down)
    ok &= ~(both & (np.abs(skew) < _EXACT_MARGIN)) & (c < 10**17)
    return c, s, j, ok


def _csv_body(values: np.ndarray) -> Iterator[bytes]:
    """Rows as ``csv.writer`` writes them, ``NA`` for a missing cell, in blocks.

    Each cell is ``repr(float(x))``: the finite float64 cells that
    ``_shortest_digits`` decides are written from their digits, the rest by
    ``repr``. A finite repr never needs quoting. Blocks hold ``_BLOCK_CELLS``
    cells each, at most 25 bytes a cell.
    """
    width = values.shape[1]
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    for first in range(0, len(flat), _BLOCK_CELLS):
        yield _encode_block(flat[first : first + _BLOCK_CELLS], (width - 1 - first) % width, width)


def _encode_block(x: np.ndarray, row_end: int, width: int) -> bytes:
    """The text of cells ``x``; cell ``row_end`` and every ``width``-th after end a row."""
    c, s, j, ok = _shortest_digits(x)
    sign = np.signbit(x) & ok
    int_len = np.maximum(17 - s, 1)
    length = sign + int_len + 2 + np.maximum(s - j, 1)  # "-", integer part, ".", fraction, ","
    slow = np.flatnonzero(~ok)
    texts = [b"NA" if v != v else repr(v).encode() for v in x[slow].tolist()]
    length[slow] = [len(text) + 1 for text in texts]
    end = np.cumsum(length)
    start = end - length
    out = np.full(end[-1], ord("0"), np.uint8)  # every place no digit goes to is a zero
    fast = np.flatnonzero(ok)
    powers = (10**16, 10**12, 10**8, 10**4, 1)  # digit 1, then four groups of four
    groups = np.stack([c[fast] // power % 10**4 for power in powers], axis=1)
    four_digits, layout = _glyphs()
    text = four_digits[groups].view(np.uint8)[:, 3:]
    at, column = start[fast] + sign[fast], s[fast] * 17 + j[fast]
    for k in range(17):
        out[at + layout[k][column]] = text[:, k]
    out[at + int_len[fast]] = ord(".")
    out[start[sign]] = ord("-")
    size = length[slow] - 1
    joined = np.frombuffer(b"".join(texts), np.uint8)
    out[np.repeat(start[slow] - np.cumsum(size) + size, size) + np.arange(len(joined))] = joined
    out[end - 1] = ord(",")
    out[end[row_end::width] - 1] = ord("\n")
    return out.tobytes()


def write_table(path: str, table: RawTable) -> None:
    """Write ``table`` as the comma-separated UTF-8 text ``load_table`` reads.

    Values are written as float64, each as ``repr`` gives it, so they read
    back exactly (an integer-typed table writes ``1.0`` for ``1``), and a NaN
    (missing) cell as ``NA``; an infinite value raises ValueError before the
    file is opened. The header goes through ``csv.writer``. A forked child
    formats the back half of a large body while this process writes the front
    half, then copies the child's half to the file as it arrives; if no child
    ran or it answered short, a partial half is cut back and written here.
    """
    values = np.ascontiguousarray(table.values, dtype=np.float64)
    if np.isinf(values).any():
        raise ValueError("an infinite value cannot be written: load_table rejects it")
    half = len(values) // 2
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(table.header)
        handle.flush()
        with _forked(lambda: list(_csv_body(values[half:])),
                     values.nbytes >= _FORK_BYTES and _two_cpus()) as pipe:
            handle.buffer.writelines(_csv_body(values[:half]))
            if pipe is None or not _copy(pipe, handle.buffer):
                handle.buffer.writelines(_csv_body(values[half:]))


def standardize_column(x: np.ndarray, name: str = "", out: np.ndarray | None = None) -> np.ndarray:
    """Center and scale to unit population variance, into ``out`` if given; zero variance raises."""
    mean = x.mean()
    std = x.std()
    if std <= 1e-12 * max(1.0, abs(mean)):
        label = f" in column '{name}'" if name else ""
        raise DataError(f"zero variance{label}")
    out = np.subtract(x, mean, out=out)
    return np.divide(out, std, out=out)


def mca_first_dimension(block: np.ndarray) -> tuple[np.ndarray, float]:
    """Standard row coordinates on the first MCA dimension of a binary block.

    For 0/1 items, MCA of the complete disjunctive matrix is PCA of the
    items' correlation matrix R_bb, formed here from exact counts: with X the
    standardized block and (lambda_1, v_1) the leading eigenpair of R_bb, the
    scores are X v_1 / sqrt(lambda_1) and lambda_1/q is the first
    dimension's share of total inertia.

    Scores are oriented to correlate positively with the per-row count of
    ones, reading the dimension as an intensity scale. When the leading
    singular values sqrt(lambda/q) tie (within relative tolerance 1e-9) the
    first dimension is pinned inside the tied eigenspace as the direction of
    maximal correlation with the row sums; this extends the orientation rule
    from a sign choice to a basis choice, making the result independent of
    the eigensolver's arbitrary basis for degenerate eigenvalues. Where the
    row sums pin nothing, the items do: a tied eigenspace orthogonal to them
    takes its projection of the first item axis it reaches (length above
    1e-6), and a first dimension uncorrelated with them (|v_1 . X'c| at most
    1e-9 ||X'c|| for the centered row sums c) makes its largest item loading
    positive, the lowest index among loadings equal within 1e-9.

    Returns (scores, share of total inertia carried by the first dimension).
    Scores have mean 0 and unit population variance.
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
    ones = block.sum(axis=0)
    cross = n * (block.T @ block) - np.outer(ones, ones)  # n^2 times the covariances
    scale = np.sqrt(np.diag(cross))  # n times the standard deviations
    corr = cross / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    lam, vecs = np.linalg.eigh(corr)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    # X'c for the centered row sums c, which are X times the standard deviations
    along_sums = cross.sum(axis=1) / scale
    tied = np.flatnonzero(np.sqrt(np.maximum(lam, 0.0)) >= np.sqrt(lam[0]) * (1.0 - _TIE_RTOL))
    axis = vecs[:, 0]
    if len(tied) > 1:
        # inner products of the tied left singular vectors with c
        dots = vecs[:, tied].T @ along_sums / np.sqrt(n * lam[0])
        norm = np.linalg.norm(dots)
        if norm > 1e-12:
            axis = vecs[:, tied] @ (dots / norm)
        else:
            reach = np.linalg.norm(vecs[:, tied], axis=1)  # each item axis's projection
            j = np.flatnonzero(reach > 1e-6)[0]
            axis = vecs[:, tied] @ vecs[j, tied] / reach[j]
    along = axis @ along_sums
    if abs(along) <= 1e-9 * np.linalg.norm(along_sums):
        along = axis[np.flatnonzero(np.abs(axis) >= np.abs(axis).max() * (1.0 - _TIE_RTOL))[0]]
    if along < 0:
        axis = -axis
    coef = axis * n / scale / np.sqrt(lam[0])
    return block @ coef - ones @ coef / n, float(lam[0] / q)


def prepare_blocks(
    raw: RawTable, spec: ModelSpec, missing_policy: str = "listwise"
) -> PreparedData:
    """Apply the missing-data policy, collapse MCA blocks, and standardize.

    ``listwise`` drops any row with a missing value among the model's
    indicator columns; ``mean`` imputes column means instead, which an
    mca-single-item block with a missing cell refuses (a mean is not 0 or 1).
    MCA runs on the raw binary values of each mca-single-item block after the
    policy, and its score column is standardized along with everything else.

    ``raw.values`` is untouched: ``matrix`` is one copy of the model's columns
    at its final width, standardized in place, with each MCA block's score in
    the place of its first column; an MCA block reads a copy of its own
    columns.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"unknown missing policy '{missing_policy}'")

    position = {name: i for i, name in enumerate(raw.header)}
    for block in spec.blocks:
        for col in block.indicators:
            if col not in position:
                raise DataError(f"indicator column '{col}' not found in data")

    selected = [position[col] for block in spec.blocks for col in block.indicators]
    n_input = raw.values.shape[0]
    keep = np.ones(n_input, dtype=bool)
    missing = {}  # missing cells by raw column, counted one column at a time
    for c in selected:
        mask = np.isnan(raw.values[:, c])
        missing[c] = int(np.count_nonzero(mask))
        if missing_policy == "listwise":
            keep[mask] = False
    missing_cells = {
        block.name: sum(missing[position[col]] for col in block.indicators)
        for block in spec.blocks
    }

    empty = [c for c in selected if missing[c] == n_input]
    if missing_policy == "mean" and empty:
        raise DataError(f"column '{raw.header[empty[0]]}' has no observed values")
    n_effective = int(np.count_nonzero(keep))
    if n_effective < 10:
        raise DataError(
            f"too few rows after missing-data handling: {n_effective} < 10"
        )
    if n_effective == n_input:
        keep = None  # columns are gathered without an n-long row index

    def rows_of(columns: list[int]) -> np.ndarray:
        if keep is None:
            return raw.values.take(columns, axis=1)
        return raw.values[np.ix_(keep, columns)]

    out_names: list[str] = []
    picks: list[int] = []  # the raw column of each matrix column
    block_index: dict[str, tuple[int, int]] = {}
    for block in spec.blocks:
        # an MCA block's score takes the place of its first column
        kept = [block.name] if block.mode == "mca-single-item" else list(block.indicators)
        block_index[block.name] = (len(out_names), len(out_names) + len(kept))
        picks.extend(position[col] for col in block.indicators[: len(kept)])
        out_names.extend(kept)
    matrix = rows_of(picks).astype(np.float64, copy=False)

    inertia: dict[str, float] = {}
    for block in spec.blocks:
        start = block_index[block.name][0]
        if block.mode == "mca-single-item":
            if missing_policy == "mean" and missing_cells[block.name]:
                raise DataError(
                    f"mca block '{block.name}' has missing cells: mean imputation cannot "
                    "fill 0/1 items, the 'listwise' missing policy can"
                )
            scores, inertia[block.name] = mca_first_dimension(
                # freed once the scores are formed
                rows_of([position[col] for col in block.indicators])
            )
            standardize_column(scores, block.name, out=matrix[:, start])
            continue
        for x, col in zip(matrix[:, start:].T, block.indicators):
            if missing_policy == "mean" and missing[position[col]]:
                mask = np.isnan(x)
                x[mask] = x[~mask].mean()
            standardize_column(x, col, out=x)

    return PreparedData(
        matrix=matrix,
        block_index=block_index,
        columns=tuple(out_names),
        n_input=n_input,
        n_effective=n_effective,
        missing_policy=missing_policy,
        missing_cells=missing_cells,
        mca_inertia_share=inertia,
    )
