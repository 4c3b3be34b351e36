import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plscycle import (
    DataError,
    DataFileError,
    RawTable,
    load_table,
    mca_first_dimension,
    parse_model,
    prepare_blocks,
    standardize_column,
    write_table,
)
from plscycle import dataset

from conftest import (
    TABLE_BYTES,
    TABLE_SHAPE,
    force_split,
    in_child_only,
    mca_oracle_first_dimension,
    traced_peak_tables,
)

# rows {111, 110, 100, 011, 001, 000}; leading principal inertias tie at 4/9
MCA_FIXTURE = np.array(
    [[1, 1, 1], [1, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]],
    dtype=np.float64,
)
# frozen against a brute-force correspondence analysis of the disjunctive
# matrix: sqrt(2) * (1, 1/2, -1/2, 1/2, -1/2, -1)
MCA_FIXTURE_SCORES = np.sqrt(2.0) * np.array([1.0, 0.5, -0.5, 0.5, -0.5, -1.0])


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_table_parses_numbers_and_missing_tokens(tmp_path):
    path = write(tmp_path, "a,b\n1,2.5\nNA,3\n4,\n")
    table = load_table(path)
    assert table.header == ("a", "b")
    assert table.values.shape == (3, 2)
    assert np.isnan(table.values[1, 0]) and np.isnan(table.values[2, 1])
    assert table.values[0, 1] == 2.5


def test_load_table_strips_byte_order_mark(tmp_path):
    path = write(tmp_path, "﻿a,b\n1,2\n3,4\n")
    assert load_table(path).header == ("a", "b")


def test_ragged_row_reports_line_number(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3,4\n5\n")
    with pytest.raises(DataFileError, match="ragged row at line 4"):
        load_table(path)


@pytest.mark.parametrize("cell", ["abc", "inf", "-inf", "nan"])
def test_non_numeric_cells_rejected_with_position(tmp_path, cell):
    path = write(tmp_path, f"a,b\n1,2\n{cell},4\n")
    with pytest.raises(DataFileError, match=r"at line 3, column 'a'"):
        load_table(path)


def test_duplicate_column_name_rejected(tmp_path):
    path = write(tmp_path, "a,a\n1,2\n3,4\n")
    with pytest.raises(DataFileError, match="duplicate column name 'a'"):
        load_table(path)


def test_header_required_and_two_data_rows_minimum(tmp_path):
    with pytest.raises(DataFileError, match="empty, header row required"):
        load_table(write(tmp_path, "", name="e.csv"))
    with pytest.raises(DataFileError, match="at least 2 data rows"):
        load_table(write(tmp_path, "a,b\n1,2\n", name="one.csv"))


def test_unreadable_path_reports_filename():
    with pytest.raises(DataFileError, match="cannot read"):
        load_table("/no/such/file.csv")


# inputs the vectorized parse must either decline or read exactly as the
# row-by-row reader does
READER_CORPUS = {
    "blank line mid-file": "a,b\n1,2\n\n3,4\n5,6\n",
    "trailing blank line": "a,b\n1,2\n3,4\n\n",
    "trailing comma": "a,b\n1,2,\n3,4,\n",
    "short row": "a,b\n1,2\n3\n5,6\n",
    "long rows": "a,b\n1,2,3\n4,5,6\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "byte order mark": "\ufeffa,b\n1,2\n3,4\n",
    "quoted numeric cell": 'a,b\n1,"2"\n3,4\n',
    "nan": "a,b\n1,2\nnan,4\n",
    "inf": "a,b\n1,inf\n3,4\n",
    "overflow": "a,b\n1,1e400\n3,4\n",
    "underscore digits": "a,b\n1_000,2\n3,4\n",
    "arabic-indic digit": "a,b\n\u0661,2\n3,4\n",
    "tab-padded cells": "a,b\n\t1,2\t\n 3 ,\t4 \n",
    "whitespace-only cell": "a,b\n1, \n3,4\n",
    "whitespace-only line": "a\n1\n  \n3\n",
    "missing final newline": "a,b\n1,2\n3,4",
    "one row": "a,b\n1,2\n",
    "header only": "a,b\n",
    "blank lines only": "a,b\n\n\n",
    "header without newline": "a,b",
    "missing tokens": "a,b\n1,NA\n,4\n5,6\n",
    "NA in a column name": "NAME,b\n1,2\n3,4\n",
    "hex": "a,b\n0x10,2\n3,4\n",
    "scientific and subnormal": "a,b\n1e-05,-0.0\n5e-324,1.7976931348623157e+308\n",
    "single column": "a\n1\n2\n3\n",
    "latin-1 header": "A\u00f1o,b\n1,2\n3,4\n".encode("latin-1"),
    "latin-1 body": "a,b\n1,2\n3,\u00e9\n".encode("latin-1"),
    # past the first chunk the header read decodes, so the vectorized parse meets it
    "latin-1 body past 8 KiB": ("a,b\n" + "1,2\n" * 3000 + "3,\u00e9\n").encode("latin-1"),
    "padded missing tokens": "a,b,c\n NA ,\tNA,\n,NA ,1\n",
    "nan beside NA": "a,b\n1,NA\nnan,4\n",
    "inf beside an empty cell": "a,b\n1,\ninf,4\n",
    "1e999 beside NA": "a,b\nNA,1e999\n3,4\n",
    "NAN": "a,b\nNA,NAN\n3,4\n",
    "NaN": "a,b\nNA,NaN\n3,4\n",
    "1NA": "a,b\nNA,1NA\n3,4\n",
    "signed NA": "a,b\n,-NA\n+NA,4\n",
    "runs of empty cells": "a,b,c,d\n,,,1\n1,,,\n,,,\n",
    "one column with NA": "a\n1\nNA\n3\n",
    "whitespace-only cell beside NA": "a,b\nNA, \n3,4\n",
}


def load_or_message(load, path):
    """Header, shape and value bytes, or the DataFileError message."""
    try:
        table = load(path)
    except DataFileError as exc:
        return str(exc)
    return table.header, table.values.shape, table.values.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", READER_CORPUS.values(), ids=READER_CORPUS.keys())
def test_load_table_matches_row_reader_on_awkward_inputs(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert load_or_message(load_table, str(path)) == load_or_message(
        dataset._load_rows, str(path)
    )


NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)


def cells(width):
    """Padded numbers and missing cells, blank ones too; in one column an empty cell is a
    blank line."""
    padded = st.tuples(st.sampled_from(["", " ", "\t"]), NUMBER).map(lambda t: t[0] + t[1] + t[0])
    missing = ["NA", " NA ", " ", "\t "] + ([""] if width > 1 else [])
    return st.one_of(padded, st.sampled_from(missing))


@given(
    st.integers(1, 4).flatmap(
        lambda width: st.lists(
            st.lists(cells(width), min_size=width, max_size=width),
            min_size=2,
            max_size=8,
        )
    ),
    st.booleans(),
)
# test_forked_parse_equals_row_reader runs this with a fork per example, which
# can take longer than the default 200 ms deadline on a loaded machine
@settings(deadline=None)
def test_vectorized_parse_equals_row_reader(rows, final_newline):
    width = len(rows[0])
    lines = [",".join(f"c{j}" for j in range(width))]
    lines += [",".join(row) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + ("\n" if final_newline else ""))
        reference = dataset._load_rows(path)
        fast = dataset._parse_plain(path, width)
        assert fast is not None
        assert fast.tobytes() == reference.values.tobytes()
        assert load_or_message(load_table, path) == load_or_message(dataset._load_rows, path)


def test_missing_cells_take_the_vectorized_parse_and_bad_cells_the_row_reader(
    tmp_path, monkeypatch
):
    calls = []
    rows = dataset._load_rows
    monkeypatch.setattr(dataset, "_load_rows", lambda path: calls.append(path) or rows(path))
    plain = write(tmp_path, "a,b\n1,2.5\n3e-7,-4\n", name="plain.csv")
    missing = write(tmp_path, "a,b\n1,\n NA ,-4\n", name="missing.csv")
    assert load_table(plain).values.tolist() == [[1.0, 2.5], [3e-7, -4.0]]
    values = load_table(missing).values
    assert values[0, 0] == 1.0 and values[1, 1] == -4.0
    assert np.isnan(values[0, 1]) and np.isnan(values[1, 0])
    # a cell of spaces or tabs is missing to both parses
    blank = write(tmp_path, "a,b,c\n1, ,2\n3,\t,4\n \t,5,\t \n", name="blank.csv")
    assert load_table(blank).values.tobytes() == rows(blank).values.tobytes()
    assert np.isnan(load_table(blank).values).sum() == 4
    assert calls == []
    bad = [write(tmp_path, f"a,b\n1,NA\n{cell},4\n", name=f"{cell}.csv")
           for cell in ("nan", "inf", "1NA")]
    for path, cell in zip(bad, ("nan", "inf", "1NA")):
        with pytest.raises(DataFileError, match=f"non-numeric value '{cell}' at line 3"):
            load_table(path)
    assert calls == bad


def test_plain_scan_declines_quotes_crs_and_blank_lines(tmp_path):
    assert dataset._plain_body_rows(write(tmp_path, "NA_a,b\n1,2\n3,4")) == 2
    assert dataset._plain_body_rows(write(tmp_path, "a,b\n1,NA\n,4\n")) == 2
    for body in ('1,"2"\n', "1,2\r\n", "1,2\n\n3,4\n"):
        assert dataset._plain_body_rows(write(tmp_path, "a,b\n" + body)) is None
    # the first read chunk (1 MiB) ends between the two newlines of a blank line
    path = write(tmp_path, "a\n" + "1\n" * 524288 + "\n3\n", name="big.csv")
    assert dataset._plain_body_rows(path) is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", READER_CORPUS.values(), ids=READER_CORPUS.keys())
def test_forked_parse_matches_row_reader_on_awkward_inputs(tmp_path, text, forks):
    test_load_table_matches_row_reader_on_awkward_inputs(tmp_path, text)
    assert len(forks) <= 1


@pytest.mark.filterwarnings("error")
def test_forked_parse_equals_row_reader():
    with pytest.MonkeyPatch.context() as monkeypatch:
        forks = force_split(monkeypatch)
        test_vectorized_parse_equals_row_reader()
    assert forks


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 8), st.integers(1, 4)),
        elements=st.one_of(st.just(np.nan), st.floats(allow_infinity=False)),
    )
)
@settings(deadline=None)
def test_write_table_round_trips_missing_cells(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        write_table(path, RawTable(tuple(f"c{j}" for j in range(values.shape[1])), values))
        back = load_table(path).values
    missing = np.isnan(values)
    assert np.array_equal(np.isnan(back), missing)
    assert back[~missing].tobytes() == values[~missing].tobytes()


@pytest.mark.filterwarnings("error")
def test_forked_write_table_round_trips_missing_cells():
    with pytest.MonkeyPatch.context() as monkeypatch:
        forks = force_split(monkeypatch)
        test_write_table_round_trips_missing_cells()
    assert forks


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [0, 1, 2])
def test_forked_write_of_a_short_table_equals_the_serial_bytes(tmp_path, monkeypatch, rows):
    values = np.arange(2.0 * rows).reshape(rows, 2) / 3
    values[rows - 1:, 1] = np.nan
    table = RawTable(("a", "b"), values)
    serial, forked = tmp_path / "serial.csv", tmp_path / "forked.csv"
    write_table(str(serial), table)
    forks = force_split(monkeypatch)
    write_table(str(forked), table)
    assert len(forks) == 1
    assert forked.read_bytes() == serial.read_bytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("infinity", [np.inf, -np.inf])
def test_write_table_rejects_an_infinite_value_before_writing(tmp_path, forks, infinity):
    path = tmp_path / "data.csv"
    path.write_text("kept")
    table = RawTable(("a", "b"), np.array([[1.0, 2.0], [3.0, infinity]]))
    with pytest.raises(ValueError, match="infinite value"):
        write_table(str(path), table)
    assert path.read_text() == "kept"
    assert forks == []


def csv_rows(values: np.ndarray) -> bytes:
    """The reference body: each row's cells through ``repr``, NaN as ``NA``."""
    rows = (",".join(map(repr, row.tolist())) + "\n" for row in values)
    return "".join(rows).replace("nan", "NA").encode()


def repr_corpus() -> np.ndarray:
    """Cells at the edges of the encoder's fast path, both signs."""
    cells = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    cells += [9999999999999998.0, 1e16, np.nextafter(1e-4, 0), np.nan]
    cells += [0.5, 0.125, 2.5, 0.375, 1.5, 12.5, 0.1, 1 / 3, 2 / 3]
    cells += [2.0**53 + step for step in range(-4, 5)]  # integers near 2^53
    for x in [10.0**e for e in range(-5, 18)] + [2.0**e for e in range(-20, 57)]:
        cells += [np.nextafter(x, 0), x, np.nextafter(x, np.inf)]
    cells = np.array(cells)
    return np.concatenate([cells, -cells])


FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda bits: bits >> 52 & 0x7FF != 0x7FF)
SHAPES = st.tuples(st.integers(0, 6), st.integers(1, 5))


@given(
    st.one_of(
        arrays(np.float64, SHAPES, elements=st.floats(allow_infinity=False)),
        arrays(np.uint64, SHAPES, elements=FINITE_BITS).map(lambda bits: bits.view(np.float64)),
    )
)
def test_csv_body_is_the_repr_of_every_cell(values):
    assert b"".join(dataset._csv_body(values)) == csv_rows(values)


def test_csv_body_is_the_repr_of_uniform_bits_where_repr_is_positional():
    rng = np.random.default_rng(20)
    n = 60_000
    exponent = rng.integers(1023 - 14, 1023 + 54, n, dtype=np.uint64)  # 2^-14 to 2^53
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    bits = sign | exponent << np.uint64(52) | rng.integers(0, 2**52, n, dtype=np.uint64)
    values = bits.view(np.float64).reshape(-1, 6)
    assert b"".join(dataset._csv_body(values)) == csv_rows(values)


def test_csv_body_is_the_repr_of_awkward_cells():
    cells = repr_corpus()
    for values in (cells[:, None], cells[: len(cells) // 7 * 7].reshape(-1, 7)):
        assert b"".join(dataset._csv_body(values)) == csv_rows(values)


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("rows", [0, 1, 2])
def test_csv_body_of_a_short_table(rows, width):
    values = np.resize(repr_corpus(), (rows, width))
    assert b"".join(dataset._csv_body(values)) == csv_rows(values)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("width", [1, 3, 7])
def test_csv_body_across_a_block_boundary(width, extra):
    rows = dataset._BLOCK_CELLS // width + extra
    values = np.random.default_rng(width).standard_normal((rows, width))
    cells = values.reshape(-1)
    cells[::50] = np.resize(repr_corpus(), cells[::50].size)
    assert b"".join(dataset._csv_body(values)) == csv_rows(values)


def test_csv_body_streams_blocks_of_at_most_a_mebibyte():
    values = np.random.default_rng(7).standard_normal((30_000, 10))
    values[::97, 3] = np.nan
    values[::89, 5] *= 1e-7  # cells that go to repr
    blocks = list(dataset._csv_body(values))
    assert max(map(len, blocks)) <= 1 << 20
    assert b"".join(blocks) == csv_rows(values)


def test_an_integer_table_is_written_as_floats_and_reads_back_equal(tmp_path):
    path = tmp_path / "data.csv"
    values = np.array([[1, -2], [0, 2**53]], dtype=np.int64)
    write_table(str(path), RawTable(("a", "b"), values))
    assert path.read_text() == "a,b\n1.0,-2.0\n0.0,9007199254740992.0\n"
    assert np.array_equal(load_table(str(path)).values, values)


# six body rows: the front half is lines 2-4, the back half lines 5-7
SPLIT_BODY = ["1,2", "3,4", "5,6", "7,8", "9,10", "11,12"]


def table_text(lines, end="\n"):
    return "a,b\n" + "\n".join(lines) + end


SPLIT_CASES = {
    "blank line in the front half": table_text(SPLIT_BODY[:2] + [""] + SPLIT_BODY[2:]),
    "blank line in the back half": table_text(SPLIT_BODY[:4] + [""] + SPLIT_BODY[4:]),
    "last line without newline": table_text(SPLIT_BODY, end=""),
    "byte order mark": "\ufeff" + table_text(SPLIT_BODY),
    "two-row body": table_text(SPLIT_BODY[:2]),
    "nan in the back half": table_text(SPLIT_BODY[:5] + ["nan,1"]),
    "ragged row in the front half": table_text(["1"] + SPLIT_BODY[1:]),
    "NA in the front half only": table_text(["1,NA"] + SPLIT_BODY[1:]),
    "empty cell in the back half only": table_text(SPLIT_BODY[:4] + ["9,"] + SPLIT_BODY[5:]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", SPLIT_CASES.values(), ids=SPLIT_CASES.keys())
def test_forked_parse_at_the_split(tmp_path, text, forks):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert load_or_message(load_table, str(path)) == load_or_message(dataset._load_rows, str(path))
    plain = dataset._plain_body_rows(str(path)) is not None
    assert len(forks) == plain


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("middle", ["0065536,0065536", "     NA,0065536"], ids=["plain", "NA"])
def test_forked_parse_of_a_middle_line_at_a_scan_chunk_boundary(tmp_path, forks, middle):
    # 2 * 65536 body lines of 16 bytes: the back half starts at the first byte
    # of the scan's second 1 MiB read
    lines = [f"{i:07d},{i:07d}" for i in range(2 * 65536)]
    lines[65536] = middle
    path = write(tmp_path, table_text(lines))
    assert load_or_message(load_table, path) == load_or_message(dataset._load_rows, path)
    assert len(forks) == 1


def short_result(path, skip, rows, width):
    return np.zeros((rows - 1, width))


def failing_child(*args):
    raise RuntimeError("the child fails")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("child", [failing_child, short_result], ids=["raises", "short result"])
def test_a_failed_child_leaves_the_parent_the_back_half(tmp_path, monkeypatch, forks, child):
    in_child_only(monkeypatch, dataset, "_loadtxt", child)
    path = write(tmp_path, table_text(SPLIT_BODY))
    assert load_or_message(load_table, path) == load_or_message(dataset._load_rows, path)
    assert len(forks) == 1


def refuse_fork():
    raise AssertionError("forked")


@pytest.mark.filterwarnings("error")
def test_no_fork_on_one_cpu_or_without_os_fork(tmp_path, monkeypatch):
    force_split(monkeypatch)
    path = write(tmp_path, table_text(SPLIT_BODY))
    expected = load_or_message(dataset._load_rows, path)
    monkeypatch.setattr(os, "fork", refuse_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert load_or_message(load_table, path) == expected
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork")
    assert load_or_message(load_table, path) == expected


def test_standardize_column_closed_form():
    z = standardize_column(np.array([1.0, 2.0, 3.0]))
    root = np.sqrt(1.5)
    assert np.allclose(z, [-root, 0.0, root], atol=1e-12)
    assert abs(z.mean()) < 1e-12 and abs(z.std() - 1.0) < 1e-12


def test_standardize_column_zero_variance():
    with pytest.raises(DataError, match="zero variance in column 'c'"):
        standardize_column(np.full(5, 3.3), "c")


@given(
    arrays(
        np.float64,
        st.integers(5, 40),
        elements=st.floats(-50, 50, allow_nan=False),
    ).filter(lambda x: x.std() > 1e-6),
    st.floats(0.1, 10),
    st.floats(-5, 5),
)
def test_standardize_column_affine_invariance(x, a, b):
    base = standardize_column(x)
    assert np.allclose(standardize_column(a * x + b), base, atol=1e-7)
    assert np.allclose(standardize_column(-x), -base, atol=1e-9)


def two_block_model():
    return parse_model(
        {
            "blocks": [
                {"name": "A", "indicators": ["a1", "a2"]},
                {"name": "B", "indicators": ["b1"], "mode": "single-item"},
            ],
            "paths": [{"source": "A", "target": "B"}],
        }
    )


def numeric_csv(tmp_path, n=40, missing_at=None):
    rng = np.random.default_rng(0)
    body = rng.normal(size=(n, 3)).round(6).astype(str)
    if missing_at is not None:
        body[missing_at] = "NA"
    lines = ["a1,a2,b1"] + [",".join(row) for row in body]
    return write(tmp_path, "\n".join(lines) + "\n")


def test_listwise_drops_rows_with_missing_cells(tmp_path):
    path = numeric_csv(tmp_path, n=40, missing_at=(3, 1))
    data = prepare_blocks(load_table(path), two_block_model(), "listwise")
    assert data.n_input == 40
    assert data.n_effective == 39
    assert data.missing_cells == {"A": 1, "B": 0}


def test_mean_policy_keeps_rows_and_imputes_column_mean(tmp_path):
    path = numeric_csv(tmp_path, n=40, missing_at=(3, 1))
    raw = load_table(path)
    data = prepare_blocks(raw, two_block_model(), "mean")
    assert data.n_effective == 40
    observed = np.delete(raw.values[:, 1], 3)
    # imputing the mean leaves the imputed cell at exactly 0 after centering
    filled = np.append(observed, observed.mean())
    assert abs(data.matrix[:, 1].mean()) < 1e-12
    assert abs(np.sort(data.matrix[:, 1])[0] - standardize_column(filled).min()) < 1e-9


def test_mean_impute_alias_and_unknown_policy(tmp_path):
    raw = load_table(numeric_csv(tmp_path))
    data = prepare_blocks(raw, two_block_model(), "mean")
    assert data.missing_policy == "mean"
    for policy in ("mean-impute", "pairwise"):
        with pytest.raises(ValueError, match="unknown missing policy"):
            prepare_blocks(raw, two_block_model(), policy)


def test_policies_agree_on_complete_data(tmp_path):
    raw = load_table(numeric_csv(tmp_path))
    a = prepare_blocks(raw, two_block_model(), "listwise")
    b = prepare_blocks(raw, two_block_model(), "mean")
    assert np.array_equal(a.matrix, b.matrix)


def test_mean_policy_names_a_column_with_no_observed_values(tmp_path):
    path = write(tmp_path, "a1,a2,b1\n" + "1,NA,2\n3,NA,5\n" * 6)
    with pytest.raises(DataError, match=r"^column 'a2' has no observed values$"):
        prepare_blocks(load_table(path), two_block_model(), "mean")


@pytest.mark.parametrize("policy", ["listwise", "mean"])
def test_an_integer_table_prepares_as_its_float64_copy(policy):
    values = np.random.default_rng(2).integers(-50, 50, size=(30, 3))
    as_int = prepare_blocks(RawTable(("a1", "a2", "b1"), values), two_block_model(), policy)
    as_float = prepare_blocks(
        RawTable(("a1", "a2", "b1"), values.astype(np.float64)), two_block_model(), policy
    )
    assert np.array_equal(as_int.matrix, as_float.matrix)


def test_too_few_rows_after_listwise(tmp_path):
    # 28 rows with a missing cell plus 2 complete ones -> 2 effective rows
    rows = ["a1,a2,b1"] + ["NA,0,0"] * 28 + ["1,2,3", "4,5,6"]
    path = write(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(DataError, match="too few rows .*: 2 < 10"):
        prepare_blocks(load_table(path), two_block_model(), "listwise")


def test_prepared_columns_are_standardized(tmp_path):
    data = prepare_blocks(load_table(numeric_csv(tmp_path)), two_block_model())
    assert np.abs(data.matrix.mean(axis=0)).max() < 1e-12
    assert np.abs(data.matrix.std(axis=0) - 1.0).max() < 1e-12
    assert data.columns == ("a1", "a2", "b1")
    assert data.block_index == {"A": (0, 2), "B": (2, 3)}


def test_missing_indicator_column_rejected(tmp_path):
    raw = load_table(numeric_csv(tmp_path))
    spec = parse_model(
        {"blocks": [{"name": "A", "indicators": ["a1", "zz"]}]}
    )
    with pytest.raises(DataError, match="indicator column 'zz' not found"):
        prepare_blocks(raw, spec)


def test_mca_fixture_matches_frozen_oracle():
    scores, share = mca_first_dimension(MCA_FIXTURE)
    assert np.abs(scores - MCA_FIXTURE_SCORES).max() < 1e-8
    assert abs(share - 4.0 / 9.0) < 1e-12
    assert abs(scores.mean()) < 1e-12
    assert abs(scores.var() - 1.0) < 1e-12


def test_mca_single_variable_equals_standardized_column():
    q = np.array([1.0, 0, 0, 1, 1, 0, 1, 0])
    scores, share = mca_first_dimension(q[:, None])
    assert np.allclose(scores, standardize_column(q), atol=1e-10)
    assert abs(share - 1.0) < 1e-12


def test_mca_duplicated_variable_changes_nothing():
    q = np.array([1.0, 0, 0, 1, 1, 0, 1, 0])
    single, _ = mca_first_dimension(q[:, None])
    doubled, _ = mca_first_dimension(np.column_stack([q, q]))
    assert np.allclose(doubled, single, atol=1e-10)


def test_mca_scores_track_row_sums_on_fixture():
    scores, _ = mca_first_dimension(MCA_FIXTURE)
    sums = MCA_FIXTURE.sum(axis=1)
    assert scores.argmax() == sums.argmax()
    assert scores.argmin() == sums.argmin()
    assert np.corrcoef(scores, sums)[0, 1] > 0


def test_mca_row_permutation_equivariance():
    rng = np.random.default_rng(4)
    block = (rng.random((30, 4)) > 0.5).astype(float)
    for j in range(4):  # guarantee both categories
        block[0, j] = 0.0
        block[1, j] = 1.0
    perm = rng.permutation(30)
    base, share_a = mca_first_dimension(block)
    shuffled, share_b = mca_first_dimension(block[perm])
    assert abs(share_a - share_b) < 1e-12
    assert np.allclose(shuffled, base[perm], atol=1e-8)


def test_mca_rejects_non_binary_and_constant_variables():
    with pytest.raises(DataError, match="entries must be 0 or 1"):
        mca_first_dimension(np.array([[0.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(DataError, match="variable 2 has a single observed category"):
        mca_first_dimension(np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "rows, rotate",
    [
        # anti-correlated items of equal prevalence: the first dimension is
        # uncorrelated with the row sums
        ([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1], [0, 0]], False),
        # a tied first eigenspace orthogonal to the row sums
        ([[0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]], True),
    ],
)
def test_mca_orientation_does_not_depend_on_the_eigensolver(monkeypatch, rows, rotate):
    block = np.array(rows, dtype=float)
    scores, share = mca_first_dimension(block)
    eigh = np.linalg.eigh

    def other_basis(corr):
        lam, vecs = eigh(corr)
        vecs = -vecs
        if rotate:  # any orthonormal basis of the tied top pair is as good
            c, s = np.cos(0.7), np.sin(0.7)
            vecs[:, -2:] = vecs[:, -2:] @ np.array([[c, -s], [s, c]])
        return lam, vecs

    monkeypatch.setattr(dataset.np.linalg, "eigh", other_basis)
    again, share_again = mca_first_dimension(block)
    assert np.abs(again - scores).max() <= 1e-12
    assert share_again == share
    # the first item's loading is the lowest-index largest one, made positive
    first_item_only = (block[:, 0] == 1) & (block[:, 1:].sum(axis=1) == 0)
    assert (scores[first_item_only] > 0).all()


@given(st.integers(0, 2**32))
def test_mca_share_is_a_fraction_and_scores_follow_row_sums(seed):
    rng = np.random.default_rng(seed)
    block = (rng.random((25, 3)) > rng.uniform(0.2, 0.8)).astype(float)
    block[0] = 0.0
    block[1] = 1.0
    scores, share = mca_first_dimension(block)
    assert 0.0 < share <= 1.0 + 1e-12
    sums = block.sum(axis=1) - block.sum(axis=1).mean()
    # 0 up to rounding when the first dimension is uncorrelated with the row
    # sums, and its item loadings orient it instead
    assert float(np.dot(scores, sums)) >= -1e-9 * np.linalg.norm(scores) * np.linalg.norm(sums)


@given(st.data())
@settings(deadline=None, max_examples=300)
def test_mca_matches_the_correspondence_analysis_oracle(data):
    if data.draw(st.booleans(), label="exact tie"):
        block = np.tile(MCA_FIXTURE, (data.draw(st.integers(1, 4), label="copies"), 1))
    else:
        shape = (data.draw(st.integers(2, 80), label="rows"), data.draw(st.integers(1, 5)))
        block = data.draw(
            arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0]), fill=st.nothing()),
            label="block",
        )
        assume(np.ptp(block, axis=0).all())
    # repeating every column keeps a tie
    block = np.repeat(block, data.draw(st.integers(1, 3), label="repeats"), axis=1)
    block = block[data.draw(st.permutations(range(len(block))), label="row order")]
    with np.errstate(invalid="ignore"):
        oracle, oracle_share = mca_oracle_first_dimension(block)
    sums = block.sum(axis=1) - block.sum(axis=1).mean()
    # row sums orthogonal to the leading eigenspace pin no direction in it (the
    # oracle's is NaN or noise there)
    assume(abs(oracle @ sums) > 1e-6 * np.sqrt(len(block)) * np.linalg.norm(sums))
    scores, share = mca_first_dimension(block)
    assert min(np.abs(scores - oracle).max(), np.abs(scores + oracle).max()) <= 1e-9
    assert abs(share - oracle_share) <= 1e-12


def test_prepare_collapses_mca_block_to_named_column(tmp_path):
    rng = np.random.default_rng(1)
    q = (rng.random((30, 3)) > 0.5).astype(int)
    q[0] = 0
    q[1] = 1
    y = rng.normal(size=30)
    lines = ["q1,q2,q3,y1"]
    for i in range(30):
        lines.append(f"{q[i,0]},{q[i,1]},{q[i,2]},{y[i]:.6f}")
    path = write(tmp_path, "\n".join(lines) + "\n")
    spec = parse_model(
        {
            "blocks": [
                {"name": "Q", "mode": "mca-single-item", "indicators": ["q1", "q2", "q3"]},
                {"name": "Y", "mode": "single-item", "indicators": ["y1"]},
            ],
            "paths": [{"source": "Q", "target": "Y"}],
        }
    )
    data = prepare_blocks(load_table(path), spec)
    assert data.columns == ("Q", "y1")
    assert data.block_index == {"Q": (0, 1), "Y": (1, 2)}
    assert set(data.mca_inertia_share) == {"Q"}
    assert 0.0 < data.mca_inertia_share["Q"] <= 1.0
    scores, _ = mca_first_dimension(q.astype(float))
    assert np.allclose(data.matrix[:, 0], scores, atol=1e-10)


def reference_prepare(raw, spec, policy):
    """The prepared matrix built column by column: a copy of the selection,
    the policy applied to it, then ``np.column_stack`` of each standardized
    indicator or MCA score. Under ``mean``, an MCA block with a missing cell
    is refused."""
    selected = [raw.header.index(col) for block in spec.blocks for col in block.indicators]
    sub = raw.values[:, selected]
    incomplete = np.isnan(sub).any(axis=0)
    if policy == "listwise":
        sub = sub[~np.isnan(sub).any(axis=1)]
    else:
        sub = sub.copy()
        for j in range(sub.shape[1]):
            col, mask = sub[:, j], np.isnan(sub[:, j])
            if mask.all():
                raise DataError(f"column '{raw.header[selected[j]]}' has no observed values")
            col[mask] = col[~mask].mean()
    if sub.shape[0] < 10:
        raise DataError(f"too few rows after missing-data handling: {sub.shape[0]} < 10")
    columns, cursor = [], 0
    for block in spec.blocks:
        values = sub[:, cursor:cursor + len(block.indicators)]
        gaps = incomplete[cursor:cursor + len(block.indicators)].any()
        cursor += len(block.indicators)
        if block.mode == "mca-single-item":
            if policy == "mean" and gaps:
                raise DataError(
                    f"mca block '{block.name}' has missing cells: mean imputation cannot "
                    "fill 0/1 items, the 'listwise' missing policy can"
                )
            columns.append(standardize_column(mca_first_dimension(values)[0], block.name))
        else:
            columns.extend(
                standardize_column(values[:, k], col) for k, col in enumerate(block.indicators)
            )
    return np.column_stack(columns)


def outcome(prepare):
    try:
        return prepare()
    except DataError as exc:
        return str(exc)


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_prepare_blocks_equals_the_column_stack_reference(draw):
    n = draw.draw(st.integers(16, 48), label="rows")

    def cells(width, elements):
        # fill=st.nothing() draws every cell, instead of filling most with one value
        return arrays(np.float64, (n, width), elements=elements, fill=st.nothing())

    real = draw.draw(cells(6, st.floats(-1e6, 1e6)), label="real")
    binary = draw.draw(cells(2, st.sampled_from([0.0, 1.0])), label="binary")
    values = np.column_stack([real, binary])
    missing = draw.draw(cells(8, st.sampled_from([1.0] + [0.0] * 11)), label="missing") == 1.0
    # "mean" refuses an MCA block with a missing cell, so MCA columns are mostly complete
    missing[:, 6:] &= draw.draw(st.booleans(), label="binary cells missing")
    values[missing] = np.nan
    header = tuple(f"r{j}" for j in range(6)) + ("q0", "q1")
    # five of the six real columns, in a drawn order: the selection reorders
    # them and skips one
    reals = draw.draw(st.permutations(header[:6]), label="real order")[:5]
    quals = draw.draw(st.permutations(header[6:]), label="binary order")
    mca_width = draw.draw(st.sampled_from([1, 2]), label="mca width")
    blocks = [
        {"name": "A", "indicators": list(reals[:3])},
        {"name": "B", "indicators": [reals[3]], "mode": "single-item"},
        {"name": "C", "indicators": [reals[4]]},
        {"name": "Q", "indicators": list(quals[:mca_width]), "mode": "mca-single-item"},
    ]
    spec = parse_model({"blocks": draw.draw(st.permutations(blocks), label="block order")})
    policy = draw.draw(st.sampled_from(["listwise", "mean"]), label="policy")
    raw = RawTable(header, values)
    before = values.tobytes()

    expected = outcome(lambda: reference_prepare(raw, spec, policy))
    got = outcome(lambda: prepare_blocks(raw, spec, policy))
    assert raw.values.tobytes() == before
    if isinstance(expected, str):
        assert got == expected
    else:
        assert np.array_equal(got.matrix, expected)
        assert got.matrix.flags.c_contiguous


def test_a_forked_write_table_peaks_below_a_third_of_a_table_in_this_process(tmp_path, forks):
    # the front half is formatted a block at a time and the child's half copied
    # to the file a MiB at a time
    values = np.random.default_rng(0).standard_normal(TABLE_SHAPE)
    path = tmp_path / "data.csv"
    table = RawTable(tuple(f"x{j}" for j in range(TABLE_SHAPE[1])), values)
    peak = traced_peak_tables(lambda: write_table(str(path), table))
    assert len(forks) == 1
    assert peak < 0.3
    assert load_table(str(path)).values.tobytes() == values.tobytes()


PAPER_BLOCKS = parse_model(
    {
        "blocks": [
            {"name": name, "indicators": [f"x{j}" for j in columns]}
            for name, columns in (("A", range(4)), ("B", range(4, 8)), ("C", range(8, 11)))
        ]
    }
)


def prepare_peak(values, policy):
    raw = RawTable(tuple(f"x{j}" for j in range(TABLE_SHAPE[1])), values)
    prepared = []
    peak = traced_peak_tables(lambda: prepared.append(prepare_blocks(raw, PAPER_BLOCKS, policy)),
                              held=TABLE_BYTES)
    assert prepared[0].matrix.shape[1] == TABLE_SHAPE[1]
    return peak


@pytest.mark.parametrize("policy", ["listwise", "mean"])
def test_prepare_blocks_peaks_below_two_and_a_half_tables(policy):
    # the input table plus one prepared copy, and a little scratch: missing
    # cells are counted a column at a time
    values = np.random.default_rng(0).standard_normal(TABLE_SHAPE)
    values[::97, 3] = np.nan
    assert prepare_peak(values, policy) < 2.15


@pytest.mark.parametrize("policy", ["listwise", "mean"])
def test_prepare_blocks_on_complete_data_peaks_below_2_15_tables(policy):
    # no row is dropped, so the columns are gathered without a row index
    assert prepare_peak(np.random.default_rng(0).standard_normal(TABLE_SHAPE), policy) < 2.15


@pytest.mark.parametrize("policy", ["listwise", "mean"])
def test_prepare_blocks_with_an_mca_block_peaks_below_two_and_a_half_tables(policy):
    # block C of three 0/1 items collapses to one MCA score column
    rng = np.random.default_rng(0)
    values = rng.standard_normal(TABLE_SHAPE)
    values[:, 8:] = rng.random((TABLE_SHAPE[0], 3)) < [0.3, 0.5, 0.6]
    values[::97, 3] = np.nan
    raw = RawTable(tuple(f"x{j}" for j in range(TABLE_SHAPE[1])), values)
    blocks = [{"name": "A", "indicators": [f"x{j}" for j in range(4)]},
              {"name": "B", "indicators": [f"x{j}" for j in range(4, 8)]},
              {"name": "C", "mode": "mca-single-item", "indicators": ["x8", "x9", "x10"]}]
    spec = parse_model({"blocks": blocks})
    prepared = []
    peak = traced_peak_tables(lambda: prepared.append(prepare_blocks(raw, spec, policy)),
                              held=TABLE_BYTES)
    assert prepared[0].columns[-1] == "C"
    assert peak < 2.25
