import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from plscycle import (
    DataError,
    DataFileError,
    RawTable,
    load_table,
    mca_first_dimension,
    mca_inertia_shares,
    parse_model,
    prepare_blocks,
    standardize_column,
    write_table,
)
from plscycle import dataset

from conftest import force_split, in_child_only

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
    """Padded numbers and missing cells; in one column an empty cell is a blank line."""
    padded = st.tuples(st.sampled_from(["", " ", "\t"]), NUMBER).map(lambda t: t[0] + t[1] + t[0])
    return st.one_of(padded, st.sampled_from(["NA", " NA "] + ([""] if width > 1 else [])))


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
    data = prepare_blocks(raw, two_block_model(), "mean-impute")
    assert data.missing_policy == "mean"
    with pytest.raises(ValueError, match="unknown missing policy"):
        prepare_blocks(raw, two_block_model(), "pairwise")


def test_policies_agree_on_complete_data(tmp_path):
    raw = load_table(numeric_csv(tmp_path))
    a = prepare_blocks(raw, two_block_model(), "listwise")
    b = prepare_blocks(raw, two_block_model(), "mean")
    assert np.array_equal(a.matrix, b.matrix)


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


def test_mca_inertia_shares_of_fixture():
    shares = mca_inertia_shares(MCA_FIXTURE)
    assert abs(shares.sum() - 1.0) < 1e-10
    assert np.allclose(shares[:3], [4 / 9, 4 / 9, 1 / 9], atol=1e-12)


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


@given(st.integers(0, 2**32))
def test_mca_shares_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    block = (rng.random((25, 3)) > rng.uniform(0.2, 0.8)).astype(float)
    block[0] = 0.0
    block[1] = 1.0
    shares = mca_inertia_shares(block)
    assert abs(shares.sum() - 1.0) < 1e-10
    assert (shares >= -1e-15).all()
    scores, _ = mca_first_dimension(block)
    assert float(np.dot(scores, block.sum(axis=1) - block.sum(axis=1).mean())) >= 0


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
