"""CSV loading, rebasing, transforms, splitting, normalization, windowing."""
import datetime
import hashlib
import logging
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketgraph import (
    ConfigError, DataError, DomainError, ShapeError, TimeSeriesFrame, WindowSpec, load_csv,
    run_pipeline,
)
from marketgraph.data import (
    NormStats, SplitSpec, _convert_rows, _parse_csv, adjust_rebased_series, chronological_split,
    compute_norm_stats, denormalize_values, descriptive_stats, frame_hash,
    invert_predictions, log_transform, make_windows, normalize, read_csv_rows,
)
from marketgraph.graph import read_adjacency_csv
import reference_ops
from conftest import build_frame, write_frame_csv

D = datetime.date


# -- frame construction -----------------------------------------------------------

def test_frame_requires_increasing_dates():
    with pytest.raises(DataError):
        TimeSeriesFrame(dates=(D(2020, 1, 2), D(2020, 1, 1)),
                        columns=("a",), values=np.ones((2, 1)))
    with pytest.raises(DataError):
        TimeSeriesFrame(dates=(D(2020, 1, 1), D(2020, 1, 1)),
                        columns=("a",), values=np.ones((2, 1)))


def test_frame_rejects_bad_columns_and_values():
    dates = (D(2020, 1, 1), D(2020, 1, 2))
    with pytest.raises(DataError):
        TimeSeriesFrame(dates=dates, columns=("a", "a"), values=np.ones((2, 2)))
    with pytest.raises(ShapeError):
        TimeSeriesFrame(dates=dates, columns=("a",), values=np.ones((3, 1)))
    with pytest.raises(DataError):
        TimeSeriesFrame(dates=dates, columns=("a",),
                        values=np.array([[1.0], [np.nan]]))


# -- CSV loading ------------------------------------------------------------------

def test_load_sorts_by_date_and_parses(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("date,x,y\n2020-01-03,3,30\n2020-01-01,1,10\n2020-01-02,2,20\n",
                    encoding="utf-8")
    frame = load_csv(path)
    assert frame.dates == (D(2020, 1, 1), D(2020, 1, 2), D(2020, 1, 3))
    np.testing.assert_array_equal(frame.values[:, 0], [1, 2, 3])


def test_load_drops_incomplete_rows(tmp_path, caplog):
    path = tmp_path / "d.csv"
    path.write_text("date,x,y\n2020-01-01,1,10\n2020-01-02,,20\n"
                    "2020-01-03,3,\n2020-01-04,4,40\n", encoding="utf-8")
    import logging
    with caplog.at_level(logging.INFO):
        frame = load_csv(path)
    assert frame.num_rows == 2
    assert any("2" in rec.getMessage() for rec in caplog.records)


def test_load_duplicate_date_names_the_date(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("date,x\n2020-01-01,1\n2020-01-01,2\n", encoding="utf-8")
    with pytest.raises(DataError, match="2020-01-01"):
        load_csv(path)


def test_load_requires_two_usable_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("date,x\n2020-01-01,1\n2020-01-02,\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(path)


def test_load_bad_number_names_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("date,x\n2020-01-01,1\n2020-01-02,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="oops"):
        load_csv(path)


# Line 3 of "date,x,y", between two good rows, and what loading makes of it: a
# DataError matching the pattern, or the (rows kept, rows dropped) counts. A
# wrong cell count comes first, then dropping a row with a blank value cell,
# then the date, then the first bad number, named.
PRECEDENCE = {
    "cell_count_before_a_blank_drop": ("2020-01-03,", "line 3 has 2 cells, expected 3"),
    "cell_count_before_the_date": ("someday,1,2,3", "line 3 has 4 cells, expected 3"),
    "blank_drop_before_the_date": ("someday,,20", (2, 1)),
    "blank_drop_before_a_bad_number": ("2020-01-03,oops,", (2, 1)),
    "blank_drop_after_a_bad_number": ("2020-01-03,,oops", (2, 1)),
    "whitespace_is_blank": ("2020-01-03, ,20", (2, 1)),
    "an_all_blank_row_is_skipped_uncounted": (" ,,", (2, 0)),
    "date_before_a_bad_number": ("someday,oops,20", "line 3: unparseable date 'someday'"),
    "first_bad_number_named": ("2020-01-03,1,oops", "line 3: unparseable number 'oops'"),
    "first_of_two_bad_numbers_named": ("2020-01-03,bad1,bad2", "unparseable number 'bad1'"),
    "a_good_row_is_kept": ("2020-01-03, 3 ,+3e1", (3, 0)),
}


@pytest.mark.parametrize("row,expected", PRECEDENCE.values(), ids=PRECEDENCE.keys())
def test_csv_parse_precedence(tmp_path, caplog, row, expected):
    path = tmp_path / "d.csv"
    path.write_text(f"date,x,y\n2020-01-01,1,10\n{row}\n2020-01-05,5,50\n", encoding="utf-8")
    if isinstance(expected, str):
        with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + re.escape(expected)):
            load_csv(path)
        return
    with caplog.at_level(logging.INFO, logger="marketgraph.data"):
        frame = load_csv(path)
    kept, dropped = expected
    assert frame.num_rows == kept
    assert [r.getMessage() for r in caplog.records] == (
        [f"{path}: dropped {dropped} row(s) with missing cells"] if dropped else [])


def csv_of(rows) -> str:
    return "date,x,y\n" + "".join(f"{day.isoformat()},{x!r},{y!r}\n" for day, (x, y) in rows)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.dates(D(1990, 1, 1), D(2030, 12, 31)),
                               st.tuples(st.floats(0.01, 1e6), st.floats(0.01, 1e6))),
                     min_size=2, max_size=25, unique_by=lambda row: row[0]),
       data=st.data())
def test_a_shuffled_file_loads_as_the_sorted_one_and_a_repeat_is_found_anywhere(tmp_path_factory, rows, data):
    # Only a file whose dates are out of order is sorted and scanned for repeats.
    root = tmp_path_factory.mktemp("order")
    ordered = sorted(rows)
    shuffled = data.draw(st.permutations(ordered))
    (root / "sorted.csv").write_text(csv_of(ordered), encoding="utf-8")
    (root / "shuffled.csv").write_text(csv_of(shuffled), encoding="utf-8")
    want, got = load_csv(root / "sorted.csv"), load_csv(root / "shuffled.csv")
    assert got.dates == want.dates == tuple(day for day, _ in ordered)
    assert got.columns == want.columns
    np.testing.assert_array_equal(got.values.view(np.int64), want.values.view(np.int64))

    repeat = data.draw(st.sampled_from(ordered))
    at = data.draw(st.integers(0, len(shuffled)))
    path = root / "repeat.csv"
    path.write_text(csv_of([*shuffled[:at], (repeat[0], (1.5, 2.5)), *shuffled[at:]]), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: duplicate date {repeat[0].isoformat()}") + "$"):
        load_csv(path)


def mostly(usual, unusual):
    """`usual` nine draws in ten, else `unusual`, so that some documents load."""
    return st.sampled_from([usual] * 9 + [unusual]).flatmap(lambda strategy: strategy)


FIRST_CELLS = mostly(st.dates(D(2020, 1, 1), D(2020, 12, 31)).map(D.isoformat),
                     st.sampled_from(["2020-13-01", "2020-02-30", "01/02/2020", "", " ", "a", "b"]))
VALUE_CELLS = mostly(st.floats(0.01, 1e6).map(repr) | st.integers(1, 10**6).map(str),
                     st.sampled_from(["1_0", "nan", "inf", "-1", "0", "", " ", "x", "1.2.3", "--1"])
                     | st.floats().map(repr) | st.text(max_size=3))


@st.composite
def csv_documents(draw):
    """UTF-8 CSV text laid out as a price panel or as an adjacency matrix,
    often malformed."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", ""]), max_size=3, unique=True))
    if draw(st.booleans()):
        corner, firsts = "date", draw(st.lists(FIRST_CELLS, max_size=6))
    else:
        corner, firsts = "node", draw(mostly(st.just(names), st.permutations(names)))
    lines = [",".join([draw(mostly(st.just(corner), st.sampled_from(["Date", "day", ""]))), *names])]
    for i, first in enumerate(firsts):
        width = draw(mostly(st.just(len(names)), st.sampled_from([len(names) - 1, len(names) + 1])))
        # an adjacency matrix has a zero diagonal
        cells = [draw(mostly(st.just("0"), VALUE_CELLS) if corner == "node" and j == i else VALUE_CELLS)
                 for j in range(max(width, 0))]
        lines.append(",".join([first, *cells]))
    return ("\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(document=csv_documents())
@example(document=b"date,x\n2020-01-01,1\n2020-01-02,\xff\n")
@example(document=b"date,x\n2020-01-01,1\n2020-01-02," + b"1" * 131_073 + b"\n")
@example(document=b"node,a,b\na,0," + b"1" * 131_073 + b"\nb,0.5,0\n")
@example(document=b"node,a,b\na,0,1\nb,0.5,0\n")
@example(document=b"date,x\n2020-01-01,1\n2020-01-02,2\n")
def test_any_csv_text_reads_as_a_table_or_raises_data_error(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(document)
    for read in (load_csv, read_adjacency_csv):
        try:
            read(path)
        except DataError:
            pass


def test_a_leading_byte_order_mark_is_skipped_in_a_price_panel(tmp_path):
    text = "date,a,b\n2020-01-01,1,10\n2020-01-02,2,20\n"
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    want, got = load_csv(tmp_path / "plain.csv"), load_csv(tmp_path / "bom.csv")
    assert got.columns == want.columns == ("a", "b")
    assert got.dates == want.dates
    assert got.values.tobytes() == want.values.tobytes()


def test_a_leading_byte_order_mark_is_skipped_in_an_adjacency_file(tmp_path):
    text = "node,a,b\na,0,0.25\nb,0.5,0\n"
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    want, got = read_adjacency_csv(tmp_path / "plain.csv"), read_adjacency_csv(tmp_path / "bom.csv")
    assert got.labels == want.labels == ("a", "b")
    assert got.values.tobytes() == want.values.tobytes()


# Cells that convert, also with spaces (Unicode ones too), underscores, signs, non-ASCII
# digits, more digits than a double holds (two of them ties that round to even), a
# subnormal, an overflow or a non-finite value.
GOOD_NUMBERS = mostly(st.floats(0.01, 1e6).map(repr) | st.integers(1, 10**6).map(str),
                      st.sampled_from(["1_0", "2_500.25", " 7 ", "\t8", "+4e1", "nan", "inf",
                                       "infinity", "1e400", "-0", "5e-324", "\xa05", "6\u2003",
                                       "\x0b7\x0b", "9\x85", "\u0661\u0662", "9007199254740993",
                                       "1.00000000000000011102230246251565404236316680908203125",
                                       "0.1000000000000000055511151231257827021181583404541015626",
                                       "123456789012345678901234567890.123456789"]))
BAD_DAYS = st.sampled_from(["", " ", "2020-13-01", "2020-02-30", "01/02/2020", "x", '"2020-01"'])
# float() refuses \x1c-\x1f around a number, which Python's isspace() and numpy call space.
BAD_NUMBERS = st.sampled_from(["", " ", "x", "1.2.3", "--1", "1__0", "_1", '"1,5"', '""',
                               "\x1c8", "9\x1f", "5\xa06", "0x10", "1e", "\u00bd", "\u00b2",
                               "\u0661\u066b\u0665", "#1"])
ROW_FAULTS = ["blank_line", "spaces_line", "blank_cells", "cell_count", "bad_date", "bad_number"]


@st.composite
def price_csv_texts(draw):
    """CSV text laid out as a price panel, its dates in any order and one in
    four times one repeated: clean in half the documents, else with some rows
    faulty; in half the documents some cells are quoted and a header name
    may hold a comma; one in four ends every line with a comma; LF, CRLF or
    lone CR line ends."""
    width = draw(st.integers(2, 4))
    faulty, quoted = draw(st.booleans()), draw(st.booleans())
    trail = draw(st.sampled_from(["", "", "", ","]))
    days = draw(st.lists(st.dates(D(2020, 1, 1), D(2020, 3, 31)), max_size=10, unique=True))
    if days and draw(st.integers(0, 3)) == 0:
        days[draw(st.integers(0, len(days) - 1))] = draw(st.sampled_from(days))
    names = [f'"{name},{name}"' if quoted and draw(st.booleans()) else name for name in "abc"[:width - 1]]
    lines = [",".join(["date", *names]) + trail]
    for day in days:
        first = draw(st.sampled_from([day.isoformat(), f" {day.isoformat()} "]))
        cells = [first, *(draw(GOOD_NUMBERS) for _ in range(width - 1))]
        if quoted:
            cells = [f'"{cell}"' if draw(st.booleans()) else cell for cell in cells]
        fault = draw(st.sampled_from(["none"] * 3 + ROW_FAULTS)) if faulty else "none"
        if fault == "blank_line":
            cells = []
        elif fault == "spaces_line":
            cells = [" " * draw(st.integers(1, 3))]
        elif fault == "blank_cells":
            for at in draw(st.sets(st.integers(0, width - 1), min_size=1)):
                cells[at] = draw(st.sampled_from(["", " "]))
        elif fault == "cell_count":
            cells = cells[:draw(st.integers(1, width - 1))] if draw(st.booleans()) else [*cells, "1"]
        elif fault == "bad_date":
            cells[0] = draw(BAD_DAYS)
        elif fault == "bad_number":
            cells[draw(st.integers(1, width - 1))] = draw(BAD_NUMBERS)
        lines.append(",".join(cells) + (trail if cells else ""))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (end.join(lines) + draw(st.sampled_from([end, ""]))).encode("utf-8")


def parse_outcome(parse, path):
    """What `parse` makes of the file: its DataError's message, or the dates,
    columns, value bytes and dropped count with the values themselves."""
    try:
        frame, dropped = parse(path)
    except DataError as exc:
        return str(exc), None
    return (frame.dates, frame.columns, frame.values.shape, frame.values.tobytes(), dropped), frame.values


@settings(max_examples=400, deadline=None)
@given(document=price_csv_texts())
@example(document=b"date,a,b\n")
@example(document=b"date,a,b\r\n2020-01-02,1_0, 2 \r\n2020-01-01,\"3\",4\r\n")
@example(document=b"date,a\n2020-01-01,1\n\n2020-01-02,2\n")
@example(document=b"date,a\n2020-01-01,1\n2020-01-02," + b"1" * 131_073 + b"\n")
@example(document=b"date,a,b\r2020-01-02, 2 ,20\r2020-01-01,1,1e1\r")
def test_parse_csv_equals_the_row_loop(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("parse") / "d.csv"
    path.write_bytes(document)
    (want, want_values), (got, got_values) = (parse_outcome(parse, path)
                                              for parse in (reference_ops.parse_csv, _parse_csv))
    assert got == want
    if want_values is not None:
        assert np.array_equal(got_values, want_values)


def test_the_row_loop_runs_only_for_a_file_the_columns_cannot_take(tmp_path, monkeypatch):
    # Clean panels with CRLF, LF (after a byte-order mark) or lone CR line ends, padded
    # cells and blank lines at the end take numpy's reader; quoted, ragged or holiday
    # (a blank value cell) ones do not. Only the quoted and ragged ones are re-read by
    # the csv module: the holiday panel's lines are plain.
    clean = b"date,a,b\n 2020-01-03 , 3,30\n2020-01-01,1, 1e1 \n2020-01-02,2,20\n\n"
    files = {"crlf": (clean.replace(b"\n", b"\r\n"), 3), "bom": (b"\xef\xbb\xbf" + clean, 3),
             "cr": (clean.replace(b"\n", b"\r"), 3),
             "quoted": (b'date,a,b\n2020-01-02,2,20\n2020-01-01,"1",10\n', 2),
             "ragged": (b"date,a,b\n2020-01-01,1,10\n\n2020-01-02,2,20\n", 2),
             "holiday": (b"date,a,b\n2020-01-02,2,20\n2020-01-05,,50\n2020-01-01,1,10\n", 2)}
    loops, reads = [], []
    monkeypatch.setattr("marketgraph.data._convert_rows",
                        lambda path, *args: loops.append(path.stem) or _convert_rows(path, *args))
    monkeypatch.setattr("marketgraph.data.read_csv_rows",
                        lambda path: reads.append(path.stem) or read_csv_rows(path))
    for name, (text, days) in files.items():
        (tmp_path / f"{name}.csv").write_bytes(text)
        frame = load_csv(tmp_path / f"{name}.csv")
        assert frame.dates == tuple(D(2020, 1, day) for day in range(1, days + 1))
        assert frame.values.tolist() == [[day, 10.0 * day] for day in range(1, days + 1)]
    assert loops == ["quoted", "ragged", "holiday"]
    assert reads == ["quoted", "ragged"]


@pytest.mark.parametrize("row, named", [
    ("2020-01-02,2,nan", "non-finite number 'nan' in column 'b'"),
    ('2020-01-02, -inf ,"NaN"', "non-finite number ' -inf ' in column 'a'"),
    ("2020-01-02,inf,x", "non-finite number 'inf' in column 'a'"),
    ("2020-01-02,x,inf", "unparseable number 'x'"),
    ("2020-01-32,nan,20", "unparseable date '2020-01-32'"),
], ids=["nan", "first_of_two", "before_a_bad_number", "after_a_bad_number", "bad_date"])
def test_a_non_finite_price_cell_is_refused_at_its_place_naming_line_and_column(tmp_path, row, named):
    # A non-finite cell takes its turn among the number cells, after the date.
    path = tmp_path / "p.csv"
    path.write_text(f"date,a,b\n2020-01-01,1,10\n{row}\n2020-01-03,3,30\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_csv(path)
    assert str(info.value).startswith(f"{path}: line 3: {named}")


# -- rebasing ----------------------------------------------------------------------

def test_rebasing_divides_only_before_cutoff():
    frame = build_frame(np.array([[97000.0], [98000.0], [990.0], [1000.0]]),
                        columns=("idx",), start=D(2020, 7, 25))
    out = adjust_rebased_series(frame, "idx", D(2020, 7, 27), 100.0)
    np.testing.assert_allclose(out.values[:, 0], [970.0, 980.0, 990.0, 1000.0])
    # the cutoff day itself is untouched
    assert out.values[2, 0] == 990.0


def test_rebasing_validates_column_and_divisor():
    frame = build_frame(np.array([[100.0], [200.0]]), columns=("idx",))
    out = adjust_rebased_series(frame, "idx", D(2020, 1, 2), 10.0)
    np.testing.assert_allclose(out.values[:, 0], [10.0, 200.0])
    with pytest.raises(DataError):
        adjust_rebased_series(frame, "nope", D(2020, 1, 2), 10.0)
    with pytest.raises(DomainError):
        adjust_rebased_series(frame, "idx", D(2020, 1, 2), 0.0)


def test_rebasing_touches_single_column_only():
    frame = build_frame(np.array([[100.0, 5.0], [200.0, 6.0]]))
    out = adjust_rebased_series(frame, "s0", D(2020, 1, 2), 100.0)
    np.testing.assert_allclose(out.values[:, 1], [5.0, 6.0])


# -- log / exp ----------------------------------------------------------------------

def test_log_round_trip_tight():
    frame = build_frame(np.abs(np.random.default_rng(0).normal(100, 10, (20, 3))) + 1)
    back = np.exp(log_transform(frame).values)
    np.testing.assert_allclose(back, frame.values, rtol=1e-12)


def test_log_rejects_nonpositive_naming_cell():
    frame = build_frame(np.array([[1.0, 2.0], [3.0, -1.0]]))
    with pytest.raises(DataError, match="s1"):
        log_transform(frame)


# -- splitting ----------------------------------------------------------------------

def test_split_floor_floor_remainder():
    frame = build_frame(np.arange(10.0)[:, None] + 1.0)
    train, val, test = chronological_split(frame, SplitSpec())
    assert (train.num_rows, val.num_rows, test.num_rows) == (6, 2, 2)
    assert train.dates[-1] < val.dates[0] < test.dates[0]


def test_split_large_count_matches_expected_sizes():
    frame = build_frame(np.ones((4580, 1)) + np.arange(4580.0)[:, None] * 1e-6)
    train, val, test = chronological_split(frame, SplitSpec())
    assert (train.num_rows, val.num_rows, test.num_rows) == (2748, 916, 916)


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(train=0.5, validation=0.2, test=0.2)
    with pytest.raises(ConfigError):
        SplitSpec(train=0.0, validation=0.5, test=0.5)


def test_split_preserves_order_and_count():
    frame = build_frame(np.random.default_rng(1).normal(size=(23, 2)) + 10.0)
    train, val, test = chronological_split(frame, SplitSpec())
    total = np.vstack([train.values, val.values, test.values])
    np.testing.assert_array_equal(total, frame.values)


# -- normalization ---------------------------------------------------------------------

def test_normalize_train_statistics():
    gen = np.random.default_rng(5)
    frame = build_frame(gen.normal(3.0, 2.0, size=(40, 2)))
    stats = compute_norm_stats(frame)
    normed = normalize(frame, stats)
    np.testing.assert_allclose(normed.values.mean(axis=0), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(normed.values.std(axis=0), [1.0, 1.0], atol=1e-12)


def test_normalize_round_trip():
    gen = np.random.default_rng(6)
    frame = build_frame(gen.normal(3.0, 2.0, size=(30, 3)))
    stats = compute_norm_stats(frame)
    back = denormalize_values(normalize(frame, stats).values, stats)
    np.testing.assert_allclose(back, frame.values, atol=1e-9)


def test_constant_column_rejected():
    frame = build_frame(np.hstack([np.ones((5, 1)), np.arange(5.0)[:, None]]))
    with pytest.raises(DataError, match="s0"):
        compute_norm_stats(frame)


def test_stats_column_mismatch_rejected():
    frame = build_frame(np.random.default_rng(0).normal(size=(10, 2)))
    stats = NormStats(columns=("x", "y"), mean=np.zeros(2), std=np.ones(2))
    with pytest.raises(DataError):
        normalize(frame, stats)


def test_denormalize_values_trailing_axis():
    stats = NormStats(columns=("a", "b"), mean=np.array([1.0, 2.0]),
                      std=np.array([3.0, 4.0]))
    z = np.array([[[1.0], [1.0]]])  # [B=1, N=2, Q=1]
    out = denormalize_values(z, stats, axis=1)
    np.testing.assert_allclose(out[0, :, 0], [4.0, 6.0])


def test_invert_predictions_is_exp_of_denormalized():
    stats = NormStats(columns=("a",), mean=np.array([2.0]), std=np.array([0.5]))
    z = np.array([[1.0], [0.0]])
    out = invert_predictions(z, stats)
    np.testing.assert_allclose(out, np.exp(np.array([[2.5], [2.0]])))


# -- windowing ---------------------------------------------------------------------------

def test_window_count_and_contents():
    frame = build_frame(np.arange(12.0)[:, None] + 1.0)
    ws = make_windows(frame, WindowSpec(P=4, Q=2))
    assert len(ws) == 12 - 4 - 2 + 1
    np.testing.assert_array_equal(ws.x[0, 0], [1, 2, 3, 4])
    np.testing.assert_array_equal(ws.y[0, 0], [5, 6])
    np.testing.assert_array_equal(ws.x[-1, 0], [7, 8, 9, 10])
    np.testing.assert_array_equal(ws.y[-1, 0], [11, 12])


def test_window_shapes():
    frame = build_frame(np.random.default_rng(2).normal(size=(20, 3)) + 9.0)
    ws = make_windows(frame, WindowSpec(P=5, Q=1))
    assert ws.x.shape == (15, 3, 5)  # rows - P - Q + 1
    assert ws.y.shape == (15, 3, 1)
    # every series of every window, against one slice per start row
    np.testing.assert_array_equal(ws.x, np.stack([frame.values[s:s + 5].T for s in range(15)]))
    np.testing.assert_array_equal(ws.y, np.stack([frame.values[s + 5:s + 6].T for s in range(15)]))
    assert len(ws) == 15


def assert_read_only_views(ws, frame, spec):
    """`ws` shares `frame.values`' memory, refuses writes, and equals one
    copied slice per start row bit for bit."""
    P, Q = spec.P, spec.Q
    starts = range(frame.num_rows - P - Q + 1)
    copied_x = np.stack([frame.values[s:s + P].T for s in starts])
    copied_y = np.stack([frame.values[s + P:s + P + Q].T for s in starts])
    assert np.shares_memory(ws.x, frame.values) and np.shares_memory(ws.y, frame.values)
    for stack, copied in ((ws.x, copied_x), (ws.y, copied_y)):
        assert not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 0.0
        assert stack.shape == copied.shape and stack.tobytes() == copied.tobytes()


def test_windows_are_read_only_views_of_the_frame():
    frame = build_frame(np.random.default_rng(4).normal(size=(20, 3)) + 9.0)
    spec = WindowSpec(P=5, Q=2)
    assert_read_only_views(make_windows(frame, spec), frame, spec)


def test_pipeline_window_sets_are_read_only_views_of_their_splits(small_prices):
    spec = WindowSpec(P=8, Q=2)
    result = run_pipeline(small_prices, spec)
    for ws, frame in ((result.train_windows, result.train),
                      (result.validation_windows, result.validation),
                      (result.test_windows, result.test)):
        assert_read_only_views(ws, frame, spec)


def test_window_insufficient_rows():
    frame = build_frame(np.arange(4.0)[:, None] + 1.0)
    with pytest.raises(DataError):
        make_windows(frame, WindowSpec(P=4, Q=1))


def test_window_spec_validation():
    with pytest.raises(ConfigError):
        WindowSpec(P=0, Q=1)
    with pytest.raises(ConfigError):
        WindowSpec(P=3, Q=0)


# -- descriptive statistics ----------------------------------------------------------------

def test_descriptive_stats_hand_values():
    # skew/kurt standardize the central moments by the reported (sample) std:
    # for [1,2,3], s=1, m3=0, m4=2/3.
    frame = build_frame(np.array([1.0, 2.0, 3.0])[:, None], columns=("v",))
    s = descriptive_stats(frame)["v"]
    assert s["size"] == 3
    assert s["mean"] == 2.0
    assert s["median"] == 2.0
    np.testing.assert_allclose(s["std"], 1.0)  # sample std, ddof=1
    assert s["min"] == 1.0 and s["max"] == 3.0
    np.testing.assert_allclose(s["skewness"], 0.0, atol=1e-12)
    np.testing.assert_allclose(s["kurtosis"], 2.0 / 3.0, rtol=1e-12)


def test_descriptive_stats_skewed_fixture():
    # [0,0,0,1]: sample std 0.5, m3 = 0.09375 -> skew 0.75 (positive)
    frame = build_frame(np.array([0.0, 0.0, 0.0, 1.0])[:, None], columns=("v",))
    s = descriptive_stats(frame)["v"]
    np.testing.assert_allclose(s["std"], 0.5, rtol=1e-12)
    np.testing.assert_allclose(s["skewness"], 0.75, rtol=1e-12)
    assert s["skewness"] > 0
    m = np.array([0.0, 0.0, 0.0, 1.0])
    m4 = np.mean((m - m.mean()) ** 4)
    np.testing.assert_allclose(s["kurtosis"], m4 / 0.5 ** 4, rtol=1e-12)


def test_descriptive_stats_constant_column_rejected():
    frame = build_frame(np.ones((5, 1)), columns=("v",))
    with pytest.raises(DataError):
        descriptive_stats(frame)


# -- stage hashing ----------------------------------------------------------------------

def test_frame_hash_sensitive_to_values_and_dates():
    a = build_frame(np.array([[1.0], [2.0]]))
    b = build_frame(np.array([[1.0], [2.000001]]))
    c = build_frame(np.array([[1.0], [2.0]]), start=D(2021, 1, 1))
    assert frame_hash(a) != frame_hash(b)
    assert frame_hash(a) != frame_hash(c)
    assert frame_hash(a) == frame_hash(build_frame(np.array([[1.0], [2.0]])))


# -- full pipeline -----------------------------------------------------------------------

def test_pipeline_windows_never_cross_split_boundaries(small_prices):
    # Poison the validation+test region; if any training window saw it, the
    # sentinel would contaminate training inputs.
    frame = small_prices
    sentinel = frame.values.copy()
    n = frame.num_rows
    train_rows = int(n * 0.6)
    sentinel[train_rows:] = 1e6
    poisoned = build_frame(sentinel, columns=frame.columns, start=frame.dates[0])

    clean = run_pipeline(frame, WindowSpec(P=8, Q=1))
    dirty = run_pipeline(poisoned, WindowSpec(P=8, Q=1))
    np.testing.assert_array_equal(clean.train_windows.x, dirty.train_windows.x)
    np.testing.assert_array_equal(clean.train_windows.y, dirty.train_windows.y)


@st.composite
def split_panels(draw):
    """(prices [n, N], SplitSpec, WindowSpec) with every split long enough for a window."""
    P, Q, N = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    train = draw(st.floats(0.05, 0.85))
    validation = draw(st.floats(0.05, 0.95 - train))
    split = SplitSpec(train, validation, 1.0 - train - validation)
    # floor(f * n) >= P + Q for every fraction f, with a row to spare
    low = int(np.ceil((P + Q) / min(split.train, split.validation, split.test))) + 1
    n = draw(st.integers(low, low + 40))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    prices = 100.0 * np.exp(np.cumsum(gen.normal(0.0, 0.02, size=(n, N)), axis=0))
    return prices, split, WindowSpec(P=P, Q=Q)


@settings(max_examples=60, deadline=None)
@given(split_panels())
def test_leakage_invariants_under_random_split_fractions(case):
    prices, split, window = case
    n = len(prices)
    result = run_pipeline(build_frame(prices), window, split)
    logs = np.log(prices)
    n_train, n_val = int(np.floor(split.train * n)), int(np.floor(split.validation * n))

    # the statistics are those of the training rows, to the bit
    np.testing.assert_array_equal(result.stats.mean, logs[:n_train].mean(axis=0))
    np.testing.assert_array_equal(result.stats.std, logs[:n_train].std(axis=0))

    # every split's windows slide over its own normalized rows and no others
    z = (logs - result.stats.mean) / result.stats.std
    bounds = (0, n_train, n_train + n_val, n)
    splits = (result.train_windows, result.validation_windows, result.test_windows)
    for windows, lo, hi in zip(splits, bounds, bounds[1:]):
        starts = range(lo, hi - window.P - window.Q + 1)
        assert len(windows) == len(starts) == hi - lo - window.P - window.Q + 1
        np.testing.assert_array_equal(windows.x, np.stack([z[s:s + window.P].T for s in starts]))
        np.testing.assert_array_equal(
            windows.y, np.stack([z[s + window.P:s + window.P + window.Q].T for s in starts]))

    # new validation and test prices leave everything training sees as it was
    rewritten = prices.copy()
    rewritten[n_train:] = np.random.default_rng(n).uniform(1.0, 1e4, size=rewritten[n_train:].shape)
    other = run_pipeline(build_frame(rewritten), window, split)
    for a, b in [(result.stats.mean, other.stats.mean), (result.stats.std, other.stats.std),
                 (result.train_windows.x, other.train_windows.x),
                 (result.train_windows.y, other.train_windows.y)]:
        assert a.tobytes() == b.tobytes()


def test_pipeline_stage_order_and_report(small_prices, tmp_path):
    result = run_pipeline(small_prices, WindowSpec(P=8, Q=1))
    stages = [s["stage"] for s in result.report["stages"]]
    assert stages == ["load", "adjust", "log", "split", "normalize", "window"]
    hashes = [s["hash"] for s in result.report["stages"]]
    # with no rebase rules the adjust stage is a no-op, hash equal to load
    assert hashes[0] == hashes[1]
    assert len(set(hashes[1:])) == len(hashes[1:])
    assert result.report["split"]["train_rows"] == result.train.num_rows
    assert result.report["window"]["P"] == 8


def test_pipeline_stage_hashes_are_frame_hashes_of_each_stage(small_prices):
    result = run_pipeline(small_prices, WindowSpec(P=8, Q=1))
    logged = log_transform(small_prices)
    train_rows = result.train.num_rows
    expected = [frame_hash(small_prices), frame_hash(small_prices), frame_hash(logged),
                frame_hash(logged.slice_rows(0, train_rows)), frame_hash(result.train)]
    assert [s["hash"] for s in result.report["stages"][:5]] == expected


def test_pipeline_window_hash_is_sha256_over_each_stack_in_c_order():
    # long enough that the train stacks span several blocks of windows, the last one partial
    gen = np.random.default_rng(3)
    frame = build_frame(100.0 * np.exp(np.cumsum(gen.normal(0.0, 0.01, size=(400, 3)), axis=0)))
    result = run_pipeline(frame, WindowSpec(P=8, Q=2))
    assert len(result.train_windows) > 64 * 3
    digest = hashlib.sha256()
    for ws in (result.train_windows, result.validation_windows, result.test_windows):
        digest.update(np.array(ws.x, order="C").tobytes())
        digest.update(np.array(ws.y, order="C").tobytes())
    assert result.report["stages"][-1] == {"stage": "window", "hash": digest.hexdigest()}


def test_pipeline_normalization_uses_train_stats_only(small_prices):
    result = run_pipeline(small_prices, WindowSpec(P=8, Q=1))
    np.testing.assert_allclose(result.train.values.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(result.train.values.std(axis=0), 1.0, atol=1e-12)
    # test partition keeps its own (nonzero) offset under train statistics
    assert np.abs(result.test.values.mean(axis=0)).max() > 0.01


def test_pipeline_from_csv_path(small_prices, tmp_path):
    path = tmp_path / "prices.csv"
    write_frame_csv(small_prices, path)
    result = run_pipeline(str(path), WindowSpec(P=8, Q=1))
    assert result.report["input"]["path"] == str(path)
    assert result.report["input"]["rows"] == small_prices.num_rows


def test_pipeline_inverse_transform_recovers_prices(small_prices):
    result = run_pipeline(small_prices, WindowSpec(P=8, Q=1))
    # reconstruct the raw test prices from normalized values
    recovered = invert_predictions(result.test.values, result.stats)
    n_train, n_val = result.train.num_rows, result.validation.num_rows
    original = small_prices.values[n_train + n_val:]
    np.testing.assert_allclose(recovered, original, rtol=1e-9)
