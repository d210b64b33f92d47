import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnmvts import data
from hnmvts.data import (
    LoadError,
    SeriesTable,
    SplitSpec,
    SynthSpec,
    WindowError,
    chrono_split,
    gen_synthetic,
    load_csv,
    make_windows,
    pearson_corr,
)
from hnmvts.numcore import Tensor


def write_csv(tmp_path, text, name="series.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def table_from(array, names=None):
    array = np.asarray(array, dtype=float)
    names = names or [f"c{i}" for i in range(array.shape[1])]
    return SeriesTable(Tensor(array), names)


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        t = load_csv(p)
        assert t.t == 3 and t.n_channels == 2
        assert t.channel_names == ["a", "b"]
        np.testing.assert_array_equal(t.values.data, [[1, 2], [3, 4], [5, 6]])

    def test_quoted_header_names(self, tmp_path):
        p = write_csv(tmp_path, '"a", b ,"c"\n1,2,3\n4,5,6\n')
        assert load_csv(p).channel_names == ["a", "b", "c"]

    def test_cells_read_as_float_reads_them(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n\uff11\uff12,1_000\n 3 ,4e0\n")
        np.testing.assert_array_equal(load_csv(p).values.data, [[12, 1000], [3, 4]])

    def test_timestamp_column_dropped_and_validated(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n2016-07-01 00:00:00,1\n2016-07-01 00:15:00,2\n")
        t = load_csv(p, timestamp_column="date")
        assert t.channel_names == ["a"]
        assert t.n_channels == 1

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        p = write_csv(tmp_path, "date,a\n5,1\n3,2\n")
        with pytest.raises(LoadError, match="row 3"):
            load_csv(p, timestamp_column="date")

    def test_blank_cell_names_location(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n,4\n5,6\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p)
        assert "row 3" in str(exc.value) and "'a'" in str(exc.value)

    def test_non_numeric_cell_names_location(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p)
        assert "row 3" in str(exc.value) and "'b'" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_duplicate_channel_name_named(self, tmp_path):
        p = write_csv(tmp_path, "date,a,b, a\n1,2,3,4\n2,3,4,5\n")
        with pytest.raises(LoadError) as exc:
            load_csv(p, timestamp_column="date")
        assert str(exc.value) == f"{p}: duplicate channel name 'a'"

    @pytest.mark.parametrize(
        "text, timestamp_column, message",
        [
            ("a,b\n1,2\n3,4,5\n", None, "row 3 has 3 cells, expected 2"),
            ("a,b\n1,2\n3\n", None, "row 3 has 1 cells, expected 2"),
            ("a,b\n1,2\n\n3,4\n", None, "row 3 has 0 cells, expected 2"),
            ("a,b\n1,2\n  \n3,4\n", None, "row 3 has 1 cells, expected 2"),
            ("a\n1\n  \n3\n", None, "missing value at row 3, column 'a'"),
            ("a,b\n1,2\n3,4\n\n", None, "row 4 has 0 cells, expected 2"),
            ("a,b\n1,nan\n3,4\n", None, "non-finite value at row 2, column 'b'"),
            ("a,b\n1,2\n-inf,4\n", None, "non-finite value at row 3, column 'a'"),
            ("a,b\n1,2\n3,1e400\n", None, "non-finite value at row 3, column 'b'"),
            ("a,b\n1,2\n3,oops\n", None, "non-numeric cell 'oops' at row 3, column 'b'"),
            ("a,b\n1,2\n ,4\n", None, "missing value at row 3, column 'a'"),
            ("date,a\n5,1\n3,2\n", "date", "non-monotone timestamp at row 3, column 'date'"),
            ("date,a\n5,1\n5,2\n", "date", "non-monotone timestamp at row 3, column 'date'"),
            (
                "a,date\n1,2016-07-01 00:15\n2,2016-07-01 00:00\n",
                "date",
                "non-monotone timestamp at row 3, column 'date'",
            ),
            (
                "date,a\n2016-07-01,1\n2016-07-02,2\n2016-07-02,3\n",
                "date",
                "non-monotone timestamp at row 4, column 'date'",
            ),
            ("date,a\n2016-07-01,1\n5,2\n", "date", "mixed timestamp types at row 3"),
            ("date,a\n5,1\n2016-07-01,2\n", "date", "mixed timestamp types at row 3"),
            ("date,a\n2016-07-01 00:00,1\n5,2\n7,3\n", "date", "mixed timestamp types at row 3"),
            ("a,b\n1,2\n3,4\n", "date", "timestamp column 'date' not in header"),
            ("", None, "empty file"),
            ("a,b\n", None, "need at least 2 data rows, got 0"),
            ("a,b\n1,2\n", None, "need at least 2 data rows, got 1"),
            # files that look plain to a vectorised reader but are not
            ("a\n1\n\n3\n", None, "row 3 has 0 cells, expected 1"),
            ("a\n1\n2\n\n\n", None, "row 4 has 0 cells, expected 1"),
            ("\n1\n2\n", None, "row 2 has 1 cells, expected 0"),
            ("a,b\rc\n1,2\n3,4\n", None, "row 2 has 1 cells, expected 2"),
            ("a,b\n1,2\n3\r,4\n", None, "row 3 has 1 cells, expected 2"),  # a lone CR
            ("a,b\n1,2\n3,4\n\r", None, "row 4 has 0 cells, expected 2"),  # a CR at the end
            ("a,b\n1,2\r\r\n3,4\n", None, "row 3 has 0 cells, expected 2"),  # CR CR LF
            ("a,b\r\n1,2\r\n\r\n3,4\r\n", None, "row 3 has 0 cells, expected 2"),  # blank CRLF line
            (
                "a,date\n1,2016-07-01\n2,2016-07-01\r\n",
                "date",
                "non-monotone timestamp at row 3, column 'date'",
            ),
            ("a,date\n1,2016-07-01,9\n2\n", "date", "row 2 has 3 cells, expected 2"),
            ('date,a\n"10",1\n"9",2\n', "date", "non-monotone timestamp at row 3, column 'date'"),
            ("date,a\n1_036,1\n9_99,2\n", "date", "non-monotone timestamp at row 3, column 'date'"),
            ("date,a\n,1\n,2\n", "date", "non-monotone timestamp at row 3, column 'date'"),
            (
                "date,a\n2016-07-01,1\n2016-07-01 ,2\n",
                "date",
                "non-monotone timestamp at row 3, column 'date'",
            ),
            (
                "date,a\n2016-07-01,1\n2016-07-01\t,2\n",
                "date",
                "non-monotone timestamp at row 3, column 'date'",
            ),
        ],
    )
    # 1-byte blocks hold one line each (a blank line joins the next); a bad file
    # raises its LoadError and no warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block_bytes", [1, data._BLOCK_BYTES])
    def test_error_messages(self, tmp_path, monkeypatch, block_bytes, text, timestamp_column, message):
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        p = write_csv(tmp_path, text)
        with pytest.raises(LoadError) as exc:
            load_csv(p, timestamp_column=timestamp_column)
        assert str(exc.value) == f"{p}: {message}"


def reference_load_csv(path, timestamp_column=None):
    """The per-cell loader as it stood before the vectorised pass, kept as the oracle."""
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        ts_idx = None
        if timestamp_column is not None:
            if timestamp_column not in header:
                raise LoadError(f"{path}: timestamp column '{timestamp_column}' not in header")
            ts_idx = header.index(timestamp_column)
        names = [h for i, h in enumerate(header) if i != ts_idx]
        rows = []
        prev_ts = None
        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise LoadError(f"{path}: row {rownum} has {len(record)} cells, expected {len(header)}")
            vals = []
            for colnum, cell in enumerate(record):
                cell = cell.strip()
                if colnum == ts_idx:
                    try:
                        ts = float(cell)
                    except ValueError:
                        ts = cell
                    if prev_ts is not None:
                        try:
                            increasing = ts > prev_ts
                        except TypeError:
                            raise LoadError(f"{path}: mixed timestamp types at row {rownum}") from None
                        if not increasing:
                            raise LoadError(
                                f"{path}: non-monotone timestamp at row {rownum}, "
                                f"column '{header[colnum]}'"
                            )
                    prev_ts = ts
                    continue
                if cell == "":
                    raise LoadError(f"{path}: missing value at row {rownum}, column '{header[colnum]}'")
                try:
                    v = float(cell)
                except ValueError:
                    raise LoadError(
                        f"{path}: non-numeric cell '{cell}' at row {rownum}, "
                        f"column '{header[colnum]}'"
                    ) from None
                if not np.isfinite(v):
                    raise LoadError(
                        f"{path}: non-finite value at row {rownum}, column '{header[colnum]}'"
                    )
                vals.append(v)
            rows.append(vals)
    if len(rows) < 2:
        raise LoadError(f"{path}: need at least 2 data rows, got {len(rows)}")
    return names, np.asarray(rows)


ODD_VALUES = [
    "", " ", "nan", "NaN", "inf", "-Infinity", "1e400", "-1e-400", "1_000", '"1.5"', '"2', "#3",
    "4#", "\uff11\uff12", "abc", "1d5", "0x10", "+.5", "5.", "-0", "1 2", "e", ".", "\u00a07",
]
ODD_STAMPS = ["", " ", "nan", "inf", "abc", "2016-07-01", "7", '"8"', "1_0", "\uff19"]


@st.composite
def csv_texts(draw):
    """(CSV text, timestamp column) over random tables and cell spellings.

    A clean draw spells every cell as a number or stamp, in any format; a
    noisy one mixes in malformed cells, lines and stamps.
    """
    noisy = draw(st.booleans())
    n_values = draw(st.integers(0, 3))
    n_rows = draw(st.integers(0 if noisy else 2, 6))
    stamp_kind = draw(st.sampled_from([None, "number", "grouped", "quoted", "iso", "date", "iso-t"]))
    header = [f"c{i}" for i in range(n_values)]
    if stamp_kind is not None:
        header.insert(draw(st.integers(0, n_values)), "date")
    header = [draw(st.sampled_from(["", " ", "\t"])) + h for h in header]

    def value():
        if noisy and draw(st.integers(0, 5)) == 0:
            cell = draw(st.sampled_from(ODD_VALUES))
        else:
            x = draw(st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-10**6, 10**6))
            cell = draw(st.sampled_from(["{!r}", "{:.3e}", "{:g}", "{:E}"])).format(
                float(x) if isinstance(x, int) and draw(st.booleans()) else x
            )
        if draw(st.integers(0, 7)) == 0:
            cell = draw(st.sampled_from([" ", "  ", "\t"])) + cell + draw(st.sampled_from(["", " "]))
        return cell

    steps = st.integers(-1 if noisy else 1, 30)
    stamps = np.cumsum(draw(st.lists(steps, min_size=n_rows, max_size=n_rows)))
    lines = [",".join(header)]
    for r in range(n_rows):
        row = [value() for _ in range(n_values)]
        if stamp_kind is not None:
            minute = int(stamps[r]) + 10**6
            stamp = {
                "number": str(minute),
                "grouped": f"{minute % 10**4:_}",
                "quoted": f'"{minute}"',
                "iso": str(np.datetime64("2016-07-01T00:00") + np.timedelta64(minute, "m")).replace("T", " "),
                "iso-t": str(np.datetime64("2016-07-01T00:00") + np.timedelta64(minute, "m")),
                "date": str(np.datetime64("2016-07-01") + np.timedelta64(minute % 10**4, "D")),
            }[stamp_kind]
            if noisy and draw(st.integers(0, 5)) == 0:
                stamp = draw(st.sampled_from(ODD_STAMPS))
            elif draw(st.integers(0, 11)) == 0:
                stamp = " " + stamp + " "
            row.insert(header.index(next(h for h in header if h.strip() == "date")), stamp)
        if noisy and draw(st.integers(0, 7)) == 0:
            row = row[:-1] if draw(st.booleans()) else [*row, value()]
        lines.append(",".join(row))
        if noisy and draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ",", "1,2,3,4,5", "\t"])))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    ends = ["", newline, newline * 2] if noisy else ["", newline]
    text = newline.join(lines) + draw(st.sampled_from(ends))
    stamp_column = draw(st.sampled_from(["date"] * 3 + ["absent"] if noisy else ["date"]))
    return text, stamp_column if stamp_kind else None


def parse_plain(text, timestamp_column):
    return data._parse_plain(io.BytesIO(text.encode("utf-8")), timestamp_column)


# 1-byte blocks hold one line each (a blank line joins the next)
@pytest.mark.parametrize("block_bytes", [1, data._BLOCK_BYTES])
@settings(max_examples=300, deadline=None)
@given(case=csv_texts())
def test_load_csv_matches_per_cell_reference(tmp_path_factory, block_bytes, case):
    text, timestamp_column = case
    p = tmp_path_factory.mktemp("csv") / "series.csv"
    p.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_load_csv(p, timestamp_column)
    except LoadError as err:
        expected = str(err)
    default, data._BLOCK_BYTES = data._BLOCK_BYTES, block_bytes
    try:
        plain = parse_plain(text, timestamp_column)
        try:
            table = load_csv(p, timestamp_column)
        except LoadError as err:
            table = str(err)
    finally:
        data._BLOCK_BYTES = default
    if plain is not None:
        # the vectorised pass accepts nothing the loop rejects
        assert not isinstance(expected, str), expected
        names, values = plain
        assert names == expected[0]
        assert values.dtype == np.float64 and values.shape == expected[1].shape
        assert values.tobytes() == expected[1].tobytes()
    if isinstance(expected, str):
        assert table == expected
        return
    names, values = expected
    assert table.channel_names == names
    assert table.values.data.shape == values.shape
    assert table.values.data.tobytes() == values.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("cell", ODD_VALUES)
def test_value_spelling_reads_as_the_loop_reads_it(tmp_path, request, newline, cell):
    """Each odd spelling in one cell of a plain file: `load_csv` gives the per-cell
    reference's table or message, whether or not the vectorised pass took the file
    (recorded as the test's `plain_pass` user property), and that pass takes
    only what the reference accepts, to the same bits."""
    text = newline.join(["a,b", "1.5,2", f"3,{cell}", "5,6"]) + newline
    p = tmp_path / "series.csv"
    p.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_load_csv(p)
    except LoadError as err:
        expected = str(err)
    plain = parse_plain(text, None)
    request.node.user_properties.append(("plain_pass", plain is not None))
    try:
        table = load_csv(p)
    except LoadError as err:
        assert plain is None
        assert str(err) == expected
        return
    assert not isinstance(expected, str), expected
    assert table.channel_names == expected[0]
    assert table.values.data.tobytes() == expected[1].tobytes()
    if plain is not None:
        assert plain[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize(
    "stamps, timestamp_column",
    [
        (["2016-07-01 00:00:00", "2016-07-01 00:15:00", "2016-07-01 00:30:00"], "date"),
        (["2016-07-01T00:00", "2016-07-01T00:15", "2016-07-01T00:30"], "date"),
        (["2002-01-01", "2002-01-08", "2002-01-15"], "date"),
        (["1", "2.5", "1e3"], "date"),
        (["x", "y", "z"], None),
    ],
)
def test_plain_files_take_the_vectorised_pass(newline, stamps, timestamp_column):
    rows = [f"{s}, {i}.5,-{i}e-3" for i, s in enumerate(stamps)]
    text = newline.join(["date,a,b", *rows]) + newline
    if timestamp_column is None:
        text = newline.join(["a,b", *(r.split(",", 1)[1] for r in rows)])
    names, values = parse_plain(text, timestamp_column)
    assert names == ["a", "b"]
    np.testing.assert_array_equal(values, [[0.5, -0.0], [1.5, -1e-3], [2.5, -2e-3]])


@pytest.mark.parametrize("block_bytes", [1, data._BLOCK_BYTES])
@pytest.mark.parametrize("stamp", ["2016-07-01 00:{:02d}", "1{:02d}"])
def test_line_ends_read_alike_on_the_vectorised_pass(monkeypatch, block_bytes, stamp):
    # the stamps end each line, so a CRLF line's last field is a stamp
    lines = ["a,b,date", *(f"{i}.25,-{i}e-2,{stamp.format(i)}" for i in range(40))]
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    texts = {
        "lf": "\n".join(lines) + "\n",
        "crlf": "\r\n".join(lines) + "\r\n",
        "crlf_unended": "\r\n".join(lines),
        "mixed": "".join(line + ("\r\n" if i % 3 else "\n") for i, line in enumerate(lines)),
    }
    parsed = {kind: parse_plain(text, "date") for kind, text in texts.items()}
    expected = [[float(f"{i}.25"), float(f"-{i}e-2")] for i in range(40)]
    for kind, (names, values) in parsed.items():
        assert names == ["a", "b"], kind
        assert values.tobytes() == np.asarray(expected).tobytes(), kind


def test_plain_pass_leaves_long_fields_to_the_loop():
    # the csv module refuses a field over its size limit
    old = csv.field_size_limit(8)
    try:
        assert parse_plain("a,b\n1,2\n3,4.0000000001\n", None) is None
        assert parse_plain("abcdefghij,b\n1,2\n3,4\n", None) is None
        assert parse_plain("a,b\n1,2\n3,4\n", None) is not None
    finally:
        csv.field_size_limit(old)


def test_field_over_the_csv_limit_is_a_located_error(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text("abcdefghij,b\n1,2\n3,4\n")
    old = csv.field_size_limit(8)
    try:
        with pytest.raises(LoadError) as exc:
            load_csv(p)
    finally:
        csv.field_size_limit(old)
    assert str(exc.value) == f"{p}: row 1: field larger than field limit (8)"


class TestChronoSplit:
    def test_exact_721_arithmetic(self):
        t = table_from(np.arange(200.0).reshape(100, 2))
        train, val, test = chrono_split(t, SplitSpec((7, 2, 1)))
        assert (train.t, val.t, test.t) == (70, 20, 10)

    def test_ettm2_geometry(self):
        # 6:2:2 over the first 57600 rows -> 34560 / 11520 / 11520
        t = table_from(np.zeros((60000, 1)))
        train, val, test = chrono_split(t, SplitSpec((6, 2, 2), truncate_to=57600))
        assert (train.t, val.t, test.t) == (34560, 11520, 11520)

    def test_all_train(self):
        t = table_from(np.arange(20.0).reshape(10, 2))
        train, val, test = chrono_split(t, SplitSpec((1, 0, 0)))
        assert train.t == 10 and val.t == 0 and test.t == 0

    def test_segments_cover_table_exactly(self):
        t = table_from(np.arange(34.0).reshape(17, 2))
        train, val, test = chrono_split(t, SplitSpec((7, 2, 1)))
        stacked = np.vstack([train.values.data, val.values.data, test.values.data])
        np.testing.assert_array_equal(stacked, t.values.data)

    @settings(max_examples=30, deadline=None)
    @given(
        t=st.integers(3, 400),
        ratios=st.tuples(
            st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)
        ).filter(lambda r: sum(r) > 0),
    )
    def test_cover_property(self, t, ratios):
        table = table_from(np.arange(float(t * 2)).reshape(t, 2))
        train, val, test = chrono_split(table, SplitSpec(ratios))
        stacked = np.vstack([train.values.data, val.values.data, test.values.data])
        np.testing.assert_array_equal(stacked, table.values.data)


class TestMakeWindows:
    def test_single_window(self):
        t = table_from(np.arange(10.0).reshape(5, 2))
        windows = make_windows(t, 3, 2)
        assert len(windows) == 1 and windows.origins[0] == 0

    def test_hand_enumeration(self):
        t = table_from(np.arange(20.0).reshape(10, 2))
        windows = make_windows(t, 3, 2)
        assert len(windows) == 6
        x, y = windows.batch([0, 5])
        np.testing.assert_array_equal(x[0], t.values.data[0:3].T)
        np.testing.assert_array_equal(y[0], t.values.data[3:5].T)
        np.testing.assert_array_equal(x[1], t.values.data[5:8].T)

    def test_paper_scale_count(self):
        t = table_from(np.zeros((446, 1)))
        assert len(make_windows(t, 336, 96)) == 15

    def test_too_short_raises(self):
        t = table_from(np.zeros((4, 1)))
        with pytest.raises(WindowError, match="5"):
            make_windows(t, 3, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 30))
    def test_count_property(self, lookback, horizon, extra):
        t_len = lookback + horizon + extra
        table = table_from(np.zeros((t_len, 2)))
        assert len(make_windows(table, lookback, horizon)) == extra + 1

    def test_window_shapes_channel_major(self):
        t = table_from(np.arange(24.0).reshape(8, 3))
        x, y = make_windows(t, 4, 2).batch([1])
        assert x.shape == (1, 3, 4) and y.shape == (1, 3, 2)

    def test_scalar_index_rejected(self):
        windows = make_windows(table_from(np.zeros((8, 2))), 3, 2)
        with pytest.raises(TypeError, match="slice"):
            windows[0]


def gather_per_call(windows, idx):
    """`WindowSet.batch` as it was when it built both span views on every call."""

    def spans(width):
        return np.lib.stride_tricks.sliding_window_view(
            windows.values, width, axis=1).transpose(1, 0, 2)

    start = windows.origins[idx]
    return spans(windows.lookback)[start], spans(windows.horizon)[start + windows.lookback]


def evenly_spaced_slice(idx, origins) -> bool:
    """Whether `WindowSet.batch(idx)` reads views: `idx` is a slice and the
    origins it selects are at least one and evenly spaced."""
    if not isinstance(idx, slice) or len(origins) == 0:
        return False
    steps = np.diff(origins)
    return len(steps) == 0 or (steps[0] != 0 and (steps == steps[0]).all())


class TestWindowSetBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 10), st.integers(1, 10), st.integers(0, 40), st.integers(1, 4),
        st.integers(1, 7), st.integers(0, 2**32 - 1),
    )
    def test_matches_per_window_slicing(self, lookback, horizon, extra, n, step, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((lookback + horizon + extra, n))
        windows = make_windows(table_from(values), lookback, horizon)
        every = np.arange(len(windows))
        perm = rng.permutation(len(windows))
        picked = perm[: 1 + len(perm) // 2]
        stepped = windows[::step]
        assert len(stepped) == len(every[::step])
        shuffled = rng.permutation(len(stepped))
        # (subset, index into the subset, origin of each gathered window)
        cases = [
            (windows, perm, perm),
            (stepped, shuffled, every[::step][shuffled]),
            (windows[picked], slice(None), picked),
            (windows[::-step], slice(None), every[::-step]),
        ]
        for subset, idx, origins in cases:
            x, y = subset.batch(idx)
            assert x.shape == (len(origins), n, lookback)
            assert y.shape == (len(origins), n, horizon)
            if evenly_spaced_slice(idx, origins):
                for a in (x, y):
                    assert not a.flags.writeable and np.shares_memory(a, windows.values)
            else:
                assert x.flags["C_CONTIGUOUS"] and y.flags["C_CONTIGUOUS"]
            x_ref, y_ref = gather_per_call(subset, idx)
            assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()
            for b, i in enumerate(origins):
                np.testing.assert_array_equal(x[b], values[i : i + lookback].T)
                np.testing.assert_array_equal(
                    y[b], values[i + lookback : i + lookback + horizon].T
                )

    # 33 windows, origins 0..32; each [::-k] subset reaches origin 0, where a
    # view's stop of last - k would wrap to -1
    SUBSETS = {"all": slice(None), "a:b": slice(4, 27), "::k": slice(None, None, 4),
               "a::k": slice(3, None, 5), "::-k": slice(None, None, -4),
               "a::-k": slice(30, None, -3)}
    SLICES = {"all": slice(None), "a:b": slice(1, -1), "::k": slice(None, None, 2),
              "a::k": slice(1, None, 3), "::-1": slice(None, None, -1),
              "::-k": slice(None, None, -2), "one": slice(2, 3), "one back": slice(0, None, -1),
              "none": slice(3, 3), "none back": slice(0, 3, -1)}

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("subset", SUBSETS)
    def test_even_slices_read_views(self, subset, dtype, request):
        """Each slice of an evenly spaced set, either way, reads read-only views
        sharing the segment, equal byte for byte to the gathered arrays; a slice
        of no window gives empty arrays of the batch's shape."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        values = np.random.default_rng(3).standard_normal((40, 3))
        windows = make_windows(table_from(values), 5, 3)
        assert len(windows) == 33 and windows.values.dtype == dtype
        chosen = windows[self.SUBSETS[subset]]
        for idx in self.SLICES.values():
            origins = chosen.origins[idx]
            x, y = chosen.batch(idx)
            x_ref, y_ref = gather_per_call(chosen, idx)
            assert x.shape == (len(origins), 3, 5) and y.shape == (len(origins), 3, 3)
            assert x.dtype == y.dtype == dtype
            assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()
            assert chosen.targets(idx).tobytes() == y_ref.tobytes()
            if len(origins):
                for a in (x, y, chosen.targets(idx)):
                    assert not a.flags.writeable and np.shares_memory(a, windows.values)
            for b, o in enumerate(origins):
                np.testing.assert_array_equal(x[b], windows.values[:, o : o + 5])
                np.testing.assert_array_equal(y[b], windows.values[:, o + 5 : o + 8])

    def test_index_arrays_and_uneven_slices_gather(self):
        """An index array, evenly spaced or not, and a slice of uneven or
        repeated origins give fresh writable C-contiguous arrays, the gathered ones."""
        windows = make_windows(table_from(np.random.default_rng(4).standard_normal((40, 3))),
                               5, 3)
        cases = [
            (windows, np.arange(0, 33, 4)),
            (windows, np.arange(32, -1, -4)),
            (windows, np.array([7, 1, 20])),
            (windows[::3], np.array([0, 1, 2])),
            (windows[np.array([0, 1, 3, 7, 8])], slice(None)),
            (windows[np.array([6, 6, 6])], slice(None)),
        ]
        for subset, idx in cases:
            x, y = subset.batch(idx)
            x_ref, y_ref = gather_per_call(subset, idx)
            assert x.tobytes() == x_ref.tobytes() and y.tobytes() == y_ref.tobytes()
            assert subset.targets(idx).tobytes() == y_ref.tobytes()
            for a in (x, y, subset.targets(idx)):
                assert a.flags["C_CONTIGUOUS"] and a.flags.writeable
                assert not np.shares_memory(a, windows.values)

    def test_span_views_built_once(self, monkeypatch):
        """make_windows builds the two span views; batches and subsets reuse them."""
        values = np.arange(60.0).reshape(20, 3)
        windows = make_windows(table_from(values), 5, 3)

        def refuse(*args, **kwargs):
            raise AssertionError("span view rebuilt after make_windows")

        monkeypatch.setattr(data, "sliding_window_view", refuse)
        subsets = [windows, windows[::2], windows[np.array([4, 0, 7])], windows[::-3]]
        for subset in subsets:
            assert subset._lookbacks is windows._lookbacks
            assert subset._targets is windows._targets
            x, y = subset.batch(slice(None))
            for b, o in enumerate(subset.origins):
                np.testing.assert_array_equal(x[b], values[o : o + 5].T)
                np.testing.assert_array_equal(y[b], values[o + 5 : o + 8].T)
        assert np.shares_memory(windows._lookbacks, windows.values)
        assert np.shares_memory(windows._targets, windows.values)


def corr_oracle(x):
    """Textbook two-pass per-pair formula."""
    t, n = x.shape
    out = np.eye(n)
    for i in range(n):
        for j in range(n):
            a, b = x[:, i], x[:, j]
            am, bm = a - a.mean(), b - b.mean()
            out[i, j] = (am * bm).sum() / np.sqrt((am * am).sum() * (bm * bm).sum())
    return out


class TestPearsonCorr:
    def test_duplicate_channel(self, rng):
        col = rng.standard_normal(50)
        t = table_from(np.column_stack([col, col, rng.standard_normal(50)]))
        c = pearson_corr(t)
        assert c[0, 1] == pytest.approx(1.0)

    def test_negated_channel(self, rng):
        col = rng.standard_normal(50)
        t = table_from(np.column_stack([col, -col]))
        assert pearson_corr(t)[0, 1] == pytest.approx(-1.0)

    def test_matches_direct_formula(self, rng):
        x = rng.standard_normal((40, 3))
        c = pearson_corr(table_from(x))
        np.testing.assert_allclose(c, corr_oracle(x), atol=1e-12)

    def test_symmetric_unit_diagonal_bounded(self, rng):
        x = rng.standard_normal((30, 4))
        c = pearson_corr(table_from(x))
        np.testing.assert_allclose(c, c.T, atol=0)
        np.testing.assert_array_equal(np.diag(c), np.ones(4))
        assert (np.abs(c) <= 1.0).all()

    def test_zero_variance_channel_warns(self, rng):
        x = np.column_stack([np.full(20, 3.0), rng.standard_normal(20)])
        with pytest.warns(UserWarning, match="zero-variance"):
            c = pearson_corr(table_from(x))
        assert c[0, 1] == 0.0 and c[0, 0] == 1.0

    def test_affine_rescale_invariance(self, rng):
        x = rng.standard_normal((60, 3))
        scaled = x * np.array([3.0, 0.5, 10.0]) + np.array([-5.0, 2.0, 100.0])
        np.testing.assert_allclose(
            pearson_corr(table_from(x)),
            pearson_corr(table_from(scaled)),
            atol=1e-9,
        )


class TestGenSynthetic:
    def test_rho_one_sigma_zero_identical_within_group(self):
        spec = SynthSpec(n_channels=4, timesteps=256, groups=[0, 0, 1, 1], rho=1.0, sigma=0.0)
        t = gen_synthetic(spec, seed=3)
        v = t.values.data
        np.testing.assert_array_equal(v[:, 0], v[:, 1])
        np.testing.assert_array_equal(v[:, 2], v[:, 3])
        assert not np.array_equal(v[:, 0], v[:, 2])

    def test_rho_zero_uncorrelated(self):
        spec = SynthSpec(n_channels=4, timesteps=4096, groups=[0, 0, 0, 0], rho=0.0)
        c = pearson_corr(gen_synthetic(spec, seed=5))
        off = c[~np.eye(4, dtype=bool)]
        assert (np.abs(off) < 0.1).all()

    def test_two_group_block_structure(self):
        spec = SynthSpec(
            n_channels=6, timesteps=4096, groups=[0, 0, 0, 1, 1, 1], rho=0.95, sigma=0.0
        )
        c = pearson_corr(gen_synthetic(spec, seed=11))
        within, between = [], []
        for i in range(6):
            for j in range(i + 1, 6):
                (within if spec.groups[i] == spec.groups[j] else between).append(c[i, j])
        assert np.mean(within) > np.mean(between) + 0.5

    def test_bit_reproducible(self):
        spec = SynthSpec(n_channels=3, timesteps=128, groups=[0, 1, 1], rho=0.8, sigma=0.1)
        a = gen_synthetic(spec, seed=9).values.data
        b = gen_synthetic(spec, seed=9).values.data
        assert (a == b).all()

    def test_invalid_rho(self):
        with pytest.raises(ValueError, match="rho"):
            SynthSpec(n_channels=2, timesteps=16, rho=1.5)


def test_series_table_rejects_duplicate_names():
    with pytest.raises(ValueError, match="unique"):
        table_from(np.zeros((4, 2)), names=["x", "x"])
