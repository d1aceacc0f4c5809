import csv
import os
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intreg import FORMAT_INFSUP, FORMAT_MIDSPR, IntervalSample, ingest, write_sample
from intreg.errors import EmptyFile, InvertedInterval, MalformedHeader, NonNumericCell
from intreg.io import expected_header

from conftest import random_sample


# a data row whose first cell is over the csv module's field size limit
LONG_ROW = "0." + "0" * csv.field_size_limit() + "1,0.5,2,0.25"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def assert_same_sample(got, want):
    for name in ("mid_y", "spr_y", "mid_x", "spr_x"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestIngest:
    def test_two_row_midspr(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1", "1.0,0.5,2.0,0.25", "2.0,1.0,3.0,0.5"])
        s = ingest(p, FORMAT_MIDSPR)
        assert s.n == 2 and s.k == 1
        assert s.mid_y[1] == 2.0 and s.spr_x[0, 0] == 0.25

    def test_infsup_parses_and_converts(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["inf_y,sup_y,inf_x1,sup_x1", "1.0,3.0,0.0,2.0"])
        s = ingest(p, FORMAT_INFSUP)
        assert s.mid_y[0] == 2.0 and s.spr_y[0] == 1.0
        assert s.mid_x[0, 0] == 1.0 and s.spr_x[0, 0] == 1.0

    def test_inverted_interval_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["inf_y,sup_y,inf_x1,sup_x1", "3.0,1.0,0.0,2.0"])
        with pytest.raises(InvertedInterval) as exc:
            ingest(p, FORMAT_INFSUP)
        assert exc.value.row == 1 and exc.value.variable == "y"

    def test_negative_spread_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1", "1.0,0.5,2.0,-0.25"])
        with pytest.raises(InvertedInterval) as exc:
            ingest(p, FORMAT_MIDSPR)
        assert exc.value.variable == "x1"

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_a,spr_a", "1,1,1,1"])
        with pytest.raises(MalformedHeader):
            ingest(p, FORMAT_MIDSPR)

    def test_wrong_format_header(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1", "1,1,1,1"])
        with pytest.raises(MalformedHeader):
            ingest(p, FORMAT_INFSUP)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1", "1.0,oops,2.0,0.25"])
        with pytest.raises(NonNumericCell) as exc:
            ingest(p, FORMAT_MIDSPR)
        assert exc.value.row == 1 and exc.value.column == "spr_y"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            ingest(p, FORMAT_MIDSPR)

    def test_header_only(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1"])
        with pytest.raises(EmptyFile):
            ingest(p, FORMAT_MIDSPR)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1", "1.0,0.5,2.0"])
        with pytest.raises(MalformedHeader):
            ingest(p, FORMAT_MIDSPR)

    @pytest.mark.parametrize("bad, error, message", [
        ({5: "1,0.5,x,0.25", 7: "1,0.5,2"}, NonNumericCell,
         "non-numeric value 'x' at data row 5, column 'mid_x1'"),
        ({2: "1,0.5,2", 4: "1,abc,2,0.25"}, MalformedHeader, "data row 2 has 3 cells, expected 4"),
        ({1: "nan,0.5,2,0.25", 3: "1,0.5,abc,0.25"}, NonNumericCell,
         "non-numeric value 'abc' at data row 3, column 'mid_x1'"),
        (dict.fromkeys(range(1, 8), "1,0.5,2,0.25,9"), MalformedHeader, "data row 1 has 5 cells, expected 4"),
        ({2: "1,0.5,2,-0.25", 3: "1,-0.5,2,0.25"}, InvertedInterval,
         "invalid interval for 'x1' at data row 2: negative spread -0.25"),
        ({2: LONG_ROW, 4: "1,x,2,0.25"}, MalformedHeader,
         f"data row 2 cannot be read: field larger than field limit ({csv.field_size_limit()})"),
        ({1: "1,0.5,x,0.25", 3: LONG_ROW}, NonNumericCell, "non-numeric value 'x' at data row 1, column 'mid_x1'"),
        ({2: "1,0.5,2", 5: LONG_ROW}, MalformedHeader, "data row 2 has 3 cells, expected 4"),
    ])
    def test_first_bad_row_in_file_order_is_named(self, tmp_path, bad, error, message):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1"] + [bad.get(j, "1,0.5,2,0.25") for j in range(1, 8)])
        with pytest.raises(error) as exc:
            ingest(p, FORMAT_MIDSPR)
        assert str(exc.value) == message

    # each file is the two rows of PLAIN in another spelling the csv module accepts
    PLAIN = "mid_y,spr_y,mid_x1,spr_x1\n1,0.5,2,0.25\n1000,1,3,0.5\n"

    @pytest.mark.parametrize("text", [
        "mid_y,spr_y,mid_x1,spr_x1\n1,0.5,2,0.25\n   \n1000,1,3,0.5\n",
        "mid_y,spr_y,mid_x1,spr_x1\n\t\t\n1,0.5,2,0.25\n1000,1,3,0.5\n\t\n",
        "mid_y,spr_y,mid_x1,spr_x1\n , \n1,0.5,2,0.25\n1000,1,3,0.5\n , , , \n",
        "\n  \n , \nmid_y,spr_y,mid_x1,spr_x1\n1,0.5,2,0.25\n1000,1,3,0.5\n",
        "mid_y,spr_y,mid_x1,spr_x1\n1,0.5,2,0.25\n1_000,1,3,0.5\n",
        "mid_y,spr_y,mid_x1,spr_x1\n\u0661,0.5,2,0.25\n1000,1,3,0.5\n",
        "mid_y,spr_y,mid_x1,spr_x1\r\n1,0.5,2,0.25\r\n1000,1,3,0.5\r\n",
        "mid_y,spr_y,mid_x1,spr_x1\r1,0.5,2,0.25\r1000,1,3,0.5\r",
        '"mid_y", spr_y ,mid_x1,spr_x1\n"1", 0.5 ,"2.0",0.25\n 1000.0,"1",\t3,"0.5 "\n',
        "mid_y,spr_y,mid_x1,spr_x1\n1,0.5,2,0.25\n1000,1,3,0.5",
    ], ids=["spaces-line", "tab-line", "comma-line", "blank-before-header", "underscore", "arabic-indic",
            "crlf", "lone-cr", "quoted-padded", "no-final-newline"])
    def test_dialect_gives_the_plain_sample(self, tmp_path, text):
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        plain.write_text(self.PLAIN)
        odd.write_bytes(text.encode("utf-8"))
        assert_same_sample(ingest(odd, FORMAT_MIDSPR), ingest(plain, FORMAT_MIDSPR))

    def test_header_only_warns_nothing(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["", "mid_y,spr_y,mid_x1,spr_x1", "  "])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyFile, match="has a header but no data rows"):
                ingest(p, FORMAT_MIDSPR)

    def test_infinity_cell_is_named(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1", "1,0.5,2,0.25", "1,0.5,Infinity,0.25", "1,0.5,2,0.25"])
        with pytest.raises(NonNumericCell) as exc:
            ingest(p, FORMAT_MIDSPR)
        assert str(exc.value) == "non-numeric value 'Infinity' at data row 2, column 'mid_x1'"

    def test_header_over_the_csv_field_limit_is_named(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1," + "s" * (csv.field_size_limit() + 1), "1,0.5,2,0.25"])
        with pytest.raises(MalformedHeader, match="^the header cannot be read: field larger than field limit"):
            ingest(p, FORMAT_MIDSPR)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("row, want", [
        ("1,0.5,2,0.25", None),
        ("1,0.5,x,0.25", "non-numeric value 'x' at data row 3, column 'mid_x1'"),
    ])
    def test_pipe_input(self, tmp_path, row, want):
        # a pipe cannot be reread, so the row loop reads it after the header
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(self.PLAIN + row + "\n",))
        writer.start()
        try:
            if want is None:
                assert ingest(fifo, FORMAT_MIDSPR).n == 3
            else:
                with pytest.raises(NonNumericCell) as exc:
                    ingest(fifo, FORMAT_MIDSPR)
                assert str(exc.value) == want
        finally:
            writer.join()


class TestRoundTrip:
    def test_midspr_roundtrip_is_exact(self, tmp_path):
        s = random_sample(17, n=23, k=3)
        p = tmp_path / "round.csv"
        write_sample(s, p, FORMAT_MIDSPR)
        back = ingest(p, FORMAT_MIDSPR)
        assert np.array_equal(back.mid_y, s.mid_y)
        assert np.array_equal(back.spr_y, s.spr_y)
        assert np.array_equal(back.mid_x, s.mid_x)
        assert np.array_equal(back.spr_x, s.spr_x)

    def test_infsup_roundtrip_exact_on_dyadics(self, tmp_path):
        # dyadic mid/spr values convert to endpoints and back bit for bit
        rng = np.random.default_rng(0)
        mid_y = rng.integers(-8, 8, 10) / 4.0
        spr_y = rng.integers(0, 8, 10) / 4.0
        mid_x = rng.integers(-8, 8, (10, 2)) / 4.0
        spr_x = rng.integers(0, 8, (10, 2)) / 4.0
        s = IntervalSample(mid_y, spr_y, mid_x, spr_x)
        p = tmp_path / "round.csv"
        write_sample(s, p, FORMAT_INFSUP)
        back = ingest(p, FORMAT_INFSUP)
        assert np.array_equal(back.mid_y, s.mid_y)
        assert np.array_equal(back.spr_x, s.spr_x)

    def test_infsup_roundtrip_general_floats(self, tmp_path):
        s = random_sample(18, n=15, k=2)
        p = tmp_path / "round.csv"
        write_sample(s, p, FORMAT_INFSUP)
        back = ingest(p, FORMAT_INFSUP)
        np.testing.assert_allclose(back.mid_y, s.mid_y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.spr_y, s.spr_y, rtol=0, atol=1e-12)


class TestSampleChecksAsIngest:
    """A sample's own value checks raise, for a sample built directly, the
    error that ingest raises for the same values written to a file: the
    first bad cell in row-major order, negative spreads before the overflow
    cut, and an :class:`InvertedInterval` that is also a ``ValueError``."""

    @pytest.mark.parametrize("cells, fmts, want", [
        ([("spr_y", 2, -0.5)], [FORMAT_MIDSPR], (3, "y", "negative spread -0.5")),
        ([("spr_x", (1, 0), -0.25)], [FORMAT_MIDSPR], (2, "x1", "negative spread -0.25")),
        ([("mid_x", (4, 1), 1e154)], [FORMAT_MIDSPR, FORMAT_INFSUP],
         (5, "x2", "the midpoint 1e+154 overflows the fit's sums of squares")),
        ([("mid_y", 0, -1e154)], [FORMAT_MIDSPR, FORMAT_INFSUP],
         (1, "y", "the midpoint -1e+154 overflows the fit's sums of squares")),
        ([("mid_x", (3, 0), 1e200)], [FORMAT_MIDSPR, FORMAT_INFSUP],
         (4, "x1", "the midpoint 1e+200 overflows the fit's sums of squares")),
        ([("spr_x", (2, 1), 1e200)], [FORMAT_MIDSPR, FORMAT_INFSUP],
         (3, "x2", "the spread 1e+200 overflows the fit's sums of squares")),
        # row-major order: row 2's x2 before row 4's y, and row 4's y before its x1
        ([("spr_y", 3, -1.0), ("spr_x", (1, 1), -2.0), ("spr_x", (3, 0), -3.0)], [FORMAT_MIDSPR],
         (2, "x2", "negative spread -2.0")),
        ([("mid_x", (3, 0), 1e200), ("mid_y", 3, 1e200)], [FORMAT_MIDSPR, FORMAT_INFSUP],
         (4, "y", "the midpoint 1e+200 overflows the fit's sums of squares")),
        # a negative spread in a later row goes before the cut in an earlier one
        ([("mid_x", (0, 0), 1e200), ("spr_y", 5, -0.5)], [FORMAT_MIDSPR], (6, "y", "negative spread -0.5")),
    ])
    def test_sample_raises_what_ingest_raises(self, tmp_path, cells, fmts, want):
        s = random_sample(5, n=6, k=2)
        arrays = {name: np.array(getattr(s, name)) for name in ("mid_y", "spr_y", "mid_x", "spr_x")}
        for name, index, value in cells:
            arrays[name][index] = value
        row, variable, detail = want
        message = f"invalid interval for {variable!r} at data row {row}: {detail}"
        with pytest.raises(InvertedInterval) as direct:
            IntervalSample(**arrays)
        assert (direct.value.row, direct.value.variable, str(direct.value)) == (row, variable, message)
        with pytest.raises(ValueError, match="^invalid interval"):
            IntervalSample(**arrays)
        for fmt in fmts:
            path = tmp_path / f"{fmt}.csv"
            write_sample(SimpleNamespace(n=6, k=2, **arrays), path, fmt)
            with pytest.raises(InvertedInterval) as parsed:
                ingest(path, fmt)
            assert (parsed.value.row, parsed.value.variable, str(parsed.value)) == (row, variable, message)

    def test_named_variables_are_named(self):
        with pytest.raises(InvertedInterval) as exc:
            IntervalSample([1.0, 2.0], [0.5, 0.5], [[0.0], [1e200]], [[0.5], [0.5]], ["dbp", "pulse"])
        assert (exc.value.row, exc.value.variable) == (2, "pulse")

    def test_non_finite_entry_is_a_plain_value_error(self):
        with pytest.raises(ValueError, match="must be finite") as exc:
            IntervalSample([1.0, 2.0], [0.5, -0.5], [[0.0], [np.inf]], [[0.5], [0.5]])
        assert not isinstance(exc.value, InvertedInterval)


class TestWriteSample:
    @staticmethod
    def reference_write(sample, path, fmt):
        # the per-row writer that the array assembly replaced
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(expected_header(sample.k, fmt))
            for j in range(sample.n):
                if fmt == FORMAT_MIDSPR:
                    cells = [sample.mid_y[j], sample.spr_y[j]]
                    for i in range(sample.k):
                        cells += [sample.mid_x[j, i], sample.spr_x[j, i]]
                else:
                    cells = [sample.mid_y[j] - sample.spr_y[j], sample.mid_y[j] + sample.spr_y[j]]
                    for i in range(sample.k):
                        cells += [sample.mid_x[j, i] - sample.spr_x[j, i], sample.mid_x[j, i] + sample.spr_x[j, i]]
                writer.writerow([repr(float(c)) for c in cells])

    @pytest.mark.parametrize("fmt", [FORMAT_MIDSPR, FORMAT_INFSUP])
    @pytest.mark.parametrize("k", [1, 3])
    def test_bytes_match_the_row_loop(self, tmp_path, fmt, k):
        s = random_sample(40 + k, n=31, k=k)
        write_sample(s, tmp_path / "new.csv", fmt)
        self.reference_write(s, tmp_path / "ref.csv", fmt)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _outcome(path, fmt):
    try:
        s = ingest(path, fmt)
    except Exception as exc:  # the error type and message are the compared result
        return type(exc), str(exc)
    return tuple((a.shape, a.tobytes()) for a in (s.mid_y, s.spr_y, s.mid_x, s.spr_x))


def _no_loadtxt(*args, **kwargs):
    raise ValueError("fast parse forced off")


# numbers in the spellings either parser may take or refuse, wrapped in
# padding or quotes, beside junk runs over the same characters; most rows
# have the header's width and nonnegative values, so many files are samples
_JUNK = st.lists(st.sampled_from([*"0123456789.eE+-_ \t,\"\r\n", "nan", "inf", "\u0661"]), max_size=12).map("".join)
_NUMBER = st.one_of(
    st.floats(min_value=0.0, max_value=1e6).map(repr),
    st.integers(0, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6e}"),
    st.sampled_from(["1_000", "\u0661", "\u0661.5", "nan", "inf", "-0", ".5", "5.", "+1e3"]),
)
_PAD = st.sampled_from(["", "", " ", "\t", "  "])
_CELL = st.one_of(
    _NUMBER, _NUMBER,
    st.builds(lambda a, x, b: a + x + b, _PAD, _NUMBER, _PAD),
    st.builds(lambda a, x, b: f'"{a}{x}{b}"', _PAD, _NUMBER, _PAD),
    _JUNK,
)
_ROW = st.one_of(st.lists(_CELL, min_size=4, max_size=4), st.lists(_CELL, min_size=3, max_size=5)).map(",".join)
_EOL = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    fmt = draw(st.sampled_from([FORMAT_MIDSPR, FORMAT_INFSUP]))
    lines = [",".join(expected_header(1, fmt))] + draw(st.lists(st.one_of(_ROW, _ROW, _ROW, _JUNK), max_size=6))
    ends = [draw(_EOL) for _ in lines[1:]] + [draw(st.sampled_from(["", "\n", "\r\n", "\r"]))]
    return fmt, draw(st.sampled_from(["", "\n", " \r\n"])) + "".join(map(str.__add__, lines, ends))


@settings(max_examples=300, deadline=None)
@given(case=csv_files())
def test_fast_parse_agrees_with_the_row_loop(tmp_path_factory, case):
    fmt, text = case
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _outcome(path, fmt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", _no_loadtxt)
        slow = _outcome(path, fmt)
    assert fast == slow
