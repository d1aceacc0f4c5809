import numpy as np
import pytest

from intreg import FORMAT_INFSUP, FORMAT_MIDSPR, IntervalSample, ingest, write_sample
from intreg.errors import EmptyFile, InvertedInterval, MalformedHeader, NonNumericCell

from conftest import random_sample


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


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
    ])
    def test_first_bad_row_in_file_order_is_named(self, tmp_path, bad, error, message):
        p = tmp_path / "s.csv"
        write_lines(p, ["mid_y,spr_y,mid_x1,spr_x1"] + [bad.get(j, "1,0.5,2,0.25") for j in range(1, 8)])
        with pytest.raises(error) as exc:
            ingest(p, FORMAT_MIDSPR)
        assert str(exc.value) == message


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
