"""Round trips and fuzzing of the CSV files: solution, plan, response table, CLI table."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import owclb
from owclb.linkchain import _read_csv, _write_csv

FILE_SETTINGS = settings(
    deadline=None, max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)


def float_arrays(n, elements=finite):
    return st.lists(elements, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))


@st.composite
def solutions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    return owclb.WaterfillSolution(
        f_max=draw(finite),
        water_level=draw(finite),
        f_hz=draw(float_arrays(n)),
        psd=draw(float_arrays(n)),
        gnr=draw(float_arrays(n)),
        sigma2=draw(finite),
        rate=draw(finite),
        island=tuple(draw(st.lists(st.tuples(finite, finite), max_size=4))),
        saturated=draw(st.booleans()),
        iterations=draw(st.integers(min_value=0, max_value=10**6)),
    )


@st.composite
def plans(draw):
    k = draw(st.integers(min_value=1, max_value=16))
    grid = owclb.SubcarrierGrid(
        K=k,
        f_chip=draw(st.floats(min_value=1.0, max_value=1e10)),
        gnr_k=draw(float_arrays(k, positive)),
    )
    bits = np.array(draw(st.lists(st.integers(0, 12), min_size=k, max_size=k)), dtype=np.int64)
    return owclb.BitLoadPlan(
        bits=bits,
        power_k=draw(float_arrays(k)),
        total_power=draw(finite),
        rate=draw(finite),
        flops=draw(st.integers(min_value=0, max_value=10**9)),
        iterations=draw(st.integers(min_value=0, max_value=10**6)),
        algorithm=draw(st.sampled_from(["hh_naive", "hh_accelerated"])),
        grid=grid,
        gamma=draw(st.floats(min_value=1.0, max_value=1e6)),
        sigma2_budget=draw(st.floats(min_value=0.0, max_value=1e30)),
    )


class TestRoundTrip:
    @FILE_SETTINGS
    @given(sol=solutions())
    def test_solution(self, tmp_path, sol):
        path = tmp_path / "sol.csv"
        owclb.write_solution_csv(sol, path)
        back = owclb.read_solution_csv(path)
        for name in ("f_max", "water_level", "sigma2", "rate", "island", "saturated", "iterations"):
            assert getattr(back, name) == getattr(sol, name), name
        for name in ("f_hz", "psd", "gnr"):
            np.testing.assert_array_equal(getattr(back, name), getattr(sol, name))

    @FILE_SETTINGS
    @given(plan=plans())
    def test_plan(self, tmp_path, plan):
        path = tmp_path / "plan.csv"
        owclb.write_plan_csv(plan, path)
        back = owclb.read_plan_csv(path)
        assert back["total_power_v2"] == plan.total_power
        assert back["rate_bit_s"] == plan.rate
        assert back["flops"] == plan.flops
        assert back["iterations"] == plan.iterations
        assert back["algorithm"] == plan.algorithm
        assert back["budget_v2"] == plan.sigma2_budget
        assert back["gamma_linear"] == plan.gamma
        assert back["f_chip_hz"] == plan.grid.f_chip
        np.testing.assert_array_equal(back["k"], np.arange(1, plan.grid.K + 1))
        np.testing.assert_array_equal(back["f_hz"], plan.grid.f_k)
        np.testing.assert_array_equal(back["bits"], plan.bits)
        np.testing.assert_array_equal(back["power_v2"], plan.power_k)

    @FILE_SETTINGS
    @given(
        freqs=st.lists(positive, min_size=2, max_size=20, unique=True).map(sorted),
        data=st.data(),
    )
    def test_response_table(self, tmp_path, freqs, data):
        values = data.draw(float_arrays(len(freqs), positive))
        table = owclb.ResponseTable(frequencies=np.array(freqs), values=values)
        path = tmp_path / "table.csv"
        owclb.write_response_table(table, path)
        back = owclb.read_response_table(path)
        np.testing.assert_array_equal(back.frequencies, table.frequencies)
        np.testing.assert_array_equal(back.values, table.values)

    @FILE_SETTINGS
    @given(
        header=st.lists(st.from_regex(r"[a-z_]{1,8}", fullmatch=True), min_size=1, max_size=5),
        n_rows=st.integers(min_value=0, max_value=6),
        with_meta=st.booleans(),
        data=st.data(),
    )
    def test_cli_table(self, tmp_path, header, n_rows, with_meta, data):
        rows = data.draw(float_arrays(n_rows * len(header))).reshape(n_rows, len(header))
        path = tmp_path / "out.csv"
        _write_csv(path, header, rows.T, {"rate_mbit_s": 1.5} if with_meta else None)
        names, back = _read_csv(path)[1:]
        assert names == header
        np.testing.assert_array_equal(back, rows)


def _read_with_db(path):
    return owclb.read_response_table(path, values_in_db=True)


READERS = [
    owclb.read_solution_csv,
    owclb.read_plan_csv,
    owclb.read_response_table,
    _read_with_db,
    _read_csv,
]
# Lines of the real formats, so fuzzed files also get past the header.
FORMAT_LINES = [
    "# f_max_hz=1.0 water_level_v2_per_hz=2.0 sigma2_v2=3.0 rate_bit_s=4.0 saturated=1 "
    "iterations=5 island=1.0:2.0",
    "f_hz,psd_v2_per_hz,gnr_linear",
    "# total_power_v2=1.0 rate_bit_s=2.0 flops=3 iterations=4 algorithm=hh_naive "
    "budget_v2=5.0 gamma_linear=1.0 f_chip_hz=6.0",
    "k,f_hz,bits,power_v2",
    "frequency_hz,value",
    "1,2.0,3,4.0",
    "1e6,0.5",
]
csv_lines = st.one_of(
    st.sampled_from(FORMAT_LINES),
    st.text(alphabet="0123456789.,:;=#\"e- \tinfa_\r", max_size=30),
)


def _assert_only_format_errors(reader, path):
    try:
        reader(path)
    except owclb.ChannelFormatError:
        pass


class TestFuzz:
    @FILE_SETTINGS
    @given(lines=st.lists(csv_lines, max_size=6))
    @pytest.mark.parametrize("reader", READERS)
    def test_text_raises_only_format_errors(self, tmp_path, reader, lines):
        path = tmp_path / "fuzz.csv"
        path.write_text("\n".join(lines))
        _assert_only_format_errors(reader, path)

    @FILE_SETTINGS
    @given(blob=st.binary(max_size=200))
    @pytest.mark.parametrize("reader", READERS)
    def test_bytes_raise_only_format_errors(self, tmp_path, reader, blob):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(blob)
        _assert_only_format_errors(reader, path)

    def test_solution_without_island_key(self, tmp_path):
        path = tmp_path / "sol.csv"
        path.write_text(
            "# f_max_hz=1.0 water_level_v2_per_hz=2.0 sigma2_v2=3.0 rate_bit_s=4.0 "
            "saturated=0 iterations=5\nf_hz,psd_v2_per_hz,gnr_linear\n1.0,2.0,3.0\n"
        )
        with pytest.raises(owclb.ChannelFormatError, match="island="):
            owclb.read_solution_csv(path)

    def test_plan_row_with_three_columns(self, tmp_path):
        path = tmp_path / "plan.csv"
        path.write_text(FORMAT_LINES[2] + "\nk,f_hz,bits,power_v2\n1,2.0,3\n")
        with pytest.raises(owclb.ChannelFormatError, match="row 3: expected 4 columns, got 3"):
            owclb.read_plan_csv(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"\xff\xfe")
        for reader in READERS:
            with pytest.raises(owclb.ChannelFormatError, match=re.escape(f"{path}: not UTF-8")):
                reader(path)


def test_response_table_with_crlf_line_ends(tmp_path):
    # the table writer used to end lines in CRLF; such files still read
    path = tmp_path / "table.csv"
    path.write_bytes(b"frequency_hz,value\r\n1000.0,1.0\r\n2000.0,0.5\r\n")
    table = owclb.read_response_table(path)
    assert table.rows == [(1000.0, 1.0), (2000.0, 0.5)]
