"""Grid statistics against a two-pass extended-precision oracle, policy CSV
parsing against hand-built tables, the dataset assembly rules, and the
readers' handling of malformed files."""

import datetime as dt
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from airpolicy.dataset import (
    DEFAULT_COLUMN_MAP,
    DEFAULT_MAX_LEVEL,
    MEASURES,
    POLLUTANTS,
    MeasureKind,
    PollutantKind,
    period_of_date,
    read_city_csv,
    write_city_csv,
)
from airpolicy.errors import (
    AirPolicyError,
    DomainError,
    InsufficientDataError,
    MalformedInputError,
)
from airpolicy.ingest import (
    PolicyTable,
    aggregate_periods,
    aggregate_stat_periods,
    build_city_dataset,
    grid_stats,
    parse_density_csv,
    parse_policy_csv,
    read_grid,
    write_grid,
)

from conftest import make_city

MAX_LEVELS = {m: DEFAULT_MAX_LEVEL for m in MeasureKind}


def two_pass_stats(values):
    """Oracle: mean and population std via fsum, independent of numpy."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / n
    return mean, math.sqrt(var)


def grid_of(values, height=1):
    return np.array(values, dtype=np.float64).reshape(height, -1)


# -- grid stats -------------------------------------------------------------

def test_grid_stats_matches_two_pass_oracle():
    vals = [3.5e-4, 1.2e-4, 9.9e-5, 4.4e-4, 2.0e-4, 3.3e-4]
    mean, std = grid_stats(grid_of(vals, height=2))
    omean, ostd = two_pass_stats(vals)
    assert mean == pytest.approx(omean, rel=1e-14)
    assert std == pytest.approx(ostd, rel=1e-12)


def test_grid_stats_skips_nodata_pixels():
    vals = [1.0, float("nan"), 3.0, float("nan")]
    mean, std = grid_stats(grid_of(vals))
    assert mean == 2.0
    assert std == 1.0


def test_grid_stats_all_nodata_raises():
    with pytest.raises(InsufficientDataError, match="has no valid pixels"):
        grid_stats(grid_of([float("nan")] * 4))
    nan_grid = [(dt.date(2021, 1, 1), grid_of([float("nan")] * 4))]
    for mode in ("per_grid", "pooled_pixels"):
        with pytest.raises(InsufficientDataError, match="has no valid pixels"):
            aggregate_periods(nan_grid, 2021, mode)


def test_grid_rejects_bad_shape_and_nonfinite(tmp_path):
    path = tmp_path / "g.csv"
    for body, says in [
        ("0.1,0.2\n0.3\n", ", line 2: 1 cells, first row has 2"),  # ragged row
        ("0.1,0.2\n0.3,-inf\n", ", line 2: infinite value"),
        ("", ": no valid pixels"),  # empty file
    ]:
        path.write_text(body)
        with pytest.raises(MalformedInputError, match=f"g.csv{says}$"):
            read_grid(str(path))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.permutations(range(50)))
def test_grid_stats_mean_permutation_invariant(vals, perm):
    arr = np.array(vals)
    shuffled = arr[[p for p in perm if p < len(vals)]]
    if shuffled.size != arr.size:
        shuffled = arr.copy()
    m1, s1 = grid_stats(grid_of(arr))
    m2, s2 = grid_stats(grid_of(shuffled))
    assert m1 == pytest.approx(m2, rel=1e-9, abs=1e-9)
    assert s1 == pytest.approx(s2, rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
       st.integers(1, 10))
def test_grid_stats_invariant_to_added_nodata(vals, extra):
    base = grid_of(vals)
    padded = grid_of(vals + [float("nan")] * extra)
    assert grid_stats(base) == grid_stats(padded)


# -- aggregation ------------------------------------------------------------

def test_aggregate_stat_periods_hand_case():
    entries = [
        (dt.date(2021, 1, 1), 10.0, 1.0),
        (dt.date(2021, 1, 2), 20.0, 3.0),   # same period as above
        (dt.date(2021, 1, 4), 7.0, 0.5),    # period 1
    ]
    out = aggregate_stat_periods(entries, 2021)
    assert out.shape == (183, 2)
    assert out[:2].tolist() == [[15.0, 2.0], [7.0, 0.5]]
    assert np.isnan(out[2:]).all()


def test_aggregate_stat_periods_rejects_other_year():
    with pytest.raises(DomainError):
        aggregate_stat_periods([(dt.date(2020, 5, 5), 1.0, 0.1)], 2021)


def test_aggregate_periods_modes_differ_by_pooling():
    d1, d2 = dt.date(2021, 1, 1), dt.date(2021, 1, 2)
    g1 = grid_of([0.0, 0.0])
    g2 = grid_of([4.0, 4.0])
    per_grid = aggregate_periods([(d1, g1), (d2, g2)], 2021, "per_grid")
    pooled = aggregate_periods([(d1, g1), (d2, g2)], 2021, "pooled_pixels")
    # Means coincide for equal-size grids; stds do not.
    assert per_grid[0, 0] == pooled[0, 0] == 2.0
    assert per_grid[0, 1] == 0.0       # each grid is internally constant
    assert pooled[0, 1] == 2.0         # pooled pixels spread between grids
    assert np.isnan(per_grid[1:]).all() and np.isnan(pooled[1:]).all()


def test_aggregate_periods_pooled_matches_oracle():
    d = dt.date(2021, 3, 3)
    vals1, vals2 = [1.0, 2.0, 3.0], [10.0, 11.0]
    out = aggregate_periods([(d, grid_of(vals1)), (d, grid_of(vals2))],
                            2021, "pooled_pixels")
    omean, ostd = two_pass_stats(vals1 + vals2)
    mean, std = out[period_of_date(d)]
    assert mean == pytest.approx(omean, rel=1e-14)
    assert std == pytest.approx(ostd, rel=1e-12)


def test_aggregate_periods_pooled_rejects_other_year():
    with pytest.raises(DomainError):
        aggregate_periods([(dt.date(2020, 5, 5), grid_of([1.0]))], 2021, "pooled_pixels")


def test_aggregate_periods_unknown_mode():
    with pytest.raises(DomainError):
        aggregate_periods([], 2021, "bogus")


# -- grid files -------------------------------------------------------------

def test_grid_file_round_trip_exact(tmp_path):
    g = grid_of([0.1, float("nan"), 0.3, 1e-7, 2e-7, 3.3e-4], height=2)
    path = str(tmp_path / "g.csv")
    write_grid(g, path)
    assert os.listdir(tmp_path) == ["g.csv"]
    back = read_grid(path)
    assert back.dtype == np.float64 and back.shape == (2, 3)
    assert back.tobytes() == g.tobytes()


# -- policy csv -------------------------------------------------------------

POLICY_HEADER = "date," + ",".join(m.value for m in MeasureKind)


def write_policy(tmp_path, body, header=POLICY_HEADER):
    path = tmp_path / "policy.csv"
    path.write_text(header + "\n" + body)
    return str(path)


def parse_2021(path, column_map=DEFAULT_COLUMN_MAP, max_levels=MAX_LEVELS, **kw):
    return parse_policy_csv(path, column_map, 2021, max_levels, **kw)


def full_row(date, level):
    return f"{date}," + ",".join(str(level) for _ in MeasureKind)


def test_parse_policy_hand_built_oracle(tmp_path):
    body = "\n".join([full_row("2021-01-01", 2), full_row("2021-01-02", 4)])
    table = parse_2021(write_policy(tmp_path, body))
    assert table.dates == [dt.date(2021, 1, 1), dt.date(2021, 1, 2)]
    assert table.levels.shape == (2, len(MEASURES))
    assert table.levels[:, MEASURES.index(MeasureKind.C_SCHOOL)].tolist() == [0.5, 1.0]


def test_parse_policy_scales_each_level_by_its_max_level(tmp_path):
    levels = [0, 2, 4, 1, 2, 3, 0, 4]
    path = write_policy(tmp_path, "2021-01-01," + ",".join(map(str, levels)))
    table = parse_2021(path, max_levels={**MAX_LEVELS, MEASURES[3]: 2, MEASURES[4]: 2})
    assert table.levels[0].tolist() == [0.0, 0.5, 1.0, 0.5, 1.0, 0.75, 0.0, 1.0]


def test_parse_policy_skips_rows_of_other_years(tmp_path):
    body = "\n".join([full_row("2020-12-31", 9), full_row("2021-01-01", 1),
                      full_row("2022-01-01", 4)])
    table = parse_2021(write_policy(tmp_path, body))
    assert table.dates == [dt.date(2021, 1, 1)]
    assert table.levels.tolist() == [[0.25] * len(MEASURES)]
    path = write_policy(tmp_path, full_row("2020-12-31", 1))
    table = parse_2021(path)
    assert table.dates == [] and table.levels.shape == (0, len(MEASURES))


def test_parse_policy_blank_cell_is_missing_not_zero(tmp_path):
    cols = [m.value for m in MeasureKind]
    row = "2021-01-01," + ",".join("" if c == "C_SCHOOL" else "1" for c in cols)
    table = parse_2021(write_policy(tmp_path, row))
    assert math.isnan(table.levels[0, MEASURES.index(MeasureKind.C_SCHOOL)])
    assert table.levels[0, MEASURES.index(MeasureKind.RE_GAT)] == 0.25


def test_parse_policy_missing_column_names_file(tmp_path):
    header = POLICY_HEADER.replace("C_SCHOOL", "school_level")
    path = write_policy(tmp_path, full_row("2021-01-01", 1), header=header)
    with pytest.raises(MalformedInputError, match="policy.csv: missing columns: ") as exc:
        parse_2021(path)
    assert "C_SCHOOL" in str(exc.value) and "policy.csv" in str(exc.value)


def test_parse_policy_custom_column_map(tmp_path):
    header = "day,schools"
    path = tmp_path / "p.csv"
    path.write_text(header + "\n2021-02-01,3\n")
    table = parse_2021(str(path), {MeasureKind.C_SCHOOL: "schools"}, date_column="day")
    want = [0.75 if m is MeasureKind.C_SCHOOL else math.nan for m in MEASURES]
    assert np.array_equal(table.levels, [want], equal_nan=True)


def test_parse_policy_duplicate_date(tmp_path):
    body = "\n".join([full_row("2021-01-01", 1), full_row("2021-01-01", 2)])
    with pytest.raises(MalformedInputError,
                       match="policy.csv, line 3: duplicate date 2021-01-01"):
        parse_2021(write_policy(tmp_path, body))


def test_parse_policy_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MalformedInputError, match="empty.csv: empty file"):
        parse_2021(str(path))
    path.write_text(POLICY_HEADER + "\n")
    with pytest.raises(MalformedInputError, match="empty.csv: a header but no data rows"):
        parse_2021(str(path))


def test_parse_policy_sorts_rows(tmp_path):
    body = "\n".join([full_row("2021-01-05", 1), full_row("2021-01-02", 2)])
    table = parse_2021(write_policy(tmp_path, body))
    assert table.dates == [dt.date(2021, 1, 2), dt.date(2021, 1, 5)]
    assert table.levels[:, 0].tolist() == [0.5, 0.25]


# -- density csv ------------------------------------------------------------

def test_parse_density_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "date,pollutant,mean,std\n"
        "2021-01-01,CO,0.03,0.001\n"
        "2021-01-01,NO2,6e-05,1e-06\n"
        "2021-01-03,CO,0.031,0.0012\n"
    )
    out = parse_density_csv(str(path))
    assert set(out) == {PollutantKind.CO, PollutantKind.NO2}
    assert out[PollutantKind.CO] == [
        (dt.date(2021, 1, 1), 0.03, 0.001),
        (dt.date(2021, 1, 3), 0.031, 0.0012),
    ]


def test_parse_density_csv_missing_columns(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("date,gas,mean,std\n2021-01-01,CO,1,2\n")
    with pytest.raises(MalformedInputError, match="d.csv: missing columns: pollutant$"):
        parse_density_csv(str(path))


# -- assembly ---------------------------------------------------------------

def test_build_city_dataset_full_calendar_with_gaps():
    days = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(4)]
    policy = PolicyTable(dates=days, levels=np.full((4, len(MEASURES)), 0.5))
    co = np.full((183, 2), np.nan)
    co[[0, 5]] = [0.03, 0.001], [0.04, 0.002]
    ds = build_city_dataset("test", 2021, policy, {PollutantKind.CO: co})
    assert len(ds) == 183
    assert (ds.measures[:2] == 0.5).all()
    assert np.isnan(ds.measures[2:]).all()          # no policy data
    assert np.array_equal(ds.stats[:, POLLUTANTS.index(PollutantKind.CO)], co, equal_nan=True)
    assert np.isnan(np.delete(ds.stats, POLLUTANTS.index(PollutantKind.CO), axis=1)).all()


def test_build_city_dataset_respects_per_measure_max_level(tmp_path):
    path = write_policy(tmp_path, full_row("2021-01-01", 2))
    policy = parse_2021(path, max_levels={**MAX_LEVELS, MeasureKind.STAY_HOME_R: 2})
    ds = build_city_dataset("t", 2021, policy, {})
    assert ds.measures[0, MEASURES.index(MeasureKind.STAY_HOME_R)] == 1.0
    assert ds.measures[0, MEASURES.index(MeasureKind.C_SCHOOL)] == 0.5


def test_default_column_map_covers_all_measures():
    assert set(DEFAULT_COLUMN_MAP) == set(MeasureKind)
    assert DEFAULT_COLUMN_MAP[MeasureKind.C_SCHOOL] == "C_SCHOOL"


# -- malformed files --------------------------------------------------------

def _garble(lines, i, j, text):
    cells = lines[i].split(b",")
    cells[j % len(cells)] = text.encode()
    return b"\n".join(lines[:i] + [b",".join(cells)] + lines[i + 1:])


def fuzzed(valid: bytes):
    """Arbitrary bytes, the valid file cut short, or one cell of it garbled."""
    lines = valid.split(b"\n")
    garbled = st.builds(_garble, st.just(lines), st.integers(0, len(lines) - 1),
                        st.integers(0, 20), st.text(max_size=12))
    return st.one_of(st.binary(max_size=300),
                     st.integers(0, len(valid)).map(lambda k: valid[:k]),
                     garbled)


def _write_policy(path):
    with open(path, "w") as fh:
        fh.write("\n".join([POLICY_HEADER, full_row("2021-01-01", 2),
                            full_row("2021-01-02", 4)]) + "\n")


def _write_density(path):
    with open(path, "w") as fh:
        fh.write("date,pollutant,mean,std\n2021-01-01,CO,0.03,0.001\n"
                 "2021-01-03,NO2,6e-05,1e-06\n")


GRID = grid_of([0.1, float("nan"), 0.3, 0.4], height=2)

# name -> (reader, writer of a valid file)
READERS = {
    "policy": (parse_2021, _write_policy),
    "density": (parse_density_csv, _write_density),
    "grid": (read_grid, lambda p: write_grid(GRID, p)),
    "city": (read_city_csv, lambda p: write_city_csv(make_city(n_periods=3), p)),
}


def _valid_file(directory, name):
    path = str(directory / f"{name}.csv")
    READERS[name][1](path)
    with open(path, "rb") as fh:
        return path, fh.read()


@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_raise_only_package_errors_on_fuzzed_files(tmp_path, name):
    read = READERS[name][0]
    path, valid = _valid_file(tmp_path, name)

    @given(fuzzed(valid))
    def check(data):
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            read(path)
        except AirPolicyError:
            pass

    check()


@pytest.mark.parametrize("name, line, old, new", [
    ("policy", 3, b"2021-01-02", b"2021-13-04"),
    ("policy", 3, b",4,", b",9,"),
    ("policy", 3, b",4,", b",-1,"),
    ("policy", 3, b"2021-01-02", b"2021-01-02,0"),
    pytest.param("policy", 3, b",4,", b",1" + b"0" * 400 + b",", id="policy-3-level-1e400"),
    ("density", 2, b",CO,", b",XX,"),
    ("density", 3, b"6e-05", b"six"),
    ("density", 2, b"0.03", b"\xff\xfe"),
    ("density", 2, b"0.03", b"nan"),
    ("density", 2, b"0.001", b"-0.001"),
    ("density", 3, b"1e-06", b"inf"),
    ("density", 2, b"0.001", b"0.001,0.5"),
    ("grid", 2, b"0.3", b"0.3x"),
    ("city", 3, b"1,", b"one,"),
])
def test_malformed_cell_names_file_and_line(tmp_path, name, line, old, new):
    path, valid = _valid_file(tmp_path, name)
    lines = valid.split(b"\n")
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    with pytest.raises(MalformedInputError, match=f"{name}.csv, line {line}: "):
        READERS[name][0](path)


def test_grid_sidecar_with_a_box_still_reads(tmp_path):
    # Grids once came with a JSON sidecar of their shape, label, nodata
    # sentinel and lon/lat box. A leftover one is ignored: its sentinel
    # reads as a value and its wrong width changes nothing.
    grid = grid_of([0.1, -9999.0, float("nan"), 0.4], height=2)
    path = str(tmp_path / "g.csv")
    write_grid(grid, path)
    with open(path + ".meta.json", "w") as fh:
        json.dump({"width": 5, "height": 2, "label": "g", "nodata": -9999.0,
                   "pixel_size": 25.0, "bbox": [10.0, 45.0, 10.5, 45.5]}, fh)
    assert read_grid(path).tobytes() == grid.tobytes()
    assert grid_stats(read_grid(path)) == grid_stats(grid)
