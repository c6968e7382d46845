"""Grid statistics against a two-pass extended-precision oracle, policy CSV
parsing against hand-built tables, the dataset assembly rules, and the
readers' handling of malformed files."""

import datetime as dt
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from airpolicy.dataset import (
    DEFAULT_MAX_LEVEL,
    MeasureKind,
    PollutantKind,
    read_city_csv,
    write_city_csv,
)
from airpolicy.errors import (
    AirPolicyError,
    AmbiguousInputError,
    DomainError,
    EmptyInputError,
    MalformedInputError,
    NoValidPixelsError,
    SchemaError,
)
from airpolicy.ingest import (
    DEFAULT_COLUMN_MAP,
    DensityGrid,
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


def two_pass_stats(values):
    """Oracle: mean and population std via fsum, independent of numpy."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / n
    return mean, math.sqrt(var)


def grid_of(values, width=None, height=1, **kw):
    arr = np.array(values, dtype=np.float64)
    if width is None:
        width = arr.size // height
    return DensityGrid(width=width, height=height, values=arr, **kw)


# -- grid stats -------------------------------------------------------------

def test_grid_stats_matches_two_pass_oracle():
    vals = [3.5e-4, 1.2e-4, 9.9e-5, 4.4e-4, 2.0e-4, 3.3e-4]
    mean, std, frac = grid_stats(grid_of(vals, width=3, height=2))
    omean, ostd = two_pass_stats(vals)
    assert mean == pytest.approx(omean, rel=1e-14)
    assert std == pytest.approx(ostd, rel=1e-12)
    assert frac == 1.0


def test_grid_stats_skips_nodata_pixels():
    vals = [1.0, float("nan"), 3.0, float("nan")]
    mean, std, frac = grid_stats(grid_of(vals))
    assert mean == 2.0
    assert std == 1.0
    assert frac == 0.5


def test_grid_stats_sentinel_nodata():
    g = grid_of([1.0, -9999.0, 3.0], nodata=-9999.0)
    mean, std, frac = grid_stats(g)
    assert mean == 2.0 and frac == pytest.approx(2 / 3)


def test_grid_stats_all_nodata_raises():
    with pytest.raises(NoValidPixelsError):
        grid_stats(grid_of([float("nan")] * 4))


def test_grid_rejects_bad_shape_and_nonfinite():
    with pytest.raises(DomainError):
        DensityGrid(width=2, height=2, values=np.zeros(3))
    with pytest.raises(DomainError):
        grid_of([1.0, float("inf")])
    with pytest.raises(DomainError):
        DensityGrid(width=0, height=1, values=np.zeros(0))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.permutations(range(50)))
def test_grid_stats_mean_permutation_invariant(vals, perm):
    arr = np.array(vals)
    shuffled = arr[[p for p in perm if p < len(vals)]]
    if shuffled.size != arr.size:
        shuffled = arr.copy()
    m1, s1, _ = grid_stats(grid_of(arr))
    m2, s2, _ = grid_stats(grid_of(shuffled))
    assert m1 == pytest.approx(m2, rel=1e-9, abs=1e-9)
    assert s1 == pytest.approx(s2, rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
       st.integers(1, 10))
def test_grid_stats_invariant_to_added_nodata(vals, extra):
    base = grid_of(vals)
    padded = grid_of(vals + [float("nan")] * extra)
    m1, s1, f1 = grid_stats(base)
    m2, s2, f2 = grid_stats(padded)
    assert m1 == m2 and s1 == s2
    assert f2 < f1 or f1 == f2 == 0.0 or len(vals) == 0


def test_grid_values_read_only():
    g = grid_of([1.0, 2.0])
    with pytest.raises(ValueError):
        g.values[0] = 5.0


# -- aggregation ------------------------------------------------------------

def test_aggregate_stat_periods_hand_case():
    entries = [
        (dt.date(2021, 1, 1), 10.0, 1.0),
        (dt.date(2021, 1, 2), 20.0, 3.0),   # same period as above
        (dt.date(2021, 1, 4), 7.0, 0.5),    # period 1
    ]
    out = aggregate_stat_periods(entries, 2021)
    assert out == [(0, 15.0, 2.0), (1, 7.0, 0.5)]


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
    assert per_grid[0][0] == pooled[0][0] == 0
    assert per_grid[0][1] == pooled[0][1] == 2.0
    assert per_grid[0][2] == 0.0       # each grid is internally constant
    assert pooled[0][2] == 2.0         # pooled pixels spread between grids


def test_aggregate_periods_pooled_matches_oracle():
    d = dt.date(2021, 3, 3)
    vals1, vals2 = [1.0, 2.0, 3.0], [10.0, 11.0]
    out = aggregate_periods([(d, grid_of(vals1)), (d, grid_of(vals2))],
                            2021, "pooled_pixels")
    omean, ostd = two_pass_stats(vals1 + vals2)
    assert out[0][1] == pytest.approx(omean, rel=1e-14)
    assert out[0][2] == pytest.approx(ostd, rel=1e-12)


def test_aggregate_periods_unknown_mode():
    with pytest.raises(DomainError):
        aggregate_periods([], 2021, "bogus")


# -- grid files -------------------------------------------------------------

def test_grid_file_round_trip_exact(tmp_path):
    g = DensityGrid(width=3, height=2,
                    values=np.array([0.1, float("nan"), 0.3, 1e-7, 2e-7, 3.3e-4]),
                    pixel_size=25.0, bbox=(10.0, 45.0, 10.5, 45.5), label="week1")
    path = str(tmp_path / "g.csv")
    write_grid(g, path)
    back = read_grid(path)
    assert back.width == 3 and back.height == 2
    assert np.array_equal(back.values, g.values, equal_nan=True)
    assert back.pixel_size == 25.0
    assert back.bbox == g.bbox
    assert back.label == "week1"


# -- policy csv -------------------------------------------------------------

POLICY_HEADER = "date," + ",".join(m.value for m in MeasureKind)


def write_policy(tmp_path, body, header=POLICY_HEADER):
    path = tmp_path / "policy.csv"
    path.write_text(header + "\n" + body)
    return str(path)


def full_row(date, level):
    return f"{date}," + ",".join(str(level) for _ in MeasureKind)


def test_parse_policy_hand_built_oracle(tmp_path):
    body = "\n".join([full_row("2021-01-01", 2), full_row("2021-01-02", 4)])
    table = parse_policy_csv(write_policy(tmp_path, body), DEFAULT_COLUMN_MAP)
    assert len(table.rows) == 2
    date0, cells0 = table.rows[0]
    assert date0 == dt.date(2021, 1, 1)
    assert cells0[MeasureKind.C_SCHOOL] == 2
    series = table.daily_series(MeasureKind.C_SCHOOL)
    assert series == [(dt.date(2021, 1, 1), 0.5), (dt.date(2021, 1, 2), 1.0)]


def test_parse_policy_blank_cell_is_missing_not_zero(tmp_path):
    cols = [m.value for m in MeasureKind]
    row = "2021-01-01," + ",".join("" if c == "C_SCHOOL" else "1" for c in cols)
    table = parse_policy_csv(write_policy(tmp_path, row), DEFAULT_COLUMN_MAP)
    _, cells = table.rows[0]
    assert MeasureKind.C_SCHOOL not in cells
    assert cells[MeasureKind.RE_GAT] == 1


def test_parse_policy_missing_column_names_file(tmp_path):
    header = POLICY_HEADER.replace("C_SCHOOL", "school_level")
    path = write_policy(tmp_path, full_row("2021-01-01", 1), header=header)
    with pytest.raises(SchemaError) as exc:
        parse_policy_csv(path, DEFAULT_COLUMN_MAP)
    assert "C_SCHOOL" in str(exc.value) and "policy.csv" in str(exc.value)


def test_parse_policy_custom_column_map(tmp_path):
    header = "day,schools"
    path = tmp_path / "p.csv"
    path.write_text(header + "\n2021-02-01,3\n")
    table = parse_policy_csv(str(path), {MeasureKind.C_SCHOOL: "schools"},
                             date_column="day")
    assert table.rows[0][1] == {MeasureKind.C_SCHOOL: 3}


def test_parse_policy_duplicate_date(tmp_path):
    body = "\n".join([full_row("2021-01-01", 1), full_row("2021-01-01", 2)])
    with pytest.raises(AmbiguousInputError):
        parse_policy_csv(write_policy(tmp_path, body), DEFAULT_COLUMN_MAP)


def test_parse_policy_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyInputError):
        parse_policy_csv(str(path), DEFAULT_COLUMN_MAP)
    path.write_text(POLICY_HEADER + "\n")
    with pytest.raises(EmptyInputError):
        parse_policy_csv(str(path), DEFAULT_COLUMN_MAP)


def test_parse_policy_sorts_rows(tmp_path):
    body = "\n".join([full_row("2021-01-05", 1), full_row("2021-01-02", 2)])
    table = parse_policy_csv(write_policy(tmp_path, body), DEFAULT_COLUMN_MAP)
    assert [d for d, _ in table.rows] == [dt.date(2021, 1, 2), dt.date(2021, 1, 5)]


def test_policy_table_rejects_unsorted_rows():
    rows = ((dt.date(2021, 1, 2), {}), (dt.date(2021, 1, 1), {}))
    with pytest.raises(AmbiguousInputError):
        PolicyTable(rows=rows)


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
    with pytest.raises(SchemaError):
        parse_density_csv(str(path))


# -- assembly ---------------------------------------------------------------

def _policy_for_days(days, level=2):
    rows = tuple(
        (dt.date(2021, 1, 1) + dt.timedelta(days=i),
         {m: level for m in MeasureKind})
        for i in range(days)
    )
    return PolicyTable(rows=rows)


def test_build_city_dataset_full_calendar_with_gaps():
    policy = _policy_for_days(4)   # periods 0 and 1 only
    densities = {PollutantKind.CO: [(0, 0.03, 0.001), (5, 0.04, 0.002)]}
    ds = build_city_dataset("test", 2021, policy, densities)
    assert len(ds) == 183
    assert ds.records[0].measures[MeasureKind.RE_GAT] == 0.5
    assert ds.records[2].measures == {}          # no policy data
    assert ds.records[0].pollutant_stats[PollutantKind.CO] == (0.03, 0.001)
    assert PollutantKind.CO not in ds.records[1].pollutant_stats
    assert ds.records[5].pollutant_stats[PollutantKind.CO] == (0.04, 0.002)


def test_build_city_dataset_ignores_other_year_policy_rows():
    rows = (
        (dt.date(2020, 12, 31), {m: 4 for m in MeasureKind}),
        (dt.date(2021, 1, 1), {m: 1 for m in MeasureKind}),
    )
    ds = build_city_dataset("t", 2021, PolicyTable(rows=rows), {})
    assert ds.records[0].measures[MeasureKind.RE_GAT] == 0.25


def test_build_city_dataset_respects_per_measure_max_level():
    rows = ((dt.date(2021, 1, 1), {MeasureKind.STAY_HOME_R: 2}),)
    ds = build_city_dataset(
        "t", 2021, PolicyTable(rows=rows), {},
        max_levels={MeasureKind.STAY_HOME_R: 2},
    )
    assert ds.records[0].measures[MeasureKind.STAY_HOME_R] == 1.0


def test_build_city_dataset_rejects_bad_periods():
    policy = _policy_for_days(1)
    with pytest.raises(DomainError):
        build_city_dataset("t", 2021, policy,
                           {PollutantKind.CO: [(183, 1.0, 0.1)]})
    with pytest.raises(AmbiguousInputError):
        build_city_dataset("t", 2021, policy,
                           {PollutantKind.CO: [(0, 1.0, 0.1), (0, 2.0, 0.1)]})


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


GRID = DensityGrid(width=2, height=2, values=np.array([0.1, float("nan"), 0.3, 0.4]))

# name -> (reader, writer of a valid file and its sidecar)
READERS = {
    "policy": (lambda p: parse_policy_csv(p, DEFAULT_COLUMN_MAP), _write_policy),
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
    ("density", 2, b",CO,", b",XX,"),
    ("density", 3, b"6e-05", b"six"),
    ("density", 2, b"0.03", b"\xff\xfe"),
    ("density", 2, b"0.03", b"nan"),
    ("density", 2, b"0.001", b"-0.001"),
    ("density", 3, b"1e-06", b"inf"),
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


@pytest.mark.parametrize("name", ["grid", "city"])
def test_sidecar_missing_or_bad_key_is_malformed(tmp_path, name):
    path, _ = _valid_file(tmp_path, name)
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    bad = [{k: v for k, v in meta.items() if k != key} for key in meta]
    bad += [dict(meta, **{key: "x"}) for key in meta if key not in ("label", "city_name")]
    for doc in bad:
        with open(path + ".meta.json", "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(MalformedInputError, match="missing or bad key"):
            READERS[name][0](path)
    with open(path + ".meta.json", "w") as fh:
        fh.write("{not json")
    with pytest.raises(MalformedInputError, match="meta.json, line 1"):
        READERS[name][0](path)
