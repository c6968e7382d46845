"""Calendar arithmetic, city validation, supervised pairing, scaling,
and the on-disk city table."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from airpolicy import dataset as dts
from airpolicy.dataset import (
    MEASURES,
    POLLUTANTS,
    CityDataset,
    MeasureKind,
    PollutantKind,
    ScalingSpec,
    apply_scaling,
    build_supervised,
    fit_scaling,
    period_of_date,
    period_start_date,
    periods_in_year,
    read_city_csv,
    resample_to_periods,
    write_city_csv,
)
from airpolicy.errors import (
    DomainError,
    InsufficientDataError,
    MalformedInputError,
    ShapeError,
)
from airpolicy.ingest import parse_policy_csv

from conftest import make_city


# -- calendar ---------------------------------------------------------------

def test_period_of_date_matches_day_of_year_arithmetic():
    # Independent route: day-of-year from the datetime library.
    for year in (2019, 2020, 2021, 2100):
        d = dt.date(year, 1, 1)
        while d.year == year:
            expected = (d.timetuple().tm_yday - 1) // 2
            assert period_of_date(d) == expected, d
            d += dt.timedelta(days=1)


def test_periods_in_year_is_183_for_both_year_lengths():
    assert periods_in_year(2020) == 183  # 366 days
    assert periods_in_year(2021) == 183  # 365 days; last period has one day


def test_leap_year_rules():
    assert dts.is_leap_year(2020)
    assert dts.is_leap_year(2000)
    assert not dts.is_leap_year(1900)
    assert not dts.is_leap_year(2021)
    assert dts.days_in_year(2020) == 366
    assert dts.days_in_year(2021) == 365


def test_period_start_date_inverts_period_of_date():
    for year in (2020, 2021):
        for t in range(periods_in_year(year)):
            start = period_start_date(year, t)
            assert start == dt.date(year, 1, 1) + dt.timedelta(days=2 * t)
            assert period_of_date(start) == t


# -- ordinal normalization --------------------------------------------------

def test_normalize_measure_table(tmp_path):
    """A level is divided by its measure's max level when the policy is read."""
    school = MeasureKind.C_SCHOOL
    path = tmp_path / "policy.csv"
    path.write_text("date,C_SCHOOL\n2021-01-01,0\n2021-01-02,2\n2021-01-03,4\n")
    table = parse_policy_csv(str(path), {school: "C_SCHOOL"}, 2021, {school: 4})
    assert table.levels[:, MEASURES.index(school)].tolist() == [0.0, 0.5, 1.0]
    path.write_text("date,C_SCHOOL\n2021-01-01,1\n")
    table = parse_policy_csv(str(path), {school: "C_SCHOOL"}, 2021, {school: 2})
    assert table.levels[0, MEASURES.index(school)] == 0.5


# -- resampling -------------------------------------------------------------

def loop_period_means(dates, values, year):
    """Reference: per period and column, the present entries added left to
    right in input order, over their count; NaN where none is present."""
    out = np.full((periods_in_year(year), values.shape[1]), np.nan)
    for p in range(periods_in_year(year)):
        for j in range(values.shape[1]):
            present = [float(v) for d, v in zip(dates, values[:, j])
                       if period_of_date(d) == p and not math.isnan(v)]
            if present:
                total = 0.0
                for v in present:
                    total += v
                out[p, j] = total / len(present)
    return out


@st.composite
def dated_rows(draw):
    """In-year dates, repeats allowed, with 1-3 columns of values or NaN gaps,
    in a leap year or a common one (whose last period has one day). The days
    fall in a window of a few periods, so periods gather several rows."""
    year = draw(st.sampled_from([2020, 2021]))
    n = draw(st.integers(0, 40))
    k = draw(st.integers(1, 3))
    last = dts.days_in_year(year) - 1
    first = draw(st.integers(0, last))
    window = st.integers(first, min(last, first + draw(st.integers(0, 9))))
    days = draw(st.lists(window, min_size=n, max_size=n))
    cells = draw(st.lists(st.floats(-1e6, 1e6) | st.just(math.nan),
                          min_size=n * k, max_size=n * k))
    dates = [dt.date(year, 1, 1) + dt.timedelta(days=d) for d in days]
    return dates, np.array(cells, dtype=np.float64).reshape(n, k), year


@given(dated_rows())
def test_resample_matches_a_left_to_right_loop_bit_for_bit(rows):
    dates, values, year = rows
    got, want = resample_to_periods(dates, values, year), loop_period_means(dates, values, year)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    present = ~np.isnan(want)
    assert np.array_equal(got[present].view(np.int64), want[present].view(np.int64))


def test_resample_means_match_hand_computation():
    dates = [dt.date(2021, 1, 1), dt.date(2021, 1, 2),   # period 0
             dt.date(2021, 1, 3),                        # period 1 (one day present)
             dt.date(2021, 1, 6), dt.date(2021, 1, 6),   # period 2, one date twice
             dt.date(2021, 12, 31)]                      # period 182, a single day
    values = np.array([[0.25], [0.75], [1.0], [0.5], [0.6], [0.125]])
    out = resample_to_periods(dates, values, 2021)
    assert out.shape == (183, 1)
    assert out[[0, 1, 2, 182], 0].tolist() == [0.5, 1.0, 0.55, 0.125]


def test_resample_rejects_a_date_outside_the_year():
    for dates in ([dt.date(2020, 12, 31)], [dt.date(2021, 1, 1), dt.date(2022, 1, 1)]):
        with pytest.raises(DomainError):
            resample_to_periods(dates, np.full((len(dates), 1), math.nan), 2021)


def test_resample_skips_absent_periods():
    dates = [dt.date(2021, 3, 1), dt.date(2021, 7, 1)]
    out = resample_to_periods(dates, np.array([[0.2, math.nan], [0.4, 0.1]]), 2021)
    t3, t7 = period_of_date(dates[0]), period_of_date(dates[1])
    assert out[t3, 0] == 0.2 and math.isnan(out[t3, 1])
    assert out[t7].tolist() == [0.4, 0.1]
    assert np.isnan(np.delete(out, [t3, t7], axis=0)).all()


# -- city datasets ----------------------------------------------------------

def _edited(ds, measures=None, stats=None):
    """``ds`` with copies of its arrays, each ``{index: value}`` item set."""
    m, g = ds.measures.copy(), ds.stats.copy()
    for index, v in (measures or {}).items():
        m[index] = v
    for index, v in (stats or {}).items():
        g[index] = v
    return CityDataset(city_name=ds.city_name, year=ds.year, measures=m, stats=g)


def test_city_dataset_validates_ranges():
    ds = make_city(n_periods=4)
    j = MEASURES.index(MeasureKind.RE_GAT)
    co = POLLUTANTS.index(PollutantKind.CO)
    with pytest.raises(DomainError, match=r"intensity 1\.5 for RE_GAT outside"):
        _edited(ds, measures={(1, j): 1.5})
    with pytest.raises(DomainError, match="intensity inf for RE_GAT"):
        _edited(ds, measures={(1, j): np.inf})
    with pytest.raises(DomainError, match=r"invalid std -0\.2 for CO"):
        _edited(ds, stats={(2, co, 1): -0.2})
    with pytest.raises(DomainError, match="CO mean and std must be present together"):
        _edited(ds, stats={(2, co, 1): np.nan})
    with pytest.raises(DomainError, match="non-finite mean for CO"):
        _edited(ds, stats={(2, co, 0): np.inf})
    # NaN marks an absent entry: a lone measure or a whole (mean, std) pair.
    gappy = _edited(ds, measures={(1, j): np.nan}, stats={(2, co): np.nan})
    assert len(gappy) == 4
    assert np.isnan(gappy.features(PollutantKind.CO)[[1, 2]]).any(axis=1).all()
    with pytest.raises(ValueError):
        gappy.measures[0, 0] = 0.0


def test_city_dataset_checks_shapes_and_calendar():
    ds = make_city(n_periods=3)
    with pytest.raises(ShapeError):
        CityDataset(city_name="x", year=2021, measures=ds.measures[:, :7].copy(),
                    stats=ds.stats.copy())
    with pytest.raises(ShapeError):
        CityDataset(city_name="x", year=2021, measures=ds.measures.copy(),
                    stats=ds.stats[:2].copy())
    with pytest.raises(DomainError, match="184 periods outside year 2021"):
        CityDataset(city_name="x", year=2021, measures=np.full((184, 8), np.nan),
                    stats=np.full((184, 4, 2), np.nan))


def test_features_are_the_canonical_layout():
    ds = make_city(n_periods=5)
    rows = ds.features(PollutantKind.SO2)
    assert rows.shape == (5, 10)
    assert np.array_equal(rows[:, :8], ds.measures)
    assert np.array_equal(rows[:, 8:], ds.stats[:, POLLUTANTS.index(PollutantKind.SO2)])


# -- supervised build -------------------------------------------------------

def test_build_supervised_pairs_consecutive_periods():
    ds = make_city(n_periods=6)
    sset = build_supervised([ds], PollutantKind.CO)
    assert sset.n == 5
    assert sset.inputs.shape == (5, 10)
    assert sset.targets.shape == (5, 2)
    # Row t: measures at t, CO stats at t; target = CO stats at t + 1.
    co = POLLUTANTS.index(PollutantKind.CO)
    for i in range(5):
        expect_x = ds.measures[i].tolist() + ds.stats[i, co].tolist()
        assert sset.inputs[i].tolist() == expect_x
        assert sset.targets[i].tolist() == ds.stats[i + 1, co].tolist()
        assert sset.row_provenance[i] == (ds.city_name, i)


def test_build_supervised_drops_incomplete_pairs():
    ds = make_city(n_periods=6)
    # Remove CO from period 3: rows 2 and 3 both lose their pair.
    ds2 = _edited(ds, stats={(3, POLLUTANTS.index(PollutantKind.CO)): np.nan})
    sset = build_supervised([ds2], PollutantKind.CO)
    assert [t for _, t in sset.row_provenance] == [0, 1, 4]
    # A period missing one measure gives no input row, but still a target.
    ds3 = _edited(ds, measures={(1, 5): np.nan})
    assert [t for _, t in build_supervised([ds3], PollutantKind.CO).row_provenance] == [0, 2, 3, 4]


def test_build_supervised_cities_never_mix():
    a = make_city(name="a", n_periods=4, seed=1)
    b = make_city(name="b", n_periods=4, seed=2)
    sset = build_supervised([a, b], PollutantKind.O3)
    assert sset.n == 6
    assert {c for c, _ in sset.row_provenance} == {"a", "b"}


def test_build_supervised_missing_pollutant_everywhere():
    ds = make_city(pollutants=(PollutantKind.CO,), n_periods=5)
    with pytest.raises(InsufficientDataError, match="pollutant SO2 absent from every period"):
        build_supervised([ds], PollutantKind.SO2)


# -- scaling ----------------------------------------------------------------

def _sset(n=12, seed=3):
    return build_supervised([make_city(n_periods=n + 1, seed=seed)],
                            PollutantKind.CO)


def test_fit_scaling_min_max_bounds():
    sset = _sset()
    spec = fit_scaling(sset, "min_max")
    scaled = apply_scaling(sset, spec)
    assert scaled.inputs.min() >= 0.0 and scaled.inputs.max() <= 1.0
    assert scaled.targets.min() >= 0.0 and scaled.targets.max() <= 1.0


def test_fit_scaling_z_score_moments():
    sset = _sset()
    spec = fit_scaling(sset, "z_score")
    scaled = apply_scaling(sset, spec)
    np.testing.assert_allclose(scaled.inputs.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(scaled.inputs.std(axis=0), 1.0, atol=1e-12)


def test_scaling_round_trip():
    sset = _sset()
    for mode in ("min_max", "z_score"):
        spec = fit_scaling(sset, mode)
        back = spec.invert_targets(apply_scaling(sset, spec).targets)
        np.testing.assert_allclose(back, sset.targets, atol=1e-12)
    with pytest.raises(DomainError):
        fit_scaling(sset, "none")


def test_fit_scaling_degenerate_column_named():
    sset = _sset()
    X = sset.inputs.copy()
    X[:, 2] = 0.5
    from dataclasses import replace
    flat = replace(sset, inputs=X)
    name = dts.feature_names(PollutantKind.CO)[2]
    with pytest.raises(DomainError) as exc:
        fit_scaling(flat, "min_max")
    assert str(exc.value) == f"degenerate (constant) column: {name}"


def test_fit_scaling_needs_two_rows():
    sset = _sset()
    from dataclasses import replace
    tiny = replace(sset, inputs=sset.inputs[:1].copy(),
                   targets=sset.targets[:1].copy(),
                   row_provenance=sset.row_provenance[:1])
    with pytest.raises(InsufficientDataError):
        fit_scaling(tiny, "min_max")


@given(st.floats(-1e6, 1e6), st.floats(0.5, 1e3))
def test_scaling_spec_invert_is_exact_inverse_pointwise(offset, scale):
    spec = ScalingSpec(mode="min_max", fitted=True,
                       input_offset=(offset,) * 10, input_scale=(scale,) * 10,
                       target_offset=(offset, offset), target_scale=(scale, scale))
    Y = np.linspace(-3, 3, 30).reshape(15, 2)
    np.testing.assert_allclose(spec.invert_targets(spec.transform_targets(Y)), Y,
                               rtol=1e-12, atol=1e-9)


def test_scaling_spec_dict_round_trip():
    sset = _sset()
    spec = fit_scaling(sset, "z_score")
    again = ScalingSpec.from_dict(spec.to_dict())
    assert again == spec


def test_supervised_arrays_are_read_only():
    sset = _sset()
    with pytest.raises(ValueError):
        sset.inputs[0, 0] = 99.0


# -- city csv ---------------------------------------------------------------

def test_city_csv_round_trip_exact(tmp_path):
    ds = make_city(n_periods=9)
    path = str(tmp_path / f"{ds.city_name}.csv")
    write_city_csv(ds, path)
    again = read_city_csv(path)
    assert again.city_name == ds.city_name
    assert again.year == ds.year
    assert len(again) == len(ds)
    # repr round-trip, so exact
    assert np.array_equal(again.measures, ds.measures, equal_nan=True)
    assert np.array_equal(again.stats, ds.stats, equal_nan=True)


def test_city_csv_reads_under_its_file_name(tmp_path):
    # The file holds no name; its year is row 0's.
    path = str(tmp_path / "renamed.csv")
    write_city_csv(make_city(name="city_x", year=2021, n_periods=3), path)
    again = read_city_csv(path)
    assert (again.city_name, again.year) == ("renamed", 2021)


def test_city_csv_preserves_gaps(tmp_path):
    ds = make_city(n_periods=5)
    ds2 = _edited(ds, measures={2: np.nan}, stats={(2, g): np.nan for g in (1, 2, 3)})
    path = str(tmp_path / "gappy.csv")
    write_city_csv(ds2, path)
    with open(path) as fh:
        assert fh.read().splitlines()[3].startswith("2,2020-01-05,,,,,,,,,0.0")
    again = read_city_csv(path)
    assert np.array_equal(again.measures, ds2.measures, equal_nan=True)
    assert np.array_equal(again.stats, ds2.stats, equal_nan=True)
    assert np.isnan(again.measures[2]).all() and np.isnan(again.stats[2, 1:]).all()


def test_city_csv_write_is_deterministic(tmp_path):
    ds = make_city(n_periods=7)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_city_csv(ds, p1)
    write_city_csv(ds, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_city_csv_rejects_foreign_header(tmp_path):
    ds = make_city(n_periods=3)
    path = str(tmp_path / "c.csv")
    write_city_csv(ds, path)
    with open(path) as fh:
        text = fh.read().replace("period_index", "period", 1)
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(MalformedInputError, match="c.csv: missing columns: period_index$"):
        read_city_csv(path)


def _rewritten(tmp_path, edit):
    """A written 4-period city file whose lines ``edit`` has changed."""
    path = str(tmp_path / "c.csv")
    write_city_csv(make_city(n_periods=4), path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def test_city_csv_rejects_a_skipped_period(tmp_path):
    path = _rewritten(tmp_path, lambda lines: lines.pop(2))
    with pytest.raises(MalformedInputError, match="c.csv, line 3: period 2 where period 1 belongs"):
        read_city_csv(path)


def _set_cell(lines, line, col, text):
    cells = lines[line - 1].split(",")
    cells[col] = text
    lines[line - 1] = ",".join(cells)


@pytest.mark.parametrize("line, col, text, says", [
    (2, 2, "nan", "line 2: non-finite value 'nan'"),
    (2, 10, "-inf", "line 2: non-finite value '-inf'"),
    (2, 1, "2020-01-02", "line 2: start date 2020-01-02 is not that of period 0"),
    (2, 1, "2020-02-30", "line 2: bad date"),
    # Period 1's start date in the next year: row 0 fixes the year.
    (3, 1, "2021-01-03", "line 3: start date 2021-01-03 is not that of period 1"),
], ids=["nan", "inf", "wrong-date", "bad-date", "other-year"])
def test_city_csv_rejects_bad_cells_naming_the_line(tmp_path, line, col, text, says):
    path = _rewritten(tmp_path, lambda lines: _set_cell(lines, line, col, text))
    with pytest.raises(MalformedInputError, match=says):
        read_city_csv(path)


def test_city_csv_half_pair_reads_as_absent(tmp_path):
    # Period 0's CO std goes; its mean stays.
    again = read_city_csv(_rewritten(tmp_path, lambda lines: _set_cell(lines, 2, 11, "")))
    assert np.isnan(again.stats[0, 0]).all()
    assert not np.isnan(again.stats[1:]).any()


def test_feature_and_target_names_shape():
    names = dts.feature_names(PollutantKind.NO2)
    assert len(names) == 10
    assert names[-2:] == ["NO2_mean", "NO2_std"]
    assert dts.target_names(PollutantKind.NO2) == ["NO2_mean_next", "NO2_std_next"]
