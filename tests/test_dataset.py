"""Calendar arithmetic, record validation, supervised pairing, scaling,
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
    PeriodRecord,
    PollutantKind,
    ScalingSpec,
    apply_scaling,
    build_supervised,
    fit_scaling,
    normalize_measure,
    period_of_date,
    period_start_date,
    periods_in_year,
    read_city_csv,
    resample_to_periods,
    write_city_csv,
)
from airpolicy.errors import (
    AmbiguousInputError,
    DegenerateColumnError,
    DomainError,
    EmptyDatasetError,
    InsufficientDataError,
    OrdinalRangeError,
)

from conftest import make_city, record


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

def test_normalize_measure_table():
    assert normalize_measure(0) == 0.0
    assert normalize_measure(2) == 0.5
    assert normalize_measure(4) == 1.0
    assert normalize_measure(1, max_level=2) == 0.5


def test_normalize_measure_rejects_out_of_range():
    with pytest.raises(OrdinalRangeError):
        normalize_measure(5)
    with pytest.raises(OrdinalRangeError):
        normalize_measure(-1)
    with pytest.raises(DomainError):
        normalize_measure(0, max_level=0)


# -- resampling -------------------------------------------------------------

def test_resample_means_match_hand_computation():
    year = 2021
    series = [
        (dt.date(2021, 1, 1), 0.25),   # period 0
        (dt.date(2021, 1, 2), 0.75),   # period 0
        (dt.date(2021, 1, 3), 1.0),    # period 1 (only one day present)
        (dt.date(2021, 1, 6), 0.5),    # period 2
    ]
    out = resample_to_periods(series, year)
    assert out == [(0, 0.5), (1, 1.0), (2, 0.5)]


def test_resample_rejects_wrong_year_and_duplicates():
    with pytest.raises(DomainError):
        resample_to_periods([(dt.date(2020, 1, 1), 0.5)], 2021)
    with pytest.raises(AmbiguousInputError):
        resample_to_periods([(dt.date(2021, 1, 1), 0.5),
                             (dt.date(2021, 1, 1), 0.6)], 2021)


def test_resample_skips_absent_periods():
    series = [(dt.date(2021, 3, 1), 0.2), (dt.date(2021, 7, 1), 0.4)]
    out = resample_to_periods(series, 2021)
    assert [t for t, _ in out] == [period_of_date(dt.date(2021, 3, 1)),
                                   period_of_date(dt.date(2021, 7, 1))]


# -- records and datasets ---------------------------------------------------

def test_period_record_validates_ranges():
    with pytest.raises(DomainError):
        record(2021, 0, measures={MeasureKind.RE_GAT: 1.5})
    with pytest.raises(DomainError):
        record(2021, 0, pollutant_stats={PollutantKind.CO: (0.1, -0.2)})
    rec = record(2021, 3, measures={MeasureKind.RE_GAT: 0.5},
                 pollutant_stats={PollutantKind.CO: (0.1, 0.0)})
    assert not rec.has_all_measures()
    assert rec.has_pollutant(PollutantKind.CO)


def test_city_dataset_requires_consecutive_periods():
    recs = (record(2021, 0), record(2021, 2))
    with pytest.raises(DomainError):
        CityDataset(city_name="x", year=2021, records=recs)


# -- supervised build -------------------------------------------------------

def test_build_supervised_pairs_consecutive_periods():
    ds = make_city(n_periods=6)
    sset = build_supervised([ds], PollutantKind.CO)
    assert sset.n == 5
    assert sset.inputs.shape == (5, 10)
    assert sset.targets.shape == (5, 2)
    # Row t: measures at t, CO stats at t; target = CO stats at t + 1.
    for i in range(5):
        rec, nxt = ds.records[i], ds.records[i + 1]
        expect_x = [rec.measures[m] for m in MEASURES] + list(
            rec.pollutant_stats[PollutantKind.CO])
        assert sset.inputs[i].tolist() == expect_x
        assert sset.targets[i].tolist() == list(nxt.pollutant_stats[PollutantKind.CO])
        assert sset.row_provenance[i] == (ds.city_name, i)


def test_build_supervised_drops_incomplete_pairs():
    ds = make_city(n_periods=6)
    recs = list(ds.records)
    # Remove CO from period 3: rows 2 and 3 both lose their pair.
    stats = dict(recs[3].pollutant_stats)
    del stats[PollutantKind.CO]
    recs[3] = record(ds.year, 3, measures=recs[3].measures,
                     pollutant_stats=stats)
    ds2 = CityDataset(city_name=ds.city_name, year=ds.year, records=tuple(recs))
    sset = build_supervised([ds2], PollutantKind.CO)
    assert [t for _, t in sset.row_provenance] == [0, 1, 4]


def test_build_supervised_cities_never_mix():
    a = make_city(name="a", n_periods=4, seed=1)
    b = make_city(name="b", n_periods=4, seed=2)
    sset = build_supervised([a, b], PollutantKind.O3)
    assert sset.n == 6
    assert {c for c, _ in sset.row_provenance} == {"a", "b"}


def test_build_supervised_missing_pollutant_everywhere():
    ds = make_city(pollutants=(PollutantKind.CO,), n_periods=5)
    with pytest.raises(EmptyDatasetError):
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
    with pytest.raises(DegenerateColumnError) as exc:
        fit_scaling(flat, "min_max")
    assert dts.feature_names(PollutantKind.CO)[2] in str(exc.value)


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
    path = str(tmp_path / "city.csv")
    write_city_csv(ds, path)
    again = read_city_csv(path)
    assert again.city_name == ds.city_name
    assert again.year == ds.year
    assert len(again) == len(ds)
    for a, b in zip(again.records, ds.records):
        assert a.period_index == b.period_index
        assert a.measures == b.measures          # repr round-trip, so exact
        assert a.pollutant_stats == b.pollutant_stats


def test_city_csv_preserves_gaps(tmp_path):
    ds = make_city(n_periods=5)
    recs = list(ds.records)
    recs[2] = record(ds.year, 2)
    ds2 = CityDataset(city_name="gappy", year=ds.year, records=tuple(recs))
    path = str(tmp_path / "gappy.csv")
    write_city_csv(ds2, path)
    again = read_city_csv(path)
    assert again.records[2].measures == {}
    assert again.records[2].pollutant_stats == {}


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
    from airpolicy.errors import SchemaError
    with pytest.raises(SchemaError):
        read_city_csv(path)


def test_feature_and_target_names_shape():
    names = dts.feature_names(PollutantKind.NO2)
    assert len(names) == 10
    assert names[-2:] == ["NO2_mean", "NO2_std"]
    assert dts.target_names(PollutantKind.NO2) == ["NO2_mean_next", "NO2_std_next"]
