"""Command-line pipeline: ingest, screen, benchmark, synth, predict.

Every command validates its configuration and inputs fully before writing
anything, so a config error never leaves partial outputs, and prints
only after its last write. Exit codes: 0 success, 1 some cells failed but
the run completed, or standard output closed before the summary was
printed, 2 config or input error, 130 interrupted (Ctrl-C), 143
terminated (SIGTERM). The output
directory comes from --out, else the AIRPOLICY_OUT environment variable,
else the config.

Each command imports the modules it runs inside its ``cmd_*`` function, so
a process loads (and, without a bytecode cache, compiles) only those:
``ingest`` never loads the learners, the DTW screen or the worker helper.
The ingest and city-file functions stay names of this module, looked up
at each call, where the benchmark's tracer (``pipebench/tracing.py``)
wraps them.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import signal
import sys
import threading

import numpy as np

from .config import PipelineConfig, default_max_levels, load_config
from .dataset import (
    POLLUTANTS,
    CityDataset,
    PollutantKind,
    read_city_csv,
    write_city_csv,
    write_csv,
)
from .errors import AirPolicyError, ConfigError, MalformedInputError
from .ingest import (
    aggregate_periods,
    aggregate_stat_periods,
    build_city_dataset,
    parse_density_csv,
    parse_policy_csv,
    read_grid,
)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_TERMINATED = 143  # 128 + SIGTERM


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread so that the clean-up Ctrl-C gets
    runs too: ``workers.run_shares`` kills and reaps its workers."""


def _raise_terminated(signum, frame):
    raise _Terminated


def _resolve_out(args) -> str | None:
    """--out, else AIRPOLICY_OUT; None leaves the choice to the caller."""
    return args.out or os.environ.get("AIRPOLICY_OUT", "").strip() or None


def _load(args) -> PipelineConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    return load_config(args.config, overrides=args.set or [], out_dir=_resolve_out(args))


def _default_jobs() -> int:
    """The CPUs this process may use, or 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _city_csv_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, "cities", f"{name}.csv")


def _model_path(out_dir: str, pollutant: PollutantKind, kind: str) -> str:
    return os.path.join(out_dir, "models", f"{pollutant.value}_{kind}.json")


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _collect_grids(grids_dir: str, year: int):
    """Each pollutant's (date, grid) pairs for the grid files dated in ``year``."""
    by_pollutant = {}
    for p in PollutantKind:
        pdir = os.path.join(grids_dir, p.value)
        if not os.path.isdir(pdir):
            continue
        entries = []
        for fname in sorted(os.listdir(pdir)):
            if not fname.endswith(".csv"):
                continue
            path = os.path.join(pdir, fname)
            try:
                date = dt.date.fromisoformat(fname[:-4])
            except ValueError:
                raise MalformedInputError(path, None, "file name is not an ISO date") from None
            if date.year == year:
                entries.append((date, read_grid(path)))
        if entries:
            by_pollutant[p] = entries
    return by_pollutant


def cmd_ingest(args) -> int:
    config = _load(args)
    # Validate all inputs before creating any output.
    for city in config.cities:
        if not os.path.isfile(city.policy_csv):
            raise ConfigError(f"policy file not found: {city.policy_csv}")
        if city.density_csv is not None and not os.path.isfile(city.density_csv):
            raise ConfigError(f"density file not found: {city.density_csv}")
        if city.grids_dir is not None and not os.path.isdir(city.grids_dir):
            raise ConfigError(f"grid directory not found: {city.grids_dir}")
    max_levels = default_max_levels(config)
    # Build every city before writing any, so a bad input leaves no output.
    datasets = []
    for city in config.cities:
        policy = parse_policy_csv(city.policy_csv, city.column_map, config.year,
                                  max_levels, city.date_column)
        densities = {}
        if city.density_csv is not None:
            for p, entries in parse_density_csv(city.density_csv).items():
                in_year = [e for e in entries if e[0].year == config.year]
                densities[p] = aggregate_stat_periods(in_year, config.year)
        else:
            for p, entries in _collect_grids(city.grids_dir, config.year).items():
                densities[p] = aggregate_periods(entries, config.year,
                                                 config.aggregation_mode)
        datasets.append(build_city_dataset(city.name, config.year, policy, densities))
    os.makedirs(os.path.join(config.out_dir, "cities"), exist_ok=True)
    for ds in datasets:
        write_city_csv(ds, _city_csv_path(config.out_dir, ds.city_name))
    for ds in datasets:
        n_measures = np.count_nonzero(~np.isnan(ds.measures).any(axis=1))
        present = np.count_nonzero(~np.isnan(ds.stats[:, :, 0]), axis=0)
        cover = " ".join(
            f"{p.value}={present[POLLUTANTS.index(p)]}" for p in config.pollutants
        )
        print(f"{ds.city_name}: {len(ds)} periods, complete-measure periods "
              f"{n_measures}, {cover}")
    return EXIT_OK


def _read_cities(config: PipelineConfig) -> list[CityDataset]:
    sets = []
    for city in config.cities:
        path = _city_csv_path(config.out_dir, city.name)
        if not os.path.isfile(path):
            raise ConfigError(
                f"city file not found: {path} (run the ingest command first)"
            )
        sets.append(read_city_csv(path))
    return sets


# ---------------------------------------------------------------------------
# screen
# ---------------------------------------------------------------------------

def cmd_screen(args) -> int:
    from . import report, similarity

    config = _load(args)
    city_sets = _read_cities(config)
    all_cells = similarity.screen_many(
        city_sets, list(config.pollutants),
        cost=config.dtw_cost,
        normalize=config.dtw_normalize,
        window=config.dtw_window,
        jobs=args.jobs,
    )
    similarity.write_screen_csv(all_cells, os.path.join(config.out_dir, "screen.csv"))
    report.write_figure(report.figure_r2(all_cells), config.out_dir)
    report.write_figure(report.figure_dtw(all_cells), config.out_dir)
    summary = report.render_screen_summary(all_cells)
    with open(os.path.join(config.out_dir, "screen_summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")
    failed = sum(1 for c in all_cells if c.error)
    return EXIT_PARTIAL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _forecast(model, ds_list: list[CityDataset], pollutant: PollutantKind):
    """Return (city, period, inputs, prediction) for the next period.

    The inputs are the newest period with all 10 features present, from the
    later city in config order when two cities end on that period; None
    when there is none.
    """
    found = None
    for ds in ds_list:
        rows = ds.features(pollutant)
        complete = np.flatnonzero(~np.isnan(rows).any(axis=1))
        if complete.size and (found is None or complete[-1] >= found[1]):
            found = ds.city_name, int(complete[-1]), rows[complete[-1]]
    if found is None:
        return None
    city, period, x = found
    return city, period, x, model.predict(x)[0]


def _print_forecast(pollutant: PollutantKind, forecast) -> None:
    city, period, x, pred = forecast
    print(f"{pollutant.value} ({city}, period {period}): "
          f"mean {x[-2]:.4e} mol/m2 -> next-period forecast "
          f"{pred[0]:.4e} mol/m2 (std {pred[1]:.4e})")


def cmd_benchmark(args) -> int:
    from . import evaluation, models, report

    config = _load(args)
    city_sets = _read_cities(config)
    specs = config.model_specs()
    eval_report, trained = evaluation.run_benchmark(
        city_sets, list(config.pollutants), specs, config.split,
        scaling_mode=config.scaling_mode, jobs=args.jobs,
    )
    evaluation.write_report_csv(eval_report, os.path.join(config.out_dir, "report.csv"))
    evaluation.write_report_json(eval_report, os.path.join(config.out_dir, "report.json"),
                                 config_echo=config.echo())
    os.makedirs(os.path.join(config.out_dir, "models"), exist_ok=True)
    for (pollutant, kind) in sorted(trained, key=lambda pk: (pk[0].value, pk[1])):
        models.save_model(trained[(pollutant, kind)],
                          _model_path(config.out_dir, pollutant, kind))
    fig_a, fig_b = report.figure_rmse(eval_report)
    report.write_figure(fig_a, config.out_dir)
    report.write_figure(fig_b, config.out_dir)
    print(report.render_benchmark_summary(eval_report), end="")
    # Forecast demo: current density and next-period prediction per pollutant.
    for pollutant in config.pollutants:
        model = trained.get((pollutant, config.predict_kind))
        forecast = None if model is None else _forecast(model, city_sets, pollutant)
        if forecast is not None:
            _print_forecast(pollutant, forecast)
    return EXIT_PARTIAL if eval_report.n_failed else EXIT_OK


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args) -> int:
    from . import models

    config = _load(args)
    city_sets = _read_cities(config)
    forecasts = []
    for pollutant in config.pollutants:
        path = _model_path(config.out_dir, pollutant, config.predict_kind)
        if not os.path.isfile(path):
            raise ConfigError(
                f"model file not found: {path} (run the benchmark command first)"
            )
        model = models.load_model(path)
        if model.spec.kind != config.predict_kind:
            raise ConfigError(f"{path}: holds a {model.spec.kind} model, but "
                              f"predict.kind is {config.predict_kind}")
        forecast = _forecast(model, city_sets, pollutant)
        if forecast is None:
            raise ConfigError(f"no complete period found for {pollutant.value}")
        forecasts.append((pollutant, forecast))
    write_csv(os.path.join(config.out_dir, "forecast.csv"), [
        ["pollutant", "kind", "city", "period",
         "current_mean", "current_std", "forecast_mean", "forecast_std"],
    ] + [
        [pollutant.value, config.predict_kind, city, period, x[-2], x[-1], pred[0], pred[1]]
        for pollutant, (city, period, x, pred) in forecasts
    ])
    for pollutant, forecast in forecasts:
        _print_forecast(pollutant, forecast)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    from . import synth

    result = synth.generate(
        out_dir=_resolve_out(args) or "synth",
        profile=args.profile,
        seed=args.seed,
        noise=args.noise,
        emit_grids=args.emit_grids,
    )
    print(f"wrote {len(result.city_dirs)} synthetic cities under {result.out_dir}")
    print(f"config: {result.config_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airpolicy",
        description="Policy-measure vs pollutant screening and forecasting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("ingest", cmd_ingest, "build per-city period datasets"),
        ("screen", cmd_screen, "correlation and alignment screening"),
        ("benchmark", cmd_benchmark, "train and score all learners"),
        ("predict", cmd_predict, "forecast the next period from saved models"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--out", help="output directory (overrides config and env)")
        p.add_argument("--jobs", type=int, default=_default_jobs(),
                       help="screen and benchmark: worker processes, at most one per "
                            "pollutant (default: the CPUs this process may use); ingest "
                            "and predict ignore it")
        p.add_argument("--set", action="append", metavar="K=V",
                       help="dotted config override, e.g. split.test_fraction=0.3")
        p.set_defaults(func=func)

    p_synth = sub.add_parser("synth", help="generate synthetic city inputs")
    p_synth.add_argument("--out", help="output directory (default: AIRPOLICY_OUT, "
                                       "else synth)")
    p_synth.add_argument("--seed", type=int, default=0, help="seed of the generated data")
    p_synth.add_argument("--profile", choices=["linear", "null"], default="linear")
    p_synth.add_argument("--noise", type=float, default=0.01,
                         help="relative noise level for the linear profile (finite, >= 0)")
    p_synth.add_argument("--emit-grids", action="store_true",
                         help="also write per-period density grid files")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Only the main thread may set a handler; the caller's comes back on return.
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at shutdown
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # Every command prints after its last write, so the outputs are
        # complete; only the summary is lost. Point stdout at devnull so the
        # interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARTIAL
    except (AirPolicyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        # run_shares has already killed and reaped its workers.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except _Terminated:
        print("terminated", file=sys.stderr)
        return EXIT_TERMINATED
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
