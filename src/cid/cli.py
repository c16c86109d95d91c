"""Command-line entry point: parse a JSON analysis config, run the election
or lead pipeline, and write the curve CSV and figure SVG."""

from __future__ import annotations

import argparse
import json
# argparse's gettext imports locale the first time main builds a parser;
# importing it here keeps that cost in import time rather than in the run.
import locale  # noqa: F401
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .decisions import ThresholdRule
from .imputation import (BUILTIN_MECHANISMS, MAX_MISSING, ImputationConfig,
                         LeadPopulation, MnarMechanism, mar_mechanism,
                         read_level_counts)
from .metrics import CostParams, max_cost
from .regression import (MEAN_RESPONSE, NEW_OBSERVATION, ElectionDataset,
                         fit_simple_ols)
from .sweep import (CidCurve, KnobDistribution, KnobGrid, PlausibleRegion,
                    annotate_plausible_region, expected_cid, sweep_election,
                    sweep_lead)
from .svgfig import render_election_figure, render_lead_figure

DEFAULT_SEED = 20240101
DEFAULT_STEP = {"election": 0.02, "lead": 0.05}
DEFAULT_RANGE = {"election": (-4.0, 4.0), "lead": (-2.0, 4.0)}
# Largest knob grid a config may ask for: 60,000 points is a fine lead grid
# (step 1e-4), while a step of 1e-9 would need 8e9 points (60 GiB per column).
MAX_GRID_POINTS = 1_000_000
# Largest lead population: every count, observed or completed, is an int64.
MAX_N_TOTAL = 2**63 - 1
# Most imputation rounds: multiple-imputation practice uses tens, and each
# round draws a posterior and inverts a binomial at every grid point, so
# 10**9 rounds never finish.
MAX_M = 1_000

# Known fields of each config object; the document's top level also holds
# the block named by its mode.
TOP_FIELDS = ("mode", "dataset", "grid", "outputs", "seed")
GRID_FIELDS = ("t_min", "t_max", "step", "t0")
OUTPUT_FIELDS = ("csv", "svg")
ELECTION_FIELDS = ("x0", "level", "interval_kind", "plausible_region")
LEAD_FIELDS = ("n_total", "mechanism", "m", "threshold", "a", "b",
               "snapshot_ts", "knob_distribution")
KNOB_DISTRIBUTION_FIELDS = ("support", "weights")


class ConfigError(Exception):
    """Invalid or incomplete analysis configuration."""


@dataclass(frozen=True)
class ElectionSettings:
    x0: float
    level: float
    interval_kind: str
    plausible_region: Optional[PlausibleRegion]


@dataclass(frozen=True)
class LeadSettings:
    n_total: int
    mechanism: MnarMechanism
    m: int
    costs: CostParams
    snapshot_ts: tuple
    knob_distribution: Optional[KnobDistribution]


@dataclass(frozen=True)
class AnalysisConfig:
    mode: str
    dataset_path: Path
    grid: KnobGrid
    seed: int
    csv_path: Path
    svg_path: Path
    election: Optional[ElectionSettings]
    lead: Optional[LeadSettings]


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"missing required field: {path}{key}")
    return doc[key]


def _fields(value, path: str, known: tuple) -> dict:
    """value as a config object whose keys are all in known; path is the
    object's field prefix ("" for the document, "grid." for its grid)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'}: must be an object, "
                          f"got {value!r}")
    for key in value:
        if key not in known:
            raise ConfigError(f"{path}{key}: unknown field "
                              f"(known: {', '.join(known)})")
    return value


def _finite(value, path: str) -> float:
    """A JSON number as a float; booleans, strings, NaN and infinities are
    rejected."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return float(value)


def _finite_list(value, path: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: must be a list of numbers, got {value!r}")
    return tuple(_finite(v, f"{path}[{i}]") for i, v in enumerate(value))


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: must be a string, got {value!r}")
    return value


def _integer(value, path: str) -> int:
    """A JSON integer as it stands, or an integral finite float as an int."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _finite(value, path)
    if number != int(number):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return int(number)


def _checked(path: str, build):
    """Call build(), reporting a ValueError as a config error at path."""
    try:
        return build()
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_mechanism(value, path: str) -> MnarMechanism:
    if isinstance(value, str):
        factory = BUILTIN_MECHANISMS.get(value)
        if factory is None:
            known = ", ".join(sorted(BUILTIN_MECHANISMS))
            raise ConfigError(
                f"{path}: unknown mechanism name {value!r} (known: {known})"
            )
        return factory()
    if isinstance(value, list):
        return MnarMechanism(weights=_finite_list(value, path))
    raise ConfigError(f"{path}: mechanism must be a name or a weight vector")


def _parse_election(block: dict) -> ElectionSettings:
    region = None
    if "plausible_region" in block:
        bounds = _finite_list(block["plausible_region"],
                              "election.plausible_region")
        if len(bounds) != 2:
            raise ConfigError("election.plausible_region: must be a "
                              f"[lower, upper] pair, got "
                              f"{block['plausible_region']!r}")
        region = _checked("election.plausible_region",
                          lambda: PlausibleRegion(*bounds))
    kind = block.get("interval_kind", MEAN_RESPONSE)
    if kind not in (MEAN_RESPONSE, NEW_OBSERVATION):
        raise ConfigError(f"election.interval_kind: unknown kind {kind!r}")
    level = _finite(block.get("level", 0.95), "election.level")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"election.level: must be in (0, 1), got {level}")
    return ElectionSettings(
        x0=_finite(_require(block, "x0", "election."), "election.x0"),
        level=level,
        interval_kind=kind,
        plausible_region=region,
    )


def _parse_lead(block: dict) -> LeadSettings:
    dist = None
    if "knob_distribution" in block:
        path = "lead.knob_distribution."
        d = _fields(block["knob_distribution"], path, KNOB_DISTRIBUTION_FIELDS)
        support = _finite_list(_require(d, "support", path), path + "support")
        weights = _finite_list(_require(d, "weights", path), path + "weights")
        dist = _checked(path + "weights",
                        lambda: KnobDistribution.from_weights(support, weights))
    costs = {key: _finite(block.get(key, 1.0), f"lead.{key}")
             for key in ("a", "b")}
    for key, cost in costs.items():
        if cost < 0:
            raise ConfigError(f"lead.{key}: must be nonnegative, got {cost}")
    if costs["a"] == costs["b"] == 0:
        raise ConfigError("lead.b: costs a and b must not both be zero")
    n_total = _integer(_require(block, "n_total", "lead."), "lead.n_total")
    if not 1 <= n_total <= MAX_N_TOTAL:
        raise ConfigError(f"lead.n_total: must be in [1, {MAX_N_TOTAL}], "
                          f"got {n_total}")
    m = _integer(block.get("m", 5), "lead.m")
    if not 1 <= m <= MAX_M:
        raise ConfigError(f"lead.m: must be in [1, {MAX_M:,}], got {m}")
    threshold = _checked("lead.threshold", lambda: ThresholdRule(
        _finite(block.get("threshold", 0.20), "lead.threshold")).threshold)
    return LeadSettings(
        n_total=n_total,
        mechanism=_parse_mechanism(_require(block, "mechanism", "lead."),
                                   "lead.mechanism"),
        m=m,
        costs=CostParams(**costs, threshold=threshold),
        snapshot_ts=_finite_list(block.get("snapshot_ts", []),
                                 "lead.snapshot_ts"),
        knob_distribution=dist,
    )


def parse_config(doc: dict, base_dir: Path = Path(".")) -> AnalysisConfig:
    """Validate a config document and fill defaults.

    Every range check that needs no dataset happens here; unknown fields at
    any level are rejected. Relative paths are resolved against base_dir
    (the config file's directory).
    """
    _fields(doc, "", TOP_FIELDS + ("election", "lead"))
    mode = _require(doc, "mode", "")
    if mode not in ("election", "lead"):
        raise ConfigError(f"mode: must be 'election' or 'lead', got {mode!r}")
    other = "lead" if mode == "election" else "election"
    if other in doc:
        raise ConfigError(f"{other}: block is not used in {mode} mode")
    dataset = base_dir / _string(_require(doc, "dataset", ""), "dataset")

    grid_doc = _fields(doc.get("grid", {}), "grid.", GRID_FIELDS)
    defaults = dict(zip(("t_min", "t_max"), DEFAULT_RANGE[mode]),
                    step=DEFAULT_STEP[mode], t0=0.0)
    grid_values = {key: _finite(grid_doc.get(key, default), f"grid.{key}")
                   for key, default in defaults.items()}
    if not grid_values["step"] > 0:
        raise ConfigError(f"grid.step: must be positive, got {grid_values['step']}")
    grid = _checked("grid", lambda: KnobGrid(**grid_values))
    if grid.n_points() > MAX_GRID_POINTS:
        raise ConfigError(f"grid.step: {grid.step} implies "
                          f"{grid.n_points():.0f} grid points "
                          f"(at most {MAX_GRID_POINTS:,})")

    outputs = _fields(doc.get("outputs", {}), "outputs.", OUTPUT_FIELDS)
    csv_path = base_dir / _string(outputs.get("csv", f"{mode}_curve.csv"),
                                  "outputs.csv")
    svg_path = base_dir / _string(outputs.get("svg", f"{mode}_figure.svg"),
                                  "outputs.svg")
    seed = _integer(doc.get("seed", DEFAULT_SEED), "seed")
    if seed < 0:
        raise ConfigError(f"seed: must be nonnegative, got {seed}")

    election = lead = None
    if mode == "election":
        election = _parse_election(
            _fields(_require(doc, "election", ""), "election.", ELECTION_FIELDS))
    else:
        lead = _parse_lead(_fields(_require(doc, "lead", ""), "lead.", LEAD_FIELDS))
    return AnalysisConfig(mode=mode, dataset_path=dataset, grid=grid,
                          seed=seed, csv_path=csv_path, svg_path=svg_path,
                          election=election, lead=lead)


def load_config(path, seed: Optional[int] = None,
                grid_step: Optional[float] = None) -> AnalysisConfig:
    """Read and validate a JSON config file.

    seed and grid_step, when given, replace the file's `seed` and
    `grid.step` before validation, so they are checked like the file's own
    values.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except ValueError as err:  # JSONDecodeError, or an over-long integer
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if isinstance(doc, dict):  # parse_config reports any other document
        if seed is not None:
            doc["seed"] = seed
        if grid_step is not None and isinstance(doc.get("grid", {}), dict):
            doc["grid"] = dict(doc.get("grid", {}), step=grid_step)
    return parse_config(doc, base_dir=path.parent)


def _write_atomic(path: Path, content: str) -> None:
    """Write via temp file + rename so failures never leave partial output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def curve_to_csv(curve: CidCurve) -> str:
    """Serialize a curve as `t,estimate,lo,hi,decision,d_t,j_t,cid`.

    Fields that do not apply to the pipeline are left empty. One row
    template covers the columns present and is filled for all rows at once;
    no field needs quoting, since each is a number or a decision label
    without commas, quotes or newlines.
    """
    labels = np.array([d.value for d in curve.family], dtype=object)
    fields = (("%.6f", curve.t), ("%.6f", curve.estimate),
              ("%.6f", curve.lower), ("%.6f", curve.upper),
              ("%s", labels[curve.codes]), ("%d", curve.d_t),
              ("%.6f", curve.j_t), ("%.6f", curve.cid))
    row = ",".join(spec if values is not None else ""
                   for spec, values in fields) + "\n"
    columns = [values.tolist() for _, values in fields if values is not None]
    body = (row * len(curve.t)) % tuple(chain.from_iterable(zip(*columns)))
    return "t,estimate,lo,hi,decision,d_t,j_t,cid\n" + body


def _step_decimals(step: float) -> int:
    """Fewest decimals, at least 2, that write the grid step exactly."""
    decimals = 2
    while decimals < 12 and abs(round(step, decimals) - step) > 1e-9 * step:
        decimals += 1
    return decimals


def _verdict(curve: CidCurve) -> list:
    """The reference decision and the change-point brackets, as verdict parts."""
    if not curve.change_points:
        return [curve.reference_decision.value, "no change points"]
    d = _step_decimals(curve.step)
    brackets = ", ".join(f"[{lo:.{d}f}, {hi:.{d}f}]"
                         for lo, hi in curve.change_points)
    return [curve.reference_decision.value, f"change points ≈ {brackets}"]


def _election(config: AnalysisConfig) -> tuple:
    """The election study's (curve, svg, verdict parts)."""
    s = config.election
    fit = fit_simple_ols(_checked("dataset", lambda: ElectionDataset.from_csv(
        config.dataset_path)))
    curve = _checked("election.x0", lambda: sweep_election(
        fit, s.x0, config.grid, level=s.level, kind=s.interval_kind))
    parts = []
    if s.plausible_region is not None:
        summary = _checked("election.plausible_region",
                           lambda: annotate_plausible_region(
                               curve, s.plausible_region))
        parts.append(f"min CID in plausible region = {summary.min_cid:.3f}")
    svg = render_election_figure(curve, "CID under additive measurement error",
                                 s.plausible_region)
    return curve, svg, parts


def _lead(config: AnalysisConfig) -> tuple:
    """The lead study's (curve, svg, verdict parts)."""
    s = config.lead
    counts = _checked("dataset", lambda: read_level_counts(config.dataset_path))
    if sum(counts) > s.n_total:
        raise ConfigError(
            f"lead.n_total: {s.n_total} is below the {sum(counts)} units "
            f"observed in {config.dataset_path}"
        )
    pop = _checked("dataset", lambda: LeadPopulation(counts, n_total=s.n_total))
    if pop.n_missing > MAX_MISSING:
        raise ConfigError(
            f"lead.n_total: {s.n_total} leaves {pop.n_missing:,} units "
            f"missing beyond the {pop.n_observed:,} observed in "
            f"{config.dataset_path} (at most {MAX_MISSING:,})"
        )
    mech = s.mechanism
    if mech.name == "mar":  # no tilt at any level: fits every level count
        mech = mar_mechanism(len(counts))
    if len(mech.weights) != len(counts):
        raise ConfigError(
            f"lead.mechanism: {mech.name} has {len(mech.weights)} weights "
            f"for the {len(counts)} levels of {config.dataset_path}"
        )
    # max_cost checks that the threshold is below the worst case theta_wc
    _checked("lead.threshold",
             lambda: max_cost(0.0, s.costs, pop.worst_case_theta))
    grid = config.grid
    rows = ([_checked(f"lead.snapshot_ts[{i}]", lambda: grid.index_on_grid(t))
             for i, t in enumerate(s.snapshot_ts)]
            or [int(grid.n_points()) // 2])
    cfg = ImputationConfig(m=s.m, seed=config.seed)
    curve = sweep_lead(pop, mech, grid, cfg, s.costs, rows)
    parts = []
    if s.knob_distribution is not None:
        e_cid = _checked("lead.knob_distribution.support",
                         lambda: expected_cid(curve, s.knob_distribution))
        parts.append(f"expected CID = {e_cid:.3f}")
    svg = render_lead_figure(curve, f"CID under MNAR tilt ({mech.name})")
    return curve, svg, parts


def run(config: AnalysisConfig) -> int:
    """Execute the configured pipeline, write CSV + SVG outputs and print the
    verdict. CSV and SVG paths that name one file are a config error, raised
    before anything runs or is written."""
    if config.csv_path.resolve() == config.svg_path.resolve():
        raise ConfigError(f"outputs.svg: {config.svg_path} is also the "
                          f"outputs.csv path")
    study = _election if config.mode == "election" else _lead
    curve, svg, parts = study(config)
    _write_atomic(config.csv_path, curve_to_csv(curve))
    _write_atomic(config.svg_path, svg)
    print("; ".join(_verdict(curve) + parts))
    return 0


def _cmd_mechanisms(_args) -> int:
    for name in sorted(BUILTIN_MECHANISMS):
        mech = BUILTIN_MECHANISMS[name]()
        weights = ", ".join(f"{w:g}" for w in mech.weights)
        print(f"{name}: ({weights})")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config, seed=args.seed, grid_step=args.grid_step)
    if args.out_dir is not None:
        out = Path(args.out_dir)
        config = replace(config, csv_path=out / config.csv_path.name,
                         svg_path=out / config.svg_path.name)
    return run(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cid",
        description="Confidence-in-decision sensitivity analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an analysis config")
    p_run.add_argument("config", help="path to a JSON analysis config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--grid-step", type=float, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_mech = sub.add_parser("mechanisms",
                            help="list built-in MNAR mechanism weight vectors")
    p_mech.set_defaults(func=_cmd_mechanisms)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
