"""Command-line entry point: parse a JSON analysis config, run the election
or lead pipeline, and write the curve CSV and figure SVG."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .decisions import ThresholdRule
from .imputation import (BUILTIN_MECHANISMS, ImputationConfig, LeadPopulation,
                         MnarMechanism, N_LEVELS, impute_theta,
                         read_level_counts)
from .metrics import CostParams, worst_case_theta
from .regression import (MEAN_RESPONSE, NEW_OBSERVATION, ElectionDataset,
                         fit_simple_ols)
from .sweep import (CidCurve, KnobDistribution, KnobGrid, PlausibleRegion,
                    annotate_plausible_region, expected_cid, sweep_election,
                    sweep_lead)
from .svgfig import FigureSpec, render_election_figure, render_lead_figure

DEFAULT_SEED = 20240101
DEFAULT_STEP = {"election": 0.02, "lead": 0.05}
DEFAULT_RANGE = {"election": (-4.0, 4.0), "lead": (-2.0, 4.0)}


class ConfigError(Exception):
    """Invalid or incomplete analysis configuration."""


@dataclass(frozen=True)
class ElectionSettings:
    x0: float
    level: float = 0.95
    interval_kind: str = MEAN_RESPONSE
    plausible_region: Optional[PlausibleRegion] = None


@dataclass(frozen=True)
class LeadSettings:
    n_total: int
    mechanism: MnarMechanism
    m: int = 5
    threshold: float = 0.20
    a: float = 1.0
    b: float = 1.0
    snapshot_ts: tuple = ()
    knob_distribution: Optional[KnobDistribution] = None


@dataclass(frozen=True)
class AnalysisConfig:
    mode: str
    dataset_path: Path
    grid: KnobGrid
    seed: int
    csv_path: Path
    svg_path: Path
    election: Optional[ElectionSettings] = None
    lead: Optional[LeadSettings] = None


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"missing required field: {path}{key}")
    return doc[key]


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
        if len(value) != N_LEVELS:
            raise ConfigError(
                f"{path}: weight vector must have length {N_LEVELS}, "
                f"got {len(value)}"
            )
        return MnarMechanism(weights=tuple(float(w) for w in value))
    raise ConfigError(f"{path}: mechanism must be a name or a weight vector")


def parse_config(doc: dict, base_dir: Path = Path(".")) -> AnalysisConfig:
    """Validate a config document and fill defaults.

    Relative paths are resolved against base_dir (the config file's directory).
    """
    mode = _require(doc, "mode", "")
    if mode not in ("election", "lead"):
        raise ConfigError(f"mode: must be 'election' or 'lead', got {mode!r}")
    dataset = base_dir / _require(doc, "dataset", "")

    grid_doc = doc.get("grid", {})
    t_min, t_max = DEFAULT_RANGE[mode]
    grid = _checked("grid", lambda: KnobGrid(
        t_min=float(grid_doc.get("t_min", t_min)),
        t_max=float(grid_doc.get("t_max", t_max)),
        step=float(grid_doc.get("step", DEFAULT_STEP[mode])),
        t0=float(grid_doc.get("t0", 0.0)),
    ))

    outputs = doc.get("outputs", {})
    csv_path = base_dir / outputs.get("csv", f"{mode}_curve.csv")
    svg_path = base_dir / outputs.get("svg", f"{mode}_figure.svg")
    seed = int(doc.get("seed", DEFAULT_SEED))

    election = lead = None
    if mode == "election":
        block = _require(doc, "election", "")
        region = None
        if "plausible_region" in block:
            bounds = block["plausible_region"]
            if not (isinstance(bounds, list) and len(bounds) == 2):
                raise ConfigError("election.plausible_region: must be a "
                                  f"[lower, upper] pair, got {bounds!r}")
            region = _checked("election.plausible_region",
                              lambda: PlausibleRegion(float(bounds[0]),
                                                      float(bounds[1])))
        kind = block.get("interval_kind", MEAN_RESPONSE)
        if kind not in (MEAN_RESPONSE, NEW_OBSERVATION):
            raise ConfigError(f"election.interval_kind: unknown kind {kind!r}")
        election = ElectionSettings(
            x0=float(_require(block, "x0", "election.")),
            level=float(block.get("level", 0.95)),
            interval_kind=kind,
            plausible_region=region,
        )
    else:
        block = _require(doc, "lead", "")
        dist = None
        if "knob_distribution" in block:
            d = block["knob_distribution"]
            dist = KnobDistribution.from_weights(
                _require(d, "support", "lead.knob_distribution."),
                _require(d, "weights", "lead.knob_distribution."),
            )
        lead = LeadSettings(
            n_total=int(_require(block, "n_total", "lead.")),
            mechanism=_parse_mechanism(
                _require(block, "mechanism", "lead."), "lead.mechanism"),
            m=_checked("lead.m", lambda: ImputationConfig(
                m=int(block.get("m", 5))).m),
            threshold=_checked("lead.threshold", lambda: ThresholdRule(
                float(block.get("threshold", 0.20))).threshold),
            a=float(block.get("a", 1.0)),
            b=float(block.get("b", 1.0)),
            snapshot_ts=tuple(float(t) for t in block.get("snapshot_ts", ())),
            knob_distribution=dist,
        )
    return AnalysisConfig(mode=mode, dataset_path=dataset, grid=grid,
                          seed=seed, csv_path=csv_path, svg_path=svg_path,
                          election=election, lead=lead)


def load_config(path) -> AnalysisConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
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

    Fields that do not apply to the pipeline are left empty.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "estimate", "lo", "hi", "decision", "d_t", "j_t", "cid"])
    for p in curve.points:
        lo = f"{p.interval.lower:.6f}" if p.interval is not None else ""
        hi = f"{p.interval.upper:.6f}" if p.interval is not None else ""
        j = f"{p.j_t:.6f}" if p.j_t is not None else ""
        writer.writerow([f"{p.t:.6f}", f"{p.estimate:.6f}", lo, hi,
                         p.decision.value, p.d_t, j, f"{p.cid:.6f}"])
    return buf.getvalue()


def _step_decimals(step: float) -> int:
    """Fewest decimals, at least 2, that write the grid step exactly."""
    decimals = 2
    while decimals < 12 and abs(round(step, decimals) - step) > 1e-9 * step:
        decimals += 1
    return decimals


def _verdict(curve: CidCurve, region_summary=None, e_cid=None) -> str:
    parts = [curve.reference_decision.value]
    if curve.change_points:
        d = _step_decimals(curve.step)
        brackets = ", ".join(f"[{lo:.{d}f}, {hi:.{d}f}]"
                             for lo, hi in curve.change_points)
        parts.append(f"change points ≈ {brackets}")
    else:
        parts.append("no change points")
    if region_summary is not None and not region_summary.empty:
        parts.append(f"min CID in plausible region = {region_summary.min_cid:.3f}")
    if e_cid is not None:
        parts.append(f"expected CID = {e_cid:.3f}")
    return "; ".join(parts)


def run(config: AnalysisConfig) -> int:
    """Execute the configured pipeline and write CSV + SVG outputs."""
    if config.mode == "election":
        data = ElectionDataset.from_csv(config.dataset_path)
        fit = fit_simple_ols(data)
        s = config.election
        curve = sweep_election(fit, s.x0, config.grid,
                               level=s.level, kind=s.interval_kind)
        region_lines = None
        summary = None
        if s.plausible_region is not None:
            summary = annotate_plausible_region(curve, s.plausible_region)
            region_lines = (s.plausible_region.lower, s.plausible_region.upper)
        spec = FigureSpec(reference_line=config.grid.t0,
                          region_lines=region_lines,
                          title="CID under additive measurement error")
        svg = render_election_figure(curve, spec)
        e_cid = None
    else:
        s = config.lead
        counts = read_level_counts(config.dataset_path)
        if sum(counts) > s.n_total:
            raise ConfigError(
                f"lead.n_total: {s.n_total} is below the {sum(counts)} units "
                f"observed in {config.dataset_path}"
            )
        pop = LeadPopulation(counts, n_total=s.n_total)
        cfg = ImputationConfig(m=s.m, seed=config.seed)
        rule = ThresholdRule(threshold=s.threshold)
        theta_wc = worst_case_theta(pop.observed_high_count, pop.n_observed,
                                    pop.n_total)
        costs = CostParams(a=s.a, b=s.b, theta_wc=theta_wc,
                           threshold=s.threshold)
        curve = sweep_lead(pop, s.mechanism, config.grid, cfg, rule, costs)
        snapshots = []
        for t in s.snapshot_ts:
            snap_t = float(curve.point_nearest(t).t)
            _, freqs = impute_theta(pop, s.mechanism, snap_t, cfg)
            snapshots.append((snap_t, freqs))
        if not snapshots:
            mid = curve.points[len(curve.points) // 2].t
            _, freqs = impute_theta(pop, s.mechanism, mid, cfg)
            snapshots = [(mid, freqs)]
        spec = FigureSpec(reference_line=config.grid.t0,
                          title=f"CID under MNAR tilt ({s.mechanism.name})")
        svg = render_lead_figure(curve, snapshots, spec)
        summary = None
        e_cid = (expected_cid(curve, s.knob_distribution)
                 if s.knob_distribution is not None else None)

    _write_atomic(config.csv_path, curve_to_csv(curve))
    _write_atomic(config.svg_path, svg)
    print(_verdict(curve, summary, e_cid))
    return 0


def _cmd_mechanisms(_args) -> int:
    for name in sorted(BUILTIN_MECHANISMS):
        mech = BUILTIN_MECHANISMS[name]()
        weights = ", ".join(f"{w:g}" for w in mech.weights)
        print(f"{name}: ({weights})")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.grid_step is not None:
        g = config.grid
        overrides["grid"] = KnobGrid(g.t_min, g.t_max, args.grid_step, g.t0)
    if args.out_dir is not None:
        out = Path(args.out_dir)
        overrides["csv_path"] = out / config.csv_path.name
        overrides["svg_path"] = out / config.svg_path.name
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
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
