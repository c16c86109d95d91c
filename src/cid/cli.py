"""Command-line entry point: parse a JSON analysis config, run the election
or lead pipeline, and write the curve CSV and figure SVG."""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from . import textcols
from .errors import InputError
from .imputation import (BUILTIN_MECHANISMS, ImputationConfig, LeadPopulation,
                         MnarMechanism, mar_mechanism, read_level_counts)
from .metrics import CostParams
from .regression import MEAN_RESPONSE, ElectionDataset, fit_simple_ols
from .sweep import (CidCurve, KnobDistribution, KnobGrid, PlausibleRegion,
                    expected_cid, grid_spacing, min_cid_in_region,
                    row_on_grid, sweep_election, sweep_lead)
from .svgfig import MAX_SNAPSHOTS, render_election_figure, render_lead_figure

DEFAULT_SEED = 20240101
DEFAULT_STEP = {"election": 0.02, "lead": 0.05}
DEFAULT_RANGE = {"election": (-4.0, 4.0), "lead": (-2.0, 4.0)}
# Largest knob grid a config may ask for: 60,000 points is a fine lead grid
# (step 1e-4), while a step of 1e-9 would need 8e9 points (60 GiB per column).
MAX_GRID_POINTS = 1_000_000
# Most imputation rounds: multiple-imputation practice uses tens, and each
# round draws a posterior and inverts a binomial at every grid point, so
# 10**9 rounds never finish.
MAX_M = 1_000
# Most rows of the CSV formatted and written at a time: enough to amortise
# the formatter's per-call cost; rows of up to 64 bytes fit in BLOCK_BYTES.
CSV_BLOCK_ROWS = 1024

# Known fields of each config object; the document's top level also holds
# the block named by its mode.
TOP_FIELDS = ("mode", "dataset", "grid", "outputs", "seed")
GRID_FIELDS = ("t_min", "t_max", "step", "t0")
OUTPUT_FIELDS = ("csv", "svg")
ELECTION_FIELDS = ("x0", "level", "interval_kind", "plausible_region")
LEAD_FIELDS = ("n_total", "mechanism", "m", "threshold", "a", "b",
               "snapshot_ts", "knob_distribution")
KNOB_DISTRIBUTION_FIELDS = ("support", "weights")
# Config path of each field a library InputError names.
FIELD_PATHS = {"a": "lead.a", "b": "lead.b", "n_total": "lead.n_total",
               "step": "grid.step", "threshold": "lead.threshold",
               "weights": "lead.mechanism", "level": "election.level",
               "interval_kind": "election.interval_kind"}


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


def _checked(path: Optional[str], build):
    """Call build(), reporting an InputError as a config error at its field's
    FIELD_PATHS entry, and any other ValueError as one at path. Without a
    path, such a ValueError is a bug, not a config error, and propagates."""
    try:
        return build()
    except ValueError as err:
        where = FIELD_PATHS[err.field] if isinstance(err, InputError) else path
        if where is None:
            raise
        raise ConfigError(f"{where}: {err}") from err


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
    return ElectionSettings(
        x0=_finite(_require(block, "x0", "election."), "election.x0"),
        level=_finite(block.get("level", 0.95), "election.level"),
        interval_kind=_string(block.get("interval_kind", MEAN_RESPONSE),
                              "election.interval_kind"),
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
                        lambda: KnobDistribution(support, weights))
    costs = {key: _finite(block.get(key, default), f"lead.{key}")
             for key, default in (("a", 1.0), ("b", 1.0), ("threshold", 0.20))}
    n_total = _integer(_require(block, "n_total", "lead."), "lead.n_total")
    m = _integer(block.get("m", 5), "lead.m")
    if not 1 <= m <= MAX_M:
        raise ConfigError(f"lead.m: must be in [1, {MAX_M:,}], got {m}")
    params = _checked(None, lambda: CostParams(**costs))
    snapshot_ts = _finite_list(block.get("snapshot_ts", []),
                               "lead.snapshot_ts")
    if len(snapshot_ts) > MAX_SNAPSHOTS:
        raise ConfigError(f"lead.snapshot_ts: {len(snapshot_ts)} snapshots "
                          f"do not fit the figure (at most {MAX_SNAPSHOTS})")
    return LeadSettings(
        n_total=n_total,
        mechanism=_parse_mechanism(_require(block, "mechanism", "lead."),
                                   "lead.mechanism"),
        m=m,
        costs=params,
        snapshot_ts=snapshot_ts,
        knob_distribution=dist,
    )


def parse_config(doc: dict, base_dir: Path = Path(".")) -> AnalysisConfig:
    """Validate a config document and fill defaults.

    Every field's type is checked here, and every range the library does
    not check itself; the library's checks (of lead.n_total against the
    dataset's counts, election.level and others) report their config paths
    through FIELD_PATHS when the config runs. Unknown fields at any level
    are rejected. Relative paths are resolved against base_dir (the config
    file's directory).
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
    grid = _checked("grid", lambda: KnobGrid(**grid_values))
    if grid.n_points() > MAX_GRID_POINTS:
        raise ConfigError(f"grid.step: {grid.step} implies "
                          f"{grid.n_points():.0f} grid points "
                          f"(at most {MAX_GRID_POINTS:,})")
    # the figures' knob axis runs one step past each end of the grid, and
    # its width, at most 4 times the largest of these, must be a float
    key = max(("t_min", "t_max", "step"), key=lambda k: abs(grid_values[k]))
    if abs(grid_values[key]) > sys.float_info.max / 4:
        raise ConfigError(f"grid.{key}: {grid_values[key]:g} is beyond +-"
                          f"{sys.float_info.max / 4:.4g}, too wide for a figure")

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


def _write_atomic(path: Path, blocks) -> None:
    """Write the byte blocks of an iterable via temp file + rename, so that
    failures, one raised while the blocks are produced included, never leave
    partial output.

    The temp file, a random dot-name beside path, is created with mode
    0o666, so the kernel applies the process umask as a plain open() would.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            for block in blocks:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_blocks(curve: CidCurve):
    """The CSV of a curve, `t,estimate,lo,hi,decision,d_t,j_t,cid`, as ASCII
    byte blocks: the header, then at most CSV_BLOCK_ROWS rows at a time.

    Fields that do not apply to the pipeline (None columns) are left empty.
    No field needs quoting, since each is a number or a decision label
    without commas, quotes or newlines.
    """
    yield b"t,estimate,lo,hi,decision,d_t,j_t,cid\n"
    yield from textcols.rows(len(curve.t), [
        curve.t, ",", curve.estimate, ",", curve.lower, ",", curve.upper, ",",
        ([d.value for d in curve.family], curve.codes), ",",
        (("0", "1"), curve.d_t), ",", curve.j_t, ",", curve.cid, "\n"],
        block_rows=CSV_BLOCK_ROWS)


def curve_to_csv(curve: CidCurve) -> bytes:
    """The CSV of a curve as one bytes object: the joined `_csv_blocks`."""
    return b"".join(_csv_blocks(curve))


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
    fit = _checked("dataset", lambda: fit_simple_ols(
        ElectionDataset.from_csv(config.dataset_path)))
    curve = _checked("election.x0", lambda: sweep_election(
        fit, s.x0, config.grid, level=s.level, kind=s.interval_kind))
    parts = []
    if s.plausible_region is not None:
        min_cid = _checked("election.plausible_region",
                           lambda: min_cid_in_region(curve, s.plausible_region))
        parts.append(f"min CID in plausible region = {min_cid:.3f}")
    svg = render_election_figure(curve, "CID under additive measurement error",
                                 s.plausible_region)
    return curve, svg, parts


def _lead(config: AnalysisConfig) -> tuple:
    """The lead study's (curve, svg, verdict parts)."""
    s = config.lead
    counts = _checked("dataset", lambda: read_level_counts(config.dataset_path))
    pop = _checked("dataset", lambda: LeadPopulation(counts, n_total=s.n_total))
    mech = s.mechanism
    if mech.name == "mar":  # no tilt at any level: fits every level count
        mech = mar_mechanism(len(counts))
    grid = config.grid
    ts = grid.values()
    # grid.index_on_grid(t) of each snapshot, with the grid built once
    spacing = grid_spacing(ts)
    rows = ([_checked(f"lead.snapshot_ts[{i}]",
                      lambda: row_on_grid(ts, t, spacing))
             for i, t in enumerate(s.snapshot_ts)]
            or [len(ts) // 2])
    cfg = ImputationConfig(m=s.m, seed=config.seed)
    # the library checks n_total, threshold and mechanism before it imputes
    curve = _checked(None, lambda: sweep_lead(pop, mech, grid, cfg, s.costs, rows))
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
    _write_atomic(config.csv_path, _csv_blocks(curve))
    _write_atomic(config.svg_path, [svg])
    print("; ".join(_verdict(curve) + parts))
    return 0


def _cmd_mechanisms() -> int:
    for name in sorted(BUILTIN_MECHANISMS):
        mech = BUILTIN_MECHANISMS[name]()
        weights = ", ".join(f"{w:g}" for w in mech.weights)
        print(f"{name}: ({weights})")
    return 0


def _cmd_run(config: str, seed: Optional[int] = None,
             out_dir: Optional[str] = None,
             grid_step: Optional[float] = None) -> int:
    config = load_config(config, seed=seed, grid_step=grid_step)
    if out_dir is not None:
        out = Path(out_dir)
        config = replace(config, csv_path=out / config.csv_path.name,
                         svg_path=out / config.svg_path.name)
    return run(config)


USAGE = ("usage: cid run CONFIG [--seed N] [--out-dir DIR] [--grid-step S]\n"
         "       cid mechanisms\n")
HELP = ("-h", "--help")
# Each command's options, with the conversion of each option's value.
COMMANDS = {"run": {"--seed": int, "--out-dir": str, "--grid-step": float},
            "mechanisms": {}}


class UsageError(Exception):
    """A command line the usage does not allow."""


def _option(arg: str, names: tuple):
    """How an argument other than `--` reads among the option names: None
    for a positional or an option's value, else (name, the value joined to
    it or None), where name is None for an unknown option.

    A long option may be a unique prefix of its name and joins its value
    with `=`; a short one joins it directly. An argument that names no
    option and looks like a negative number, or holds a space, is a
    positional.
    """
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in names:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in names:
        return head, value
    if arg[1] == "-":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise UsageError(f"ambiguous option: {arg} could match "
                             f"{', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif arg[:2] in names:
        return arg[:2], arg[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _asks_help(name: str, value: Optional[str]) -> bool:
    """Whether an option asks for help: a help option with no value, or -h
    joined to more h's (one -h each); any other value joined to a help
    option is a UsageError."""
    if name not in HELP:
        return False
    if value is None or (name == "-h" and value and not value.strip("h")):
        return True
    raise UsageError(f"argument -h/--help: ignored explicit argument "
                     f"{value!r}")


def read_argv(argv: list):
    """The command and its keyword arguments, read from the command line as
    the usage says, or None when it asks for help. Anything else is a
    UsageError.

    Options may come before or after CONFIG, a later value of an option
    replaces an earlier one, and the arguments after a lone `--` are
    positionals (a `--` right after CONFIG is dropped). Arguments are read
    in order: a help option wins over an unknown option or a surplus
    positional before it, but not over an option without a valid value.
    """
    extra = []
    for i, arg in enumerate(argv):  # the options before the command
        kind = None if arg == "--" else _option(arg, HELP)
        if kind is None:
            break
        if kind[0] is None:
            extra.append(arg)
        elif _asks_help(*kind):
            return None
    else:
        raise UsageError("the following arguments are required: command")
    command, args = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        raise UsageError(f"invalid command {command!r} (choose from "
                         f"{', '.join(map(repr, COMMANDS))})")
    options = COMMANDS[command]
    end = args.index("--") if "--" in args else len(args)
    kinds = [_option(arg, HELP + tuple(options)) for arg in args[:end]]
    values = {}
    i = 0
    while i < len(args):
        arg, kind = args[i], kinds[i] if i < end else None
        i += 1
        if kind is None:
            if command != "run" or "config" in values:
                extra.append(arg)
            elif i <= end:
                values["config"] = arg
                i += i == end  # a `--` right after CONFIG
            elif i < len(args):  # CONFIG after `--`
                values["config"] = args[i]
                i += 1
            else:
                extra.append(arg)
            continue
        name, value = kind
        if name is None:
            extra.append(arg)
        elif _asks_help(name, value):
            return None
        else:
            if value is None and i < end and kinds[i] is None:
                value = args[i]
                i += 1
            if value is None or value == "--":
                raise UsageError(f"argument {name}: expected one argument")
            convert = options[name]
            try:
                values[name[2:].replace("-", "_")] = convert(value)
            except ValueError:
                raise UsageError(f"argument {name}: invalid {convert.__name__}"
                                 f" value: {value!r}") from None
    if command == "run" and "config" not in values:
        raise UsageError("the following arguments are required: CONFIG")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return command, values


def main(argv=None) -> int:
    try:
        command = read_argv(sys.argv[1:] if argv is None else list(argv))
    except UsageError as err:
        sys.stderr.write(f"{USAGE}cid: error: {err}\n")
        return 2
    if command is None:
        sys.stdout.write(USAGE)
        return 0
    name, kwargs = command
    try:
        return (_cmd_run if name == "run" else _cmd_mechanisms)(**kwargs)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
