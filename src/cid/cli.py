"""Command-line entry point: parse a JSON analysis config, run the election
or lead pipeline, and write the curve CSV and figure SVG."""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

# cid does no BLAS work, but numpy's OpenBLAS starts a worker thread per
# core that busy-waits after the import. So the pool is one thread unless
# the user sized it; this runs before the first numpy import, as `import
# cid` loads no numpy.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
        "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import textcols  # noqa: E402 - after the BLAS setting
from .errors import InputError
from .imputation import (BUILTIN_MECHANISMS, ImputationConfig, LeadPopulation,
                         MnarMechanism, mar_mechanism, read_level_counts)
from .metrics import CostParams
from .regression import MEAN_RESPONSE, ElectionDataset, fit_simple_ols
from .sweep import (CidCurve, KnobDistribution, KnobGrid, PlausibleRegion,
                    expected_cid, grid_spacing, min_cid_in_region,
                    row_on_grid, sweep_election, sweep_lead)
from .svgfig import MAX_SNAPSHOTS, render_election_figure, render_lead_figure

# Largest knob grid a config may ask for: 60,000 points is a fine lead grid
# (step 1e-4), while a step of 1e-9 would need 8e9 points (60 GiB per column).
MAX_GRID_POINTS = 1_000_000
# Most imputation rounds: multiple-imputation practice uses tens, and each
# round draws a posterior and inverts a binomial at every grid point, so
# 10**9 rounds never finish.
MAX_M = 1_000
# The analysis modes; the document holds one block of fields named by its mode.
MODES = ("election", "lead")


class ConfigError(Exception):
    """Invalid or incomplete analysis configuration."""


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


def _pair(value, path: str) -> tuple:
    pair = _finite_list(value, path)
    if len(pair) != 2:
        raise ConfigError(f"{path}: must be a [lower, upper] pair, got "
                          f"{value!r}")
    return pair


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: must be a string, got {value!r}")
    return value


def _mode(value, path: str) -> str:
    if value not in MODES:
        raise ConfigError(f"{path}: must be 'election' or 'lead', got "
                          f"{value!r}")
    return value


def _integer(value, path: str) -> int:
    """A JSON integer as it stands, or an integral finite float as an int."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _finite(value, path)
    if number != int(number):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return int(number)


def _mechanism(value, path: str) -> MnarMechanism:
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


# The default of a field that has none: the field must be given.
REQUIRED = object()


class Field(NamedTuple):
    """How one config path is read: convert(value, path) checks and converts
    a JSON value; default is what an absent field reads as (REQUIRED: none;
    a dict: one per mode); library_field is the InputError field whose
    library check the path answers for."""

    convert: Callable
    default: object = None
    library_field: Optional[str] = None


# Every config path, in the order of each object's `known:` list. A dotted
# path is a field of the object its prefix names.
FIELDS = {
    "mode": Field(_mode, REQUIRED),
    "dataset": Field(_string, REQUIRED),
    "grid.t_min": Field(_finite, {"election": -4.0, "lead": -2.0}),
    "grid.t_max": Field(_finite, 4.0),
    "grid.step": Field(_finite, {"election": 0.02, "lead": 0.05}, "step"),
    "grid.t0": Field(_finite, 0.0),
    "outputs.csv": Field(_string, {mode: f"{mode}_curve.csv"
                                   for mode in MODES}),
    "outputs.svg": Field(_string, {mode: f"{mode}_figure.svg"
                                   for mode in MODES}),
    "seed": Field(_integer, 20240101),
    "election.x0": Field(_finite, REQUIRED),
    "election.level": Field(_finite, 0.95, "level"),
    "election.interval_kind": Field(_string, MEAN_RESPONSE, "interval_kind"),
    "election.plausible_region": Field(_pair),
    "lead.n_total": Field(_integer, REQUIRED, "n_total"),
    "lead.mechanism": Field(_mechanism, REQUIRED, "weights"),
    "lead.m": Field(_integer, 5),
    "lead.threshold": Field(_finite, 0.20, "threshold"),
    "lead.a": Field(_finite, 1.0, "a"),
    "lead.b": Field(_finite, 1.0, "b"),
    "lead.snapshot_ts": Field(_finite_list, ()),
    "lead.knob_distribution.support": Field(_finite_list, REQUIRED),
    "lead.knob_distribution.weights": Field(_finite_list, REQUIRED),
}
# Config path of each field a library InputError names.
FIELD_PATHS = {f.library_field: path for path, f in FIELDS.items()
               if f.library_field}


@functools.cache
def _members(prefix: str) -> tuple:
    """The names of the fields and objects of the config object at prefix,
    in table order."""
    return tuple(dict.fromkeys(path[len(prefix):].split(".")[0]
                               for path in FIELDS if path.startswith(prefix)))


def _read(value, prefix: str = "", mode: Optional[str] = None):
    """The config object at prefix ("" for the document, "grid." for its
    grid), read against FIELDS into a namespace of its fields' values.

    Each key must name a field or object under prefix. A present field is
    converted, an absent one takes its default; a per-mode default is that
    of mode, which the document's first field sets. A present object is
    read in turn; an absent one reads as {} when none of its fields is
    required, else as None. The block the mode names is required, and the
    other mode's block is an error.
    """
    names = _members(prefix)
    if not isinstance(value, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'}: must be an "
                          f"object, got {value!r}")
    for key in value:
        if key not in names:
            raise ConfigError(f"{prefix}{key}: unknown field "
                              f"(known: {', '.join(names)})")
    out = SimpleNamespace()
    for name in names:
        path = prefix + name
        field = FIELDS.get(path)
        if name in value:
            if name in MODES and name != mode:
                raise ConfigError(f"{name}: block is not used in {mode} mode")
            got = (_read(value[name], path + ".", mode) if field is None
                   else field.convert(value[name], path))
        elif name == mode or field is not None and field.default is REQUIRED:
            raise ConfigError(f"missing required field: {path}")
        elif field is not None:
            got = (field.default[mode] if isinstance(field.default, dict)
                   else field.default)
        elif any(FIELDS[p].default is REQUIRED for p in FIELDS
                 if p.startswith(path + ".")):
            got = None
        else:
            got = _read({}, path + ".", mode)
        setattr(out, name, got)
        if path == "mode":
            mode = got
    return out


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


def parse_config(doc: dict, config_file: Optional[Path] = None,
                 out_dir: Optional[str] = None) -> SimpleNamespace:
    """Validate a config document, fill defaults and build its objects.

    The result is _read's namespace, in which grid,
    election.plausible_region and lead.knob_distribution are the library
    objects, lead.costs is built from lead.a, lead.b and lead.threshold,
    and dataset, outputs.csv and outputs.svg are paths in config_file's
    directory (out_dir, when given, holds the outputs). Here the ranges
    the library does not check itself are checked, and the output paths
    against the file system and the inputs; the library's checks report
    their config paths through FIELD_PATHS when the config runs.
    """
    c = _read(doc)
    values = vars(c.grid)
    grid = c.grid = _checked("grid", lambda: KnobGrid(**values))
    if grid.n_points() > MAX_GRID_POINTS:
        raise ConfigError(f"grid.step: {grid.step} implies "
                          f"{grid.n_points():.0f} grid points "
                          f"(at most {MAX_GRID_POINTS:,})")
    # the figures' knob axis runs one step past each end of the grid, and
    # its width, at most 4 times the largest of these, must be a float
    key = max(("t_min", "t_max", "step"), key=lambda k: abs(values[k]))
    if abs(values[key]) > sys.float_info.max / 4:
        raise ConfigError(f"grid.{key}: {values[key]:g} is beyond +-"
                          f"{sys.float_info.max / 4:.4g}, too wide for a figure")
    if c.seed < 0:
        raise ConfigError(f"seed: must be nonnegative, got {c.seed}")

    if c.election is not None and c.election.plausible_region is not None:
        c.election.plausible_region = _checked(
            "election.plausible_region",
            lambda: PlausibleRegion(*c.election.plausible_region))
    s = c.lead
    if s is not None:
        if s.knob_distribution is not None:
            s.knob_distribution = _checked(
                "lead.knob_distribution.weights",
                lambda: KnobDistribution(**vars(s.knob_distribution)))
        if not 1 <= s.m <= MAX_M:
            raise ConfigError(f"lead.m: must be in [1, {MAX_M:,}], got {s.m}")
        s.costs = _checked(None, lambda: CostParams(a=s.a, b=s.b,
                                                    threshold=s.threshold))
        if len(s.snapshot_ts) > MAX_SNAPSHOTS:
            raise ConfigError(f"lead.snapshot_ts: {len(s.snapshot_ts)} "
                              f"snapshots do not fit the figure (at most "
                              f"{MAX_SNAPSHOTS})")
    base_dir = Path(".") if config_file is None else config_file.parent
    c.dataset = base_dir / c.dataset
    # the paths taken so far, each with what it is: no output may replace one
    taken = {c.dataset.resolve(): "dataset"}
    if config_file is not None:
        taken[config_file.resolve()] = "config file"
    for key, name in vars(c.outputs).items():
        # "" or "." names base_dir, which --out-dir would make a file name
        if not Path(name).name:
            raise ConfigError(f"outputs.{key}: must name a file, got {name!r}")
        path = (base_dir / name if out_dir is None
                else Path(out_dir) / Path(name).name)
        if path.is_dir():
            raise ConfigError(f"outputs.{key}: {path} is a directory")
        # the nearest existing ancestor is where the writer's mkdir starts
        ancestor = next(p for p in path.parents if os.path.lexists(p))
        if not ancestor.is_dir():
            raise ConfigError(f"outputs.{key}: {ancestor} is not a directory")
        try:
            resolved = path.resolve()
        except (OSError, RuntimeError) as err:  # a symlink loop
            raise ConfigError(f"outputs.{key}: {err}") from err
        what = taken.setdefault(resolved, f"outputs.{key}")
        if what != f"outputs.{key}":
            raise ConfigError(f"outputs.{key}: {path} is also the {what} path")
        setattr(c.outputs, key, path)
    return c


def load_config(config, seed: Optional[int] = None,
                out_dir: Optional[str] = None,
                grid_step: Optional[float] = None) -> SimpleNamespace:
    """Read and validate a JSON config file.

    seed, grid_step and out_dir, when given, replace the file's `seed`,
    `grid.step` and the directory of its outputs before validation, so they
    are checked like the file's own values.
    """
    path = Path(config)
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
    return parse_config(doc, path, out_dir)


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
    byte blocks: the header, then as many rows as fill textcols.BLOCK_BYTES
    at a time.

    Fields that do not apply to the pipeline (None columns) are left empty.
    No field needs quoting, since each is a number or a decision label
    without commas, quotes or newlines.
    """
    yield b"t,estimate,lo,hi,decision,d_t,j_t,cid\n"
    # each code's decision and d_t fields: d_t takes no column of T values
    ref = curve.codes[curve.i0:curve.i0 + 1]
    fields = [f"{d},{int(k in ref)}" for k, d in enumerate(curve.family)]
    yield from textcols.rows(len(curve.t), [
        curve.t, ",", curve.estimate, ",", curve.lower, ",", curve.upper, ",",
        (fields, curve.codes), ",", curve.j_t, ",", curve.cid, "\n"])


def _step_decimals(step: float) -> int:
    """Fewest decimals, at least 2, that write the grid step exactly. The
    loop ends: past about 323 decimals, round returns the float itself."""
    decimals = 2
    while abs(round(step, decimals) - step) > 1e-9 * step:
        decimals += 1
    return decimals


def _verdict(curve: CidCurve, step: float) -> list:
    """The reference decision and the change-point brackets, written to the
    decimals of the configured grid step, as verdict parts."""
    points = curve.change_points
    if not points:
        return [curve.reference_decision, "no change points"]
    d = _step_decimals(step)
    brackets = ", ".join(f"[{lo:.{d}f}, {hi:.{d}f}]" for lo, hi in points)
    return [curve.reference_decision, f"change points ≈ {brackets}"]


def _election(config: SimpleNamespace) -> tuple:
    """The election study's (curve, svg, verdict parts)."""
    s = config.election
    fit = _checked("dataset", lambda: fit_simple_ols(
        ElectionDataset.from_csv(config.dataset)))
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


def _lead(config: SimpleNamespace) -> tuple:
    """The lead study's (curve, svg, verdict parts)."""
    s = config.lead
    counts = _checked("dataset", lambda: read_level_counts(config.dataset))
    pop = _checked("dataset", lambda: LeadPopulation(counts, n_total=s.n_total))
    mech = s.mechanism
    if mech.name == "mar":  # no tilt at any level: fits every level count
        mech = mar_mechanism(len(counts))
    grid = config.grid
    ts = grid.values()
    # the grid row of each snapshot, with the grid and its spacing built once
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


def run(config: SimpleNamespace) -> int:
    """Execute the configured pipeline, write CSV + SVG outputs and print the
    verdict."""
    study = _election if config.mode == "election" else _lead
    curve, svg, parts = study(config)
    _write_atomic(config.outputs.csv, _csv_blocks(curve))
    _write_atomic(config.outputs.svg, [svg])
    print("; ".join(_verdict(curve, config.grid.step) + parts))
    return 0


def _cmd_mechanisms() -> int:
    for name in sorted(BUILTIN_MECHANISMS):
        mech = BUILTIN_MECHANISMS[name]()
        weights = ", ".join(f"{w:g}" for w in mech.weights)
        print(f"{name}: ({weights})")
    return 0


USAGE = ("usage: cid run CONFIG [--seed N] [--out-dir DIR] [--grid-step S]\n"
         "       cid mechanisms\n")
# The options of `cid run`, with the conversion of each one's value.
RUN_OPTIONS = {"--seed": int, "--out-dir": str, "--grid-step": float}


class UsageError(Exception):
    """A command line the usage does not allow."""


def _read_plain(argv: list) -> Optional[dict]:
    """The keyword arguments of a plain `cid run` line, or None for any
    other line.

    A plain line is `run`, one CONFIG that does not start with `-`, and
    whole option names, each with its value joined by `=` or as the next
    argument; no value starts with `-` or fails its conversion, and a later
    value of an option replaces an earlier one. argparse reads such a line
    the same way.
    """
    if argv[:1] != ["run"]:
        return None
    values = {}
    args = iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        if name not in RUN_OPTIONS:
            if arg.startswith("-") or "config" in values:
                return None
            values["config"] = arg
            continue
        if not eq:  # the next argument; none at the end is not plain
            value = next(args, "-")
        if value.startswith("-"):
            return None
        try:
            values[name[2:].replace("-", "_")] = RUN_OPTIONS[name](value)
        except ValueError:
            return None
    return values if "config" in values else None


def _read_with_argparse(argv: list):
    """read_argv's result for a line that is not plain, as argparse reads it
    against the usage."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            head = "argument command: invalid choice: "
            if message.startswith(head):
                message = "invalid command " + message[len(head):]
            raise UsageError(message)

        def print_help(self, file=None):
            """main prints the usage."""

    class Store(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:  # what `--seed=--` leaves after its `--` goes
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    parser = Parser(prog="cid")
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run")
    run_parser.add_argument("config", metavar="CONFIG")
    for name, convert in RUN_OPTIONS.items():
        run_parser.add_argument(name, type=convert, action=Store)
    commands.add_parser("mechanisms")
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit:  # help: error raises instead of exiting
        return None
    command = args.pop("command")
    return command, {key: value for key, value in args.items()
                     if value is not None}


def read_argv(argv: list):
    """The command and its keyword arguments, read from the command line as
    the usage says, or None when it asks for help. Anything else is a
    UsageError.

    A plain `cid run` line, the form every rerun takes, is read without
    importing argparse; argparse reads every other line.
    """
    values = _read_plain(argv)
    return ("run", values) if values is not None else _read_with_argparse(argv)


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
        return (run(load_config(**kwargs)) if name == "run"
                else _cmd_mechanisms())
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
