"""Command-line entry point.

One executable, `entorder`, exposes the library with machine-readable
output.  Spectra are given inline in the text form (`0.5,0.25,0.25`, tails
as `head...geom(first,ratio)`), as JSON objects, or via `@path` indirection
for long vectors.  Exit codes: 0 success, 2 invalid input, 3 size-cap
exceeded.  Diagnostics go to stderr only; identical invocations produce
byte-identical stdout.  `_cell` prints every value of a text or CSV form,
spectra included, and `_lines` joins `(label, value)` rows as text lines.

Defaults may be set in a key=value config file passed with --config or named
by the ENTORDER_CONFIG environment variable.  Recognized keys: tau_norm,
tau_zero, tau_cmp, size_cap, m_max, catalyst_dim, grid_steps, format.  A
flag overrides one key: --tol sets tau_cmp, --m-max m_max, --catalyst-dim
catalyst_dim, --grid grid_steps and --format format.  Flags are laid over
the file's values and checked with them, so a flag is rejected exactly
when the same value in the file would be.

`run` is also the in-process API.  It builds the argument grammar once per
process and reuses it on every call; `build_parser` still returns a fresh
parser, which callers may change freely.  An argv in canonical form, that is
an optional leading `--config PATH`, the command words, then exact
`--flag value` pairs whose values do not start with `-`, is parsed from a
table read back once per process from that grammar, into the namespace
argparse would return.  Every other argv is argparse's: help, `--flag=value`
and abbreviated spellings, values that start with `-`, and whatever argparse
refuses (unknown or missing flags, a flag with no value, a bad `type` or
`choices` value).  A malformed argv is reported like any invalid input: the
usage line and the message go to `err` and `run` returns 2, so only `--help`
leaves through `SystemExit`.  Each subcommand declares its spectrum flags
once, in `build_parser`; `run` parses them, warning on `err` about any that
ingestion adjusted, and passes the spectra to the subcommand's handler,
which never sees `err`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace

from . import catalysis, genericity, sampling
from .errors import (
    EntOrderError,
    InternalInconsistency,
    InvalidInput,
    SizeCapExceeded,
)
from .majorization import DIRECTIONS, _pair_code, compare
from .spectra import (
    SchmidtSpectrum,
    Tolerances,
    _integer,
    _is_json_number,
    format_spectrum,
    g17,
    parse_spectrum,
    schmidt_spectrum,
    spectrum_to_json,
)

CONFIG_ENV_VAR = "ENTORDER_CONFIG"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SIZE_CAP = 3

_TOLERANCE_KEYS = ("tau_norm", "tau_zero", "tau_cmp")
# Integer settings and the smallest value each accepts.
_COUNT_LEAST = {"size_cap": 1, "m_max": 1, "catalyst_dim": 2, "grid_steps": 2}


@dataclass(frozen=True)
class Config:
    tolerances: Tolerances = Tolerances()
    size_cap: int = catalysis.DEFAULT_SIZE_CAP
    m_max: int = 3
    catalyst_dim: int = 3
    grid_steps: int = 100
    output_format: str | None = None

    def __post_init__(self):
        for key, least in _COUNT_LEAST.items():
            _integer(key, getattr(self, key), least)
        if self.output_format not in (None, "json", "csv", "text"):
            raise InvalidInput(f"unknown format {self.output_format!r}")


_DEFAULT_CONFIG = Config()


def _settings(config: Config, values: dict) -> Config:
    """`config` with each setting that `values` holds and is not None replaced.
    The config file and the flags both pass the same checks here.  With no
    such setting `config` itself comes back, and its tolerances are copied
    only when a tolerance is set."""

    def given(keys):
        return {key: values[key] for key in keys if values.get(key) is not None}

    changes = given((*_COUNT_LEAST, "output_format"))
    tolerances = given(_TOLERANCE_KEYS)
    if tolerances:
        changes["tolerances"] = replace(config.tolerances, **tolerances)
    return replace(config, **changes) if changes else config


def load_config(path: str | None) -> Config:
    """Read a key=value config file; missing path means library defaults,
    the one default `Config` shared by every call."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return _DEFAULT_CONFIG
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InvalidInput(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _TOLERANCE_KEYS:
            parse = float
        elif key in _COUNT_LEAST:
            parse = int
        elif key == "format":
            key, parse = "output_format", str
        else:
            raise InvalidInput(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parse(value)
        except ValueError as exc:
            raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
    return _settings(_DEFAULT_CONFIG, values)


def _read_arg(value: str) -> str:
    """Resolve @path indirection for long inline arguments."""
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise InvalidInput(f"cannot read {value[1:]}: {exc}") from exc
    return value


def _spectra(args, config: Config, err):
    """Parse the subcommand's spectrum flags, then warn about each adjusted."""
    specs = [
        parse_spectrum(_read_arg(getattr(args, name)), tol=config.tolerances)
        for name in args.spectra
    ]
    for name, spec in zip(args.spectra, specs):
        if spec.adjusted:
            print(
                f"warning: spectrum {name!r} was reordered or renormalized "
                "on ingestion",
                file=err,
            )
    return specs


def _matrix_arg(value: str):
    """Parse a JSON matrix; entries are numbers or [re, im] pairs."""
    text = _read_arg(value)
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"bad matrix JSON: {exc}") from exc
    if not isinstance(rows, list) or not rows or not all(
        isinstance(row, list) for row in rows
    ):
        raise InvalidInput("matrix JSON must be a non-empty array of rows")

    def entry(x):
        parts = x if isinstance(x, list) and len(x) == 2 else [x]
        if not all(map(_is_json_number, parts)):
            raise InvalidInput(f"bad matrix entry {x!r}: use a number or [re, im]")
        try:
            return complex(*parts)
        except OverflowError as exc:  # an integer past the float range
            raise InvalidInput(f"bad matrix entry: {exc}") from None

    return [[entry(x) for x in row] for row in rows]


def _int_list(raw: str, what: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidInput(f"bad {what}: {exc}") from exc


def _cell(value) -> str:
    """A text or CSV cell: booleans as true/false, floats with 17 digits, a
    spectrum in its text form, None and an empty sequence as -, any other
    sequence comma-joined."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return g17(value)
    if isinstance(value, SchmidtSpectrum):
        return format_spectrum(value)
    if isinstance(value, (list, tuple)):
        return ",".join(map(_cell, value)) or "-"
    return "-" if value is None else str(value)


def _lines(*rows) -> str:
    """Text form of `(label, value)` rows, one `label: value` line each."""
    return "\n".join(f"{label}: {_cell(value)}" for label, value in rows)


def _csv(columns, rows) -> str:
    """CSV of `rows`, dicts as printed in JSON, under the JSON keys `columns`."""
    lines = [",".join(columns)]
    lines += [",".join(_cell(row[key]) for key in columns) for row in rows]
    return "\n".join(lines)


# --- subcommand handlers: (args, config, *spectra) -> (payload, text) ---


def _cmd_spectrum(args, config):
    spec = schmidt_spectrum(_matrix_arg(args.matrix), config.tolerances)
    return spectrum_to_json(spec), lambda: _cell(spec)


def _cmd_compare(args, config, a, b):
    verdict = compare(a, b, config.tolerances)
    return verdict.to_json(), lambda: _lines(
        ("relation", verdict.relation.value),
        ("forward violations", verdict.forward_violations),
        ("backward violations", verdict.backward_violations),
        ("near tie", verdict.near_tie),
    )


def _cmd_strong(args, config, a, b):
    verdict = catalysis.strong_verdict(
        a,
        b,
        m_max=config.m_max,
        catalyst_dim_max=config.catalyst_dim,
        grid_steps=config.grid_steps,
        tol=config.tolerances,
        size_cap=config.size_cap,
    )
    # Echo the inputs so any witness can be re-checked with `compare`.
    payload = verdict.to_json()
    payload["a"] = spectrum_to_json(a)
    payload["b"] = spectrum_to_json(b)

    def text():
        rows = [("outcome", verdict.outcome.value)]
        witness = verdict.witness
        if isinstance(witness, catalysis.MultiCopyWitness):
            how = f"at {witness.copies} copies"
            rows.append(("witness", f"{witness.direction.value} {how}"))
        elif isinstance(witness, catalysis.CatalystWitness):
            how = f"with catalyst {_cell(witness.catalyst)}"
            rows.append(("witness", f"{witness.direction.value} {how}"))
        bounds = "m_max={} catalyst_dim={} grid_steps={}"
        return _lines(*rows, ("checked bounds", bounds.format(*verdict.checked_bounds)))

    return payload, text


def _cmd_power(args, config, a):
    spec = catalysis.tensor_power_spectrum(a, args.m, size_cap=config.size_cap)
    return spectrum_to_json(spec), lambda: _cell(spec)


def _cmd_catalyze(args, config, a, b, c):
    prod_a = catalysis.tensor_product_spectrum(a, c, size_cap=config.size_cap)
    prod_b = catalysis.tensor_product_spectrum(b, c, size_cap=config.size_cap)
    direction = DIRECTIONS[_pair_code(prod_a, prod_b, config.tolerances)]
    payload = {
        "direction": None if direction is None else direction.value,
        "a_product": spectrum_to_json(prod_a),
        "b_product": spectrum_to_json(prod_b),
    }
    return payload, lambda: _lines(
        ("direction", payload["direction"]), ("a (x) c", prod_a), ("b (x) c", prod_b)
    )


def _cmd_complete(args, config, base):
    spec = genericity.complete_extension(base, args.m, tol=config.tolerances)
    return spectrum_to_json(spec), lambda: _cell(spec)


def _cmd_truncate(args, config, a, b):
    pair = genericity.truncation_pair(a, b, args.m, tol=config.tolerances)
    # one row per TruncationPair field, in the field order vars() keeps
    payload = dict(
        vars(pair), a_m=spectrum_to_json(pair.a_m), b_m=spectrum_to_json(pair.b_m)
    )
    return payload, lambda: _lines(*vars(pair).items())


def _cmd_audit(args, config, a, b):
    m_list = _int_list(args.m_list, "m-list")
    rows = genericity.convergence_report(a, b, m_list, tol=config.tolerances)
    # one column per ConvergenceRow field, in the field order vars() keeps
    columns = ("m", "dist_a", "dist_b", "condition_C", "incomparable")
    payload = [dict(zip(columns, vars(row).values())) for row in rows]
    return payload, lambda: _csv(columns, payload)


def _cmd_sweep(args, config):
    dims = _int_list(args.dims, "dims")
    records = sampling.sweep(dims, args.samples, args.seed, config.tolerances)
    payload = [record.to_json() for record in records]
    columns = ("n", "samples", "incomparable", "fraction", "ci95", "seed")
    return payload, lambda: _csv(columns, payload)


# --- parser ---------------------------------------------------------------


class _UsageError(Exception):
    """A malformed argv; the text is what argparse would print before exiting."""


class _Parser(argparse.ArgumentParser):
    """Raises `_UsageError` where argparse would print usage and exit 2.
    Subparsers are made with the same class."""

    def error(self, message):
        raise _UsageError(self.format_usage() + f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A fresh argument grammar.  Flags that override a config key store
    under that key's name (`output_format` for `format`)."""
    parser = _Parser(
        prog="entorder",
        description="Convertibility and incomparability of bipartite pure "
        "entangled states via majorization of Schmidt spectra.",
    )
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    spectrum_help = {"--c": "catalyst spectrum"}

    def command(parent, name, summary, handler, spectra, *options,
                formats=("json", "text"), default="text"):
        """Subparser: required spectrum flags, then `options`, then --format.
        `run` parses the spectra and passes them to `handler` in this order."""
        p = parent.add_parser(name, help=summary)
        for flag in spectra:
            p.add_argument(flag, required=True, help=spectrum_help.get(flag))
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", dest="output_format", choices=formats)
        p.set_defaults(handler=handler, default_format=default,
                       spectra=tuple(flag[2:] for flag in spectra))

    count = {"required": True, "type": int}
    command(sub, "spectrum", "Schmidt spectrum of a coefficient matrix",
            _cmd_spectrum, (),
            ("--matrix", {"required": True, "help": "JSON rows, or @file"}))
    command(sub, "compare", "four-way convertibility verdict",
            _cmd_compare, ("--a", "--b"),
            ("--tol", {"dest": "tau_cmp", "metavar": "TOL", "type": float,
                       "help": "override tau_cmp"}))
    command(sub, "strong", "strong-incomparability verdict",
            _cmd_strong, ("--a", "--b"),
            ("--m-max", {"type": int}),
            ("--catalyst-dim", {"type": int}),
            ("--grid", {"dest": "grid_steps", "metavar": "GRID", "type": int}))
    command(sub, "power", "spectrum of m collective copies",
            _cmd_power, ("--a",), ("--m", count))
    command(sub, "catalyze", "attach a catalyst and compare",
            _cmd_catalyze, ("--a", "--b", "--c"))
    construct = sub.add_parser("construct", help="density constructions")
    csub = construct.add_subparsers(dest="construction", required=True)
    command(csub, "complete", "all-positive extension of a spectrum",
            _cmd_complete, ("--base",), ("--m", count))
    command(csub, "truncate", "finite pair with a Schmidt-number gap",
            _cmd_truncate, ("--a", "--b"), ("--m", count))
    command(csub, "audit", "convergence table over truncation indices",
            _cmd_audit, ("--a", "--b"),
            ("--m-list", {"required": True}),
            formats=("json", "csv", "text"), default="csv")
    command(sub, "sweep", "incomparability fraction across dimensions",
            _cmd_sweep, (),
            ("--dims", {"required": True, "help": "comma-separated dimensions"}),
            ("--samples", count),
            ("--seed", count),
            ("--out", {"help": "write output to a file"}),
            formats=("json", "csv"), default="csv")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves no state on the parser (defaults go into a new
    # namespace, help formatters are made per call), so one serves every run.
    return build_parser()


@functools.cache
def _table():
    """The grammar of `_parser()`, read back once per process into nodes."""
    return _node(_parser())


def _node(parser):
    """`(flags, required, commands, defaults)` of one parser: its flags that
    store one value, by exact option string; the actions argparse requires
    (so a required positional keeps every argv on argparse's path); the
    subcommand dest and the child node of each command word, or None; and
    the namespace entries argparse starts from, where an action's default
    wins over a `set_defaults` entry of the same name.  These are argparse's
    private attributes; the parity property in the CLI tests catches drift."""
    actions = parser._actions
    sub = next((a for a in actions if isinstance(a, argparse._SubParsersAction)), None)
    flags = {
        flag: action
        for action in actions
        if isinstance(action, argparse._StoreAction) and action.nargs is None
        for flag in action.option_strings
    }
    required = {action for action in actions if action.required and action is not sub}
    commands = None if sub is None else (
        sub.dest, {word: _node(child) for word, child in sub.choices.items()}
    )
    defaults = {
        action.dest: action.default
        for action in actions
        if action.dest is not argparse.SUPPRESS
        and action.default is not argparse.SUPPRESS
    }
    return flags, required, commands, {**parser._defaults, **defaults}


def _table_values(argv, node, start=0):
    """The namespace entries argparse gives `argv[start:]` under `node`, when
    that part is canonical: `--flag value` pairs of the node's own flags, then
    for a node with subcommands a command word and its part.  None where
    argparse would decide otherwise or refuse, or where the form is not
    canonical; argparse then parses the whole argv."""
    flags, required, commands, defaults = node
    values, seen, i, end = dict(defaults), set(), start, len(argv)
    while i < end and (action := flags.get(argv[i])) is not None:
        if i + 1 == end or argv[i + 1].startswith("-"):
            return None
        try:
            value = argv[i + 1] if action.type is None else action.type(argv[i + 1])
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value  # a repeated flag keeps its last value
        seen.add(action)
        i += 2
    if not required <= seen:
        return None
    if commands is None:
        return values if i == end else None
    dest, children = commands
    child = children.get(argv[i]) if i < end else None
    rest = None if child is None else _table_values(argv, child, i + 1)
    if rest is None:
        return None
    values[dest] = argv[i]
    values.update(rest)  # argparse lays a subparser's namespace over its parent's
    return values


def _table_parse(argv):
    """`_parser().parse_args(argv)` for a canonical argv, from the table;
    None for any other argv."""
    values = _table_values(argv, _table())
    return None if values is None else argparse.Namespace(**values)


def run(argv=None, out=None, err=None) -> int:
    """Parse arguments and dispatch; returns the process exit code.

    The grammar is built on the first call and reused by later ones in the
    process; a canonical argv is parsed from its table, any other by
    argparse (see the module docstring).  A malformed argv writes the usage
    line and the message to `err` and returns 2; `--help` prints to stdout
    and raises SystemExit(0).
    A handler returns a JSON-able payload and a callable that builds the
    text (or CSV) form.  The format is the flag's, else the config's, else
    the subcommand's default; only that form is rendered, and written once.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table_parse(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except _UsageError as exc:
            err.write(str(exc))
            return EXIT_INVALID
    path = getattr(args, "out", None)  # only sweep has --out
    try:
        config = _settings(load_config(args.config), vars(args))
        payload, text = args.handler(args, config, *_spectra(args, config, err))
        fmt = config.output_format or args.default_format
        rendered = (json.dumps(payload, indent=2) if fmt == "json" else text()) + "\n"
        if path is None:
            out.write(rendered)
            return EXIT_OK
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise InvalidInput(f"cannot write {path}: {exc}") from exc
        print(f"wrote {path}", file=err)
        return EXIT_OK
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=err)
        return EXIT_SIZE_CAP
    except InternalInconsistency:
        raise  # a bug, not an input problem: crash loudly
    except EntOrderError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
