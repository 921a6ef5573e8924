"""Command-line interface.

Subcommands map one-to-one onto the library layers:

* ``rootdata``      j_d table for one root system (CSV or JSON)
* ``rigid-tuples``  tuples meeting the dimension condition, plus plateau
* ``coinv``         coinvariant dimensions for a tuple document
* ``rigidity``      the full verdict report for a tuple document
* ``census``        homomorphism census over PSL_n(q) or SL_n(q)

Each subcommand's options are declared once, in ``_COMMANDS``.  ``main``
reads a well-formed command line straight from that table: the
subcommand, then exact option names, each destination once, every value
present, valid and not starting with "-".  Any other command line (help,
a usage error, an abbreviation, ``--opt=value``, a repeated option, a
negative number, ``--``) goes to the argparse parser that
:func:`build_parser` builds from the same table, so argparse is imported
only for help and for the message of a usage error.

Exit codes: 0 success, 2 invalid input or schema violation, 3 work cap
exceeded, 4 internal invariant failure (a bug, never a user error).  On
any failure a one-line JSON error record goes to stderr.  An exit-4
record of ``rigidity`` or ``coinv`` carries the input tuple as "repro",
a tuple document that ``rigidity --in`` reads back.

All output is deterministic: JSON keys are sorted, CSV rows follow
canonical orderings, and repeated invocations produce byte-identical
artifacts.  A JSON artifact is the bytes of ``json.dumps(doc,
sort_keys=True, indent=2)``, written by a direct writer (``_json_text``):
with an indent, ``json.dumps`` runs CPython's pure-Python encoder, which
took about a tenth of a PSL2(q) (2,3,7) census job for q <= 13, while the
writer joins each container's items once and escapes strings with the C
``encode_basestring_ascii``.  The one-line error records have no indent
and stay on ``json.dumps``.  The work cap defaults to 10 million
elementary evaluations and can be overridden by --work-cap or the
RIGIDITYLAB_WORK_CAP environment variable.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import NamedTuple

from . import census as census_mod
from . import rootdata as rootdata_mod
from .coinv import coinvariant_dim
from .errors import InputError, InvariantViolation, WorkCapExceeded
from .ff import _prime_factors, field_create
from .matgrp import (generating_pair, group_closure, load_tuple,
                     matrix_to_wire, psl_order, sl_order, tuple_to_json)
from .rigidity import rigidity_verdict

DEFAULT_WORK_CAP = 10_000_000
WORK_CAP_ENV = "RIGIDITYLAB_WORK_CAP"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_WORK_CAP = 3
EXIT_INVARIANT = 4


def _resolve_work_cap(flag_value: int | None) -> int:
    if flag_value is not None:
        cap = flag_value
    else:
        raw = os.environ.get(WORK_CAP_ENV)
        if raw is None:
            return DEFAULT_WORK_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise InputError(f"{WORK_CAP_ENV}={raw!r} is not an integer")
    if cap <= 0:
        raise InputError(f"work cap must be positive, got {cap}")
    return cap


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def _json_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, for
    documents of str-keyed dicts, lists, tuples, str, int, bool and None;
    any other value raises TypeError."""
    return _json_value(doc, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    # a container writes its plain ints (most of a census document)
    # without a call; encode_basestring_ascii raises TypeError for a key
    # that is not a str
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [int.__repr__(v) if type(v) is int else _json_value(v, inner)
                 for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: " + (
                     int.__repr__(v) if type(v) is int
                     else _json_value(v, inner))
                 for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv  # only a CSV job loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _error_record(code: int, kind: str, exc: Exception) -> None:
    error = {"exit_code": code, "kind": kind, "message": str(exc)}
    if getattr(exc, "repro", None) is not None:
        error["repro"] = exc.repro
    sys.stderr.write(json.dumps({"error": error}, sort_keys=True) + "\n")


@contextlib.contextmanager
def _repro(t):
    """Attach the tuple t in wire format to an invariant failure raised
    in the block."""
    try:
        yield
    except InvariantViolation as exc:
        exc.repro = tuple_to_json(t)
        raise


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _run_rootdata(args: SimpleNamespace, work_cap: int) -> str:
    if args.d_max < 1:
        raise InputError(f"--d-max must be >= 1, got {args.d_max}")
    rs = rootdata_mod.build(args.type, args.rank, work_cap)
    table = rootdata_mod.class_dim_table(rs, args.d_max, work_cap)
    if args.format == "csv":
        rows = [[rs.type_letter, rs.rank, d, e.j, " ".join(map(str, e.witness))]
                for d, e in table.entries]
        return _csv_text(["type", "rank", "d", "j_d", "witness"], rows)
    return _json_text({
        "schema": 1,
        "type": rs.type_letter,
        "rank": rs.rank,
        "dim_g": rs.dim_g,
        "cartan_det": rootdata_mod.cartan_det(rs),
        "entries": [{"d": d, "j": e.j, "witness": list(e.witness)}
                    for d, e in table.entries],
    })


def _run_rigid_tuples(args: SimpleNamespace, work_cap: int) -> str:
    rs = rootdata_mod.build(args.type, args.rank, work_cap)
    res = rootdata_mod.rigid_tuples(rs, args.n, args.a_max, work_cap)
    if args.format == "csv":
        rows = [[rs.type_letter, rs.rank, res.plateau, " ".join(map(str, t))]
                for t in res.tuples]
        return _csv_text(["type", "rank", "plateau", "tuple"], rows)
    return _json_text({
        "schema": 1,
        "type": rs.type_letter,
        "rank": rs.rank,
        "n": res.n,
        "a_max": res.a_max,
        "plateau": res.plateau,
        "tuples": [list(t) for t in res.tuples],
    })


def _run_coinv(args: SimpleNamespace, work_cap: int) -> str:
    if args.format == "csv":
        raise InputError("coinv emits JSON only; use --format json")
    t = load_tuple(args.infile, work_cap)
    with _repro(t):
        co = coinvariant_dim(t)
    return _json_text({
        "schema": 1,
        "span_dim": co.span_dim,
        "coinv_dim": co.coinv_dim,
        "basis_witness": [matrix_to_wire(m) for m in co.basis_witness],
    })


def _run_rigidity(args: SimpleNamespace, work_cap: int) -> str:
    if args.format == "csv":
        raise InputError("rigidity emits JSON only; use --format json")
    t = load_tuple(args.infile, work_cap)
    mode = "assert" if args.assert_irreducible else "verify"
    with _repro(t):
        report = rigidity_verdict(t, irreducibility=mode, work_cap=work_cap)
    return _json_text(report.to_json())


def _factor_prime_power(q: int) -> tuple[int, int]:
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise InputError(f"q = {q} is not a prime power")
    p, k = primes[0], 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def _run_census(args: SimpleNamespace, work_cap: int) -> str:
    if args.workers < 1:
        raise InputError(f"worker count must be >= 1, got {args.workers}")
    if args.type.upper() != "A":
        raise InputError("census has a matrix model for type A only")
    if args.rank < 1:
        raise InputError(f"--rank must be >= 1, got {args.rank}")
    n = args.rank + 1
    try:
        signature = tuple(int(s) for s in args.signature.split(","))
    except ValueError:
        raise InputError(f"--signature {args.signature!r} is not a comma list "
                         "of integers")
    too_big = WorkCapExceeded(
        f"{'PSL' if args.projective else 'SL'}_{n}({args.q}) has more "
        f"elements than the work cap {work_cap}")
    # |PSL_n(q)| > q and > q^(n(n-1)/2) >= 2^(n(n-1)/2): refuse an oversized
    # group before factoring q or forming its order
    if args.q > work_cap or n * (n - 1) // 2 >= work_cap.bit_length():
        raise too_big
    p, k = _factor_prime_power(args.q)
    field = field_create(p, k)
    target = (psl_order(args.q, n) if args.projective
              else sl_order(args.q, n))
    if target > work_cap:
        raise too_big
    table = group_closure(generating_pair(field, n), cap=target + 1,
                          projective=args.projective)
    if table.size != target:
        raise InvariantViolation(
            f"the closure has {table.size} elements, not the group order "
            f"{target}")
    result = census_mod.census(table, signature, epi_test=args.epi_test,
                               work_cap=work_cap)
    if args.format == "csv":
        rows = [[result.group_id,
                 " ".join(map(str, result.signature)),
                 " ".join(map(str, e.classes)),
                 e.hom_count, e.epi_count, int(e.witness_is_epi)]
                for e in result.entries]
        return _csv_text(
            ["group", "signature", "classes", "hom_count", "epi_count",
             "witness_is_epi"], rows)
    return _json_text(census_mod.census_to_json(result))


_RUNNERS = {
    "rootdata": _run_rootdata,
    "rigid-tuples": _run_rigid_tuples,
    "coinv": _run_coinv,
    "rigidity": _run_rigidity,
    "census": _run_census,
}


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

_STORE_TRUE = "store_true"  # --x sets dest to True
_SWITCH = "switch"          # --x sets dest to True, --no-x to False


class _Option(NamedTuple):
    """One option of a subcommand.  kind is int or str for an option that
    takes a value, the tuple of values it accepts, _STORE_TRUE or
    _SWITCH."""
    flag: str
    dest: str
    kind: object
    required: bool = False
    default: object = None
    help: str | None = None
    metavar: str | None = None


_COMMON = (
    _Option("--out", "out", str, metavar="PATH",
            help="write the artifact here instead of stdout"),
    _Option("--format", "format", ("json", "csv"), default="json"),
    _Option("--work-cap", "work_cap", int, metavar="N",
            help=f"refuse jobs beyond N elementary evaluations "
                 f"(default {DEFAULT_WORK_CAP}, env {WORK_CAP_ENV})"),
)

# subcommand -> (help, options); every subcommand also takes _COMMON last
_COMMANDS = {
    "rootdata": ("j_d table for a root system", (
        _Option("--type", "type", str, True, help="A, B, C, D, E, F or G"),
        _Option("--rank", "rank", int, True),
        _Option("--d-max", "d_max", int, True),
    )),
    "rigid-tuples": ("tuples whose j-values sum to 2 dim G", (
        _Option("--type", "type", str, True),
        _Option("--rank", "rank", int, True),
        _Option("--n", "n", int, True, help="tuple length"),
        _Option("--a-max", "a_max", int, True),
    )),
    "coinv": ("coinvariant dimensions for a tuple", (
        _Option("--in", "infile", str, True, metavar="PATH"),
    )),
    "rigidity": ("full rigidity report for a tuple", (
        _Option("--in", "infile", str, True, metavar="PATH"),
        _Option("--assert-irreducible", "assert_irreducible", _STORE_TRUE,
                default=False,
                help="record irreducibility as asserted instead of "
                     "running the span test"),
    )),
    "census": ("homomorphism census over (P)SL_n(q)", (
        _Option("--type", "type", str, True, help="only A is supported"),
        _Option("--rank", "rank", int, True,
                help="Lie rank; the matrix size is rank + 1"),
        _Option("--q", "q", int, True),
        _Option("--signature", "signature", str, True,
                help="comma list, e.g. 2,3,7"),
        _Option("--projective", "projective", _SWITCH, default=True,
                help="work in PSL (default) or SL with --no-projective"),
        _Option("--epi-test", "epi_test", _SWITCH, default=True,
                help="test each tuple for generation (default on)"),
        _Option("--workers", "workers", int, default=1,
                help="accepted for compatibility (must be >= 1); the "
                     "census runs in one process"),
    )),
}


def _option_names(options):
    """Each option string -> (dest, kind, the value a flag sets)."""
    names = {}
    for opt in options:
        names[opt.flag] = (opt.dest, opt.kind, True)
        if opt.kind is _SWITCH:
            names["--no-" + opt.flag[2:]] = (opt.dest, opt.kind, False)
    return names


# subcommand -> (option strings, defaults, required destinations)
_READER = {
    command: (_option_names(options + _COMMON),
              {opt.dest: opt.default for opt in options + _COMMON},
              {opt.dest for opt in options if opt.required})
    for command, (_, options) in _COMMANDS.items()
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of ``COMMAND (--OPTION VALUE | --FLAG)*`` with exact
    option names, each destination set once, every value present, not
    starting with "-" and valid, and every required option given; None
    for any other command line, which :func:`build_parser` then reads."""
    if not argv or argv[0] not in _READER:
        return None
    names, defaults, required = _READER[argv[0]]
    args = dict(defaults)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        entry = names.get(token)
        if entry is None or entry[0] in seen:
            return None
        dest, kind, value = entry
        seen.add(dest)
        if kind is not _STORE_TRUE and kind is not _SWITCH:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif kind is not str and value not in kind:
                return None
        args[dest] = value
    if not required <= seen:
        return None
    return SimpleNamespace(command=argv[0], **args)


@functools.cache
def build_parser():
    """The argparse parser of the same options, built once and used only
    for what :func:`_read_argv` declines: help, and the message of a
    usage error, which it raises as an :class:`InputError` so that it
    leaves through the one-line JSON record and exit code 2."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # subcommand parsers inherit the class
        def error(self, message: str):
            raise InputError(f"{self.prog}: {message}")

    parser = _Parser(
        prog="rigiditylab",
        description="Exact-arithmetic rigidity toolkit for generator tuples "
                    "in matrix groups over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for opt in options + _COMMON:
            if opt.kind is _STORE_TRUE or opt.kind is _SWITCH:
                p.add_argument(opt.flag, dest=opt.dest, default=opt.default,
                               help=opt.help, action=(
                                   opt.kind if opt.kind is _STORE_TRUE
                                   else argparse.BooleanOptionalAction))
            else:
                p.add_argument(
                    opt.flag, dest=opt.dest, required=opt.required,
                    default=opt.default, metavar=opt.metavar, help=opt.help,
                    type=int if opt.kind is int else None,
                    choices=opt.kind if isinstance(opt.kind, tuple) else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        text = _RUNNERS[args.command](args, _resolve_work_cap(args.work_cap))
        _emit(text, args.out)
        return EXIT_OK
    except InputError as exc:
        _error_record(EXIT_INPUT, "input", exc)
        return EXIT_INPUT
    except WorkCapExceeded as exc:
        _error_record(EXIT_WORK_CAP, "work-cap", exc)
        return EXIT_WORK_CAP
    except InvariantViolation as exc:
        _error_record(EXIT_INVARIANT, "invariant", exc)
        return EXIT_INVARIANT
    except (OSError, json.JSONDecodeError) as exc:
        _error_record(EXIT_INPUT, "input", exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
