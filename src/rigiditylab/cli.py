"""Command-line interface.

Subcommands map one-to-one onto the library layers:

* ``rootdata``      j_d table for one root system (CSV or JSON)
* ``rigid-tuples``  tuples meeting the dimension condition, plus plateau
* ``coinv``         coinvariant dimensions for a tuple document
* ``rigidity``      the full verdict report for a tuple document
* ``census``        homomorphism census over PSL_n(q) or SL_n(q)

Exit codes: 0 success, 2 invalid input or schema violation, 3 work cap
exceeded, 4 internal invariant failure (a bug, never a user error).  On
any failure a one-line JSON error record goes to stderr.

All output is deterministic: JSON keys are sorted, CSV rows follow
canonical orderings, and repeated invocations produce byte-identical
artifacts.  The work cap defaults to 10 million elementary evaluations
and can be overridden by --work-cap or the RIGIDITYLAB_WORK_CAP
environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import census as census_mod
from . import rootdata as rootdata_mod
from .coinv import coinvariant_dim
from .errors import InputError, InvariantViolation, WorkCapExceeded
from .ff import field_create
from .matgrp import (generating_pair, group_closure, load_tuple,
                     matrix_to_wire, psl_order, sl_order)
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
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
    record = {"error": {"exit_code": code, "kind": kind, "message": str(exc)}}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _run_rootdata(args: argparse.Namespace, work_cap: int) -> str:
    rs = rootdata_mod.build(args.type, args.rank)
    if args.d_max < 1:
        raise InputError(f"--d-max must be >= 1, got {args.d_max}")
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


def _run_rigid_tuples(args: argparse.Namespace, work_cap: int) -> str:
    rs = rootdata_mod.build(args.type, args.rank)
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


def _run_coinv(args: argparse.Namespace, work_cap: int) -> str:
    if args.format == "csv":
        raise InputError("coinv emits JSON only; use --format json")
    t = load_tuple(args.infile)
    co = coinvariant_dim(t)
    return _json_text({
        "schema": 1,
        "span_dim": co.span_dim,
        "coinv_dim": co.coinv_dim,
        "basis_witness": [matrix_to_wire(m) for m in co.basis_witness],
    })


def _run_rigidity(args: argparse.Namespace, work_cap: int) -> str:
    if args.format == "csv":
        raise InputError("rigidity emits JSON only; use --format json")
    t = load_tuple(args.infile)
    mode = "assert" if args.assert_irreducible else "verify"
    report = rigidity_verdict(t, irreducibility=mode)
    return _json_text(report.to_json())


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise InputError(f"q = {q} is not a prime power")
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise InputError(f"q = {q} is not a prime power")
    return p, k


def _run_census(args: argparse.Namespace, work_cap: int) -> str:
    if args.workers < 1:
        raise InputError(f"worker count must be >= 1, got {args.workers}")
    if args.type.upper() != "A":
        raise InputError("census has a matrix model for type A only")
    if args.rank < 1:
        raise InputError(f"--rank must be >= 1, got {args.rank}")
    n = args.rank + 1
    p, k = _factor_prime_power(args.q)
    try:
        signature = tuple(int(s) for s in args.signature.split(","))
    except ValueError:
        raise InputError(f"--signature {args.signature!r} is not a comma list "
                         "of integers")
    field = field_create(p, k)
    target = (psl_order(args.q, n) if args.projective
              else sl_order(args.q, n))
    if target > work_cap:
        raise WorkCapExceeded(
            f"group of order {target} exceeds the work cap {work_cap}"
        )
    linear = generating_pair(field, n)
    table = group_closure(linear.generators, cap=target + 1,
                          projective=args.projective, linear=linear)
    del linear  # with --projective the census keeps only the quotient
    result = census_mod.census(table, signature, epi_test=args.epi_test,
                               workers=args.workers,
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
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigiditylab",
        description="Exact-arithmetic rigidity toolkit for generator tuples "
                    "in matrix groups over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the artifact here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--work-cap", type=int, default=None, metavar="N",
                       help=f"refuse jobs beyond N elementary evaluations "
                            f"(default {DEFAULT_WORK_CAP}, env {WORK_CAP_ENV})")

    p_root = sub.add_parser("rootdata", help="j_d table for a root system")
    p_root.add_argument("--type", required=True, help="A, B, C, D, E, F or G")
    p_root.add_argument("--rank", required=True, type=int)
    p_root.add_argument("--d-max", required=True, type=int)
    common(p_root)

    p_rig = sub.add_parser("rigid-tuples",
                           help="tuples whose j-values sum to 2 dim G")
    p_rig.add_argument("--type", required=True)
    p_rig.add_argument("--rank", required=True, type=int)
    p_rig.add_argument("--n", required=True, type=int, help="tuple length")
    p_rig.add_argument("--a-max", required=True, type=int)
    common(p_rig)

    p_co = sub.add_parser("coinv", help="coinvariant dimensions for a tuple")
    p_co.add_argument("--in", dest="infile", required=True, metavar="PATH")
    common(p_co)

    p_ver = sub.add_parser("rigidity", help="full rigidity report for a tuple")
    p_ver.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p_ver.add_argument("--assert-irreducible", action="store_true",
                       help="record irreducibility as asserted instead of "
                            "running the span test")
    common(p_ver)

    p_cen = sub.add_parser("census",
                           help="homomorphism census over (P)SL_n(q)")
    p_cen.add_argument("--type", required=True, help="only A is supported")
    p_cen.add_argument("--rank", required=True, type=int,
                       help="Lie rank; the matrix size is rank + 1")
    p_cen.add_argument("--q", required=True, type=int)
    p_cen.add_argument("--signature", required=True,
                       help="comma list, e.g. 2,3,7")
    p_cen.add_argument("--projective", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="work in PSL (default) or SL with --no-projective")
    p_cen.add_argument("--epi-test", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="test each tuple for generation (default on)")
    p_cen.add_argument("--workers", type=int, default=1)
    common(p_cen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
