"""Golden CLI corpus: output bytes compared exactly.

Each case is one ``rigiditylab`` invocation; its expected stdout is
``tests/golden/<name>.<format>``.  The census files were produced by the
code as it stood before any refactor of the group layer, and the
root-data files by the exhaustive (Z/d)^rank scan before the alcove scan
replaced it, so they pin the bytes of every count, class numbering, j_d
value and witness.  ``rootdata_e8_4`` and ``rigid_e7_3_18`` came later,
from the alcove scan and the root-string closure as they stood before
root strings were carried on each root and the scan tables were built
once per root system.  The ``rigidity`` and ``coinv`` files were produced
from the tuples in ``tests/golden/tuples/`` by matrix arithmetic on
per-entry field-element objects and the linear cocycle norm sum, before
the packed-integer matrix core and the norm by doubling replaced them;
field elements have since become plain packed ints everywhere.  Those
tuples also round-trip through the wire format unchanged, which pins the
packed parsing and printing of coefficient lists (k = 2 in ``sl3_f9``).
``sl2_17_339_linear``, ``sl2_8_237_linear`` and ``psl3_4_255`` were
produced by the closure that multiplied stacked matrix levels, before the
closure moved to permutations of projective points, and ``psl2_41_237``
by the table that did its arithmetic along shortest words, before
projective tables computed on their point permutations.
``psl2_13_2233``, ``psl2_29_2233`` and ``sl2_19_237_linear`` were
produced by the epimorphism test that closed each tuple inside the table
past half the group, before it became a Schreier–Sims sift.
``rigid_e7_3_24`` and ``rigid_e8_3_6`` were produced by the alcove scan
that walked the alcove afresh for every order d, before one walk served
every order of a request.  Regenerate a file
only for a deliberate output change, naming its case (with no names, every
file is written)::

    PYTHONPATH=src python tests/test_golden.py NAME ...
"""

import io
import json
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from rigiditylab import cli, matgrp

GOLDEN = pathlib.Path(__file__).with_name("golden")

_CENSUS = ("census", "--type", "A")

CASES = {
    "psl2_7_237": (*_CENSUS, "--rank", "1", "--q", "7", "--signature", "2,3,7"),
    "psl2_8_237": (*_CENSUS, "--rank", "1", "--q", "8", "--signature", "2,3,7"),
    "psl2_13_237": (*_CENSUS, "--rank", "1", "--q", "13",
                    "--signature", "2,3,7"),
    "sl2_5_4610": (*_CENSUS, "--rank", "1", "--q", "5",
                   "--signature", "4,6,10", "--no-projective"),
    "psl2_11_235_csv": (*_CENSUS, "--rank", "1", "--q", "11",
                        "--signature", "2,3,5", "--format", "csv"),
    "psl2_9_245_noepi": (*_CENSUS, "--rank", "1", "--q", "9",
                         "--signature", "2,4,5", "--no-epi-test"),
    "psl2_5_2223": (*_CENSUS, "--rank", "1", "--q", "5",
                    "--signature", "2,2,2,3"),
    "psl3_2_237": (*_CENSUS, "--rank", "2", "--q", "2", "--signature", "2,3,7"),
    # SL2(17): a linear table with a centre, whose 288 nonzero vectors do
    # not fit a byte
    "sl2_17_339_linear": (*_CENSUS, "--rank", "1", "--q", "17",
                          "--signature", "3,3,9", "--no-projective"),
    # SL2(8) linear: gcd(2, 7) = 1, so the table takes over the projective
    # closure of the pair search
    "sl2_8_237_linear": (*_CENSUS, "--rank", "1", "--q", "8",
                         "--signature", "2,3,7", "--no-projective"),
    "psl3_4_255": (*_CENSUS, "--rank", "2", "--q", "4", "--signature", "2,5,5"),
    # PSL2(41): 34,440 elements, many epimorphism tests and centralizer
    # spreads
    "psl2_41_237": (*_CENSUS, "--rank", "1", "--q", "41",
                    "--signature", "2,3,7"),
    # m = 4: PSL2(29) makes 851 generation tests
    "psl2_13_2233": (*_CENSUS, "--rank", "1", "--q", "13",
                     "--signature", "2,2,3,3"),
    "psl2_29_2233": (*_CENSUS, "--rank", "1", "--q", "29",
                     "--signature", "2,2,3,3"),
    # a linear table with a centre on the Hurwitz signature
    "sl2_19_237_linear": (*_CENSUS, "--rank", "1", "--q", "19",
                          "--signature", "2,3,7", "--no-projective"),
}

ROOTDATA_CASES = {
    "rootdata_f4_12": ("rootdata", "--type", "F", "--rank", "4",
                       "--d-max", "12"),
    "rootdata_b3_8": ("rootdata", "--type", "B", "--rank", "3",
                      "--d-max", "8"),
    "rootdata_e6_5_csv": ("rootdata", "--type", "E", "--rank", "6",
                          "--d-max", "5", "--format", "csv"),
    "rigid_g2_3_8": ("rigid-tuples", "--type", "G", "--rank", "2",
                     "--n", "3", "--a-max", "8"),
    "rigid_f4_3_12_csv": ("rigid-tuples", "--type", "F", "--rank", "4",
                          "--n", "3", "--a-max", "12", "--format", "csv"),
    "rootdata_e8_4": ("rootdata", "--type", "E", "--rank", "8",
                      "--d-max", "4"),
    "rigid_e7_3_18": ("rigid-tuples", "--type", "E", "--rank", "7",
                      "--n", "3", "--a-max", "18"),
    # past the Coxeter number h = 18, where every j_d is the ceiling
    "rigid_e7_3_24": ("rigid-tuples", "--type", "E", "--rank", "7",
                      "--n", "3", "--a-max", "24"),
    # made with --work-cap 20000000: the per-order alcove walks were
    # charged 13,342,665, above the default cap
    "rigid_e8_3_6": ("rigid-tuples", "--type", "E", "--rank", "8",
                     "--n", "3", "--a-max", "6"),
}

# SL2/F7, SL3/F5, SL3/F9 and SL4/F3 tuples with product the identity, an
# SL3/F7 tuple whose product is 2 I (so the central lift appends a
# generator), and an SL2/F11 tuple declaring twice a projective order.
TUPLES = ("sl2_f7", "sl3_f5", "sl3_f9", "sl4_f3", "sl3_f7_scalar",
          "sl2_f11_declared")

TUPLE_CASES = {
    f"{command}_{name}": (command, "--in",
                          str(GOLDEN / "tuples" / f"{name}.json"))
    for command in ("rigidity", "coinv") for name in TUPLES
}

ALL_CASES = {**CASES, **ROOTDATA_CASES, **TUPLE_CASES}


def _path(name: str) -> pathlib.Path:
    argv = ALL_CASES[name]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return GOLDEN / f"{name}.{fmt}"


def _stdout(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_census_output_matches_golden(name):
    expected = _path(name).read_text(encoding="utf-8")
    assert _stdout(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(ROOTDATA_CASES))
def test_rootdata_output_matches_golden(name):
    expected = _path(name).read_text(encoding="utf-8")
    assert _stdout(ROOTDATA_CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(TUPLE_CASES))
def test_tuple_output_matches_golden(name):
    expected = _path(name).read_text(encoding="utf-8")
    assert _stdout(TUPLE_CASES[name]) == expected


@pytest.mark.parametrize("name", TUPLES)
def test_golden_tuple_round_trips_through_the_wire_format(name):
    path = GOLDEN / "tuples" / f"{name}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert matgrp.tuple_to_json(matgrp.load_tuple(str(path))) == doc


def test_every_golden_file_is_a_case_and_every_case_has_its_file():
    # tuples/ holds inputs, not outputs
    files = {path for path in GOLDEN.iterdir() if path.is_file()}
    assert files == {_path(name) for name in ALL_CASES}


def test_workers_flag_is_accepted_and_changes_no_byte():
    argv = (*CASES["psl2_13_237"], "--workers", "2")
    assert _stdout(argv) == _path("psl2_13_237").read_text(encoding="utf-8")


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(ALL_CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(sys.argv[1:] or ALL_CASES):
        _path(case).write_text(_stdout(ALL_CASES[case]), encoding="utf-8")
        print(f"wrote {_path(case)}", file=sys.stderr)
