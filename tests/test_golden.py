"""Golden CLI corpus: output bytes compared exactly.

Each case is one ``rigiditylab`` invocation; its expected stdout is
``tests/golden/<name>.<format>``.  The census files were produced by the
code as it stood before any refactor of the group layer, and the
root-data files by the exhaustive (Z/d)^rank scan before the alcove scan
replaced it, so they pin the bytes of every count, class numbering, j_d
value and witness.  The ``rigidity`` and ``coinv`` files were produced
from the tuples in ``tests/golden/tuples/`` by the per-entry
``FieldElement`` matrix arithmetic and the linear cocycle norm sum, before
the packed-integer matrix core and the norm by doubling replaced them.
Regenerate them only for a deliberate output change::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

from rigiditylab import cli

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


def test_worker_pool_output_matches_golden():
    # the table crosses the process boundary by pickling
    argv = (*CASES["psl2_13_237"], "--workers", "2")
    assert _stdout(argv) == _path("psl2_13_237").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(ALL_CASES):
        _path(case).write_text(_stdout(ALL_CASES[case]), encoding="utf-8")
        print(f"wrote {_path(case)}", file=sys.stderr)
