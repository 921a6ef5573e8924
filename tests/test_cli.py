"""Command line interface: artifacts, determinism, exit codes."""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import oracles
from rigiditylab import cli, ff, matgrp, rootdata
from rigiditylab.errors import InvariantViolation, WorkCapExceeded

GOLDEN_TUPLES = pathlib.Path(__file__).with_name("golden") / "tuples"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_tuple(tmp_path, t, name="tuple.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matgrp.tuple_to_json(t)), encoding="utf-8")
    return str(path)


def psl27_triple():
    F = ff.field_create(7)
    a, b = matgrp.generating_pair(F, 2)
    table = matgrp.group_closure([a, b], cap=10 ** 6, projective=True)
    for i in range(table.size):
        if table.order_of(i) != 2:
            continue
        for j in range(table.size):
            if table.order_of(j) != 3:
                continue
            k = table.inv(table.mul(i, j))
            if table.order_of(k) == 7:
                gens = [table.mats[i], table.mats[j], table.mats[k]]
                if (gens[0] @ gens[1] @ gens[2]).is_identity():
                    return oracles.tuple_from_matrices(gens)
    raise AssertionError("no triple found")


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_rootdata_json(capsys):
    code, out, err = run(capsys, "rootdata", "--type", "A", "--rank", "2",
                         "--d-max", "4")
    assert code == 0 and err == ""
    doc = json.loads(out)
    got = {e["d"]: e["j"] for e in doc["entries"]}
    assert got == {1: 0, 2: 4, 3: 6, 4: 6}


def test_rootdata_csv(capsys):
    code, out, err = run(capsys, "rootdata", "--type", "A", "--rank", "1",
                         "--d-max", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type,rank,d,j_d,witness"
    assert lines[1].startswith("A,1,1,0,")
    assert lines[2].startswith("A,1,2,2,")
    assert len(lines) == 4


def test_rigid_tuples_artifact(capsys):
    code, out, _ = run(capsys, "rigid-tuples", "--type", "A", "--rank", "1",
                       "--n", "3", "--a-max", "7")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["tuples"]) == 56
    assert doc["plateau"] == 2
    assert doc["tuples"][0] == [2, 2, 2]


def test_coinv_artifact(capsys, tmp_path):
    t = psl27_triple()
    path = write_tuple(tmp_path, t)
    code, out, _ = run(capsys, "coinv", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["span_dim"] == 3 and doc["coinv_dim"] == 0


def test_rigidity_artifact(capsys, tmp_path):
    t = psl27_triple()
    path = write_tuple(tmp_path, t)
    code, out, _ = run(capsys, "rigidity", "--in", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "RIGID"
    assert doc["class_dims"] == [2, 2, 2]
    assert doc["h1_dim"] == 0


def test_census_artifact_and_rigidity_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "census", "--type", "A", "--rank", "1",
                       "--q", "7", "--signature", "2,3,7", "--workers", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_epi"] == 336
    entry = next(e for e in doc["entries"] if e["witness_is_epi"])
    t = matgrp.tuple_from_json({
        "schema": 1, "p": doc["p"], "k": doc["k"], "n": doc["n"],
        "generators": entry["witness"],
        "orders": list(doc["signature"]),
    })
    path = write_tuple(tmp_path, t)
    code, out, _ = run(capsys, "rigidity", "--in", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "RIGID"


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", "--type", "A", "--rank", "1",
                       "--q", "5", "--signature", "2,3,5")
    assert code == 0
    code, csv_out, _ = run(capsys, "census", "--type", "A", "--rank", "1",
                           "--q", "5", "--signature", "2,3,5",
                           "--format", "csv")
    assert code == 0
    lines = csv_out.splitlines()
    assert lines[0] == "group,signature,classes,hom_count,epi_count,witness_is_epi"
    assert len(lines) == 1 + len(json.loads(out)["entries"])


# ---------------------------------------------------------------------------
# determinism and file output
# ---------------------------------------------------------------------------

def test_output_is_idempotent(capsys):
    args = ("census", "--type", "A", "--rank", "1", "--q", "11",
            "--signature", "2,3,7")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    _, parallel, _ = run(capsys, *args, "--workers", "3")
    assert first == second == parallel
    assert first.endswith("\n")


def test_out_flag_writes_the_same_bytes(capsys, tmp_path):
    args = ("rootdata", "--type", "G", "--rank", "2", "--d-max", "6")
    _, stdout_text, _ = run(capsys, *args)
    target = tmp_path / "artifact.json"
    code, out, _ = run(capsys, *args, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


# ---------------------------------------------------------------------------
# exit codes and error records
# ---------------------------------------------------------------------------

def test_bad_input_exits_2_with_error_record(capsys):
    code, out, err = run(capsys, "rootdata", "--type", "X", "--rank", "2",
                         "--d-max", "4")
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"]["kind"] == "input"
    assert record["error"]["exit_code"] == 2


def test_unreadable_tuple_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "rigidity", "--in", str(path))
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "input"
    code, _, _ = run(capsys, "rigidity", "--in", str(tmp_path / "absent.json"))
    assert code == 2


def test_declared_order_not_a_multiple_exits_2(capsys, tmp_path):
    doc = json.loads((GOLDEN_TUPLES / "sl2_f11_declared.json").read_text(
        encoding="utf-8"))
    doc["orders"][0] = 4  # the first generator has projective order 3
    path = tmp_path / "bad_order.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "rigidity", "--in", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "input"
    assert error["message"] == ("generator 0: its projective order does "
                                "not divide the declared order 4")


@pytest.mark.parametrize("path, message", [
    (("p",), "fields p, k, n must be integers"),
    (("k",), "fields p, k, n must be integers"),
    (("n",), "fields p, k, n must be integers"),
    (("orders", 2), "declared order True must be a positive integer"),
    (("generators", 0, 0, 0),
     "matrix entry [True] is not a coefficient sequence"),
    (("generators", 0, 0, 0, 0),
     "matrix entry [True] is not a coefficient sequence"),
], ids=["p", "k", "n", "order", "bare-coefficient", "coefficient"])
def test_json_boolean_is_not_an_integer(capsys, tmp_path, path, message):
    # JSON true is a Python bool, an int subclass, and must not be read as 1
    doc = json.loads((GOLDEN_TUPLES / "sl2_f7.json").read_text(
        encoding="utf-8"))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = True
    bad = tmp_path / f"bool_{path[0]}.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "rigidity", "--in", str(bad))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "input"
    assert error["message"] == message


@pytest.mark.parametrize("schema", [True, 1.0], ids=["true", "float"])
def test_schema_must_be_an_integer(capsys, tmp_path, schema):
    # both compare equal to 1 in Python, yet neither is the integer 1
    doc = json.loads((GOLDEN_TUPLES / "sl2_f7.json").read_text(
        encoding="utf-8"))
    doc["schema"] = schema
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "rigidity", "--in", str(bad))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "input"
    assert error["message"] == f"unsupported schema version {schema!r}"


@pytest.mark.parametrize("argv, message", [
    (("census", "--type", "A"), "rigiditylab census: the following "
     "arguments are required: --rank, --q, --signature"),
    (("frobnicate",), "rigiditylab: argument command: invalid choice: "
     "'frobnicate' (choose from 'rootdata', 'rigid-tuples', 'coinv', "
     "'rigidity', 'census')"),
    (("rootdata", "--type", "A", "--rank", "two", "--d-max", "3"),
     "rigiditylab rootdata: argument --rank: invalid int value: 'two'"),
    (("rootdata", "--type", "A", "--rank", "1", "--d-max", "3", "--extra"),
     "rigiditylab: unrecognized arguments: --extra"),
    ((), "rigiditylab: the following arguments are required: command"),
], ids=["missing", "subcommand", "type", "unrecognized", "empty"])
def test_usage_error_is_one_json_record(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error == {"exit_code": 2, "kind": "input", "message": message}


def test_one_parser_serves_calls_after_a_usage_error(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _, err = run(capsys, "census", "--type", "A")
    assert code == 2 and json.loads(err)["error"]["kind"] == "input"
    code, out, err = run(capsys, "rootdata", "--type", "A", "--rank", "1",
                         "--d-max", "3")
    assert code == 0 and err == "" and json.loads(out)["type"] == "A"


def test_cli_import_loads_no_process_pool():
    # only a census with --workers > 1 makes a pool, so only it pays for
    # importing one
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys, rigiditylab.cli; print(sorted(m for m in "
             "sys.modules if m.split('.')[0] in "
             "('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: rigiditylab census") and err == ""


def test_csv_not_available_for_rigidity(capsys, tmp_path):
    t = psl27_triple()
    path = write_tuple(tmp_path, t)
    code, _, err = run(capsys, "rigidity", "--in", path, "--format", "csv")
    assert code == 2
    assert "json" in json.loads(err)["error"]["message"]


def test_work_cap_exits_3(capsys):
    code, _, err = run(capsys, "rootdata", "--type", "E", "--rank", "8",
                       "--d-max", "30")
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "work-cap"


@pytest.mark.parametrize("rank,plateau", [(6, 12), (7, 18)])
def test_rigid_tuples_reach_e6_e7_under_default_cap(capsys, rank, plateau):
    code, out, err = run(capsys, "rigid-tuples", "--type", "E", "--rank",
                         str(rank), "--n", "3", "--a-max", "6")
    assert code == 0 and err == ""
    # the plateau is the Coxeter number
    assert json.loads(out)["plateau"] == plateau


def test_rigid_tuples_e8_exits_3_before_scanning(capsys, monkeypatch):
    def no_scan(rs, d):
        raise AssertionError("scanned before the work-cap check")
    monkeypatch.setattr(rootdata, "_alcove_j", no_scan)
    code, _, err = run(capsys, "rigid-tuples", "--type", "E", "--rank", "8",
                       "--n", "3", "--a-max", "6")
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "work-cap"


def test_work_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv(cli.WORK_CAP_ENV, "1000")
    code, _, err = run(capsys, "census", "--type", "A", "--rank", "1",
                       "--q", "13", "--signature", "2,3,7")
    assert code == 3
    assert json.loads(err)["error"]["kind"] == "work-cap"
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "census", "--type", "A", "--rank", "1",
                       "--q", "13", "--signature", "2,3,7",
                       "--work-cap", "10000000")
    assert code == 0
    assert json.loads(out)["total_epi"] == 6552


def test_bad_work_cap_env_var_rejected(capsys, monkeypatch):
    monkeypatch.setenv(cli.WORK_CAP_ENV, "not-a-number")
    code, _, err = run(capsys, "rootdata", "--type", "A", "--rank", "1",
                       "--d-max", "3")
    assert code == 2


@pytest.mark.parametrize("flag", ["--workers", "--work-cap"])
def test_zero_workers_or_work_cap_rejected(capsys, flag):
    code, out, err = run(capsys, "census", "--type", "A", "--rank", "1",
                         "--q", "5", "--signature", "2,3,5", flag, "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "input"


def test_invariant_violation_exits_4(capsys, monkeypatch):
    def explode(args, work_cap):
        raise InvariantViolation("forced for the exit-code contract")
    monkeypatch.setitem(cli._RUNNERS, "rootdata", explode)
    code, _, err = run(capsys, "rootdata", "--type", "A", "--rank", "1",
                       "--d-max", "3")
    assert code == 4
    assert json.loads(err)["error"]["kind"] == "invariant"


def test_census_rejects_non_type_a(capsys):
    code, _, err = run(capsys, "census", "--type", "B", "--rank", "2",
                       "--q", "5", "--signature", "2,3,5")
    assert code == 2
    code, _, _ = run(capsys, "census", "--type", "A", "--rank", "1",
                     "--q", "6", "--signature", "2,3,5")
    assert code == 2


def test_census_q_factoring_stops_at_the_square_root(capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = run(capsys, "census", "--type", "A", "--rank", "1",
                         "--q", "1000000007", "--signature", "2,3,7")
    assert time.perf_counter() - start < 5
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "work-cap"
    for q in ("1", "12"):
        code, _, err = run(capsys, "census", "--type", "A", "--rank", "1",
                           "--q", q, "--signature", "2,3,7")
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "input"
    fields = []

    def spy(p, k=1):
        fields.append((p, k))
        return ff.field_create(p, k)

    monkeypatch.setattr(cli, "field_create", spy)
    code, _, _ = run(capsys, "census", "--type", "A", "--rank", "1",
                     "--q", "49", "--signature", "2,3,7", "--work-cap", "100")
    assert code == 3
    assert fields == [(7, 2)]


@pytest.mark.parametrize("rank, q", [
    ("119", "2"),  # an order of more than 4,300 digits
    ("118", "2"),
    ("1", str(2 ** 61 - 1)),  # prime, slow to trial-divide
    ("1", str(2 ** 61 - 2)),  # no prime power, but above the cap first
])
def test_oversized_census_exits_3_before_factoring_or_ordering(
        capsys, monkeypatch, rank, q):
    def no_work(*args):
        raise AssertionError("factored q or formed the order before the cap")
    monkeypatch.setattr(cli, "_prime_factors", no_work)
    monkeypatch.setattr(cli, "psl_order", no_work)
    start = time.perf_counter()
    code, out, err = run(capsys, "census", "--type", "A", "--rank", rank,
                         "--q", q, "--signature", "2,3,7")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "work-cap"
    assert error["message"] == (f"PSL_{int(rank) + 1}({q}) has more elements "
                                "than the work cap 10000000")


def _identity_tuple(tmp_path, **fields):
    doc = {"schema": 1, "p": 7, "k": 1, "n": 2,
           "generators": [[[1, 0], [0, 1]]], "orders": [1], **fields}
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, fields", [
    ("rigidity", {"p": 2 ** 61 - 1}),  # prime, slow to trial-divide
    ("coinv", {"p": 2 ** 61 - 1}),
    ("rigidity", {"p": 2, "k": 4000}),  # the modulus search would run on
    ("coinv", {"p": 2, "k": 4000}),
    ("rigidity", {"orders": [2 ** 61 - 1]}),  # prime, as a declared order
])
def test_oversized_wire_integers_exit_3_before_the_work(
        capsys, monkeypatch, tmp_path, command, fields):
    path = _identity_tuple(tmp_path, **fields)
    ff.field_create(7)  # cached before the trial division is disabled

    def no_work(*args):
        raise AssertionError("trial-divided or searched before the cap")
    monkeypatch.setattr(ff, "is_prime", no_work)
    monkeypatch.setattr(ff, "_least_irreducible", no_work)
    monkeypatch.setattr(matgrp, "_prime_factors", no_work)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--in", path)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "work-cap"


def test_an_integer_too_long_to_read_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "tuple.json"
    path.write_text('{"p": 1' + "0" * 5000 + "}", encoding="utf-8")
    code, out, err = run(capsys, "coinv", "--in", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "input"


def test_a_large_declared_order_costs_coinv_nothing(capsys, tmp_path):
    # coinv never factors a declared order; checking it is a few squarings
    path = _identity_tuple(tmp_path, orders=[2 ** 61 - 1])
    start = time.perf_counter()
    code, out, _ = run(capsys, "coinv", "--in", path)
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["coinv_dim"] == 3


def test_rigid_tuples_charges_its_tuple_enumeration(capsys):
    # C(50, 40), about 10^10 tuples of A1 orders 2..12
    start = time.perf_counter()
    code, out, err = run(capsys, "rigid-tuples", "--type", "A", "--rank",
                         "1", "--n", "40", "--a-max", "12")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "work-cap"


def test_census_signature_is_parsed_before_the_cap(capsys):
    code, _, err = run(capsys, "census", "--type", "A", "--rank", "119",
                       "--q", "2", "--signature", "2,x,7")
    assert code == 2
    assert json.loads(err)["error"]["kind"] == "input"


@pytest.mark.parametrize("q, flags, target", [
    (8, (), 504), (7, ("--no-projective",), 336), (7, (), 168),
])
def test_census_closes_one_table_and_searches_below_half(capsys, monkeypatch,
                                                         q, flags, target):
    # generating_pair's projective closures stop at half of PSL2(q); the
    # census table is the one closure built in full, in the requested mode
    built = []
    closure = matgrp.group_closure

    def recorded(gens, cap, projective=False):
        try:
            table = closure(gens, cap, projective)
        except WorkCapExceeded:
            built.append((cap, projective))
            raise
        built.append((table.size, projective))
        return table

    monkeypatch.setattr(matgrp, "group_closure", recorded)
    monkeypatch.setattr(cli, "group_closure", recorded)
    code, _, _ = run(capsys, "census", "--type", "A", "--rank", "1",
                     "--q", str(q), "--signature", "2,3,7", *flags)
    assert code == 0
    half = matgrp.psl_order(q, 2) // 2
    *search, census_table = built
    assert census_table == (target, "--no-projective" not in flags)
    assert search and all(size <= half and projective
                          for size, projective in search)
    assert sum(size > half for size, _ in built) == 1
