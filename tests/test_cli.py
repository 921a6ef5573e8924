"""Command line interface: artifacts, determinism, exit codes."""

import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import test_golden
from rigiditylab import cli, ff, matgrp, rootdata
from rigiditylab.errors import InvariantViolation

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
                gens = [table.matrix(i), table.matrix(j), table.matrix(k)]
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


@pytest.mark.parametrize("argv", [
    ("census", "--type", "A", "--rank", "1", "--q", "8",
     "--signature", "2,3,7"),
    ("rootdata", "--type", "E", "--rank", "6", "--d-max", "3"),
    ("rigidity", "--in", str(GOLDEN_TUPLES / "sl3_f9.json")),
    ("rigid-tuples", "--type", "F", "--rank", "4", "--n", "3",
     "--a-max", "12"),
    ("coinv", "--in", str(GOLDEN_TUPLES / "sl3_f9.json")),
], ids=["census", "rootdata", "rigidity", "rigid-tuples", "coinv"])
def test_output_bytes_do_not_depend_on_the_hash_seed(argv):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-m", "rigiditylab.cli", *argv],
            capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]


def test_out_flag_writes_the_same_bytes(capsys, tmp_path):
    args = ("rootdata", "--type", "G", "--rank", "2", "--d-max", "6")
    _, stdout_text, _ = run(capsys, *args)
    target = tmp_path / "artifact.json"
    code, out, _ = run(capsys, *args, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

_JSON_TEXT = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", " ",
     "\ud800", "\U0001f600"]))
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([2 ** 70, -2 ** 70]) | _JSON_TEXT,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(_JSON_TEXT, children)),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS)
def test_the_json_writer_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True,
                                             indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"x", {1: 2}, {"a": 0, 1: 2}],
                         ids=["float", "set", "bytes", "int-key", "mixed-keys"])
def test_the_json_writer_refuses_what_it_would_write_differently(value):
    for doc in (value, [value], {"k": (0, value)}):
        with pytest.raises(TypeError):
            cli._json_text(doc)


def test_no_artifact_goes_through_the_pure_python_encoder(capsys,
                                                          monkeypatch):
    # json.dumps with an indent builds its encoder by _make_iterencode
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for name in ("psl2_13_237", "rootdata_b3_8", "rigid_g2_3_8",
                 "coinv_sl3_f9", "rigidity_sl3_f9"):
        code, out, err = run(capsys, *test_golden.ALL_CASES[name])
        assert (code, err) == (0, "")
        assert out == test_golden._path(name).read_text(encoding="utf-8")


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


def test_census_past_256_projective_points_exits_2_at_once(capsys):
    # PSL2(257) is under the default cap, but P^1(F_257) has 258 points,
    # more than a closure indexes; the first pair candidate refuses it
    start = time.perf_counter()
    code, out, err = run(capsys, "census", "--type", "A", "--rank", "1",
                         "--q", "257", "--signature", "2,3,7")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "input" and \
        "more than 256 points" in error["message"]


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
    # the census runs in one process, so nothing imports a process pool;
    # the result records are named tuples, so nothing imports dataclasses
    # and what it loads (inspect, ast, dis) unless the bare interpreter
    # already has, say from a site hook
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys; bare = set(sys.modules); import rigiditylab.cli; "
             "print(sorted(m for m in set(sys.modules) - bare if "
             "m.split('.')[0] in ('multiprocessing', 'concurrent', "
             "'dataclasses', 'inspect', 'ast', 'dis')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_well_formed_command_line_loads_no_argparse():
    # argparse serves only help and usage errors, and csv only CSV output;
    # a valid JSON job loads neither
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    tuple_path = str(GOLDEN_TUPLES / "sl2_f7.json")
    probe = f"""
import contextlib, io, json, sys
from rigiditylab import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["rootdata", "--type", "G", "--rank", "2",
                       "--d-max", "6"]),
             cli.main(["rigidity", "--in", {tuple_path!r}])]
loaded = [m for m in ("argparse", "csv") if m in sys.modules]
err = io.StringIO()
with contextlib.redirect_stderr(err):
    codes.append(cli.main(["census", "--type", "A"]))
print(json.dumps([codes, loaded, err.getvalue()]))
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    codes, loaded, err = json.loads(proc.stdout)
    assert codes == [0, 0, 2] and loaded == []
    assert json.loads(err)["error"]["message"] == (
        "rigiditylab census: the following arguments are required: --rank, "
        "--q, --signature")


def _benchmark_jobs(tmp_path):
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "workloads", path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for name in workloads.WORKLOADS
            for _, argv in workloads.jobs(name, 1, 0, str(tmp_path))]


def test_every_golden_and_benchmark_command_line_takes_the_reader(tmp_path):
    # a command line the reader declines still works through argparse,
    # only slower; this keeps the corpus and the benchmark on the fast path
    golden = list(test_golden.ALL_CASES.values())
    golden += [(*argv, "--workers", "2")
               for argv in test_golden.CASES.values()]
    for argv in golden + _benchmark_jobs(tmp_path):
        got = cli._read_argv(list(argv))
        assert got is not None, argv
        assert vars(got) == vars(cli.build_parser().parse_args(list(argv)))


_COMMAND_WORDS = ["rootdata", "rigid-tuples", "coinv", "rigidity", "census",
                  "frobnicate"]
_OPTION_WORDS = [
    "--type", "--rank", "--d-max", "--n", "--a-max", "--in",
    "--assert-irreducible", "--q", "--signature", "--projective",
    "--no-projective", "--epi-test", "--no-epi-test", "--workers", "--out",
    "--format", "--work-cap", "-h", "--help", "--",
    # abbreviations
    "--typ", "--ra", "--d", "--a", "--as", "--sig", "--no-p", "--epi",
    "--wor", "--work", "--fo",
    # --opt=value
    "--type=A", "--rank=1", "--d-max=3", "--q=7", "--format=csv",
    "--in=x.json", "--workers=2", "--work-cap=100", "--no-projective=1",
]
_VALUE_WORDS = ["0", "1", "2", "3", "7", "-1", "-7", "two", "", "json", "csv",
                "xml", "1" * 5000, "A", "E", "2,3,7", "x.json"]
_WELL_FORMED = [
    ["rootdata", "--type", "E", "--rank", "6", "--d-max", "3"],
    ["rigid-tuples", "--type", "F", "--rank", "4", "--n", "3", "--a-max", "12",
     "--format", "csv"],
    ["coinv", "--in", "x.json", "--out", "y.json"],
    ["rigidity", "--in", "x.json", "--assert-irreducible", "--work-cap", "7"],
    ["census", "--type", "A", "--rank", "1", "--q", "7", "--signature",
     "2,3,7", "--no-projective", "--epi-test", "--workers", "2"],
]
_WORDS = _COMMAND_WORDS + _OPTION_WORDS + _VALUE_WORDS


@st.composite
def _command_lines(draw):
    """Free draws from the vocabulary, and well-formed lines with a word or
    two inserted or replaced."""
    if draw(st.booleans()):
        head = draw(st.lists(st.sampled_from(_COMMAND_WORDS), max_size=1))
        return head + draw(st.lists(st.sampled_from(_OPTION_WORDS
                                                    + _VALUE_WORDS),
                                    max_size=12))
    argv = list(draw(st.sampled_from(_WELL_FORMED)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(argv)))
        word = draw(st.sampled_from(_WORDS))
        if i < len(argv) and draw(st.booleans()):
            argv[i] = word
        else:
            argv.insert(i, word)
    return argv


@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_the_reader_agrees_with_argparse_or_declines(argv):
    got = cli._read_argv(argv)
    if got is not None:
        assert vars(got) == vars(cli.build_parser().parse_args(argv))


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: rigiditylab census") and err == ""


def test_census_rank_below_one_exits_2(capsys):
    code, out, err = run(capsys, "census", "--type", "A", "--rank", "0",
                         "--q", "7", "--signature", "2,3,7")
    assert code == 2 and out == ""
    assert "--rank" in json.loads(err)["error"]["message"]


def test_csv_not_available_for_coinv(capsys):
    path = str(GOLDEN_TUPLES / "sl2_f7.json")
    code, out, err = run(capsys, "coinv", "--in", path, "--format", "csv")
    assert code == 2 and out == ""
    assert "json" in json.loads(err)["error"]["message"]


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


@pytest.mark.parametrize("argv", [
    ("rootdata", "--type", "A", "--rank", "100000", "--d-max", "1"),
    ("rootdata", "--type", "A", "--rank", "300", "--d-max", "1"),
    ("rigid-tuples", "--type", "B", "--rank", "3000", "--n", "3",
     "--a-max", "2"),
])
def test_oversized_root_systems_exit_3_before_building(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "work-cap"


def test_a_d_max_over_the_cap_exits_3_at_once(capsys):
    # the witness-search bound d^rank |positive roots| grows with d, so the
    # cap is checked at d_max alone, not at each of the 2 * 10^7 orders
    start = time.perf_counter()
    code, out, err = run(capsys, "rootdata", "--type", "A", "--rank", "1",
                         "--d-max", "20000001")
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "work-cap" and "d = 20000001" in error["message"]


def test_d_max_is_checked_before_the_root_system_is_built(capsys):
    code, _, err = run(capsys, "rootdata", "--type", "A", "--rank", "100000",
                       "--d-max", "0")
    assert code == 2
    assert "--d-max" in json.loads(err)["error"]["message"]


def test_rigid_tuples_e8_exits_3_before_scanning(capsys, monkeypatch):
    # the walk to h - 1 = 29 is charged 3,255,840; the 4,499,950 triples
    # from {2..300} push the whole request above the default cap
    def no_scan(rs, top):
        raise AssertionError("walked before the work-cap check")
    monkeypatch.setattr(rootdata, "_walked", no_scan)
    code, _, err = run(capsys, "rigid-tuples", "--type", "E", "--rank", "8",
                       "--n", "3", "--a-max", "300")
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
    assert json.loads(err)["error"] == {
        "exit_code": 4, "kind": "invariant",
        "message": "forced for the exit-code contract"}


def test_census_group_order_mismatch_exits_4(capsys, monkeypatch):
    # the closure of PSL2(7) has 168 elements; a wrong order leaves the
    # closure cap room to finish and then fails the comparison
    monkeypatch.setattr(cli, "psl_order", lambda q, n: 2 * 168)
    code, out, err = run(capsys, "census", "--type", "A", "--rank", "1",
                         "--q", "7", "--signature", "2,3,7")
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == {
        "exit_code": 4, "kind": "invariant",
        "message": "the closure has 168 elements, not the group order 336"}


def test_coinv_invariant_violation_carries_a_repro(capsys, monkeypatch):
    """An exit-4 record of coinv holds the input tuple in wire format."""
    def explode(t):
        raise InvariantViolation("forced for the repro contract")
    monkeypatch.setattr(cli, "coinvariant_dim", explode)
    path = str(GOLDEN_TUPLES / "sl2_f7.json")
    code, out, err = run(capsys, "coinv", "--in", path)
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert error["repro"] == matgrp.tuple_to_json(matgrp.load_tuple(path))


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


@pytest.mark.parametrize("command", ["rigidity", "coinv"])
@pytest.mark.parametrize("n, p, order", [
    (24, 2, 10 ** 1000),  # three orders of a thousand digits
    (8, 7, int("7" * 4000)),  # three orders of four thousand digits
], ids=["n24", "n8"])
def test_declared_order_powers_are_charged_before_the_first(
        capsys, tmp_path, command, n, p, order):
    # checking g^a for each declared order a takes about 1.5 log2(a)
    # products of n x n matrices, seconds of work for these documents
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    path = _identity_tuple(tmp_path, p=p, n=n, generators=[eye] * 3,
                           orders=[order] * 3)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--in", path)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["kind"] == "work-cap"


def test_a_bad_declared_order_is_invalid_input_before_the_charge(capsys,
                                                                tmp_path):
    # a negative order of a thousand digits is rejected, not charged
    path = _identity_tuple(tmp_path, orders=[-10 ** 1000])
    code, out, err = run(capsys, "coinv", "--in", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].endswith(
        "must be a positive integer")


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
    # generating_pair closes each candidate modulo scalars: a losing one
    # stops at half of PSL2(q) or below, and the winner reaches |PSL2(q)|.
    # The census takes the winner over, except a linear census with a
    # centre (SL2(7)), which builds exactly one more closure, a linear one
    built = []

    class Tracked(matgrp.FiniteGroupTable):
        def __init__(self, gens, projective, cap):
            super().__init__(gens, projective, cap)
            built.append((self.size, projective))

    monkeypatch.setattr(matgrp, "FiniteGroupTable", Tracked)
    tables = []
    closure = cli.group_closure

    def recorded(gens, cap, projective=False):
        tables.append(closure(gens, cap, projective))
        return tables[-1]

    monkeypatch.setattr(cli, "group_closure", recorded)
    code, _, _ = run(capsys, "census", "--type", "A", "--rank", "1",
                     "--q", str(q), "--signature", "2,3,7", *flags)
    assert code == 0
    order = matgrp.psl_order(q, 2)
    projective = "--no-projective" not in flags
    search = built[:[size for size, _ in built].index(order) + 1]
    assert all(p for _, p in search)
    assert all(size <= order // 2 for size, _ in search[:-1])
    centre = not projective and target > order
    assert built[len(search):] == ([(target, False)] if centre else [])
    table, = tables
    assert (table.size, table.projective) == (target, projective)
