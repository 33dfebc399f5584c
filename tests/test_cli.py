import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import princlat
from princlat import construction, fuzzing
from princlat.cli import main
from princlat.construction import default_template_dir
from princlat.fuzzing import random_bounded_poset
from princlat.io import dump_json, dumps, poset_to_doc

from conftest import bounded, run_cli


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "b2.json").write_text(json.dumps({
        "name": "B2", "elements": ["0", "p", "q", "1"],
        "covers": [["0", "p"], ["0", "q"], ["p", "1"], ["q", "1"]]}))
    (tmp_path / "c4.json").write_text(json.dumps({
        "name": "C4", "elements": ["0", "p", "q", "1"],
        "covers": [["0", "p"], ["p", "q"], ["q", "1"]]}))
    (tmp_path / "antichain.json").write_text(json.dumps({
        "name": "bad", "elements": ["a", "b"], "covers": []}))
    (tmp_path / "m3.json").write_text(json.dumps({
        "name": "M3", "elements": ["o", "x", "y", "z", "i"],
        "covers": [["o", "x"], ["o", "y"], ["o", "z"],
                   ["x", "i"], ["y", "i"], ["z", "i"]]}))
    return tmp_path


def test_build_b2(workdir):
    out_file = workdir / "K.json"
    code, out, _ = run_cli(["build", "--poset", str(workdir / "b2.json"), "--out", str(out_file)])
    assert code == 0
    assert "|K|=8" in out and "length=3" in out
    doc = json.loads(out_file.read_text())
    assert len(doc["elements"]) == 8
    assert doc["anchors"]["p"] == ["a@p", "b@p"]


def test_build_4chain(workdir):
    out_file = workdir / "K.json"
    code, out, _ = run_cli(["build", "--poset", str(workdir / "c4.json"), "--out", str(out_file)])
    assert code == 0
    assert "|K|=13" in out and "length=5" in out


# sha256 of the K file and of the stdout of `build`, for one poset per
# gadget kind: SC (5-chain), SV (V), SH (hat) and Cp (B2 and the
# 3-antichain, which has no S); for mixed shapes: B4 (SC, SV and SH
# together) and a fence (SV and SH, no SC); and for the degenerate 1- and
# 2-chain, whose `gadgets:` line counts frames only
GOLDEN_BUILD = {
    "1-chain": ("764faa1f611cf43532c6b1c8335451b0663e86d4095b5ec49a236aab13480270",
                "48ed05bdadee36700529ae954041f9ea2772cd4a4e2d134cd281c5ffd930f999"),
    "2-chain": ("9c15d47abde6cc158f9f8918556c29668b3bc4f8d730371a2ba6f2975797b9d3",
                "460e158c65afd4fbaf1155bf34893e81e9d9e5ea1ff24e023081adafba0f9e05"),
    "3-antichain": ("25b982b04f5788990df3393abd9faaeb01e288f0aeff4642a14ff2c2ade2f867",
                    "328e57c537416d043153875f6a65300b4c008bcdfdf71172ce374619bdef5da7"),
    "5-chain": ("b55a3db43274b17d775515e5d4b589a11b4ebc1c5586c4001cd722ed7170b41f",
                "8d450cbf9c024dc113fb8398ff9b6dc4734a4d5bc25b06c341871270c27ab8b0"),
    "V": ("ba08e62ce0b936395b3e3dfd113d7ad6dd708cd0ba0872808e2c1d3e66a8cfe1",
          "396dce6aedccd2474e9a89b7e3b2ecc40178ab8695caa472cc3e9cfae1610479"),
    "hat": ("316f2326a8fcdea73e9efb72410638ad22c54472f473443c24d36390dbbcd79a",
            "396dce6aedccd2474e9a89b7e3b2ecc40178ab8695caa472cc3e9cfae1610479"),
    "B2": ("edfbe6ea19010b5f8cb2778aeff96a62141e68274e8b5b4a0ed257a7fcd79c10",
           "d7804f0174d9e6d1751ab8c72d3b1039debef12ccdcc739ec70120fea489c4f4"),
    "B4": ("03d8edb7e4ac6861dba38e0569a2d2b4cc9a12a6660a299352b475094310d2bd",
           "e0904550fa652a27e668386f00daa62a9a63164141852ad6aeffad26acd9d26e"),
    "fence": ("5c009dd79c62291245049e4ca714fc19bce264b401f069b821368a8feedd7351",
              "09861bd7eb67956aad8ca33cb0897104eabe4f1cc664270218bb3288e78dcc10"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILD))
def test_build_output_is_golden(name, poset_zoo, tmp_path, monkeypatch):
    # relative paths: the poset path is written into the K file's name
    monkeypatch.chdir(tmp_path)
    shapes = dict(poset_zoo, **{
        "3-antichain": bounded(["0", "p", "q", "r", "1"],
                               [("0", x) for x in "pqr"] + [(x, "1") for x in "pqr"]),
        "B4": bounded([f"s{m:04b}" for m in range(16)],
                      [(f"s{m:04b}", f"s{m | 1 << b:04b}") for m in range(16) for b in range(4)
                       if not m >> b & 1]),
        "fence": bounded(["0", "z0", "z1", "z2", "z3", "z4", "1"],
                         [("0", "z0"), ("0", "z2"), ("0", "z4"), ("z0", "z1"), ("z2", "z1"),
                          ("z2", "z3"), ("z4", "z3"), ("z1", "1"), ("z3", "1")]),
    })
    dump_json(poset_to_doc(shapes[name].poset, name=name), f"{name}.json")
    code, out, _ = run_cli(["build", "--poset", f"{name}.json", "--out", "K.json"])
    assert code == 0
    digests = (hashlib.sha256((tmp_path / "K.json").read_bytes()).hexdigest(),
               hashlib.sha256(out.encode()).hexdigest())
    assert digests == GOLDEN_BUILD[name]


def test_build_unbounded_is_input_error(workdir):
    code, _, err = run_cli(["build", "--poset", str(workdir / "antichain.json"),
                            "--out", str(workdir / "K.json")])
    assert code == 2
    assert "minimum" in err or "maximum" in err


def test_verify_passes_and_prints_result_line(workdir):
    code, out, _ = run_cli(["verify", "--poset", str(workdir / "c4.json")])
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("RESULT pass=")
    assert " fail=0" in out


def test_verify_degenerate(workdir):
    (workdir / "one.json").write_text(json.dumps(
        {"name": "1", "elements": ["0"], "covers": []}))
    code, out, _ = run_cli(["verify", "--poset", str(workdir / "one.json")])
    assert code == 0 and "degenerate" in out


@pytest.mark.parametrize("command", [
    ["verify", "--poset", "c4.json"],
    ["fuzz", "--max-size", "5", "--samples", "2", "--seed", "7"],
    ["build", "--poset", "c4.json", "--out", "K.json"],
], ids=["verify", "fuzz", "build"])
def test_verify_corrupt_templates_exits_2(workdir, command, monkeypatch):
    # a template directory is configuration: every command that loads it
    # exits 2 with the same one error line
    monkeypatch.chdir(workdir)
    tdir = workdir / "templates"
    tdir.mkdir()
    for f in Path(default_template_dir()).iterdir():
        shutil.copy(f, tdir / f.name)
    doc = json.loads((tdir / "S.json").read_text())
    doc["covers"] = doc["covers"][:-1]
    (tdir / "S.json").write_text(json.dumps(doc))
    code, out, err = run_cli(command + ["--templates", str(tdir)])
    assert (code, out) == (2, "")
    assert err.startswith("error: template 'S' failed check 'lattice'") and err.count("\n") == 1, err


def test_con_command_counts(workdir):
    kfile = workdir / "K.json"
    run_cli(["build", "--poset", str(workdir / "b2.json"), "--out", str(kfile)])
    code, out, _ = run_cli(["con", "--lattice", str(kfile)])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    for blocks in doc["congruences"]:
        assert blocks == sorted(blocks, key=lambda b: b[0])


def test_con_m3(workdir):
    code, out, _ = run_cli(["con", "--lattice", str(workdir / "m3.json")])
    doc = json.loads(out)
    assert doc["count"] == 2


def test_princ_command_feeds_back_to_source_order(workdir):
    kfile = workdir / "K.json"
    ofile = workdir / "princ.json"
    run_cli(["build", "--poset", str(workdir / "b2.json"), "--out", str(kfile)])
    code, out, _ = run_cli(["princ", "--lattice", str(kfile), "--out", str(ofile)])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    from princlat.io import load_poset
    from princlat.order import order_iso

    source = load_poset(workdir / "b2.json")
    emitted = load_poset(ofile)
    assert order_iso(source, emitted) is not None


def test_valuation_command(workdir):
    kfile = workdir / "K.json"
    run_cli(["build", "--poset", str(workdir / "c4.json"), "--out", str(kfile)])
    code, out, _ = run_cli(["valuation", "--lattice", str(kfile)])
    doc = json.loads(out)
    vs = [row["v"] for row in doc["values"]]
    assert min(vs) == 0 and max(vs) >= 1


def test_export_dot(workdir):
    dot = workdir / "m3.dot"
    code, out, _ = run_cli(["export-dot", "--lattice", str(workdir / "m3.json"),
                            "--out", str(dot)])
    assert code == 0 and "5 nodes, 6 edges" in out
    text = dot.read_text()
    assert text.count("->") == 6
    assert "rank=same" in text


def test_export_dot_gadget_template(workdir):
    tdir = Path(default_template_dir())
    dot = workdir / "S.dot"
    code, out, _ = run_cli(["export-dot", "--lattice", str(tdir / "S.json"), "--out", str(dot)])
    assert code == 0 and "11 nodes, 15 edges" in out


def test_export_dot_bad_input_is_2(workdir):
    code, _, _ = run_cli(["export-dot", "--lattice", str(workdir / "nope.json"),
                          "--out", str(workdir / "x.dot")])
    assert code == 2


def test_non_lattice_file_is_input_error(workdir):
    # an order with no join for (a, b) is bad input: exit 2, message kept
    bad = str(workdir / "antichain.json")
    for argv in (["con", "--lattice", bad], ["princ", "--lattice", bad],
                 ["valuation", "--lattice", bad],
                 ["export-dot", "--lattice", bad, "--out", str(workdir / "x.dot")]):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: no unique join for (a, b); minimal candidates: []\n"


@pytest.mark.parametrize("doc", [
    {"elements": ["a"], "covers": [1]},
    {"elements": 5, "covers": []},
    {"elements": [["a"]], "covers": []},
    {"elements": "ab", "covers": []},
    {"elements": ["a", "b"], "covers": [["a", "b", "c"]]},
    {"elements": ["a", "b"], "covers": "ab"},
    {"elements": ["a", 1], "covers": []},
    {"elements": ["a", "b"], "covers": [["a", 2]]},
    {"elements": [], "covers": []},
    b"\xff\xfe{}",
], ids=["cover-not-a-list", "elements-not-a-list", "element-not-a-string",
        "elements-a-string", "cover-of-three", "covers-a-string", "element-a-number",
        "cover-end-a-number", "empty", "not-utf-8"])
def test_malformed_poset_document_is_2(workdir, doc):
    # every command that reads a poset or lattice file rejects the document
    # as bad input, with no traceback; a document given as bytes is written
    # as is
    bad = workdir / "malformed.json"
    bad.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    for argv in (["verify", "--poset", str(bad)],
                 ["build", "--poset", str(bad), "--out", str(workdir / "K.json")],
                 ["con", "--lattice", str(bad)], ["princ", "--lattice", str(bad)],
                 ["valuation", "--lattice", str(bad)],
                 ["export-dot", "--lattice", str(bad), "--out", str(workdir / "x.dot")]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_verify_and_build_report_a_naming_collision_as_input(workdir):
    # p < q.r and p.q < r both name their gadget's c as c@p.q.r: bad input
    # for build and verify alike, not a failed verify stage
    poset = workdir / "collide.json"
    poset.write_text(json.dumps({
        "elements": ["0", "p", "q.r", "p.q", "r", "1"],
        "covers": [["0", "p"], ["0", "p.q"], ["p", "q.r"], ["p.q", "r"],
                   ["q.r", "1"], ["r", "1"]]}))
    errors = set()
    for argv in (["verify", "--poset", str(poset)],
                 ["build", "--poset", str(poset), "--out", str(workdir / "K.json")]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: element naming collision") and err.count("\n") == 1, err
        errors.add(err)
    assert len(errors) == 1


def test_fuzz_deterministic_and_green(workdir):
    code1, out1, _ = run_cli(["fuzz", "--max-size", "5", "--samples", "8", "--seed", "7"])
    code2, out2, _ = run_cli(["fuzz", "--max-size", "5", "--samples", "8", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().splitlines()[-1] == "RESULT pass=8 fail=0"


@pytest.mark.parametrize("option, value", [
    ("--max-size", "0"), ("--samples", "0"), ("--jobs", "0"),
    ("--seed", "-1"), ("--seed", "18446744073709551616"),
], ids=["max-size-0", "samples-0", "jobs-0", "seed-negative", "seed-2to64"])
def test_fuzz_bad_config_is_2(option, value):
    # argparse keeps the last occurrence of a repeated option
    code, out, err = run_cli(["fuzz", "--max-size", "1", "--samples", "1", "--seed", "1",
                              option, value])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_fuzz_generator_is_index_stable():
    a = random_bounded_poset(123, 4, 8)
    b = random_bounded_poset(123, 4, 8)
    assert a.poset == b.poset


def test_fuzz_jobs_match_sequential():
    argv = ["fuzz", "--max-size", "5", "--samples", "6", "--seed", "99"]
    code1, out1, _ = run_cli(argv + ["--jobs", "1"])
    code2, out2, _ = run_cli(argv + ["--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_fuzz_pool_has_no_more_workers_than_samples(monkeypatch):
    # under the fork start method a pool starts every worker at the first
    # submit, so asking for more workers than samples, or than CPUs, forks
    # idle ones; the pool runs in-process here and os.cpu_count is stubbed,
    # so no process starts
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(fuzzing, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(fuzzing.os, "cpu_count", lambda: 16)
    assert [o.index for o in fuzzing.run_fuzz(5, 3, seed=99, jobs=8)] == [0, 1, 2]
    assert [o.index for o in fuzzing.run_fuzz(5, 1, seed=99, jobs=8)] == [0]
    assert asked == [3]
    # --samples 5000 --jobs 5000 on two CPUs asks for two workers, not
    # 5000; on one CPU, or with the count unknown, no pool starts
    monkeypatch.setattr(fuzzing, "run_sample", lambda args: args[1])
    for cpus in (2, 1, None):
        monkeypatch.setattr(fuzzing.os, "cpu_count", lambda cpus=cpus: cpus)
        assert fuzzing.run_fuzz(5, 5000, seed=99, jobs=5000) == list(range(5000))
    assert asked == [3, 2]


# sha256 of the stdout of the criterion-1 fuzz's first 30 samples when the
# length of every K of more than 40 elements reads one too high: 7 rows
# fail length-bound, and sample2, the first of them, is the counterexample
GOLDEN_FUZZ_FAILURE = "82b0286f376c97bf60dbb43c4fbb6386b7426497915feb3f637c54d09ef31024"


def test_fuzz_failure_prints_the_first_counterexample(monkeypatch):
    true_length = construction.length
    monkeypatch.setattr(construction, "length", lambda lat: true_length(lat) + (lat.n > 40))
    code, out, _ = run_cli(["fuzz", "--max-size", "8", "--samples", "30", "--seed", "20260201"])
    assert code == 1
    assert out.count(" FAIL length-bound: ") == 7
    assert 'counterexample poset:\n{\n "name": "sample2",' in out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FUZZ_FAILURE


def test_parser_is_built_once_and_survives_any_call_order(workdir):
    from princlat.cli import build_parser

    m3 = ["con", "--lattice", str(workdir / "m3.json")]
    first = run_cli(m3)
    assert run_cli(["fuzz", "--max-size", "0", "--samples", "1", "--seed", "1"])[0] == 2
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["fuzz", "--max-size", "1"])  # argparse rejects the missing options
    assert exc.value.code == 2
    assert run_cli(m3) == first
    assert first[0] == 0
    assert build_parser() is build_parser()


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(JSON_DOCS)
@example({"é\"\\": ["\x00\n\x1f", "\u2028😀", [], {}, [[{}]]], "": {"a": ()}})
def test_dumps_writes_what_json_dumps_writes(doc):
    assert dumps(doc) == json.dumps(doc, indent=1)


@pytest.mark.parametrize("command", ["con", "princ", "valuation"])
def test_engine_requests_leave_no_cyclic_garbage(workdir, command):
    # what only the cyclic collector can free stays in memory until it runs
    argv = [command, "--lattice", str(workdir / "m3.json")]
    first = run_cli(argv)  # the first call may build what later calls reuse
    gc.collect()
    gc.disable()
    try:
        assert run_cli(argv) == first
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_request_imports_numpy_ma(workdir):
    # numpy.ma adds about 1 MB of peak RSS from its import on, and plain
    # np.unique and np.setdiff1d import it; the 5-chain's K glues SC, SV
    # and SH, so verify reads double gadgets on their cross-copy pairs
    (workdir / "c5.json").write_text(json.dumps({
        "name": "C5", "elements": ["0", "p", "q", "r", "1"],
        "covers": [["0", "p"], ["p", "q"], ["q", "r"], ["r", "1"]]}))
    k = str(workdir / "K.json")
    requests = [["verify", "--poset", str(workdir / "c5.json")],
                ["verify", "--poset", str(workdir / "b2.json")],
                ["fuzz", "--max-size", "8", "--samples", "4", "--seed", "7"],
                ["build", "--poset", str(workdir / "c5.json"), "--out", k]]
    requests += [[command, "--lattice", lattice] for command in ("con", "princ", "valuation")
                 for lattice in (k, str(workdir / "m3.json"))]
    script = ("import contextlib, io, json, sys\n"
              "from princlat.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
              "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(princlat.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(requests)],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(done.stdout) == [[0] * len(requests), False]
