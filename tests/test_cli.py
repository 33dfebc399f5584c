import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from princlat.cli import main
from princlat.construction import default_template_dir
from princlat.fuzzing import random_bounded_poset, run_fuzz


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


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_build_b2(workdir):
    out_file = workdir / "K.json"
    code, out, _ = run(["build", "--poset", str(workdir / "b2.json"), "--out", str(out_file)])
    assert code == 0
    assert "|K|=8" in out and "length=3" in out
    doc = json.loads(out_file.read_text())
    assert len(doc["elements"]) == 8
    assert doc["anchors"]["p"] == ["a@p", "b@p"]


def test_build_4chain(workdir):
    out_file = workdir / "K.json"
    code, out, _ = run(["build", "--poset", str(workdir / "c4.json"), "--out", str(out_file)])
    assert code == 0
    assert "|K|=13" in out and "length=5" in out


def test_build_unbounded_is_input_error(workdir):
    code, _, err = run(["build", "--poset", str(workdir / "antichain.json"),
                        "--out", str(workdir / "K.json")])
    assert code == 2
    assert "minimum" in err or "maximum" in err


def test_verify_passes_and_prints_result_line(workdir):
    code, out, _ = run(["verify", "--poset", str(workdir / "c4.json")])
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("RESULT pass=")
    assert " fail=0" in out


def test_verify_degenerate(workdir):
    (workdir / "one.json").write_text(json.dumps(
        {"name": "1", "elements": ["0"], "covers": []}))
    code, out, _ = run(["verify", "--poset", str(workdir / "one.json")])
    assert code == 0 and "degenerate" in out


def test_verify_corrupt_templates_exits_1(workdir):
    tdir = workdir / "templates"
    tdir.mkdir()
    for f in Path(default_template_dir()).iterdir():
        shutil.copy(f, tdir / f.name)
    doc = json.loads((tdir / "S.json").read_text())
    doc["covers"] = doc["covers"][:-1]
    (tdir / "S.json").write_text(json.dumps(doc))
    code, _, err = run(["verify", "--poset", str(workdir / "c4.json"),
                        "--templates", str(tdir)])
    assert code == 1
    assert "template" in err


def test_con_command_counts(workdir):
    kfile = workdir / "K.json"
    run(["build", "--poset", str(workdir / "b2.json"), "--out", str(kfile)])
    code, out, _ = run(["con", "--lattice", str(kfile)])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    for blocks in doc["congruences"]:
        assert blocks == sorted(blocks, key=lambda b: b[0])


def test_con_m3(workdir):
    code, out, _ = run(["con", "--lattice", str(workdir / "m3.json")])
    doc = json.loads(out)
    assert doc["count"] == 2


def test_princ_command_feeds_back_to_source_order(workdir):
    kfile = workdir / "K.json"
    ofile = workdir / "princ.json"
    run(["build", "--poset", str(workdir / "b2.json"), "--out", str(kfile)])
    code, out, _ = run(["princ", "--lattice", str(kfile), "--out", str(ofile)])
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
    run(["build", "--poset", str(workdir / "c4.json"), "--out", str(kfile)])
    code, out, _ = run(["valuation", "--lattice", str(kfile)])
    doc = json.loads(out)
    vs = [row["v"] for row in doc["values"]]
    assert min(vs) == 0 and max(vs) >= 1


def test_export_dot(workdir):
    dot = workdir / "m3.dot"
    code, out, _ = run(["export-dot", "--lattice", str(workdir / "m3.json"),
                        "--out", str(dot)])
    assert code == 0 and "5 nodes, 6 edges" in out
    text = dot.read_text()
    assert text.count("->") == 6
    assert "rank=same" in text


def test_export_dot_gadget_template(workdir):
    tdir = Path(default_template_dir())
    dot = workdir / "S.dot"
    code, out, _ = run(["export-dot", "--lattice", str(tdir / "S.json"), "--out", str(dot)])
    assert code == 0 and "11 nodes, 15 edges" in out


def test_export_dot_bad_input_is_2(workdir):
    code, _, _ = run(["export-dot", "--lattice", str(workdir / "nope.json"),
                      "--out", str(workdir / "x.dot")])
    assert code == 2


def test_non_lattice_file_is_input_error(workdir):
    # an order with no join for (a, b) is bad input: exit 2, message kept
    bad = str(workdir / "antichain.json")
    for argv in (["con", "--lattice", bad], ["princ", "--lattice", bad],
                 ["valuation", "--lattice", bad],
                 ["export-dot", "--lattice", bad, "--out", str(workdir / "x.dot")]):
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: no unique join for (a, b); minimal candidates: []\n"


def test_fuzz_deterministic_and_green(workdir):
    code1, out1, _ = run(["fuzz", "--max-size", "5", "--samples", "8", "--seed", "7"])
    code2, out2, _ = run(["fuzz", "--max-size", "5", "--samples", "8", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().splitlines()[-1] == "RESULT pass=8 fail=0"


def test_fuzz_bad_config_is_2():
    code, _, _ = run(["fuzz", "--max-size", "0", "--samples", "1", "--seed", "1"])
    assert code == 2


def test_fuzz_generator_is_index_stable():
    a = random_bounded_poset(123, 4, 8)
    b = random_bounded_poset(123, 4, 8)
    assert a.poset == b.poset


def test_fuzz_jobs_match_sequential():
    seq = run_fuzz(5, 6, seed=99, jobs=1)
    par = run_fuzz(5, 6, seed=99, jobs=2)
    assert [(o.index, o.size, o.k_size, o.passed) for o in seq] == \
           [(o.index, o.size, o.k_size, o.passed) for o in par]
