"""End-to-end command-line behavior and exit codes."""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import oracles
from sqstar import (
    GeoArithmetic,
    build_table,
    generate_configuration,
    load_cache,
    save_cache,
)
from sqstar import cli
from sqstar import patterns as pat
from sqstar import ground
from sqstar.cli import main


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("SQSTAR_CACHE_DIR", raising=False)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "table.sgt"
    save_cache(build_table(100000), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "structured", *argv)
    return code, json.loads(out), out


# ---------------------------------------------------------------------------
# pointwise commands

def test_build_cache_and_query(tmp_path, capsys):
    out_path = str(tmp_path / "small.sgt")
    code, doc, _ = run_json(capsys, "build-cache", "--limit", "10000",
                            "--out", out_path)
    assert code == 0
    assert doc["limit"] == 10000
    assert doc["path"] == out_path
    code, out, _ = run(capsys, "--cache", out_path, "op", "2", "5")
    assert code == 0
    assert out.strip() == "9"


def test_member(capsys):
    code, out, _ = run(capsys, "member", "13")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "member", "6")
    assert code == 0 and out.strip() == "false"
    code, doc, _ = run_json(capsys, "member", "13")
    assert doc == {"member": True, "n": 13}


def test_pointwise_ops(cache_path, capsys):
    code, out, _ = run(capsys, "--cache", cache_path, "power", "2", "2")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "--cache", cache_path, "rank", "9")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "--cache", cache_path, "element", "6")
    assert code == 0 and out.strip() == "9"
    code, out, _ = run(capsys, "--cache", cache_path, "fp", "2", "5")
    assert code == 0 and out.strip() == "2 5 9"


def test_fp_rank_zero_is_usage_error(cache_path, capsys):
    # fp reads the fpf family, whose generators are ranks >= 1
    code, _, err = run(capsys, "--cache", cache_path, "fp", "0", "5")
    assert code == 2
    assert "must be >= 1" in err


def test_fp_past_the_table_is_out_of_range(cache_path, capsys):
    # 70 ranks would mean 2**70 subset products; the 17th factor of 2
    # already passes the limit 100000
    code, _, err = run(capsys, "--cache", cache_path, "fp", *["2"] * 70)
    assert code == 3
    assert "error (out-of-range)" in err and "Traceback" not in err


def test_default_cache_dir(tmp_path, monkeypatch, capsys):
    save_cache(build_table(10000), str(tmp_path / "sigma-default.sgt"))
    monkeypatch.setenv("SQSTAR_CACHE_DIR", str(tmp_path))
    code, out, err = run(capsys, "op", "2", "5")
    assert code == 0 and out.strip() == "9"
    assert "no cache configured" not in err
    # rank 5000 lies past the 1e4 cache, not past an in-memory default table
    code, _, err = run(capsys, "element", "5000")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("rank", "9"),
    ("threshold", "--family", "geo", "--k", "1", "--colors", "2", "--max-bound", "20"),
], ids=["rank", "threshold"])
def test_no_cache_builds_the_default_table_and_warns(cache_path, capsys, argv):
    """With no --cache and no SQSTAR_CACHE_DIR a command builds the
    in-memory table at the default limit and warns on stderr; its
    structured stdout is byte-identical to a run with a cache."""
    code, out, err = run(capsys, "--format", "structured", *argv)
    assert code == 0
    assert err == (f"warning: no cache configured, building an in-memory table "
                   f"(limit {cli.DEFAULT_BUILD_LIMIT}); use build-cache and --cache to "
                   f"avoid this\n")
    cached = run(capsys, "--cache", cache_path, "--format", "structured", *argv)
    assert cached == (0, out, "")


def test_rank_of_nonmember_is_usage_error(cache_path, capsys):
    code, out, err = run(capsys, "--cache", cache_path, "rank", "3")
    assert code == 2
    assert "error" in err


def test_out_of_range_exit(cache_path, capsys):
    code, _, err = run(capsys, "--cache", cache_path, "op", "50000", "50000")
    assert code == 3
    code, _, err = run(capsys, "--cache", cache_path, "rank", "200000")
    assert code == 3
    code, doc, _ = run_json(capsys, "--cache", cache_path, "element", "99999999")
    assert code == 3
    assert doc["error"] == "out-of-range"


def test_corrupt_cache_exit(tmp_path, capsys):
    bad = tmp_path / "bad.sgt"
    bad.write_bytes(b"SGT1" + b"\x00" * 40)
    code, _, err = run(capsys, "--cache", str(bad), "op", "2", "5")
    assert code == 4
    assert "corrupt" in err


def test_v1_cache_asks_for_rebuild(tmp_path, capsys):
    # format version 1 stored the members as u64 words with an XOR checksum
    members = np.array([0, 1, 2, 4, 5, 8, 9], dtype="<u8")
    v1 = (b"SGT1" + struct.pack("<BB", 1, 5) + b"sigma"
          + struct.pack("<QQ", 10, members.size) + members.tobytes()
          + struct.pack("<Q", int(np.bitwise_xor.reduce(members))))
    old = tmp_path / "v1.sgt"
    old.write_bytes(v1)
    code, _, err = run(capsys, "--cache", str(old), "op", "2", "5")
    assert code == 4
    assert "version 1" in err and "rebuild" in err


def test_v2_cache_asks_for_rebuild(tmp_path, capsys):
    # format version 2 stored the whole bitset under one trailing CRC
    words = np.array([0b110111], dtype="<u8")  # members 0 1 2 4 5 below 6
    body = (b"SGT1" + struct.pack("<BB", 2, 5) + b"sigma"
            + struct.pack("<QQ", 6, 5) + words.tobytes())
    old = tmp_path / "v2.sgt"
    old.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    code, _, err = run(capsys, "--cache", str(old), "op", "2", "5")
    assert code == 4
    assert "version 2" in err and "rebuild" in err


def test_missing_cache_exit(tmp_path, capsys):
    code, _, err = run(capsys, "--cache", "/nonexistent/t.sgt", "op", "2", "5")
    assert code == 2
    code, _, err = run(capsys, "--cache", str(tmp_path), "op", "2", "5")  # a directory
    assert code == 2
    assert "error (usage)" in err


def test_usage_errors(capsys, cache_path):
    assert main(["nope"]) == 2
    assert main([]) == 2
    assert main(["--cache", cache_path, "pattern", "--family", "brauer",
                 "--gen", "2", "2"]) == 2  # missing --k
    for phi in ("proj:3", "linear:1;1;1:0"):  # the map must take m = 2 values
        assert main(["--cache", cache_path, "threshold", "--family", "mt", "--m", "2",
                     "--phi", phi, "--colors", "2", "--max-bound", "20"]) == 2
    assert main(["--cache", cache_path, "hj", "--q", "2", "--r", "2", "--n", "2",
                 "--ap-k", "-1"]) == 2


@pytest.mark.parametrize("argv, code, out", [(("member", "13"), 0, "true\n"),
                                            (("nope",), 2, "")])
def test_console_entry(argv, code, out):
    """python -m sqstar.cli runs entry(), which exits with main's code."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("SQSTAR_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-m", "sqstar.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (code, out)


def test_one_parser_answers_like_a_fresh_one(cache_path, tmp_path, monkeypatch, capsys):
    # main reuses one parser; each call's exit code, stdout and stderr must
    # match those of a parser built for that call alone, whatever ran before
    wpath = str(tmp_path / "w.json")
    calls = [
        [], ["nope"], ["--help"], ["search", "--help"], ["--format", "yaml", "member", "2"],
        ["member", "13"], ["--format", "structured", "member", "x"],
        ["--cache", cache_path, "--format", "structured", "search", "--family", "brauer",
         "--k", "2", "--coloring", "random:seed=3,r=2", "--bound", "4000", "--gen-max", "30",
         "--out", wpath],
        ["--cache", cache_path, "--format", "structured", "search", "--family", "brauer",
         "--k", "2", "--coloring", "random:seed=3,r=2", "--bound", "4000", "--budget", "0"],
        ["--cache", cache_path, "--format", "structured", "verify", "--witness", wpath],
        ["--cache", cache_path, "verify", "--witness", cache_path],
        ["--cache", cache_path, "pattern", "--family", "brauer", "--gen", "2", "2"],
        ["--cache", cache_path, "--format", "structured", "hj", "--q", "2", "--r", "2",
         "--n", "3", "--budget", "5"],
        ["--cache", cache_path, "hj", "--q", "2", "--r", "2", "--n", "3"],
        ["--cache", cache_path, "fp", "2", "5", "9"], ["--cache", cache_path, "fp"],
        ["--format", "structured", "--cache", cache_path, "element", "99999999"],
    ]

    def outputs(order):
        got = []
        for argv in order:
            code = main(list(argv))
            cap = capsys.readouterr()
            got.append((argv, code, cap.out, cap.err))
        return got

    reused = outputs(calls) + outputs(calls[::-1])
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = outputs(calls)
    assert reused == fresh + fresh[::-1]
    assert {code for _, code, _, _ in fresh} == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# patterns and search

def test_pattern_families(cache_path, capsys):
    code, out, _ = run(capsys, "--cache", cache_path, "pattern",
                       "--family", "brauer", "--k", "2", "--gen", "2", "2")
    assert code == 0 and out.strip() == "2 3 5"
    code, out, _ = run(capsys, "--cache", cache_path, "pattern",
                       "--family", "fpf", "--gen", "2", "5")
    assert code == 0 and out.strip() == "2 5 9"
    code, out, _ = run(capsys, "--cache", cache_path, "pattern",
                       "--family", "deuber", "--p", "1", "--gen", "2", "2")
    assert code == 0 and out.strip() == "2 3"
    code, out, _ = run(capsys, "--cache", cache_path, "pattern", "--family",
                       "mt", "--m", "2", "--phi", "sum", "--gen", "2", "5")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run(capsys, "--cache", cache_path, "pattern", "--family",
                       "geo", "--k", "1", "--gen", "-", "2", "1", "1")
    assert code == 0 and out.strip() == "1 2 3"
    code, out, _ = run(capsys, "--cache", cache_path, "pattern", "--family",
                       "pvw", "--d", "1", "--sets", "2", "--gen", "-", "1")
    assert code == 0 and out.strip() == "2"
    code, doc, _ = run_json(capsys, "--cache", cache_path, "pattern",
                            "--family", "brauer", "--k", "2", "--gen", "2", "2")
    assert doc["configuration"] == [2, 3, 5]
    assert doc["spec"]["family"] == "brauer"


@pytest.mark.parametrize("family, size", [("fpf", ["--k", "2"]), ("deuber", ["--m", "1"])])
def test_pattern_sizes_fpf_and_deuber_from_entries_not_tokens(cache_path, capsys, family, size):
    # one token may hold several comma-separated entries
    flags = ["--p", "1"] if family == "deuber" else []
    outs = [run(capsys, "--cache", cache_path, "--format", "structured", "pattern",
                "--family", family, *flags, *extra, "--gen", *gen)
            for extra, gen in ((size, ["2,3"]), ([], ["2", "3"]), ([], ["2,3"]))]
    assert outs[0][0] == 0 and outs[1] == outs[0] and outs[2] == outs[0]
    assert json.loads(outs[0][1])["generators"]["xs"] == [2, 3]


def test_pattern_monomial_generators(cache_path, capsys):
    table = load_cache(cache_path)
    for b_token, b, want in (("2:1,5:2", [(2, 1), (5, 2)], [54, 337, 633]),
                             ("-", [], [1, 5, 9])):
        code, doc, _ = run_json(capsys, "--cache", cache_path, "pattern", "--family",
                                "geo", "--k", "1", "--gen", b_token, "3", "2", "1")
        assert code == 0 and doc["configuration"] == want
        gens = {"b": b, "gamma": [3], "a": 2, "d": 1}
        assert list(generate_configuration(GeoArithmetic(1), gens, table)) == want


def test_pattern_wrong_gen_count_is_usage_error(cache_path, capsys):
    code, _, err = run(capsys, "--cache", cache_path, "pattern", "--family",
                       "geo", "--k", "1", "--gen", "-", "3", "2")
    assert code == 2
    assert "geo takes --gen B GAMMA A D" in err


SEARCH_ARGS = [
    "search", "--family", "brauer", "--k", "1",
    "--coloring", "periodic:q=2,r=2", "--bound", "400", "--gen-max", "16",
]


def test_search_structured_byte_identical(cache_path, capsys):
    code1, doc1, raw1 = run_json(capsys, "--cache", cache_path, *SEARCH_ARGS)
    code2, doc2, raw2 = run_json(capsys, "--cache", cache_path, *SEARCH_ARGS)
    assert code1 == code2 == 0
    assert raw1 == raw2
    assert doc1["status"] == "witness"
    assert "elapsed" not in raw1
    w = doc1["witness"]
    assert w["color"] in (1, 2)
    assert w["configuration"] == sorted(w["configuration"])


def test_search_accepts_a_witness_provenance(cache_path, capsys):
    args = ["search", "--family", "brauer", "--k", "1", "--bound", "400",
            "--gen-max", "16"]
    code, doc, _ = run_json(capsys, "--cache", cache_path, *args,
                            "--coloring", "random:seed=5,r=2")
    assert code == 0
    prov = doc["witness"]["coloring-provenance"]
    assert prov == "random:pcg64:seed=5,r=2,bound=400"
    code, again, _ = run_json(capsys, "--cache", cache_path, *args, "--coloring", prov)
    assert code == 0
    assert again == doc
    # the provenance carries bound 400, which cannot cover --bound 401
    code, _, err = run(capsys, "--cache", cache_path, *args, "--coloring", prov,
                       "--bound", "401")
    assert code == 2
    assert "coloring bound 400 below requested bound 401" in err


def test_search_refuses_a_bound_mismatch_before_building_a_table(monkeypatch, capsys):
    # no cache is configured, so a table would be built in memory: the
    # mismatch is refused first, with no build and no build warning
    built = []
    monkeypatch.setattr(cli.ground, "build_table", lambda *a, **k: built.append(a))
    code, _, err = run(capsys, "search", "--family", "brauer", "--k", "1",
                       "--bound", "401",
                       "--coloring", "random:pcg64:seed=5,r=2,bound=400")
    assert code == 2
    assert "coloring bound 400 below requested bound 401" in err
    assert "warning" not in err and not built


def test_search_verify_roundtrip(cache_path, tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "--cache", cache_path, *SEARCH_ARGS, "--out", wpath)
    assert code == 0
    code, out, _ = run(capsys, "--cache", cache_path, "verify",
                       "--witness", wpath, "--bound", "400")
    assert code == 0 and out.strip() == "valid"

    # an explicit --coloring replaces the witness's provenance: its own
    # coloring passes, the one with the two colors swapped does not
    for desc, code_want, out_want in (("periodic:q=2,r=2", 0, "valid"),
                                      ("periodic:q=2,map=2;1", 1, "INVALID")):
        code, out, _ = run(capsys, "--cache", cache_path, "verify", "--witness",
                           wpath, "--coloring", desc, "--bound", "400")
        assert (code, out.strip()) == (code_want, out_want)

    # same color claim against a different coloring: invalid, not corrupt
    doc = json.loads(Path(wpath).read_text())
    doc["color"] = 3 - doc["color"]
    flipped = str(tmp_path / "flipped.json")
    Path(flipped).write_text(json.dumps(doc))
    code, out, _ = run(capsys, "--cache", cache_path, "verify",
                       "--witness", flipped, "--bound", "400")
    assert code == 1 and out.strip() == "INVALID"

    # structurally broken document: corrupt
    doc = json.loads(Path(wpath).read_text())
    doc["configuration"] = list(reversed(doc["configuration"]))
    broken = str(tmp_path / "broken.json")
    Path(broken).write_text(json.dumps(doc))
    code, _, err = run(capsys, "--cache", cache_path, "verify",
                       "--witness", broken, "--bound", "400")
    assert code == 4


def _file_provenance(path) -> str:
    """The provenance a coloring document without one records."""
    return f"file:{path}#sha256={hashlib.sha256(Path(path).read_bytes()).hexdigest()}"


def test_search_then_verify_with_a_file_coloring(cache_path, tmp_path, capsys):
    # a coloring document without provenance is recorded as
    # file:PATH#sha256=HEX, and verify rebuilds the coloring from that descriptor
    cpath = tmp_path / "c.json"
    oracles.write_coloring(cpath, 2, [n % 2 + 1 for n in range(400)])
    wpath = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                     "--k", "1", "--coloring", f"file:{cpath}", "--bound", "400",
                     "--gen-max", "16", "--out", wpath)
    assert code == 0
    assert json.loads(Path(wpath).read_text())["coloring-provenance"] == _file_provenance(cpath)
    code, out, err = run(capsys, "--cache", cache_path, "verify", "--witness", wpath)
    assert (code, out.strip(), err) == (0, "valid", "")


def test_file_coloring_verifies_from_another_directory(cache_path, tmp_path, capsys, monkeypatch):
    # search is given a relative path; the witness records it absolute, so
    # verify run from a sibling directory reads the same document
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    oracles.write_coloring(here / "c.json", 2, [n % 2 + 1 for n in range(400)])
    (there / "c.json").write_text("not the coloring")
    monkeypatch.chdir(here)
    code, _, _ = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                     "--k", "1", "--coloring", "file:c.json", "--bound", "400",
                     "--gen-max", "16", "--out", "../w.json")
    assert code == 0
    prov = json.loads((tmp_path / "w.json").read_text())["coloring-provenance"]
    assert prov == _file_provenance(here / "c.json")
    monkeypatch.chdir(there)
    code, out, err = run(capsys, "--cache", cache_path, "verify", "--witness", "../w.json")
    assert (code, out.strip(), err) == (0, "valid", "")


def _search_file_coloring(cache_path, tmp_path, capsys):
    """search under the coloring document c.json, written to w.json: the
    two paths and the recorded provenance."""
    cpath, wpath = tmp_path / "c.json", str(tmp_path / "w.json")
    oracles.write_coloring(cpath, 2, [n % 2 + 1 for n in range(400)])
    code, _, _ = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                     "--k", "1", "--coloring", f"file:{cpath}", "--bound", "400",
                     "--gen-max", "16", "--out", wpath)
    assert code == 0
    return cpath, wpath, json.loads(Path(wpath).read_text())["coloring-provenance"]


def test_verify_after_the_coloring_file_is_rewritten_is_corrupt_input(
        cache_path, tmp_path, capsys):
    # the rewritten document is a valid coloring; its digest names the change,
    # through the witness's provenance and through the same descriptor given
    cpath, wpath, prov = _search_file_coloring(cache_path, tmp_path, capsys)
    oracles.write_coloring(cpath, 2, [1] * 400)
    for extra in ((), ("--coloring", prov)):
        code, out, err = run(capsys, "--cache", cache_path, "verify", "--witness", wpath, *extra)
        assert (code, out) == (4, "")
        assert err.startswith(f"error (corrupt-input): coloring file {cpath} has SHA-256 ")


def test_a_coloring_document_is_named_by_its_file_not_its_own_key(
        cache_path, tmp_path, capsys, monkeypatch):
    # c.json holds 400 ones and claims another coloring: search and verify
    # both read the file, named by path and digest, and never the claim
    cpath, wpath = tmp_path / "c.json", str(tmp_path / "w.json")
    cpath.write_text(json.dumps({"r": 2, "bound": 400, "colors": [1] * 400,
                                 "provenance": "periodic:q=2,r=2,bound=400"}))
    monkeypatch.chdir(tmp_path)
    code, doc, _ = run_json(capsys, "--cache", cache_path, "search", "--family", "brauer",
                            "--k", "1", "--coloring", "file:c.json", "--bound", "400",
                            "--out", wpath)
    prov = _file_provenance(cpath)
    assert (code, doc["status"]) == (0, "witness")
    assert doc["coloring"] == doc["witness"]["coloring-provenance"] == prov
    assert json.loads(Path(wpath).read_text())["coloring-provenance"] == prov
    code, out, err = run(capsys, "--cache", cache_path, "verify", "--witness", wpath)
    assert (code, out.strip(), err) == (0, "valid", "")
    oracles.write_coloring(cpath, 2, [n % 2 + 1 for n in range(400)])
    for extra in ((), ("--coloring", prov)):
        code, out, err = run(capsys, "--cache", cache_path, "verify", "--witness", wpath, *extra)
        assert (code, out) == (4, "")
        assert err.startswith(f"error (corrupt-input): coloring file {cpath} has SHA-256 ")


def test_a_coloring_past_the_memory_budget_is_usage_error(cache_path, tmp_path, capsys,
                                                          monkeypatch):
    # refused by the descriptor's bound before anything is allocated, from
    # a witness's provenance and from --coloring alike, at a budget raised
    # to one byte below its need
    wpath = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "--cache", cache_path, *SEARCH_ARGS, "--out", wpath)
    assert code == 0
    doc = json.loads(Path(wpath).read_text())
    doc["coloring-provenance"] = "random:pcg64:seed=0,r=2,bound=10000000000000"
    Path(wpath).write_text(json.dumps(doc))
    monkeypatch.setattr(ground, "DEFAULT_MAX_BYTES", 8 * 10**13 - 1)
    message = ("error (usage): coloring bound 10000000000000 needs ~80000000000000 bytes "
               "for its colors, budget is 79999999999999\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "--cache", cache_path, "verify", "--witness", wpath)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", message) and peak < 1_000_000
    code, out, err = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                         "--k", "1", "--coloring", "random:seed=0,r=2",
                         "--bound", "10000000000000")
    assert (code, out, err) == (2, "", message)


def test_verify_after_the_coloring_file_is_deleted_is_usage_error(
        cache_path, tmp_path, capsys):
    cpath, wpath, _ = _search_file_coloring(cache_path, tmp_path, capsys)
    cpath.unlink()
    code, out, err = run(capsys, "--cache", cache_path, "verify", "--witness", wpath)
    assert (code, out) == (2, "")
    assert err == f"error (usage): [Errno 2] No such file or directory: '{cpath}'\n"


def test_file_coloring_path_may_hold_a_hash(cache_path, tmp_path, capsys):
    # the digest is split off from the right, so a '#' in the path stays in
    # it; a path holding '#sha256=' itself resolves with its digest appended
    paths = [tmp_path / "a#1" / "c#2.json", tmp_path / "a#sha256=b" / "c.json"]
    for path in paths:
        path.parent.mkdir()
        oracles.write_coloring(path, 2, [n % 2 + 1 for n in range(400)])
    wpath = str(tmp_path / "w.json")
    for desc in (f"file:{paths[0]}", *map(_file_provenance, paths)):
        code, _, _ = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                         "--k", "1", "--coloring", desc, "--bound", "400",
                         "--gen-max", "16", "--out", wpath)
        assert code == 0
        code, out, err = run(capsys, "--cache", cache_path, "verify", "--witness", wpath)
        assert (code, out.strip(), err) == (0, "valid", "")


@pytest.mark.parametrize("prov", [
    "random:r=2",
    "periodic:map=1;2,bound=500",
    "random:seed=x,r=2,bound=500",
    "random:seed=1,r=0,bound=500",
])
def test_verify_bad_provenance_is_corrupt_input(cache_path, tmp_path, capsys, prov):
    wpath = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "--cache", cache_path, *SEARCH_ARGS, "--out", wpath)
    assert code == 0
    doc = json.loads(Path(wpath).read_text())
    doc["coloring-provenance"] = prov
    Path(wpath).write_text(json.dumps(doc))
    code, out, err = run(capsys, "--cache", cache_path, "verify",
                         "--witness", wpath, "--bound", "400")
    assert code == 4
    assert "corrupt-input" in err and prov in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    b'{"r": true, "bound": 2, "colors": [true, true]}',
    b'{"r": 2, "bound": 0, "colors": []}',
    b'{"r": 1099511627776, "bound": 2, "colors": [1099511627776, 1]}',  # past int32
    b"\xff\xfe",
])
def test_bad_coloring_file_is_corrupt_input(cache_path, tmp_path, capsys, content):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                       "--k", "1", "--coloring", f"file:{path}", "--bound", "2")
    assert code == 4
    assert "error (corrupt-input)" in err


@pytest.mark.parametrize("desc", [
    "periodic:q=2,map=1;99999999999",  # a color past int32
    "periodic:q=2,map=1;x",
    "random:seed=1",
    "enumerated:r=2",
])
def test_bad_coloring_descriptor_is_usage_error(cache_path, capsys, desc):
    code, _, err = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                       "--k", "1", "--coloring", desc, "--bound", "2")
    assert code == 2
    assert "error (usage)" in err and desc in err


def test_non_utf8_witness_is_corrupt_input(cache_path, tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "--cache", cache_path, "verify", "--witness", str(path))
    assert code == 4
    assert "error (corrupt-input)" in err


def test_search_exhausted_with_coloring_file(cache_path, tmp_path, capsys):
    path = str(tmp_path / "distinct.json")
    oracles.write_coloring(path, 400, range(1, 401))
    code, doc, _ = run_json(capsys, "--cache", cache_path, "search",
                            "--family", "brauer", "--k", "1",
                            "--coloring", f"file:{path}", "--bound", "400",
                            "--gen-max", "8")
    assert code == 1
    assert doc["status"] == "exhausted"
    assert doc["witness"] is None


def test_search_past_the_block_memory_budget_is_usage_error(cache_path, capsys, monkeypatch):
    monkeypatch.setattr(ground, "DEFAULT_MAX_BYTES", 10**6)
    code, out, err = run(capsys, "--cache", cache_path, "search", "--family", "fpf",
                         "--k", "10", "--coloring", "random:seed=1,r=2", "--bound", "25000",
                         "--gen-max", "3")
    assert (code, out) == (2, "")
    assert err == ("error (usage): a block of 128 candidates needs ~1005312 bytes for its values, "
                   "budget is 1000000\n")


def test_search_budget_exit(cache_path, capsys):
    code, doc, _ = run_json(capsys, "--cache", cache_path, *SEARCH_ARGS,
                            "--budget", "0")
    assert code == 1
    assert doc["status"] == "budget"
    assert doc["nodes"] == 0


def test_threshold(cache_path, capsys):
    code, doc, _ = run_json(capsys, "--cache", cache_path, "threshold",
                            "--family", "brauer", "--k", "1", "--colors", "2",
                            "--max-bound", "20")
    assert code == 0
    assert doc["threshold"] == 16
    code, doc, _ = run_json(capsys, "--cache", cache_path, "threshold",
                            "--family", "brauer", "--k", "1", "--colors", "2",
                            "--max-bound", "10")
    assert code == 1
    assert doc["threshold"] is None
    # more colors than values: no window is forced, and no per-color allocation
    code, doc, _ = run_json(capsys, "--cache", cache_path, "threshold",
                            "--family", "brauer", "--k", "1", "--colors", "99999999999",
                            "--max-bound", "20")
    assert code == 1
    assert doc["threshold"] is None and doc["colors"] == 99999999999


# ---------------------------------------------------------------------------
# line searches

def test_hj_command(cache_path, capsys):
    code, doc, _ = run_json(capsys, "--cache", cache_path, "hj",
                            "--q", "2", "--r", "2", "--n", "2")
    assert code == 0
    assert doc["status"] == "witness"
    assert doc["alpha"] == []
    assert doc["gamma"] == [1]
    assert len(doc["line"]) == 2
    code, doc, _ = run_json(capsys, "--cache", cache_path, "hj",
                            "--q", "2", "--r", "2", "--n", "2",
                            "--budget", "0")
    assert code == 1
    assert doc["status"] == "budget"
    # a one-color coloring makes the first family line monochromatic
    code, out, _ = run(capsys, "--cache", cache_path, "hj", "--q", "2", "--r", "1",
                       "--n", "3", "--ap-k", "1", "--coloring", "periodic:q=1,r=1")
    assert code == 0
    assert "family set: [2, 3]" in out.splitlines()


def test_phj_command(cache_path, capsys):
    code, doc, _ = run_json(capsys, "--cache", cache_path, "phj",
                            "--q", "2", "--colors", "1", "--d", "1", "--n", "1",
                            "--coloring", "periodic:q=1,r=1", "--bound", "100")
    assert code == 0
    assert doc["status"] == "witness"
    assert doc["gamma"] == [1]
    assert doc["point"]["components"] == [[1]]
    code, doc, _ = run_json(capsys, "--cache", cache_path, "phj",
                            "--q", "2", "--colors", "1", "--d", "1", "--n", "1",
                            "--coloring", "periodic:q=1,r=1", "--bound", "100",
                            "--budget", "0")
    assert code == 1


def test_hj_structured_byte_identical(cache_path, capsys):
    args = ("hj", "--q", "2", "--r", "3", "--n", "3", "--ap-k", "1")
    _, _, raw1 = run_json(capsys, "--cache", cache_path, *args)
    _, _, raw2 = run_json(capsys, "--cache", cache_path, *args)
    assert raw1 == raw2


_HJ = ("hj", "--q", "2", "--r", "2", "--n", "4", "--ap-k", "1")
_PHJ = ("phj", "--q", "3", "--colors", "3", "--d", "1", "--n", "3")
_PROV = "random:pcg64:seed={},r={},bound={}"

# Structured documents of the line searches on the 1e5 cache, pinned:
# every field (status, counts, alpha, gamma, family set, point, color,
# line) must stay as it is.
_PINNED_LINE_SEARCHES = [
    (_HJ + ("--coloring", "random:seed=5,r=2"), 0, {
        "alpha": [[3, 1]], "color": 2, "coloring": _PROV.format(5, 2, 100000),
        "family-set": [2, 4], "gamma": [1],
        "line": [[[1, 0], [2, 0], [3, 1]], [[1, 0], [3, 1], [4, 0]],
                 [[1, 1], [2, 1], [3, 1]], [[1, 1], [3, 1], [4, 1]]],
        "nodes": 6, "skipped": 0, "status": "witness"}),
    (_HJ + ("--coloring", "random:seed=10,r=2"), 0, {
        "alpha": [[3, 1]], "color": 1, "coloring": _PROV.format(10, 2, 100000),
        "family-set": [1, 2], "gamma": [4],
        "line": [[[1, 0], [3, 1], [4, 0]], [[2, 0], [3, 1], [4, 0]],
                 [[1, 1], [3, 1], [4, 1]], [[2, 1], [3, 1], [4, 1]]],
        "nodes": 33, "skipped": 0, "status": "witness"}),
    (_HJ + ("--coloring", "random:seed=11,r=2"), 0, {
        "alpha": [[4, 1]], "color": 2, "coloring": _PROV.format(11, 2, 100000),
        "family-set": [1, 2], "gamma": [3],
        "line": [[[1, 0], [3, 0], [4, 1]], [[2, 0], [3, 0], [4, 1]],
                 [[1, 1], [3, 1], [4, 1]], [[2, 1], [3, 1], [4, 1]]],
        "nodes": 22, "skipped": 0, "status": "witness"}),
    (_HJ + ("--coloring", "random:seed=10,r=2", "--budget", "5"), 1, {
        "alpha": None, "color": None, "coloring": _PROV.format(10, 2, 100000),
        "family-set": None, "gamma": None, "line": None,
        "nodes": 5, "skipped": 0, "status": "budget"}),
    (_HJ + ("--coloring", "random:seed=10,r=2", "--bound", "6"), 1, {
        "alpha": None, "color": None, "coloring": _PROV.format(10, 2, 6),
        "family-set": None, "gamma": None, "line": None,
        "nodes": 42, "skipped": 24, "status": "exhausted"}),
    (_PHJ + ("--coloring", "random:seed=1,r=3"), 1, {
        "color": None, "coloring": _PROV.format(1, 3, 100000), "gamma": None,
        "nodes": 37, "point": None, "skipped": 0, "status": "exhausted"}),
    (_PHJ + ("--coloring", "random:seed=4,r=3"), 0, {
        "color": 3, "coloring": _PROV.format(4, 3, 100000), "gamma": [1, 2],
        "nodes": 20, "point": {"components": [[1, 1, 2]], "d": 1, "n": 3, "q": 3},
        "skipped": 0, "status": "witness"}),
    (_PHJ + ("--coloring", "random:seed=10,r=3"), 0, {
        "color": 3, "coloring": _PROV.format(10, 3, 100000), "gamma": [1, 2, 3],
        "nodes": 34, "point": {"components": [[1, 1, 1]], "d": 1, "n": 3, "q": 3},
        "skipped": 0, "status": "witness"}),
    (_PHJ + ("--coloring", "random:seed=10,r=3", "--budget", "5"), 1, {
        "color": None, "coloring": _PROV.format(10, 3, 100000), "gamma": None,
        "nodes": 5, "point": None, "skipped": 0, "status": "budget"}),
    (_PHJ + ("--coloring", "random:seed=10,r=3", "--bound", "6"), 1, {
        "color": None, "coloring": _PROV.format(10, 3, 6), "gamma": None,
        "nodes": 37, "point": None, "skipped": 13, "status": "exhausted"}),
]


@pytest.mark.parametrize("argv, code, doc", _PINNED_LINE_SEARCHES)
def test_line_search_output_pinned(cache_path, capsys, argv, code, doc):
    got, _, raw = run_json(capsys, "--cache", cache_path, *argv)
    assert got == code
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Human output of the three scans on the 1e5 cache, pinned line by line;
# a search's timing is masked as N.NNNs and its --out path as OUT.
_PINNED_HUMAN_SCANS = [
    (_HJ, 0, ["status: witness (nodes 12, skipped 0)", "alpha: [[4, 1]]  gamma: [2]",
              "family set: [1, 3]", "color: 1"]),
    (_HJ + ("--coloring", "random:seed=10,r=2", "--budget", "5"), 1,
     ["status: budget (nodes 5, skipped 0)"]),
    (("hj", "--q", "2", "--r", "1", "--n", "3", "--coloring", "periodic:q=1,r=1"), 0,
     ["status: witness (nodes 1, skipped 0)", "alpha: []  gamma: [1]", "color: 1"]),
    (_PHJ, 1, ["status: exhausted (nodes 37, skipped 0)"]),
    (_PHJ + ("--coloring", "random:seed=4,r=3"), 0,
     ["status: witness (nodes 20, skipped 0)", "gamma: [1, 2]  color: 3"]),
    (tuple(SEARCH_ARGS), 0, ["status: witness (nodes 7, skipped 0, N.NNNs)",
                             "generators: {'x': 2, 'z': 8}", "configuration: 2 8 14",
                             "color: 1"]),
    (tuple(SEARCH_ARGS) + ("--out", "OUT"), 0, [
        "status: witness (nodes 7, skipped 0, N.NNNs)", "generators: {'x': 2, 'z': 8}",
        "configuration: 2 8 14", "color: 1", "witness written to OUT"]),
    (tuple(SEARCH_ARGS) + ("--budget", "0"), 1,
     ["status: budget (nodes 0, skipped 0, N.NNNs)"]),
]


@pytest.mark.parametrize("argv, code, lines", _PINNED_HUMAN_SCANS)
def test_scan_human_output_pinned(cache_path, tmp_path, capsys, argv, code, lines):
    out_path = str(tmp_path / "w.json")
    argv = [out_path if a == "OUT" else a for a in argv]
    got, out, _ = run(capsys, "--cache", cache_path, *argv)
    out = re.sub(r", \d+\.\d{3}s\)", ", N.NNNs)", out).replace(out_path, "OUT")
    assert got == code
    assert out.splitlines() == lines


# ---------------------------------------------------------------------------
# the parameter table, and rules only the fuzz tests reached before

_MT = ("--m", "2", "--gen", "2", "3", "5")


@pytest.mark.parametrize("flags, spec", [
    (("--family", "fpf", "--k", "2", "--gen", "2", "3"), pat.FpF(2)),
    (("--family", "brauer", "--k", "2", "--gen", "2", "3"), pat.Brauer(2)),
    (("--family", "deuber", "--m", "1", "--p", "2", "--gen", "2", "3"), pat.Deuber(1, 2)),
    (("--family", "mt", "--phi", "proj:2", *_MT), pat.MillikenTaylor(2, pat.PhiProjection(2))),
    (("--family", "mt", "--phi", "sum", *_MT), pat.MillikenTaylor(2, pat.PhiSum())),
    (("--family", "mt", "--phi", "product", *_MT), pat.MillikenTaylor(2, pat.PhiProduct())),
    (("--family", "mt", "--phi", "linear:1;2:3", *_MT),
     pat.MillikenTaylor(2, pat.PhiLinear((1, 2), 3))),
    (("--family", "mt", "--phi", "starfold", *_MT), pat.MillikenTaylor(2, pat.PhiStarFold())),
    (("--family", "geo", "--k", "1", "--gen", "2:1", "2", "1", "1"), pat.GeoArithmetic(1)),
    (("--family", "pvw", "--d", "2", "--sets", "2,3;4,5", "--gen", "2:1", "1"),
     pat.PolyVdW(2, ((2, 3), (4, 5)))),
])
def test_pattern_flags_build_the_in_process_spec(cache_path, capsys, flags, spec):
    code, doc, _ = run_json(capsys, "--cache", cache_path, "pattern", *flags)
    assert code == 0
    assert doc["spec"] == pat.spec_to_doc(spec)


_WITNESS_BASES = {
    "brauer": (pat.Brauer(1), {"x": 2, "z": 3}),
    "fpf": (pat.FpF(2), {"xs": [2, 3]}),
    "geo": (pat.GeoArithmetic(1), {"b": [(2, 1)], "gamma": [2], "a": 1, "d": 1}),
}


@pytest.mark.parametrize("base, path, value", [
    ("brauer", ("configuration",), "x"),
    ("brauer", ("configuration",), [True]),
    ("brauer", ("configuration",), [-1]),
    ("brauer", ("coloring-provenance",), 5),
    ("brauer", ("generators",), [2, 3]),
    ("fpf", ("generators", "xs"), [2, "3"]),
    ("geo", ("generators", "b"), 5),
    ("geo", ("generators", "b"), [[2]]),
])
def test_malformed_witness_field_is_corrupt_input(cache_path, tmp_path, capsys,
                                                  base, path, value):
    spec, gens = _WITNESS_BASES[base]
    table = load_cache(cache_path)
    config = generate_configuration(spec, gens, table)
    doc = pat.witness_to_doc(
        pat.Witness(spec, gens, config, 1, "periodic:q=1,map=1,bound=400", table.limit))
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(doc))
    assert run(capsys, "--cache", cache_path, "verify", "--witness", str(wpath))[0] == 0
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    wpath.write_text(json.dumps(doc))
    code, _, err = run(capsys, "--cache", cache_path, "verify", "--witness", str(wpath))
    assert code == 4
    assert "error (corrupt-input)" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("search", "--family", "brauer", "--k", "1", "--coloring", "file:", "--bound", "2"),
    ("pattern", "--family", "fpf", "--gen", "2,x"),
])
def test_empty_coloring_path_and_bad_gen_are_usage_errors(cache_path, capsys, argv):
    code, _, err = run(capsys, "--cache", cache_path, *argv)
    assert code == 2
    assert "error (usage)" in err


def test_random_coloring_past_int32_is_usage_error(cache_path, capsys):
    code, _, err = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                       "--k", "1", "--coloring", "random:seed=1,r=2147483648",
                       "--bound", "400")
    assert code == 2
    assert "need 1..2147483647 colors, got 2147483648" in err
