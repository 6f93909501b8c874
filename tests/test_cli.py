"""End-to-end command-line behavior and exit codes."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from sqstar import build_table, periodic_coloring, save_cache
from sqstar.cli import main
from sqstar.colorings import to_file as coloring_to_file


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


def test_search_verify_roundtrip(cache_path, tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "--cache", cache_path, *SEARCH_ARGS, "--out", wpath)
    assert code == 0
    code, out, _ = run(capsys, "--cache", cache_path, "verify",
                       "--witness", wpath, "--bound", "400")
    assert code == 0 and out.strip() == "valid"

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
    b"\xff\xfe",
])
def test_bad_coloring_file_is_corrupt_input(cache_path, tmp_path, capsys, content):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "--cache", cache_path, "search", "--family", "brauer",
                       "--k", "1", "--coloring", f"file:{path}", "--bound", "2")
    assert code == 4
    assert "error (corrupt-input)" in err


def test_non_utf8_witness_is_corrupt_input(cache_path, tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "--cache", cache_path, "verify", "--witness", str(path))
    assert code == 4
    assert "error (corrupt-input)" in err


def test_search_exhausted_with_coloring_file(cache_path, tmp_path, capsys):
    path = str(tmp_path / "distinct.json")
    coloring_to_file(periodic_coloring(400, list(range(1, 401)), 400), path)
    code, doc, _ = run_json(capsys, "--cache", cache_path, "search",
                            "--family", "brauer", "--k", "1",
                            "--coloring", f"file:{path}", "--bound", "400",
                            "--gen-max", "8")
    assert code == 1
    assert doc["status"] == "exhausted"
    assert doc["witness"] is None


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
