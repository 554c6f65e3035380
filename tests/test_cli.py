"""End-to-end CLI behavior through in-process main() calls."""

import json
import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from barysub import __version__, cli
from barysub.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = Path(__file__).parent / "fixtures"
COMPLEXES = FIXTURES / "complexes"
GRAPHS = FIXTURES / "graphs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_subdivide_triangle(capsys):
    code, out, err = run(capsys, "subdivide", str(COMPLEXES / "triangle_boundary.json"))
    assert code == 0 and err == ""
    assert out == (
        '{"ground_set": 6, "facets": [[1, 4], [1, 5], [2, 4], [2, 6], '
        '[3, 5], [3, 6]]}\n'
    )


def test_subdivide_iterated(capsys):
    code, out, _ = run(
        capsys, "subdivide", "-k", "2", str(COMPLEXES / "triangle_boundary.json")
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ground_set"] == 12 and len(obj["facets"]) == 12


def test_subdivide_identity_step(capsys):
    code, out, _ = run(capsys, "subdivide", "-k", "0", str(COMPLEXES / "edge.json"))
    assert code == 0
    assert json.loads(out) == {"ground_set": 2, "facets": [[1, 2]]}


def test_subdivide_labels(capsys, tmp_path):
    labels = tmp_path / "labels.json"
    code, out, _ = run(
        capsys, "subdivide", "--labels", str(labels), str(COMPLEXES / "edge.json")
    )
    assert code == 0
    assert json.loads(out) == {"ground_set": 3, "facets": [[1, 3], [2, 3]]}
    assert json.loads(labels.read_text()) == {"vertices": [[1], [2], [1, 2]]}


def test_subdivide_labels_needs_single_step(capsys):
    code, _, err = run(
        capsys, "subdivide", "-k", "2", "--labels", "x.json",
        str(COMPLEXES / "edge.json"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_dual(capsys):
    code, out, _ = run(capsys, "dual", str(COMPLEXES / "disconnected.json"))
    assert code == 0
    assert json.loads(out) == {
        "ground_set": 4, "facets": [[1, 3], [1, 4], [2, 3], [2, 4]],
    }


def test_complement(capsys):
    code, out, _ = run(capsys, "complement", str(COMPLEXES / "triangle_boundary.json"))
    assert code == 0
    assert json.loads(out) == {"ground_set": 3, "facets": [[1], [2], [3]]}


def test_comp_graph(capsys):
    code, out, _ = run(capsys, "comp-graph", str(COMPLEXES / "edge.json"))
    assert code == 0
    assert json.loads(out) == {
        "vertices": [[1], [2], [1, 2]], "edges": [[0, 2], [1, 2]],
    }


def test_skeleton(capsys):
    code, out, _ = run(capsys, "skeleton", "-i", "0", str(COMPLEXES / "simplex4.json"))
    assert code == 0
    assert json.loads(out) == {"ground_set": 4, "facets": [[1], [2], [3], [4]]}
    code, _, err = run(capsys, "skeleton", "-i", "5", str(COMPLEXES / "simplex4.json"))
    assert code == 2
    assert json.loads(err)["error"] == "SkeletonIndexOutOfRange"


def test_skeleton_over_its_budget_exits_2(capsys, tmp_path):
    src = tmp_path / "simplex64.json"
    src.write_text(json.dumps({"ground_set": 64, "facets": [list(range(1, 65))]}))
    code, out, _ = run(capsys, "skeleton", "-i", "2", str(src))
    assert code == 0
    assert out == json.dumps({"ground_set": 64,
                              "facets": [list(f) for f in combinations(range(1, 65), 3)]}) + "\n"
    for i in (3, 4, 5):
        start = time.perf_counter()
        code, out, err = run(capsys, "skeleton", "-i", str(i), str(src))
        assert code == 2 and out == "" and time.perf_counter() - start < 1
        assert json.loads(err) == {
            "error": "SearchBudgetExceeded",
            "message": f"{i}-skeleton lists {math.comb(64, i + 1)} faces, over the budget of 100000",
        }


def test_nonfaces_and_generators(capsys):
    code, out, _ = run(capsys, "nonfaces", str(COMPLEXES / "triangle_boundary.json"))
    assert code == 0 and json.loads(out) == {"sets": [[1, 2, 3]]}
    code, sr_out, _ = run(capsys, "sr-gens", str(COMPLEXES / "triangle_boundary.json"))
    assert code == 0 and sr_out == out
    code, out, _ = run(capsys, "facet-gens", str(COMPLEXES / "star.json"))
    assert code == 0 and json.loads(out) == {"sets": [[1, 2], [1, 3], [1, 4]]}


def test_euler(capsys):
    code, out, _ = run(capsys, "euler", str(COMPLEXES / "triangle_boundary.json"))
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "euler", str(COMPLEXES / "simplex4.json"))
    assert code == 0 and out == "1\n"


def test_iso_positive(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"ground_set": 3, "facets": [[1, 2], [2, 3]]}')
    b.write_text('{"ground_set": 3, "facets": [[1, 3], [2, 3]]}')
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    obj = json.loads(out)
    assert obj["isomorphic"] is True
    perm = obj["map"]
    assert sorted(perm) == [1, 2, 3]
    mapped = {frozenset(perm[v - 1] for v in f) for f in [[1, 2], [2, 3]]}
    assert mapped == {frozenset({1, 3}), frozenset({2, 3})}


def test_iso_negative(capsys):
    code, out, _ = run(
        capsys, "iso", str(COMPLEXES / "edge.json"), str(COMPLEXES / "point.json")
    )
    assert code == 1
    assert json.loads(out) == {"isomorphic": False, "map": None}


def test_reconstruct_hexagon(capsys):
    code, out, _ = run(capsys, "reconstruct", str(GRAPHS / "hexagon.json"))
    assert code == 0
    assert json.loads(out) == {
        "ground_set": 3, "facets": [[1, 2], [1, 3], [2, 3]],
    }
    code, out, _ = run(capsys, "reconstruct", "--report", str(GRAPHS / "hexagon.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "ok"
    assert obj["orientations_tried"] == 2
    assert obj["both_admissible"] is True


def test_reconstruct_failures_emit_reports(capsys):
    code, out, _ = run(capsys, "reconstruct", str(GRAPHS / "c5.json"))
    assert code == 1
    assert json.loads(out) == {
        "status": "not_orientable", "complex": None,
        "orientations_tried": 0, "both_admissible": False,
    }
    code, out, _ = run(capsys, "reconstruct", str(GRAPHS / "c4.json"))
    assert code == 1
    assert json.loads(out)["status"] == "not_face_poset"


def test_reconstruct_over_the_ground_cap_exits_2(capsys, tmp_path):
    # 33 disjoint P3s, each the face poset of an edge: 66 ground vertices
    edges = [[3 * k + i, 3 * k + 2] for k in range(33) for i in (0, 1)]
    src = tmp_path / "p3s.json"
    src.write_text(json.dumps({"vertices": 99, "edges": sorted(edges)}))
    code, out, err = run(capsys, "reconstruct", str(src))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "GroundSetTooLarge",
        "message": "reconstruction needs 66 vertices, cap is 64",
    }


def test_path_face_poset_over_the_ground_cap_exits_2(capsys, tmp_path):
    # the face-poset graph of the path on n vertices is the path on 2n - 1
    src = tmp_path / "path.json"
    src.write_text(json.dumps({"vertices": 127, "edges": [[i, i + 1] for i in range(126)]}))
    code, out, _ = run(capsys, "reconstruct", str(src))
    assert code == 0
    assert json.loads(out) == {"ground_set": 64, "facets": [[i, i + 1] for i in range(1, 64)]}
    src.write_text(json.dumps({"vertices": 129, "edges": [[i, i + 1] for i in range(128)]}))
    for argv in (["reconstruct"], ["reconstruct", "--report"], ["check-comparability"]):
        code, out, err = run(capsys, *argv, str(src))
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "GroundSetTooLarge",
            "message": "face poset has 65 minimal elements, cap is 64",
        }


def test_reconstruct_of_the_largest_readable_graph_exits_2(capsys, tmp_path):
    # 1,365 disjoint P3s: 4,095 vertices, at the JSON graph cap
    edges = [[3 * k + i, 3 * k + 2] for k in range(1365) for i in (0, 1)]
    src = tmp_path / "p3s.json"
    src.write_text(json.dumps({"vertices": 4095, "edges": edges}))
    code, out, err = run(capsys, "reconstruct", str(src))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "GroundSetTooLarge",
        "message": "reconstruction needs 2730 vertices, cap is 64",
    }


def test_reconstruct_sub_not_flag(capsys):
    code, out, _ = run(
        capsys, "reconstruct-sub", str(COMPLEXES / "triangle_boundary.json")
    )
    assert code == 1
    assert json.loads(out)["status"] == "not_flag"


def test_check_comparability(capsys):
    for name, ok, status in [
        ("hexagon", True, "ok"),
        ("c3", False, "not_face_poset"),
        ("c4", False, "not_face_poset"),
        ("c5", False, "not_orientable"),
    ]:
        code, out, _ = run(capsys, "check-comparability", str(GRAPHS / f"{name}.json"))
        assert code == (0 if ok else 1)
        assert json.loads(out) == {"is_comparability_graph": ok, "status": status}


@pytest.mark.parametrize(
    "name",
    [p.stem for p in sorted(COMPLEXES.glob("*.json"))],
)
def test_subdivide_reconstruct_round_trip(capsys, tmp_path, name):
    src = COMPLEXES / f"{name}.json"
    sub_path = tmp_path / "sub.json"
    rec_path = tmp_path / "rec.json"
    assert main(["subdivide", str(src), "-o", str(sub_path)]) == 0
    assert main(["reconstruct-sub", str(sub_path), "-o", str(rec_path)]) == 0
    code, out, _ = run(capsys, "iso", str(src), str(rec_path))
    assert code == 0, out


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--max-vertices", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["universe_size"] == 10  # both harnesses, 5 members each
    assert obj["pair_checks"] == 40
    assert obj["failures"] == []
    code, out, _ = run(capsys, "verify", "--max-vertices", "4", "--theorem", "2.2")
    assert code == 0
    obj = json.loads(out)
    assert obj["universe_size"] == 20 and obj["pair_checks"] == 230
    code, _, err = run(capsys, "verify", "--max-vertices", "5")
    assert code == 2
    assert json.loads(err)["error"] == "UniverseTooLarge"
    code, out, _ = run(capsys, "verify", "--max-vertices", "5", "--theorem", "2.2")
    assert code == 0


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "euler.txt"
    code, out, _ = run(
        capsys, "euler", str(COMPLEXES / "two_triangles.json"), "-o", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == "1\n"


def test_error_diagnostics(capsys, tmp_path):
    code, _, err = run(capsys, "euler", str(tmp_path / "missing.json"))
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] in ("FileNotFoundError", "OSError")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "euler", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "JSONDecodeError"
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"ground_set": 2, "facets": [[9]]}')
    code, _, err = run(capsys, "euler", str(invalid))
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    # the decoder recurses once per level, so this overflows Python's stack
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for op in ("euler", "reconstruct"):
        code, out, err = run(capsys, op, str(deep))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": f"{deep}: JSON nested too deeply to decode",
        }


# Input bytes and the stderr diagnostic each gives, byte for byte. The file
# is read in binary; newlines are translated as text mode does, so decoder
# positions count a CRLF or a lone CR as one character, and a byte that is
# not UTF-8 is named by its offset in the whole file.
_READ_DIAGNOSTICS = [
    (b'{\r\n  "ground_set": 2,\r\n  "facets": [[1, 2]\r\n}\r\n', "JSONDecodeError",
     "Expecting ',' delimiter: line 4 column 1 (char 41)"),
    (b'{"ground_set": 2,\r"facets":\r\r [[1 2]]}', "JSONDecodeError",
     "Expecting ',' delimiter: line 4 column 6 (char 34)"),
    (b'{"ground_set": 2,\r\n\r"facets": [[1, 2]],\n\r\n "x": "a\rb"}', "JSONDecodeError",
     "Invalid control character at: line 5 column 9 (char 48)"),
    (b'\xef\xbb\xbf{"ground_set": 1, "facets": [[1]]}', "JSONDecodeError",
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (b'{"ground_set": 1, "facets": [[1]], "pad": "' + b"x" * 9000 + b'\xff"}',
     "UnicodeDecodeError",
     "'utf-8' codec can't decode byte 0xff in position 9043: invalid start byte"),
    (b"[" * 100_000 + b"]" * 100_000, "ValueError", "{path}: JSON nested too deeply to decode"),
]


@pytest.mark.parametrize("data, error, message", _READ_DIAGNOSTICS, ids=[
    "crlf", "lone-cr", "mixed-newlines", "bom", "bad-utf8-past-8k", "deep-nesting"])
def test_read_diagnostics_are_pinned(capsysbinary, tmp_path, data, error, message):
    src = tmp_path / "in.json"
    src.write_bytes(data)
    line = json.dumps({"error": error, "message": message.format(path=src)}).encode() + b"\n"
    for op in ("euler", "reconstruct"):
        assert main([op, str(src)]) == 2
        assert capsysbinary.readouterr() == (b"", line)


def test_path_diagnostics_are_pinned(capsysbinary, tmp_path):
    edge = str(COMPLEXES / "edge.json")
    missing = tmp_path / "missing.json"
    cases = [
        (["euler", str(missing)], "FileNotFoundError", f"[Errno 2] No such file or directory: '{missing}'"),
        (["euler", str(tmp_path)], "IsADirectoryError", f"[Errno 21] Is a directory: '{tmp_path}'"),
        (["euler", edge, "-o", str(missing / "x")], "FileNotFoundError",
         f"[Errno 2] No such file or directory: '{missing / 'x'}'"),
        (["euler", edge, "-o", str(tmp_path)], "IsADirectoryError",
         f"[Errno 21] Is a directory: '{tmp_path}'"),
    ]
    for argv, error, message in cases:
        assert main(argv) == 2, argv
        line = json.dumps({"error": error, "message": message}).encode() + b"\n"
        assert capsysbinary.readouterr() == (b"", line), argv


def test_crlf_input_reads_as_lf(capsysbinary, tmp_path):
    src = tmp_path / "crlf.json"
    src.write_bytes(b'{\r\n"ground_set": 2,\r"facets": [[1, 2]]}\r\n')
    assert main(["euler", str(src)]) == 0
    assert capsysbinary.readouterr() == (b"1\n", b"")


def test_facet_outside_ground_set_is_named_as_a_list(capsys, tmp_path):
    src = tmp_path / "outside.json"
    src.write_text('{"ground_set": 2, "facets": [[3]]}')
    code, out, err = run(capsys, "euler", str(src))
    assert code == 2 and out == ""
    assert err == (
        '{"error": "ValueError", '
        '"message": "facet [3] outside ground set of size 2"}\n'
    )


def test_repeated_edge_is_named(capsys, tmp_path):
    src = tmp_path / "twice.json"
    src.write_text('{"vertices": 3, "edges": [[1, 2], [0, 1], [0, 1]]}')
    for op in ("reconstruct", "check-comparability"):
        code, out, err = run(capsys, op, str(src))
        assert code == 2 and out == ""
        assert err == '{"error": "ValueError", "message": "edge [0, 1] listed twice"}\n'


def test_negative_vertex_count_exits_2(capsys, tmp_path):
    src = tmp_path / "negative.json"
    src.write_text('{"vertices": -1, "edges": []}')
    for op in ("reconstruct", "check-comparability"):
        code, out, err = run(capsys, op, str(src))
        assert code == 2 and out == ""
        assert err == '{"error": "ValueError", "message": "vertex count must be >= 0"}\n'


def test_oversized_ground_set_exits_2(capsys, tmp_path):
    src = tmp_path / "huge.json"
    for ground, facets in [(10**20, [[1]]), (4_000_000_000, [])]:
        src.write_text(json.dumps({"ground_set": ground, "facets": facets}))
        for op in ("euler", "dual"):
            code, out, err = run(capsys, op, str(src))
            assert code == 2 and out == ""
            assert json.loads(err) == {
                "error": "GroundSetTooLarge",
                "message": f"ground set size {ground} exceeds 64",
            }


def test_oversized_graph_exits_2_at_once(capsys, tmp_path):
    src = tmp_path / "huge.json"
    for count in (10**20, 10**7):
        src.write_text(json.dumps({"vertices": count, "edges": []}))
        for op in ("reconstruct", "check-comparability"):
            start = time.perf_counter()
            code, out, err = run(capsys, op, str(src))
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert json.loads(err) == {
                "error": "GroundSetTooLarge",
                "message": f"graph with {count} vertices exceeds the 4096-vertex cap",
            }


def test_k46_is_refused_with_its_orientation_count(capsys, tmp_path):
    n = 46
    src = tmp_path / "k46.json"
    edges = [[i, j] for i in range(n) for j in range(i + 1, n)]
    src.write_text(json.dumps({"vertices": n, "edges": edges}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "reconstruct", "--report", str(src))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(out) == {
        "status": "not_face_poset",
        "complex": None,
        "orientations_tried": math.factorial(n),
        "both_admissible": False,
    }


@pytest.mark.parametrize("module", ["barysub", "barysub.cli"])
def test_python_dash_m_runs_the_cli(capsys, module):
    argv = ["euler", str(COMPLEXES / "edge.json")]
    want = run(capsys, *argv)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert want == (0, "1\n", "")
    assert (done.returncode, done.stdout, done.stderr) == want


def test_version_and_usage(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == f"barysub {__version__}"
    code, _, err = run(capsys)
    assert code == 2 and "usage" in err


def test_void_complex_round_trips_through_cli(capsys, tmp_path):
    src = tmp_path / "void.json"
    src.write_text('{"ground_set": 3, "facets": [], "void": true}')
    code, out, _ = run(capsys, "dual", str(src))
    assert code == 0
    assert json.loads(out) == {"ground_set": 3, "facets": [[1, 2, 3]]}
    code, out, _ = run(capsys, "nonfaces", str(src))
    assert code == 0 and json.loads(out) == {"sets": [[]]}
    code, _, err = run(capsys, "subdivide", str(src))
    assert code == 2
    assert json.loads(err)["error"] == "VoidComplex"


def test_strict_integers_on_the_wire_exit_2(capsys, tmp_path):
    src = tmp_path / "float.json"
    src.write_text('{"ground_set": 3, "facets": [[1, 2.5]]}')
    code, out, err = run(capsys, "dual", str(src))
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "ValueError" and "vertex 2.5" in obj["message"]


def test_verify_checks_every_cap_before_any_work(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--max-vertices", "5")
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "UniverseTooLarge",
        "message": "equivalence harness capped at 4 vertices",
    }


def _every_command_on_fixtures(tmp_path) -> list[list[str]]:
    complexes = [str(p) for p in sorted(COMPLEXES.glob("*.json"))]
    graphs = [str(p) for p in sorted(GRAPHS.glob("*.json"))]
    calls = []
    for c in complexes:
        calls += [
            ["subdivide", c], ["subdivide", "-k", "2", c],
            ["subdivide", "--labels", str(tmp_path / "labels.json"), c],
            ["dual", c], ["complement", c], ["comp-graph", c], ["skeleton", "-i", "1", c],
            ["nonfaces", c], ["sr-gens", c], ["facet-gens", c], ["euler", c],
            ["iso", c, complexes[0]], ["reconstruct-sub", c], ["reconstruct-sub", "--report", c],
        ]
    for g in graphs:
        calls += [["reconstruct", g], ["reconstruct", "--report", g], ["check-comparability", g]]
    return calls + [["verify", "--max-vertices", "3"], ["verify", "--max-vertices", "5"]]


def test_output_file_and_stdout_carry_the_same_bytes(capsysbinary, tmp_path):
    # -o writes encoded bytes and stdout is text: both must give the same
    calls = _every_command_on_fixtures(tmp_path)
    assert {argv[0] for argv in calls} == set(COMMANDS)
    target = tmp_path / "out.bin"
    for argv in calls:
        code = main(argv)
        out, err = capsysbinary.readouterr()
        target.unlink(missing_ok=True)
        assert main(argv + ["-o", str(target)]) == code, argv
        assert capsysbinary.readouterr() == (b"", err), argv
        # a failed op writes nothing, to either
        assert (target.read_bytes() if target.exists() else b"") == out, argv
        assert target.exists() == (code != 2), argv


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    tri = str(COMPLEXES / "triangle_boundary.json")
    code, twice, _ = run(capsys, "subdivide", "-k", "2", tri)
    assert code == 0 and len(json.loads(twice)["facets"]) == 12
    code, once, _ = run(capsys, "subdivide", tri)
    assert code == 0 and len(json.loads(once)["facets"]) == 6
    assert run(capsys, "subdivide", "-k", "1", tri) == (0, once, "")
    code, _, err = run(capsys, "subdivide", "-k", "x", tri)
    assert code == 2 and "usage" in err
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out == f"barysub {__version__}\n"
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage: barysub" in out
    code, _, err = run(capsys, "skeleton", tri)
    assert code == 2 and "-i" in err
    calls = _every_command_on_fixtures(tmp_path)
    first = [run(capsys, *argv) for argv in calls]
    second = [run(capsys, *argv) for argv in calls]
    for argv, a, b in zip(calls, first, second):
        assert a == b, argv


def test_importing_the_cli_builds_no_parser():
    probe = "import barysub.cli as c; print(c._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "0\n"


def test_parser_is_built_once_and_build_parser_stays_fresh(capsys, monkeypatch):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    edge = str(COMPLEXES / "edge.json")
    for _ in range(3):
        assert run(capsys, "euler", edge) == (0, "1\n", "")
    assert builds == []  # plain argv is read from COMMANDS
    for _ in range(3):
        assert run(capsys, "euler", "--", edge) == (0, "1\n", "")
    assert builds == [1]
    assert real() is not real()


def test_a_plain_run_never_imports_argparse(tmp_path):
    # -S: no site hook gets to import anything before barysub does
    probe = ("import sys, barysub.cli as c; code = c.main(['euler', sys.argv[1], '-o', sys.argv[2]]); "
             "print(code, 'argparse' in sys.modules, c._parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = tmp_path / "euler.txt"
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(COMPLEXES / "edge.json"), str(out)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "0 False 0\n" and out.read_text() == "1\n"


def test_importing_the_cli_loads_no_record_machinery():
    # -S: no site hook loads anything first, so every module the import
    # needs shows up in the difference
    probe = "import sys; before = set(sys.modules); import barysub.cli; print(*set(sys.modules) - before)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    added = set(done.stdout.split())
    assert "barysub.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "copy", "typing",
                        "random"}


# Tokens the plain argv reader must leave to argparse: help, version,
# abbreviations, attached values, "--", "-", negative numbers, bad values.
_FALLBACK_TOKENS = ["-h", "--help", "--version", "--out", "--outp", "--rep", "--max", "--lab",
                    "--output=o.json", "--theorem=2.2", "-oo.json", "-k2", "-i1", "--", "-", "-1"]
_VALUES = ["0", "1", "2", "5", " 3", "+4", "1_0", "x", "1.5", "", "2.2", "2.3", "2.4"]
_PATHS = ["a.json", "b c.json", "", "in/K5.json", "2", "dual"]
_FLAGS = sorted({f for cmd in COMMANDS.values() for flags, _ in cli._options(cmd) for f in flags})


def _plain_corpus(rng) -> list[list[str]]:
    """Seeded argv built in the plain form; about half are then mutated by
    inserting, replacing or deleting tokens."""
    corpus = []
    for _ in range(6000):
        name = rng.choice(list(COMMANDS))
        cmd = COMMANDS[name]
        units = [[rng.choice(_PATHS)] for _ in cmd.inputs]
        for flags, kwargs in cli._options(cmd):
            # 0-2 times, a required option at least once
            for _ in range(rng.choice([0, 1, 1, 2]) or bool(kwargs.get("required"))):
                flag = [rng.choice(flags)]
                if kwargs.get("action") != "store_true":
                    flag.append(rng.choice(kwargs.get("choices") or (
                        ["0", "1", "3", " 2", "+4"] if kwargs.get("type") else _PATHS)))
                units.append(flag)
        rng.shuffle(units)
        argv = [name, *(t for unit in units for t in unit)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            pool = rng.choice([_FALLBACK_TOKENS, _VALUES, _PATHS, _FLAGS, list(COMMANDS)])
            at = rng.randrange(len(argv) + 1)
            mutation = rng.randrange(3)
            if mutation == 0:
                argv.insert(at, rng.choice(pool))
            elif mutation == 1 and at < len(argv):
                argv[at] = rng.choice(pool)
            elif at < len(argv):
                del argv[at]
        corpus.append(argv)
    return corpus


def test_plain_argv_parses_as_argparse_does():
    parser = cli.build_parser()

    def reference(argv):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse refuses plain argv {argv}")

    flags_seen, commands_seen, fallback_seen = set(), set(), set()
    for argv in _plain_corpus(random.Random(29)):
        plain = cli._plain_args(argv)
        if plain is None:
            fallback_seen.update(argv[:1])
            continue
        assert vars(plain) == reference(argv), argv
        commands_seen.add(argv[0])
        flags_seen.update(t for t in argv if t.startswith("-"))
    assert flags_seen == set(_FLAGS) and commands_seen == set(COMMANDS) <= fallback_seen

    tri = "t.json"
    for argv, want in [
        (["subdivide", "-k", "2", "-k", "3", tri], 3),      # a repeated flag keeps its last value
        (["subdivide", tri, "-k", "0", "--labels", "a", "--labels", "b"], 0),
        (["reconstruct", "--report", "--report", "g.json"], None),
        (["verify", "--theorem", "2.3", "--max-vertices", "9", "--theorem", "2.2"], None),
    ]:
        plain = cli._plain_args(argv)
        assert plain is not None and vars(plain) == reference(argv)
        assert want is None or plain.k == want
    for argv in [
        [], ["-h"], ["--help"], ["--version"], ["dual"], ["dual", "-h"], ["dual", "--version"],
        ["dual", tri, tri], ["dual", "--out", "o", tri], ["dual", "--output=o", tri],
        ["dual", "-oo", tri], ["dual", "--", tri], ["dual", "-"], ["dual", tri, "-o"],
        ["dual", tri, "-o", "-"], ["dual", tri, "-k", "2"], ["subdivide", "-k", "-1", tri],
        ["subdivide", "-k", "x", tri], ["subdivide", "-k2", tri], ["skeleton", tri],
        ["skeleton", "-i", "1.0", tri], ["verify"], ["verify", "--max-vertices", "3", tri],
        ["verify", "--max-vertices", "3", "--theorem", "2.4"], ["iso", tri], ["dua", tri],
        ["reconstruct", "--rep", "g.json"], ["reconstruct", "--report=1", "g.json"],
    ]:
        assert cli._plain_args(argv) is None, argv


def test_every_workload_op_is_plain(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    parser = cli.build_parser()
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1, tmp_path / name):
            argv = [a.replace("{out}", "out/0") for a in op.argv]
            plain = cli._plain_args(argv)
            assert plain is not None, argv
            assert vars(plain) == vars(parser.parse_args(argv))


def test_table_calls_library_operations_through_module_globals(capsys, monkeypatch):
    calls = []
    real = cli.alexander_dual

    def counting(cx):
        calls.append(cx)
        return real(cx)

    monkeypatch.setattr(cli, "alexander_dual", counting)
    code, out, _ = run(capsys, "dual", str(COMPLEXES / "disconnected.json"))
    assert code == 0 and json.loads(out)["facets"] == [[1, 3], [1, 4], [2, 3], [2, 4]]
    assert len(calls) == 1
