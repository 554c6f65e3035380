"""Tests of the benchmark itself: seeded inputs, the checker and the traced run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _inputs(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((root / "in").iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = workloads.build(workload, 7, tmp_path / "a")
    b = workloads.build(workload, 7, tmp_path / "b")
    assert [op.argv for op in a] == [op.argv for op in b]
    assert _inputs(tmp_path / "a") == _inputs(tmp_path / "b")


def test_other_seed_gives_other_inputs(tmp_path):
    workloads.build("roundtrip", 7, tmp_path / "a")
    workloads.build("roundtrip", 8, tmp_path / "b")
    assert _inputs(tmp_path / "a") != _inputs(tmp_path / "b")


def _one_pass(ops, workdir: Path) -> list[dict]:
    """Run ops once through the CLI in this process, as the worker does."""
    import barysub.cli

    out = workdir / "out" / "p0"
    out.mkdir(parents=True)
    records = []
    for op in ops:
        argv = [str(workdir / a) if a.startswith("in/") else a.replace("{out}", str(out))
                for a in op.argv]
        records.append([barysub.cli.main(argv), 0.001, None, 1.0])
    return [{"pass": 0, "seconds": 0.001 * len(ops), "ops": records}]


def test_checker_counts_a_wrong_output_as_failed(tmp_path):
    ops = [op for op in workloads.build("dual", 3, tmp_path) if op.id.startswith("n16s1/")]
    passes = _one_pass(ops, tmp_path)
    assert run.check_passes(ops, tmp_path, passes, cut=False) == (len(ops), [])

    dual = tmp_path / "out" / "p0" / "n16s1.d.json"
    obj = json.loads(dual.read_text())
    obj["facets"] = obj["facets"][1:]
    dual.write_text(json.dumps(obj))
    attempted, failures = run.check_passes(ops, tmp_path, passes, cut=False)
    assert attempted == len(ops)
    assert failures == ["pass 0 n16s1/dual: dual facets are not the complements "
                        "of the minimal nonfaces"]


def test_checker_counts_exit_codes_errors_budgets_and_cut_passes(tmp_path):
    ops = [op for op in workloads.build("reject", 3, tmp_path) if op.id.startswith("K5/")]
    passes = _one_pass(ops, tmp_path)
    assert run.check_passes(ops, tmp_path, passes, cut=False) == (2, [])
    passes[0]["ops"][0][0] = 0  # a rejection must exit 1
    passes[0]["ops"][1][1] = ops[1].budget_s + 1
    _, failures = run.check_passes(ops, tmp_path, passes, cut=False)
    assert len(failures) == 2
    passes[0]["ops"][1] = [None, 0.001, "RuntimeError: boom", 1.0]
    attempted, failures = run.check_passes(ops, tmp_path, passes, cut=True)
    assert attempted == 4  # the unfinished pass counts every op as failed
    assert len(failures) == 4


def test_self_time_subtracts_direct_children():
    names = list(tracing.LAYERS)
    cli, jsonio = names.index("cli.main"), names.index("jsonio.read")
    spans = [(cli, 0.0, 10.0, -1, 0), (jsonio, 1.0, 3.0, 0, 0), (jsonio, 4.0, 5.0, 0, 0)]
    counts = dict.fromkeys(tracing.COUNTERS, 0)
    out = tracing.summarize(names, counts, spans, passes=1)
    assert out["cli.main.total_s"] == 10.0
    assert out["cli.main.self_s"] == 7.0
    assert out["jsonio.read.calls"] == 2
    assert out["jsonio.read.self_s"] == 3.0


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_every_declared_metric(trace, kind):
    code, lines = _bench("--workload", "dual", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 350
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared(kind)
    if trace == "1":
        assert metrics["derived.alexander_dual.calls"]["value"] == 140
        assert metrics["cli.main.self_s"]["value"] > 0
        assert "trace.overhead_s" in metrics
    else:
        assert all(v["value"] > 0 for v in metrics.values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench("--workload", "dual", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
