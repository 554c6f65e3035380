"""Benchmark of the barysub CLI on four seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0

Set-up writes the workload's inputs from the seed and times fresh
interpreters importing ``barysub.cli`` (``setup_s``, the median of twelve,
half before and half after the ops). The ops then run in a child process
(worker.py), one at a time, as ``barysub.cli.main(argv)`` calls that read
JSON inputs and write JSON outputs; the whole op list is repeated for about
``--seconds``. Every output of every pass is checked against oracles.py
after the child exits.

All times are scaled to a reference machine speed by a probe (see
worker.py), because the speed of a shared host drifts. An op's latency is
the median over passes; ``wall_s`` is the sum of these over the op list,
and ``op_p50_ms`` / ``op_p95_ms`` are percentiles over the ops of one pass.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics, with the tracing overhead, replace the end-to-end ones. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the first line gives the fail
ratio and the number of samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 6
# Seconds a child may run past its measuring time before it is killed and
# its unfinished pass counted as failed ops.
CHILD_GRACE_S = 60


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of the end_to_end or per_layer list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def time_setup(src: Path, repeats: int) -> list[float]:
    """Times for fresh interpreters to import barysub.cli, at the reference speed."""
    cmd = [sys.executable, "-c", "import barysub.cli"]
    env = dict(os.environ, PYTHONPATH=str(src))
    allowed = os.sched_getaffinity(0)
    worker.move_to_fastest_cpu(worker.candidate_cpus())
    times = []
    for _ in range(repeats):
        before = worker.speed_probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        elapsed = time.perf_counter() - t0
        probe = (before + worker.speed_probe()) / 2
        times.append(elapsed * worker.REFERENCE_PROBE_S / probe)
    os.sched_setaffinity(0, allowed)
    return times


def run_child(src: Path, workdir: Path, seconds: float,
              trace: bool) -> tuple[list[dict], int | None, bool]:
    """Run worker.py; returns (finished passes, peak RSS in KiB, whether it was cut)."""
    for stale in ("results.jsonl", "spans.jsonl"):
        (workdir / stale).unlink(missing_ok=True)
    shutil.rmtree(workdir / "out", ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(src), str(workdir), str(seconds),
           "1" if trace else "0"]
    cut = False
    with open(workdir / "worker.err", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.DEVNULL, stderr=err)
        try:
            cut = proc.wait(timeout=seconds + CHILD_GRACE_S) != 0
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            cut = True
    passes, rss = [], None
    results = workdir / "results.jsonl"
    if results.exists():
        for line in results.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "peak_rss_kb" in rec:
                rss = rec["peak_rss_kb"]
            else:
                passes.append(rec)
    return passes, rss, cut


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def check_passes(ops: list[workloads.Op], workdir: Path, passes: list[dict],
                 cut: bool) -> tuple[int, list[str]]:
    """Check every op of every pass; returns (attempted, failure messages).

    A later pass whose op gave the same exit code and byte-identical output
    files as pass 0 shares pass 0's verdict. A pass the child did not finish
    counts all its ops as failed.
    """
    attempted, failures = 0, []
    first: list[tuple[int, str | None]] = []
    for rec in passes:
        p = rec["pass"]
        outdir = workdir / "out" / f"p{p}"
        for i, (code, secs, error, _) in enumerate(rec["ops"]):
            op = ops[i]
            attempted += 1
            if error is not None:
                verdict = f"raised {error}"
            elif secs > op.budget_s:
                verdict = f"took {secs:.1f} s, budget {op.budget_s:.0f} s"
            elif p > 0 and first[i][0] == code and all(
                _read(outdir / f) == _read(workdir / "out" / "p0" / f) for f in op.outputs
            ):
                verdict = first[i][1]
            else:
                try:
                    verdict = op.check(code, outdir)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    verdict = f"unreadable output: {type(exc).__name__}: {exc}"
            if p == 0:
                first.append((code, verdict))
            if verdict is not None:
                failures.append(f"pass {p} {op.id}: {verdict}")
    if cut or not passes:
        attempted += len(ops)
        failures.extend(f"unfinished pass: {op.id}" for op in ops)
    return attempted, failures


def op_latencies(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes at the reference speed, in seconds."""
    return [statistics.median(rec["ops"][i][1] * rec["ops"][i][3] for rec in passes)
            for i in range(len(passes[0]["ops"]))]


def end_to_end(passes: list[dict], rss_kb: int | None, setup: list[float]) -> dict[str, float]:
    latency_ms = [secs * 1e3 for secs in op_latencies(passes)]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latency_ms) / 1e3,
        "op_p50_ms": statistics.median(latency_ms),
        "op_p95_ms": statistics.quantiles(latency_ms, n=20, method="inclusive")[-1],
        "peak_rss_mb": (rss_kb or 0) / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "barysub" / "cli.py").is_file():
        print(f"no barysub sources under {src}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        (workdir / "ops.json").write_text(json.dumps([op.argv for op in ops]), encoding="utf-8")
        if args.trace == "0":
            time_setup(src, 1)  # fills the bytecode cache
            setup = time_setup(src, SETUP_REPEATS)
            passes, rss_kb, cut = run_child(src, workdir, args.seconds, trace=False)
            setup += time_setup(src, SETUP_REPEATS)
            attempted, failures = check_passes(ops, workdir, passes, cut)
            metrics = end_to_end(passes, rss_kb, setup) if passes else {}
            units = declared_units("end_to_end")
        else:
            passes, _, cut = run_child(src, workdir, args.seconds, trace=True)
            attempted, failures = check_passes(ops, workdir, passes, cut)
            plain = [rec for rec in passes if not rec["traced"]]
            traced = [rec for rec in passes if rec["traced"]]
            metrics = {}
            if plain and traced:
                spans_file = ROOT / ".bench_run" / f"spans-{args.workload}-seed{args.seed}.jsonl"
                shutil.move(workdir / "spans.jsonl", spans_file)
                names, counts, spans = tracing.load(spans_file)
                metrics = tracing.summarize(names, counts, spans, len(traced))
                untraced_s = sum(op_latencies(plain))
                overhead = sum(op_latencies(traced)) - untraced_s
                metrics["trace.overhead_s"] = overhead
                metrics["trace.overhead_ratio"] = overhead / untraced_s
            units = declared_units("per_layer")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops_per_pass={len(ops)} samples={attempted} "
          f"failed={len(failures)} fail_ratio={len(failures) / max(attempted, 1):.4f} ratio")
    print("pass_s=" + " ".join(f"{rec['seconds']:.3f}" for rec in passes))
    for message in failures[:20]:
        print(f"  FAIL {message}")
    for name, value in metrics.items():
        print(f"  {name:58s} {value:14.6f} {units[name]}")
    missing = set(units) - set(metrics)
    result = {
        "correct": not failures and not missing,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
