"""Child process that runs one workload's ops through ``barysub.cli.main``.

Usage: worker.py SRC WORKDIR SECONDS TRACE

Reads ``WORKDIR/ops.json`` (a list of argv lists with ``{out}`` standing for
the pass directory) and runs the whole list once per pass in this one
process: at least MIN_PASSES times, then while the next pass is expected to
end within SECONDS. Every op starts with an empty canonical-form cache, as
a fresh CLI process would. After each pass it appends one JSON line to
``WORKDIR/results.jsonl``; a pass cut short by the parent's time budget
leaves no line, so its ops count as failed. With TRACE=1 every second pass
runs with the library's layer functions wrapped (see tracing.py), and the
spans of those passes are written to ``WORKDIR/spans.jsonl`` at the end.

On a shared host each CPU's speed drifts, independently of the other CPUs,
by up to a factor of two over seconds. So the process keeps to the fastest
CPU, and a timer signal runs a fixed pure-Python probe every PROBE_EVERY_S
seconds, inside ops as well as between them. An op's latency excludes the
probes that ran during it, and its record carries a scale: REFERENCE_PROBE_S
over the mean of the probes from just before it to just after it. Latency
times scale is the latency at the reference speed. With TRACE=1 probes run
only between passes, so that no probe lands in a span and traced and
untraced passes are scaled alike.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

MIN_PASSES = 3
PROBE_LOOPS = 12000
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.25
REFERENCE_PROBE_S = 0.004
MAX_CPUS = 2


def _probe_kernel() -> int:
    # Integer and hash-table work, then many small short-lived objects, as
    # in the library's inner loops and the CLI's argument parsing.
    acc, seen, table = 0, set(), {}
    for i in range(PROBE_LOOPS):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc ^= m & -m
        seen.add(m & 1023)
        table[i & 255] = acc
    index: dict[str, list[str]] = {}
    for i in range(PROBE_LOOPS // 8):
        opt = {"name": "opt%d" % i, "dest": "d%d" % (i % 97), "help": [i, str(i)]}
        index.setdefault(opt["dest"], []).append(opt["name"])
    return acc + len(seen) + len(table) + len(sorted(index.values(), key=len))


def speed_probe() -> float:
    """Fastest of a few timings of a fixed interpreter-bound loop, in seconds."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def candidate_cpus() -> list[int]:
    """Up to MAX_CPUS of the CPUs this process may run on; probing each costs time."""
    return sorted(os.sched_getaffinity(0))[:MAX_CPUS]


def move_to_fastest_cpu(cpus: list[int]) -> float:
    """Pin this process to whichever of cpus probes fastest; returns that probe."""
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        probe = speed_probe()
        if best is None or probe < best[0]:
            best = (probe, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0]


class SpeedLog:
    """Probe times, and the seconds spent probing, gathered by a timer signal.

    Each sample probes every candidate CPU and moves the process to the
    fastest, so that it spends less time on a slowed CPU.
    """

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.probes: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.probes.append(move_to_fastest_cpu(self.cpus))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, first: int, last: int) -> float:
        """Reference speed over the mean speed of probes first..last."""
        window = self.probes[first:last + 1]
        return REFERENCE_PROBE_S / (sum(window) / len(window))


def main(argv: list[str]) -> int:
    src, workdir, seconds, trace = argv[0], Path(argv[1]), float(argv[2]), argv[3] == "1"
    sys.path.insert(0, src)
    import barysub.cli
    from barysub.core import _canonical

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()

    ops = json.loads((workdir / "ops.json").read_text(encoding="utf-8"))
    cpus = candidate_cpus()
    start = time.perf_counter()
    passes = 0
    last = 0.0
    with open(workdir / "results.jsonl", "w", encoding="utf-8") as results:
        while passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
            traced = trace and passes % 2 == 1
            out = f"out/p{passes}"
            (workdir / out).mkdir(parents=True, exist_ok=True)
            calls = [[a.replace("{out}", out) for a in op] for op in ops]
            records = []
            speed = SpeedLog(cpus)
            gc.collect()
            t_pass = time.perf_counter()
            speed.sample()
            if traced:
                tracer.install()
            elif not trace:
                speed.start()
            for i, call in enumerate(calls):
                _canonical.cache_clear()
                if traced:
                    tracer.op = passes * len(calls) + i
                error = None
                first, spent = len(speed.probes) - 1, speed.spent
                t0 = time.perf_counter()
                try:
                    code = barysub.cli.main(call)
                except Exception as exc:  # an uncaught exception is a failed op
                    code, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                latency = t1 - t0 - (speed.spent - spent)
                if traced:
                    tracer.note_cache(_canonical.cache_info())
                records.append([code, latency, error, first, len(speed.probes)])
            if traced:
                tracer.uninstall()
            speed.stop()
            speed.sample()
            last = time.perf_counter() - t_pass
            ops_out = [[code, latency, error, speed.scale(first, after)]
                       for code, latency, error, first, after in records]
            results.write(json.dumps({"pass": passes, "traced": traced, "seconds": last,
                                      "ops": ops_out}) + "\n")
            results.flush()
            passes += 1
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results.write(json.dumps({"peak_rss_kb": rss_kb}) + "\n")
    if tracer is not None:
        tracer.dump(workdir / "spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
