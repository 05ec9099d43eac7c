"""Benchmark of the nilcone engine: one workload per run, closed loop.

    python3 bench/run.py --workload local_fresh --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from its
src/ directory, so nothing is built or installed.  One caller sends each
query after the previous answer, in a single process whose numpy thread
pools are held to one thread.  The run first times the start of several
fresh interpreters up to the workload's entry module (setup_s), then
imports the engine, runs one untimed warm-up round, and times whole rounds
of queries until their summed time passes --seconds.  Every answer is
checked (bench/checks.py); the checks are not timed.  Between queries a
host-speed probe runs, and the reported times are scaled by it to a quiet
host (bench/hostspeed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics of the traced ones,
with the tracing overhead against the untraced rounds.  The last line of
stdout is one JSON object; a copy with every sample goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_LIMITS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                         "VECLIB_MAXIMUM_THREADS")}
SETUP_RUNS = 11            # fresh interpreters timed per run, after one untimed
SETUP_TIMEOUT = 60
MAX_ERRORS_SHOWN = 5


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters up to the workload's entry module

SETUP_PROBE = """\
import sys, time
before = len(sys.modules)
started = time.perf_counter()
import {entry}
took = time.perf_counter() - started
print(time.monotonic(), took, len(sys.modules) - before, int("numpy" in sys.modules))
"""


def measure_setup(entry: str, env: dict) -> list:
    """[(start-to-import seconds, import seconds, modules loaded, numpy loaded,
    the Python probe's median time just before the start)]."""
    code = SETUP_PROBE.format(entry=entry)
    samples = []
    for attempt in range(SETUP_RUNS + 1):
        probe = statistics.median(hostspeed.python_probe() for _ in range(3))
        started = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"importing {entry} failed:\n{proc.stderr.strip()}")
        done, took, modules, numpy = proc.stdout.split()
        if attempt:
            samples.append((float(done) - started, float(took), int(modules), int(numpy),
                            probe))
    return samples


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs rounds, times the calls, checks the answers.

    Per-query figures are kept in flat arrays, a few bytes per query, so
    that the process's peak memory (peak_rss_mb) does not grow with the
    number of queries a run completes.
    """

    def __init__(self, probe=None):
        self.probe = probe                 # host-speed probe, timed between queries
        self.probe_marks = array("i")      # timed queries done when each probe ran
        self.probe_s = array("d")          # seconds each probe took
        self.since_probe = 0.0
        self.times = array("d")            # seconds of each timed query
        self.label_of = array("i")         # each timed query's index into labels
        self.labels = {}                   # (kind, tags) -> index
        self.round_ends = array("i")       # len(times) at the end of each timed round
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def error(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS_SHOWN:
            log(f"check failed: {message}")
        self.errors.append(message)

    def take_probe(self) -> None:
        self.probe_marks.append(len(self.times))
        self.probe_s.append(self.probe())

    def rounds(self) -> list:
        """(first, end) sample index of each timed round that holds samples."""
        starts = [0] + list(self.round_ends[:-1])
        return [(first, end) for first, end in zip(starts, self.round_ends) if end > first]

    def run_round(self, rnd, clock=time.perf_counter, tracer=None, timed=True):
        """Run one round.  Return the summed time of its calls on `clock`, and
        their summed real time, which includes any tracing bookkeeping."""
        busy = real = 0.0
        for query in rnd.queries:
            if timed:
                self.attempted += 1
            if tracer is not None:
                tracer.query = self.attempted
            started = clock()
            real_started = time.perf_counter()
            try:
                out = query.call()
            except Exception as exc:       # a failing query is counted, not fatal
                real += time.perf_counter() - real_started
                busy += clock() - started
                if timed:
                    self.failed += 1
                log(f"query failed: {query.kind}{query.tags}: {exc!r}")
                continue
            real += time.perf_counter() - real_started
            took = clock() - started
            busy += took
            if timed:
                self.times.append(took)
                self.label_of.append(self.labels.setdefault((query.kind, query.tags),
                                                            len(self.labels)))
                self.since_probe += took
                if self.probe is not None and self.since_probe >= hostspeed.PROBE_EVERY:
                    self.take_probe()
                    self.since_probe = 0.0
            try:
                query.check(out)
            except Exception as exc:       # a malformed answer fails its check
                self.error(f"{query.kind}{query.tags}: {exc!r}")
        try:
            rnd.close()
        except Exception as exc:
            self.error(f"round check: {exc!r}")
        if timed:
            self.round_ends.append(len(self.times))
        return busy, real


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(loop: Loop, setup: list, kind: str) -> dict:
    """Times are scaled to the quiet host (hostspeed.py).  Throughput and
    median latency are taken per round and reported as the median over the
    rounds, so that load from elsewhere on the host that the probes miss
    moves a few rounds, not the run.  A round holds too few queries for a
    tail, so the 90th percentile is taken over every query of the run.
    The peak resident set is read first, before the lists built here."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = hostspeed.scaled(loop.times, loop.probe_marks, loop.probe_s, kind)
    rounds = [times[first:end] for first, end in loop.rounds()]
    python = hostspeed.NOMINAL["python"]
    return {
        "throughput_qps": (statistics.median(len(r) / sum(r) for r in rounds), "1/s"),
        "latency_p50_ms": (statistics.median(statistics.median(r) for r in rounds) * 1e3, "ms"),
        "latency_p90_ms": (percentile(times, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(s[0] * python / s[4] for s in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, traced_queries: int, traced_s: float, traced_real_s: float,
              untraced_queries: int, untraced_s: float, stdout_bytes: int, setup: list) -> dict:
    q = traced_queries
    counts = tracer.counts

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / q, "s/query")
        out[f"{layer}.calls"] = (tracer.calls[layer] / q, "calls/query")
    out.update({
        "sl2.matmul_calls": (counts["sl2.matmul_calls"] / q, "calls/query"),
        "sl2.matmul_products": (counts["sl2.matmul_products"] / q, "products/query"),
        "sl2.matmul_repeat_share": (share(counts["sl2.matmul_repeats"],
                                          counts["sl2.matmul_calls"]), "share"),
        "transversal.terms_out": (counts["transversal.terms_out"] / q, "terms/query"),
        "transversal.max_coeff_bits": (tracer.coeff_bits, "bits"),
        "solver.nullspace_cols": (counts["solver.nullspace_cols"] / q, "cols/query"),
        "solver.basis_elements": (counts["solver.basis_elements"] / q, "count/query"),
        "characters.sym_power_degree_sum": (counts["characters.sym_power_degree_sum"] / q,
                                            "degree/query"),
        "characters.repeat_share": (share(counts["characters.repeats"],
                                          counts["characters.keyed_calls"]), "share"),
        "cli.commands": (counts["cli.commands"], "count"),
        "cli.stdout_bytes": (stdout_bytes / q, "B/query"),
        "oracle.nodes": (counts["oracle.nodes"] / q, "nodes/query"),
        "oracle.nodes_per_s": (share(counts["oracle.nodes"], tracer.self_s["oracle"]),
                               "nodes/s"),
        "oracle.bytes_computed": (counts["oracle.bytes_computed"] / q, "B/query"),
        "setup.import_s": (statistics.median(s[1] for s in setup), "s"),
        "setup.modules_loaded": (statistics.median(s[2] for s in setup), "count"),
        "setup.numpy_loaded": (max(s[3] for s in setup), "bool"),
        "trace.overhead": (share(traced_real_s / q, untraced_s / untraced_queries), "ratio"),
        "trace.outside_s": ((traced_s - tracer.root_s) / q, "s/query"),
        "trace.queries": (q, "count"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nilcone" / "__init__.py").is_file():
        log(f"error: no engine source at {SRC / 'nilcone'}; run from a nilcone checkout")
        return 2

    os.environ.update(THREAD_LIMITS)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    workload_cls = workloads.WORKLOADS[args.workload]
    setup = measure_setup(workload_cls.entry, env)

    workload = workload_cls()
    import nilcone
    if Path(nilcone.__file__).resolve().parent != SRC / "nilcone":
        log(f"error: nilcone was imported from {nilcone.__file__}, not from {SRC}")
        return 2

    loop = Loop(None if args.trace else hostspeed.PROBES[workload.probe])
    loop.run_round(workload.warmup(args.seed), timed=False)
    stream = workload.rounds(args.seed)
    busy = 0.0
    if not args.trace:
        while busy < args.seconds:
            busy += loop.run_round(next(stream))[0]
        loop.take_probe()
        metrics = end_to_end(loop, setup, workload.probe)
        summary = {}
    else:
        import nilcone.cli  # noqa: F401  (every layer is patched, the CLI too)
        tracer = tracing.Tracer()
        untraced = traced = traced_real = 0.0
        untraced_q = traced_q = 0
        stdout_bytes = 0
        while untraced + traced_real < args.seconds:
            before = loop.attempted
            untraced += loop.run_round(next(stream))[0]
            untraced_q += loop.attempted - before
            before, bytes_before = loop.attempted, getattr(workload, "stdout_bytes", 0)
            rnd = next(stream)
            tracer.install()
            try:
                on_clock, real = loop.run_round(rnd, clock=tracer.now, tracer=tracer)
            finally:
                tracer.remove()
            traced += on_clock
            traced_real += real
            traced_q += loop.attempted - before
            stdout_bytes += getattr(workload, "stdout_bytes", 0) - bytes_before
        metrics = per_layer(tracer, traced_q, traced, traced_real, untraced_q, untraced,
                            stdout_bytes, setup)
        self_sum = sum(tracer.self_s.values())
        summary = {"traced_loop_s": traced, "layer_self_s": dict(tracer.self_s),
                   "outside_s": traced - tracer.root_s, "spans": tracer.opened}
        log(f"trace: layer self times {self_sum:.6f} s + outside spans "
            f"{traced - tracer.root_s:.6f} s = {self_sum + traced - tracer.root_s:.6f} s; "
            f"traced loop {traced:.6f} s; overhead x{metrics['trace.overhead'][0]:.3f}")
        if abs(self_sum - tracer.root_s) > 1e-6 * max(traced, 1.0):
            loop.error("layer self times do not add up to the traced loop")

    cut = percentile(loop.times, 90)
    tail = sum(1 for t in loop.times if t > cut)
    print(f"{args.workload} seed {args.seed}: {loop.attempted} queries attempted, "
          f"{loop.failed} failed, {len(loop.errors)} check failures; "
          f"{len(loop.times)} latency samples in {len(loop.round_ends)} rounds, "
          f"{tail} above p90")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {"correct": not loop.errors, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    write_record(args, result, loop, setup, summary,
                 tracer.spans if args.trace else None)
    print(json.dumps(result))
    return 0


def write_record(args, result, loop, setup, summary, spans) -> None:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args), "result": result, "setup": setup, "trace": summary,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "numpy": _numpy_version()},
        "labels": [[kind, list(tags)] for kind, tags in loop.labels],
        "label_of": loop.label_of.tolist(), "times": loop.times.tolist(),
        "probe_marks": loop.probe_marks.tolist(), "probe_s": loop.probe_s.tolist(),
        "round_ends": loop.round_ends.tolist(), "errors": loop.errors,
    }
    stem.with_suffix(".json").write_text(json.dumps(record))
    if spans is not None:
        fields = ("query", "span", "parent", "layer", "name", "start", "end")
        stem.with_suffix(".spans.json").write_text(
            json.dumps({"fields": fields, "spans": spans}))


def _numpy_version():
    numpy = sys.modules.get("numpy")
    return numpy.__version__ if numpy else None


if __name__ == "__main__":
    sys.exit(main())
