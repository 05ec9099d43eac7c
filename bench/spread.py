"""Run-to-run spread of the benchmark, and the host's own spread.

    python3 bench/spread.py runs
    python3 bench/spread.py host
    python3 bench/spread.py scaling

`runs` starts bench/run.py once per (set, seed, workload), for two sets of
ten seeds (1..10 and 11..20), alternating the sets run by run, each run as
long as BENCHMARK.json's run_seconds, and prints for each set, workload and end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and the distance
between the quartiles as a share of the median; then the second set's
median against the first.  `host` times a fixed Fraction loop in eight fresh
processes, one after the other, to show how much the machine alone moves
a CPU-bound process.  `scaling` reads the local_fresh records left in
.bench_out/ and prints median latency against n and K per query kind.
Everything it writes goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("local_fresh", "global_cli", "quadrature")
SETS = 2
SEEDS = 10                 # per set; set s runs seeds 1 + 10 s .. 10 + 10 s
HOST_RUNS = 8
RUN_TIMEOUT = 600

HOST_LOOP = """\
import time
from fractions import Fraction
started = time.perf_counter()
acc = Fraction(0)
for i in range(1, 120001):
    acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, i % 7 + 1)
    if i % 1000 == 0:
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
print(time.perf_counter() - started, time.process_time())
"""


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_runs() -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = defaultdict(list)           # (set, workload) -> [result]
    for index in range(SEEDS):
        for offset in range(SETS):
            s = (index + offset) % SETS               # alternate which set goes first
            seed = 1 + s * SEEDS + index
            for workload in WORKLOADS:
                result = run_once(workload, seed, seconds)
                results[(s, workload)].append(result)
                print(f"set {s} seed {seed} {workload}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (OUT / f"spread-{stamp}.json").write_text(json.dumps(
        {f"{s}/{w}": r for (s, w), r in results.items()}))
    print("| workload | metric | set | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|")
    medians = {}
    for workload in WORKLOADS:
        names = results[(0, workload)][0]["metrics"]
        for name in names:
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[(s, workload)]]
                q1, q2, q3, spread = quartiles(values)
                medians[(workload, name, s)] = q2
                print(f"| {workload} | {name} | {s} | {q2:.6g} | {q1:.6g} | {q3:.6g} "
                      f"| {spread:.4f} |")
    print()
    print("| workload | metric | median set 1 / set 0 - 1 | failed share per set |")
    print("|---|---|---|---|")
    for workload in WORKLOADS:
        shares = []
        for s in range(SETS):
            runs = results[(s, workload)]
            shares.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
        for name in results[(0, workload)][0]["metrics"]:
            ratio = medians[(workload, name, 1)] / medians[(workload, name, 0)] - 1
            print(f"| {workload} | {name} | {ratio:+.4f} | {shares} |")


def cmd_host() -> None:
    walls, cpus = [], []
    for _ in range(HOST_RUNS):
        proc = subprocess.run([sys.executable, "-c", HOST_LOOP], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT, check=True)
        wall, cpu = map(float, proc.stdout.split())
        walls.append(wall)
        cpus.append(cpu)
    q1, q2, q3, spread = quartiles(walls)
    print(f"fixed Fraction loop, {HOST_RUNS} fresh processes: wall min {min(walls):.3f} s, "
          f"median {q2:.3f} s, max {max(walls):.3f} s, (q3-q1)/median {spread:.4f}; "
          f"CPU time median {statistics.median(cpus):.3f} s")


def cmd_scaling() -> None:
    by_n = defaultdict(list)
    by_k = defaultdict(list)
    for path in sorted(OUT.glob("local_fresh-seed*-trace0.json")):
        record = json.loads(path.read_text())
        labels = record["labels"]
        for label, took in zip(record["label_of"], record["times"]):
            kind, (n, K, _) = labels[label]
            by_n[(kind, n)].append(took)
            by_k[(kind, (K - 1) // 8)].append(took)
    kinds = sorted({kind for kind, _ in by_n})
    ns = sorted({n for _, n in by_n})
    print("median ms by n (rows) and query kind (columns)\n")
    print("| n | " + " | ".join(kinds) + " |")
    print("|---" * (len(kinds) + 1) + "|")
    for n in ns:
        cells = [f"{statistics.median(by_n[(k, n)]) * 1e3:.1f}" if by_n[(k, n)] else ""
                 for k in kinds]
        print(f"| {n} | " + " | ".join(cells) + " |")
    print("\nmedian ms by K band (rows) and query kind (columns)\n")
    print("| K | " + " | ".join(kinds) + " |")
    print("|---" * (len(kinds) + 1) + "|")
    for band in sorted({b for _, b in by_k}):
        cells = [f"{statistics.median(by_k[(k, band)]) * 1e3:.1f}" if by_k[(k, band)] else ""
                 for k in kinds]
        print(f"| {8 * band + 1}-{8 * band + 8} | " + " | ".join(cells) + " |")


COMMANDS = {"runs": cmd_runs, "host": cmd_host, "scaling": cmd_scaling}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=COMMANDS)
    COMMANDS[parser.parse_args(argv).command]()


if __name__ == "__main__":
    main()
