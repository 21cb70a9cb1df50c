"""Benchmark of the folnerdom CLI on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --record                # rewrite expected.json

NAME is one of workloads.WORKLOADS.  Run from anywhere; the package is taken
from the src/ directory next to this one, and scratch files go to
.perfbench_work/ (deleted at exit) and .perfbench_out/ (the last span dump).

--trace 0 (end to end): the workload's CLI steps run as cold child processes,
one at a time, for S seconds; every pass's exit codes and output bytes are
checked.  Reported: wall_s and cpu_s (the children's user+sys from their own
rusage), each the mean per pass, i.e. total time over the number of finished
passes; peak_rss_mb (largest child ru_maxrss, median over passes); and
setup_s (median of SETUP_REPEATS fresh interpreters that import the package
and build the chain).

Why a mean per pass and not a median: on a shared host the CPU speed
alternates between a fast and a slow phase every few seconds, so single
pass times fall into two clusters about 1.5x apart.  The median then jumps
from one cluster to the other as the share of fast phases in a run crosses
one half, while the mean follows that share smoothly; over runs of the same
code the mean spreads less.  The report also prints the median and 90th
percentile pass time.

--trace 1 (per layer): pairs of in-process runs in fresh interpreters, one
plain and one traced, for S seconds; spans give each function's self time,
counters give exact work counts, and trace.overhead_s is traced minus plain
wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, RECORD_FILE, WORKLOADS, check_outputs, file_hashes, load_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
INPROC = str(HERE / "inproc.py")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Reported by every traced workload.  Self times and shares of layers that
# only some workloads reach (word_ball, lamplighter_folner, serialize, the
# actions functions) are printed in the report and kept in the span dump but
# left out of this list, so that nothing here but a count reads 0 on some
# workload; their call counts stand in.
PER_LAYER = {
    "groups.mul.calls": "count",
    "groups.inv.calls": "count",
    "groups.mul_ns": "ns",
    "groups.inv_ns": "ns",
    "groups.encode_ns": "ns",
    "groups.word_ball.calls": "count",
    "sets.product.s": "s",
    "sets.product.pairs": "count",
    "sets.power.s": "s",
    "sets.serialize.calls": "count",
    "sets.interior_bilateral.s": "s",
    "measures.convolve.s": "s",
    "measures.convolve.calls": "count",
    "measures.convolve.pairs": "count",
    "measures.convolve.support_max": "count",
    "measures.convolve.num_bits_max": "count",
    "measures.convolve.den_bits_max": "count",
    "measures.convolve.share": "%",
    "measures.convolve_at.s": "s",
    "measures.convolve_at.pairs": "count",
    "measures.convolve_at.share": "%",
    "measures.cesaro_density.s": "s",
    "measures.truncated_powers": "count",
    "measures.serialize_csv.calls": "count",
    "chains.build_chain.s": "s",
    "chains.lamplighter_folner.calls": "count",
    "dominance.dominance_report.s": "s",
    "dominance.tainted_levels": "count",
    "actions.apply_push.calls": "count",
    "actions.psd_check.calls": "count",
    "cli.atomic_write.s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_s": "s",
}
# Counters that must repeat exactly from one traced pass to the next.
EXACT = [k for k, u in PER_LAYER.items() if u == "count"]


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(args: list, log_path: Path) -> Child:
    """Run one child to completion; resources come from its own rusage.

    RUSAGE_CHILDREN would report the maximum RSS over every child reaped so
    far, so each child is reaped with wait4 instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "ab") as log:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def report_failure(what: str, problems: list, log_path: Path) -> None:
    print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
    if log_path.exists():
        tail = log_path.read_text(errors="replace").strip().splitlines()[-5:]
        for line in tail:
            print(f"    {line}", file=sys.stderr)


class Run:
    """One workload at one seed, inside a private scratch directory."""

    def __init__(self, name: str, seed: int, work: Path, record: dict):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.record = record
        self.cfg = work / "config.json"
        self.cfg.write_text(json.dumps(self.wl.make_config(seed), indent=1))
        self.log = work / "child.log"
        self.attempted = 0
        self.failed = 0

    def tally(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            report_failure(f"{self.wl.name} {what}", problems, self.log)
        return not problems

    def setup(self) -> list:
        """Wall times of SETUP_REPEATS fresh interpreters building the chain."""
        walls = []
        for _ in range(SETUP_REPEATS):
            child = spawn([INPROC, "setup", str(self.cfg)], self.log)
            self.tally("setup", [f"exit code {child.code}"] if child.code else [])
            walls.append(child.wall_s)
        return walls

    def cli_steps(self, out: Path) -> list:
        """The workload's subcommands, each a cold child, writing into out."""
        tail = ["--config", str(self.cfg), "--out", str(out), "--seed", str(self.seed)]
        return [spawn(["-m", "folnerdom.cli", *step, *tail], self.log) for step in self.wl.steps]

    def cli_pass(self) -> list:
        out = Path(tempfile.mkdtemp(dir=self.work))
        children = self.cli_steps(out)
        problems = check_outputs(self.wl, self.seed, [c.code for c in children], str(out), self.record)
        shutil.rmtree(out)
        self.tally("pass", problems)
        return children

    def inproc_pass(self, trace: bool) -> dict | None:
        out = Path(tempfile.mkdtemp(dir=self.work))
        result_path = self.work / "result.json"
        flag = "1" if trace else "0"
        child = spawn(
            [INPROC, "run", self.wl.name, str(self.cfg), str(out), str(self.seed), flag, str(result_path)],
            self.log,
        )
        result = json.loads(result_path.read_text()) if child.code == 0 else None
        codes = result["codes"] if result else [child.code]
        problems = check_outputs(self.wl, self.seed, codes, str(out), self.record)
        if result and trace and not result["micro"]["interior_contains_F"]:
            problems.append("F_n is not inside the bilateral interior")
        shutil.rmtree(out)
        result_path.unlink(missing_ok=True)
        return result if self.tally(f"{'traced' if trace else 'plain'} in-process pass", problems) else None


def end_to_end(run: Run, seconds: int) -> tuple[dict, dict]:
    setup_walls = run.setup()
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        passes.append(run.cli_pass())
    samples = {
        "wall_s": [sum(c.wall_s for c in p) for p in passes],
        "cpu_s": [sum(c.cpu_s for c in p) for p in passes],
        "peak_rss_mb": [max(c.rss_mb for c in p) for p in passes],
        "setup_s": setup_walls,
    }
    mean = {"wall_s", "cpu_s"}
    metrics = {k: (statistics.fmean if k in mean else statistics.median)(v) for k, v in samples.items()}
    notes = {k: f"{'mean' if k in mean else 'median'} of {len(v)}" for k, v in samples.items()}
    for k in mean:
        if len(samples[k]) >= 10:
            deciles = statistics.quantiles(samples[k], n=10)
            notes[k] += f"; median {deciles[4]:.4f}, p90 {deciles[8]:.4f}"
    return metrics, notes


def self_times(spans: list) -> dict:
    """name -> (summed self time, calls); self = duration minus child spans."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for (name, _, start, end), inner in zip(spans, child_time):
        s, n = out.get(name, (0.0, 0))
        out[name] = (s + end - start - inner, n + 1)
    return out


def layer_metrics(result: dict) -> dict:
    """PER_LAYER metrics of one traced pass; trace.overhead_s is added later."""
    table = self_times(result["spans"])
    m = {key: 0 for key in EXACT}
    for key in PER_LAYER:
        base, _, field = key.rpartition(".")
        s, calls = table.get(base, (0.0, 0))
        if field == "s":
            m[key] = s
        elif field == "share":
            m[key] = 100 * s / result["wall_s"]
        elif field == "calls":
            m[key] = calls
    m.update((k, v) for k, v in result["micro"].items() if k in PER_LAYER)
    m.update((k, v) for k, v in result["counts"].items() if k in PER_LAYER)
    for i, field in enumerate(("support_max", "num_bits_max", "den_bits_max")):
        m[f"measures.convolve.{field}"] = max((p[i] for p in result["powers"]), default=0)
    return m


def traced(run: Run, seconds: int) -> tuple[dict, dict]:
    plain_walls, traced_walls, per_pass, last = [], [], [], None
    deadline = perf_counter() + seconds
    while not per_pass or perf_counter() < deadline:
        plain = run.inproc_pass(trace=False)
        result = run.inproc_pass(trace=True)
        if plain and result:
            plain_walls.append(plain["wall_s"])
            traced_walls.append(result["wall_s"])
            per_pass.append(layer_metrics(result))
            last = result
        elif perf_counter() >= deadline:
            break
    if not per_pass:
        return {}, {}
    if any(p[k] != per_pass[0][k] for p in per_pass for k in EXACT):
        run.tally("exact counters", ["counts differ between traced passes"])
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER if k != "trace.overhead_s"}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    TRACE_DIR.mkdir(exist_ok=True)
    (TRACE_DIR / f"trace_{run.wl.name}_{run.seed}.json").write_text(json.dumps(last))
    print_trace_report(run, last)
    return metrics, {k: f"median of {len(per_pass)}" for k in metrics}


def print_trace_report(run: Run, result: dict) -> None:
    table = self_times(result["spans"])
    print(f"[{run.wl.name}] traced self time by span (last traced pass, wall {result['wall_s']:.3f} s)")
    for name, (s, n) in sorted(table.items(), key=lambda kv: -kv[1][0])[:20]:
        print(f"  {name:40s} {s:10.4f} s  {100 * s / result['wall_s']:5.1f} %  {n:8d} calls")
    print(f"  micro-timings on {result['micro']['group']}: " + ", ".join(
        f"{k} {v:.1f}" for k, v in result["micro"].items() if k.endswith("_ns")))
    print("  convolution powers (support, max numerator bits, denominator bits, truncated):")
    for p in result["powers"]:
        print(f"    {p[0]:8d} {p[1]:8d} {p[2]:8d} {str(p[3]).lower()}")
    levels = [end - start for name, _, start, end in result["spans"] if name == "dominance.dominance_report"]
    print("  dominance_report per level, in call order (inclusive s): " + " ".join(f"{t:.4f}" for t in levels))


def environment() -> dict:
    """Where and on what the numbers were taken."""
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "folnerdom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"WARNING: 1-minute load {load:.2f} exceeds nproc {nproc}; timings are unreliable", file=sys.stderr)
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": nproc,
        "loadavg_1m": load,
    }


def measure(name: str, seed: int, seconds: int, trace: bool, record: dict) -> tuple[dict, int, int]:
    """Measure one workload; print its report; return (metrics, attempted, failed)."""
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = Run(name, seed, work, record)
        values, notes = traced(run, seconds) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    print(f"[{name}] seed {seed}, {'per layer (traced)' if trace else 'end to end'}")
    for key, unit in units.items():
        if key in values:
            print(f"  {key:34s} {values[key]:14.6f} {unit:5s} ({notes[key]})")
    print(f"  {'failed_ratio':34s} {run.failed / run.attempted:14.6f} {'':5s} ({run.failed} of {run.attempted} failed)")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    return metrics, run.attempted, run.failed


def record_outputs() -> int:
    """Write expected.json from one CLI pass of every workload at DEFAULT_SEED."""
    record = {}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name in WORKLOADS:
            run = Run(name, DEFAULT_SEED, work, {})
            out = work / name
            out.mkdir()
            codes = [c.code for c in run.cli_steps(out)]
            record[name] = file_hashes(str(out))
            problems = check_outputs(run.wl, DEFAULT_SEED, codes, str(out), record)
            if problems:
                report_failure(name, problems, run.log)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(RECORD_FILE).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {RECORD_FILE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="folnerdom CLI benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the byte-identity record")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "folnerdom" / "cli.py").is_file():
        print(f"error: no folnerdom sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record:
        return record_outputs()
    print("env:", json.dumps(environment(), sort_keys=True))
    record = load_record()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = measure(name, args.seed, args.seconds, bool(args.trace), record)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
