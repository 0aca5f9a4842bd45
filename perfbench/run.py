"""Benchmark of ``vclabels``: three seeded workloads, end to end and per layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program under test is ``src/``,
run with this interpreter.  Workloads:

* ``cli-classify``: one fresh ``python -m vclabels`` process per job,
  ``classify``, ``labels`` and ``homogenize`` on seeded family files.
* ``cli-enumerate``: one fresh process per job, ``label``, ``avoid``,
  ``verify``, ``compile`` and ``translate``; no classification.
* ``lib-batch``: long-lived processes calling the public API thousands of
  times on small seeded inputs, a fifth of them repeats.

Jobs run strictly one after another (a closed loop with one client) in
rounds of fixed mix, for about S seconds and at least one round.  All
inputs are written before timing starts, and every output is checked
against answers derived without ``vclabels`` (``output_check``).  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` each job also runs through a span-recording wrapper and the
line reports per-layer metrics.  The line before it is the run record.
Every time reported is a wall time scaled to a nominal machine speed by
the calibration loop of ``calibration.py``, run on the same CPU just before
and after the timed work; the record gives the quartiles of the factors.
Exits 1 if any output is wrong, 2 if the tree has no ``src/vclabels``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import output_check
import workload_gen as gen
from calibration import Speed
from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-classify", "cli-enumerate", "lib-batch")
# Rounds (CLI) or passes (lib-batch) generated up front; longer runs reuse them.
POOL = 4
# Start-up samples before every round and after the last, so that set-up
# time is sampled across the whole run.
SETUP_PER_ROUND = 3
# No process is started after this many seconds, so a run ends within 180 s.
DEADLINE_S = 150.0
# Seconds between calibration loops while a child runs.
SPEED_EVERY_S = 0.5
SETUP_ARGV = {
    "cli-classify": ["-m", "vclabels", "--help"],
    "cli-enumerate": ["-m", "vclabels", "--help"],
    "lib-batch": ["-c", "import vclabels"],
}
CAP_CLASS = {"cli-classify": "classify-cap", "cli-enumerate": "avoid-cap", "lib-batch": "classify-cap"}
# Per-layer metrics that sum the self time of named functions.
LAYER_TIMES = {
    "setsystem.classify_s": ["setsystem.classify"],
    "setsystem.forbidden_label_s": ["setsystem.forbidden_label"],
    "setsystem.io_s": ["setsystem.SetSystem.from_text", "setsystem.SetSystem.to_text"],
    "labelcalc.avoid_family_s": ["labelcalc.avoid_family"],
    "labelcalc.extend_avoiding_s": ["labelcalc.extend_avoiding"],
    "orderformula.label_of_formula_s": ["orderformula.label_of_formula"],
    "orderformula.parse_formula_s": ["orderformula.parse_formula"],
    "labelcompiler.compile_label_s": ["labelcompiler.compile_label"],
    "labelcompiler.expr_s": [
        "labelcompiler.to_interval_expr", "labelcompiler.format_expr",
        "labelcompiler.parse_expr", "labelcompiler.from_interval_expr",
    ],
    "harness.homogenize_s": ["harness.ramsey_homogenize"],
    "harness.verify_s": [
        "harness.verify_pair_xor", "harness.build_ict_tensor",
        "harness.verify_ict", "harness.ict_witness_family",
    ],
}
LAYERS = ("setsystem", "labelcalc", "orderformula", "labelcompiler", "harness")


def _lowest_priority() -> None:
    os.nice(19)


class Runner:
    """Starts the program's processes and keeps what a run measures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.start = time.perf_counter()
        self.speed = Speed()
        self.factors: list[float] = []  # speed factor of every timed process or task
        self.jobs = 0
        self.processes = 0
        self.setup_walls: list[float] = []
        self.failures: list[str] = []
        self.walls: list[float] = []  # untraced job times
        self.class_walls: defaultdict[str, list[float]] = defaultdict(list)
        self.traced_walls: list[float] = []
        self.span_lists: list[list] = []
        self.stdout_bytes = 0
        self.layer_self_s: list[float] = []  # per traced CLI job, library self time
        self.repeats = 0
        self.rounds = 0.0
        self.mix: Counter | None = None  # job classes of one CLI round
        self.layer_s = {layer: 0.0 for layer in LAYERS}  # traced self time per layer

    def run(self, args: list[str]):
        """Run ``python ARGS`` in the tree; (exit status, stdout, scaled seconds).

        The child runs at the lowest priority on this process's CPU, and
        every SPEED_EVERY_S seconds the calibration loop preempts it.  Each
        stretch of the child's wall time between two loops is scaled by
        them; the loops' own time is not counted.  ``self.factor`` is left
        at the factor for the whole run of the child.
        """
        self.processes += 1
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_lowest_priority,
        )
        wall = scaled = 0.0
        code = None
        try:
            while code is None:
                mark = time.perf_counter()
                try:
                    out, _ = proc.communicate(timeout=SPEED_EVERY_S)
                    code = proc.returncode
                except subprocess.TimeoutExpired:
                    if time.perf_counter() - self.start > DEADLINE_S + 25:
                        code, out = -1, b""
                stretch = time.perf_counter() - mark
                wall += stretch
                scaled += stretch * self.speed.factor()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        self.factor = scaled / wall
        self.factors.append(self.factor)
        return code, out, scaled

    def sample_setup(self, count: int) -> None:
        """Time fresh-process start-up: interpreter, import, argument parsing."""
        argv = SETUP_ARGV[self.workload]
        for _ in range(count):
            code, _, wall = self.run(argv)
            if code != 0:
                raise SystemExit(f"start-up command {argv} exited {code}")
            self.setup_walls.append(wall)

    def cli_job(self, job: dict) -> None:
        argv = job["argv"]
        self.jobs += 1
        code, out, wall = self.run(["-m", "vclabels", *argv])
        self.walls.append(wall)
        self.class_walls[job["cls"]].append(wall)
        reason = output_check.check_cli(job["expect"], code, out.decode("utf-8", "replace"))
        if self.trace and not reason:
            spans_path = self.work / "spans.json"
            traced_code, traced_out, traced_wall = self.run(
                [str(BENCH / "traced_cli.py"), str(spans_path), *argv]
            )
            self.traced_walls.append(traced_wall)
            self.stdout_bytes += len(traced_out)
            if (traced_code, traced_out) != (code, out):
                reason = "the traced run printed other output than the CLI"
        if reason:
            self.failures.append(f"{' '.join(argv)}: {reason}")
            return
        if not self.trace:
            return
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        own = self_times(spans)
        self.layer_self_s.append(self.factor * sum(t for span, t in zip(spans, own) if span[3] >= 0))
        self.span_lists.append((spans, [self.factor]))

    def batch_pass(self, tasks_path: Path, tasks: list) -> None:
        seen = set()
        for task in tasks:
            key = json.dumps(task)
            self.repeats += key in seen
            seen.add(key)
        result_path, spans_path = self.work / "result.json", self.work / "spans.json"
        argv = [str(BENCH / "batch.py"), str(tasks_path), str(result_path)]
        for traced in (False, True) if self.trace else (False,):
            code, _, _ = self.run(argv + [str(spans_path)] if traced else argv)
            if code != 0:
                self.failures.append(f"lib-batch pass: exit status {code}")
                return
            result = json.loads(result_path.read_text(encoding="utf-8"))
            times = [t * f for t, f in zip(result["times"], result["factors"])]
            if traced:
                if result["failures"] != failures:
                    self.failures.append("lib-batch: the traced pass gave other results")
                self.traced_walls.append(sum(times))
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
                self.span_lists.append((spans, result["factors"]))
                continue
            failures = result["failures"]
            self.failures.extend(failures)
            self.factors.extend(result["factors"])
            self.jobs += len(tasks)
            self.walls.extend(times)
            for task, wall in zip(tasks, times):
                self.class_walls[task[0]].append(wall)

    def measure(self) -> None:
        """Run jobs one after another until ``seconds`` have passed.

        CLI jobs run round after round, and the run may end inside a round
        once a whole round has run.  A lib-batch pass is one step.  The run
        ends with the step that ends closest to ``seconds``.
        """
        if self.workload == "lib-batch":
            steps = []
            for index in range(POOL):
                tasks = gen.batch_pass(self.seed, index)
                path = self.work / f"tasks{index}.json"
                path.write_text(json.dumps(tasks), encoding="utf-8")
                steps.append(functools.partial(self.batch_pass, path, tasks))
            per_round = 1
        else:
            rel = self.work.relative_to(ROOT)
            rounds = [gen.cli_round(self.workload, self.seed, i, self.work, rel) for i in range(POOL)]
            steps = [functools.partial(self.cli_job, job) for jobs in rounds for job in jobs]
            per_round = len(rounds[0])
            self.mix = Counter(job["cls"] for job in rounds[0])

        self.run(SETUP_ARGV[self.workload])  # writes the bytecode caches
        began = time.perf_counter()
        done = 0
        while True:
            if done % per_round == 0 and not self.trace:
                self.sample_setup(SETUP_PER_ROUND)
            steps[done % len(steps)]()
            done += 1
            elapsed = time.perf_counter() - began
            if done >= per_round and elapsed >= self.seconds - elapsed / done / 2:
                break
            if time.perf_counter() - self.start > DEADLINE_S:
                break
        self.rounds = done / per_round
        if not self.trace:
            self.sample_setup(SETUP_PER_ROUND)

    def jobs_per_s(self) -> float:
        """Jobs per second of job wall time.

        For CLI workloads this is the rate of one round's mix at the median
        wall time of each job class, so a run that ends inside a round
        weighs every class as a whole round does.
        """
        if self.mix is None:
            return self.jobs / sum(self.walls)
        seconds = sum(n * statistics.median(self.class_walls[c]) for c, n in self.mix.items())
        return sum(self.mix.values()) / seconds

    def layer_metrics(self) -> dict:
        times: defaultdict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        calls: Counter = Counter()
        for spans, factors in self.span_lists:
            for span, own in zip(spans, self_times(spans)):
                name, count = span[0], span[5]
                if span[3] < 0:
                    continue
                times[name] += own * factors[span[4]]
                calls[name.split(".", 1)[0]] += 1
                if count is not None:
                    counts[name] += count
        for name, own in times.items():
            self.layer_s[name.split(".", 1)[0]] += own
        metrics = {
            name: (sum(times[f] for f in functions), "s")
            for name, functions in LAYER_TIMES.items()
        }
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (calls[layer], "count")
        members = counts["labelcalc.avoid_family"]
        metrics["setsystem.classify_members"] = (counts["setsystem.classify"], "count")
        metrics["labelcalc.avoid_members"] = (members, "count")
        metrics["labelcalc.avoid_us_per_member"] = (
            1e6 * times["labelcalc.avoid_family"] / members if members else 0.0, "us"
        )
        metrics["labelcalc.repeat_share"] = (self.repeats / self.jobs, "ratio")
        cli = self.workload != "lib-batch"
        overhead = sum(self.walls) - sum(self.layer_self_s) if cli else 0.0
        metrics["cli.overhead_s"] = (overhead, "s")
        metrics["cli.stdout_bytes"] = (self.stdout_bytes, "bytes")
        metrics["cli.jobs"] = (self.jobs, "count")
        metrics["trace.overhead_ratio"] = (sum(self.traced_walls) / sum(self.walls), "ratio")
        return metrics


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "vclabels" / "__init__.py").is_file():
        print(f"error: no vclabels sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    accepted = output_check.negative_controls()
    if accepted:
        print(f"error: the output checker accepted wrong outputs: {accepted}", file=sys.stderr)
        return 1

    # The calibration loop and the timed processes share one CPU.
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        cpus = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        cpus = None
    load_start = os.getloadavg()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), work)
        runner.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cap_walls = runner.class_walls[CAP_CLASS[args.workload]]
    samples = {"setup_s": len(runner.setup_walls), "jobs_per_s": runner.jobs,
               "cap_job_s": len(cap_walls), "peak_rss_mb": runner.processes}
    if args.trace:
        metrics = runner.layer_metrics()
        samples = {name: runner.jobs for name in metrics}
    else:
        metrics = {
            "setup_s": (statistics.median(runner.setup_walls), "s"),
            "jobs_per_s": (runner.jobs_per_s(), "1/s"),
            "cap_job_s": (statistics.median(cap_walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": runner.rounds,
        "python": sys.executable, "python_version": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "samples": samples, "failures": runner.failures[:20],
        "speed_factor": statistics.quantiles(runner.factors, n=4),
        "cpus": sorted(cpus) if cpus else None,
        "class_median_s": {cls: statistics.median(walls) for cls, walls in runner.class_walls.items()},
        "layer_s": runner.layer_s, "traced_s": sum(runner.traced_walls),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.jobs,
        "failed": min(len(runner.failures), runner.jobs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    sys.exit(main())
