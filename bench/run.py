"""qamlz benchmark: drives the real CLI (`gen`, `train`, `eval`, `scan`) on
generated workloads and checks every output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; qamlz is imported from `src/` next to this
directory. A pass runs the workload's commands through `qamlz.cli.main`, in a
fresh directory under `.bench_work/`. With `--trace 0`, set-up (a fresh
interpreter importing qamlz and loading the config) is timed in separate
processes, then one process runs pass after pass at the same seed until
`--seconds` are spent (at least three, so every pass after the first is a
byte-for-byte replay check), timing the fixed reference computation of
reference.py between passes. The last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json:

    setup_s       median set-up time, s
    commands_ref  median over passes of the pass time / the median of the
                  reference samples taken just before and after that pass, x:
                  the workload's commands timed against the machine's speed
                  at that moment, since a shared host's speed drifts by tens
                  of percent within minutes
    peak_rss_mb   peak resident memory of the pass process plus `jobs` times
                  its largest `scan` worker, MiB

The unscaled median pass time and per-command times are printed above it.
With `--trace 1` every command runs in a fresh process, and the line carries
the per-layer metrics of one untraced and two traced passes. `--smoke` runs
the same workloads at tiny sizes. OpenBLAS and OpenMP are pinned to one thread
per process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import EXACT_COUNTS, PER_LAYER, layer_metrics, layer_self_times, merge
from workloads import PRODUCER, WORKLOADS, Step, check_outputs, configs, problem_sizes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_PASSES = 3
MAX_PASSES = 50
#: set-up samples per run: the pass loop's own, and set-up-only spawns
SETUP_SAMPLES = 4
#: reference time spent after each pass, per unit of that pass's time
REF_SHARE = 0.2
#: the whole run must end within 180 s; no command starts a wait beyond this
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("commands_ref", "x"),
    ("peak_rss_mb", "MiB"),
)

T_START = time.monotonic()


@dataclass
class Pass:
    walls: dict[str, float] = field(default_factory=dict)
    reports: list[dict] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)  # command -> first problem
    best_fom: float | None = None

    @property
    def total_s(self) -> float:
        return sum(self.walls.values())


class Run:
    """One workload at one seed: its configs, work directory and child env."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.cfgs = configs(name, seed, smoke)
        self.dir = WORK / f"{name}-seed{seed}{'-smoke' if smoke else ''}"
        self.env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}
        self.numpy = None
        self.loop_refs: list[list[float]] = []

    def spawn(self, cwd: Path, report: Path, args: list[str]) -> tuple[float, int, str]:
        """Run child.py to completion in its own process group; returns its
        wall time, exit code and stderr. The group is killed at the deadline."""
        cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
               "--report", str(report)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned), *args], cwd=cwd,
                                env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, DEADLINE_S - (spawned - T_START)))
        except subprocess.TimeoutExpired:
            err = "timed out at the run deadline"
        finally:
            try:  # the child at the deadline, or anything it left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        return time.monotonic() - spawned, proc.returncode, err

    def files(self) -> dict[str, str]:
        return {fname: json.dumps(doc, indent=2) + "\n" for fname, doc in self.cfgs.items()}

    def argv(self, step: Step, jobs: int | None = None) -> list[str]:
        jobs = step.jobs if jobs is None else jobs
        return [step.command, "--config", step.config] + (
            ["--jobs", str(jobs)] if step.command == "scan" else [])

    def setup_sample(self) -> float | None:
        """Set-up time of one fresh interpreter; None if it failed."""
        report = self.dir / "setup.report.json"
        _, rc, _ = self.spawn(self.dir, report, ["--setup-only", "--", "--config", "cfg.json"])
        return json.loads(report.read_text())["setup_s"] if rc == 0 else None

    def run_pass(self, label: str, trace: bool = False, jobs: int | None = None) -> Pass:
        """One pass with every command in a fresh process."""
        d = self.dir / label
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        for fname, text in self.files().items():
            (d / fname).write_text(text)
        p = Pass()
        for step in self.workload.steps:
            report = d / f"{step.command}.report.json"
            wall, rc, err = self.spawn(d, report,
                                       ["--trace"] * trace + ["--", *self.argv(step, jobs)])
            p.walls[step.command] = wall
            if rc != 0 or not report.exists():
                p.failed[step.command] = f"child exited {rc}: {err.strip()[-400:]}"
                continue
            rep = json.loads(report.read_text())
            self.numpy = rep["numpy"]
            p.reports.append(rep)
            p.walls[step.command] = rep["command_s"]
            if rep["rc"] != step.expect_rc:
                p.failed[step.command] = f"exit code {rep['rc']}, expected {step.expect_rc}"
        self.check(p, d)
        return p

    def run_loop(self, until: float) -> tuple[list[Pass], float | None, float | None]:
        """Passes in one process until the monotonic time `until` (see
        child.py); returns them, the process's set-up time and its peak
        memory in MiB, the largest over all passes, with `jobs` times that of
        its largest worker."""
        report = self.dir / "loop.report.json"
        plan = self.dir / "loop.plan.json"
        plan.write_text(json.dumps({
            "config": str(self.dir / "cfg.json"), "dir": str(self.dir),
            "files": self.files(), "steps": [self.argv(s) for s in self.workload.steps],
            "ref_share": REF_SHARE, "until": until, "stop": T_START + DEADLINE_S - 10,
            "min_passes": MIN_PASSES, "max_passes": MAX_PASSES,
        }))
        wall, rc, err = self.spawn(self.dir, report, ["--plan", str(plan)])
        rep = json.loads(report.read_text()) if report.exists() else {"passes": []}
        passes = []
        for k, rec in enumerate(rep["passes"]):
            p = Pass(walls=rec["walls"])
            for step in self.workload.steps:
                got = rec["rcs"].get(step.command)
                if got != step.expect_rc:
                    p.failed[step.command] = f"exit code {got}, expected {step.expect_rc}"
            self.check(p, self.dir / f"pass{k}")
            passes.append(p)
        if rc != 0 or len(passes) < MIN_PASSES:
            passes.append(Pass(walls={"loop": wall}, failed={
                "loop": f"pass loop exited {rc} after {len(passes)} passes: {err.strip()[-400:]}"}))
            return passes, None, None
        self.numpy = rep["numpy"]
        self.loop_refs = rep["ref_s"]
        jobs = max(s.jobs for s in self.workload.steps)
        return passes, rep["setup_s"], (rep["maxrss_kb"] + jobs * rep["children_maxrss_kb"]) / 1024

    def check(self, p: Pass, d: Path) -> None:
        """Hash the pass's outputs and record every failed output check."""
        out = d / "out"
        if out.is_dir():
            p.hashes = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                        for f in sorted(out.iterdir())}
        errors, p.best_fom = check_outputs(self.workload.name, out, self.cfgs)
        for command, problems in errors.items():
            p.failed.setdefault(command, problems[0])

    def replay_check(self, passes: list[Pass]) -> None:
        """Every pass must reproduce the first pass's outputs byte for byte."""
        ref = passes[0].hashes
        for p in passes[1:]:
            for fname in sorted(set(ref) | set(p.hashes)):
                if p.hashes.get(fname) != ref.get(fname):
                    p.failed.setdefault(PRODUCER.get(fname, self.workload.steps[-1].command),
                                        f"{fname} differs from the first pass at this seed")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "qamlz").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def environment(run: Run) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": run.numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": THREADS,
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def measure(run: Run, seconds: float) -> tuple[list[Pass], dict, list[str], dict]:
    """Set-up samples, then untraced passes in one process until `seconds`
    after the start; the end-to-end metrics."""
    run.dir.mkdir(parents=True)
    (run.dir / "cfg.json").write_text(run.files()["cfg.json"])
    setups = [s for s in (run.setup_sample() for _ in range(SETUP_SAMPLES - 1)) if s is not None]
    passes, loop_setup, rss_mb = run.run_loop(T_START + seconds)
    setups += [loop_setup] if loop_setup is not None else []
    run.replay_check(passes)
    timed = [p for p in passes if "loop" not in p.walls]
    commands_s = statistics.median(p.total_s for p in timed) if timed else None
    # each pass against the reference samples taken just before and after it,
    # so that a change of the host's speed within the run cancels out
    gaps = run.loop_refs
    ratios = [p.total_s / statistics.median(gaps[k] + gaps[k + 1])
              for k, p in enumerate(timed) if k + 1 < len(gaps)]
    ref_s = statistics.median(r for gap in gaps for r in gap) if gaps else None
    metrics = {
        "setup_s": statistics.median(setups) if setups else None,
        "commands_ref": statistics.median(ratios) if ratios else None,
        "peak_rss_mb": rss_mb,
    }
    lines = [f"passes {len(timed)}, set-up samples {len(setups)}, "
             f"reference samples {sum(map(len, gaps))}",
             f"metric best_fom {passes[0].best_fom} fom",
             f"metric commands_s {commands_s} s (median pass, not scaled)",
             f"metric reference_s {ref_s} s (median)"]
    extra = {"best_fom": passes[0].best_fom, "walls": [p.walls for p in passes],
             "setup_samples": setups, "reference_samples": run.loop_refs,
             "commands_s": commands_s}
    for step in run.workload.steps if timed else ():
        walls = [p.walls[step.command] for p in timed]
        lines.append(f"metric {step.command}_s {statistics.median(walls):.4f} s "
                     f"(median of {len(walls)}, min {min(walls):.4f}, max {max(walls):.4f})")
    return passes, metrics, lines, extra


def measure_traced(run: Run) -> tuple[list[Pass], dict, list[str], dict]:
    """One untraced and two traced passes (the scan traced with --jobs 1);
    the per-layer metrics from the first traced pass. Raw spans stay in the
    traced pass directories."""
    ref = run.run_pass("untraced")
    passes = [ref]
    scan_jobs = next((s.jobs for s in run.workload.steps if s.command == "scan"), 1)
    if scan_jobs > 1:
        passes.append(run.run_pass("untraced_jobs1", jobs=1))
    serial = passes[-1]
    traced = [run.run_pass(f"traced{k}", trace=True, jobs=1) for k in range(2)]
    passes += traced
    run.replay_check(passes)
    spans, counters = merge(traced[0].reports)
    _, counters_b = merge(traced[1].reports)
    unequal = [f"{key} {counters_b[key]} != {counters[key]}"
               for key in EXACT_COUNTS if counters[key] != counters_b[key]]
    if unequal:
        traced[1].failed.setdefault(run.workload.steps[-1].command,
                                    "exact counts differ between traced passes: "
                                    + "; ".join(unequal))
    overhead = (traced[0].total_s - serial.total_s) / serial.total_s
    parallel_eff = 0.0
    if scan_jobs > 1 and "cli.scan_point" in spans:
        busy = spans["cli.scan_point"]["total_s"] * serial.walls["scan"] / traced[0].walls["scan"]
        parallel_eff = busy / (scan_jobs * ref.walls["scan"])
    metrics = layer_metrics(spans, counters, overhead, parallel_eff)
    metrics["evaluate.best_fom"] = ref.best_fom

    layers = layer_self_times(spans)
    lines = ["layer self times: " + ", ".join(
        f"{k} {v:.3f} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))]
    for command, wall in traced[0].walls.items():
        lines.append(f"traced {command}_s {wall:.4f} s (untraced {serial.walls[command]:.4f} s)")
    if "train" in traced[0].walls:
        lines.append(f"share solver.sa_s / traced train_s "
                     f"{metrics['solver.sa_s'] / traced[0].walls['train']:.3f}")
    if "scan" in traced[0].walls:
        lines.append(f"share (ising + zoom self) / traced scan_s "
                     f"{(layers.get('ising', 0) + layers.get('zoom', 0)) / traced[0].walls['scan']:.3f}")
    lines.append(f"exact counts repeat between traced passes: {not unequal}")
    extra = {"spans": spans, "counters": dict(counters),
             "walls": {"untraced": ref.walls, "untraced_serial": serial.walls,
                       "traced": traced[0].walls}}
    return passes, metrics, lines, extra


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs the kill in spawn
    if not (SRC / "qamlz" / "cli.py").is_file():
        print(f"no qamlz sources at {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("--seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.smoke)
    shutil.rmtree(run.dir, ignore_errors=True)
    if args.trace:
        passes, metrics, lines, extra = measure_traced(run)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        passes, metrics, lines, extra = measure(run, args.seconds)
        units = dict(END_TO_END)
    attempted = sum(len(p.walls) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    missing = [k for k, v in metrics.items() if v is None]

    print(f"workload {run.workload.name} seed {run.seed}: {run.workload.why}")
    for line in lines:
        print(line)
    for p_i, p in enumerate(passes):
        for command, problem in p.failed.items():
            print(f"FAILED pass {p_i} {command}: {problem}")
    sizes = problem_sizes(run.workload.name, run.cfgs)
    if args.trace:
        sizes["sa_calls"] = extra["counters"].get("solver.sa_calls", 0)
    record = {
        "workload": run.workload.name, "seed": run.seed, "smoke": args.smoke,
        "trace": args.trace, "environment": environment(run), "sizes": sizes,
        "sha256": passes[0].hashes, "attempted": attempted, "failed": failed,
        "metrics": metrics, **extra,
    }
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("sizes " + json.dumps(sizes, sort_keys=True))
    for fname, digest in passes[0].hashes.items():
        print(f"sha256 {digest} {fname}")
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    print(f"metric failed_frac {failed / attempted} fraction ({failed} of {attempted})")
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{run.dir.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if missing:
        print(f"cannot report {missing}: see the failures above", file=sys.stderr)
        return 1
    if not failed and not args.trace:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
