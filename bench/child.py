"""Run `qamlz` commands in this process and write a JSON report.

    python3 bench/child.py --src SRC --report PATH --spawned T [--trace | --setup-only] -- <qamlz argv>
    python3 bench/child.py --src SRC --report PATH --spawned T --plan PLAN

Every report holds the set-up time (from `--spawned`, the parent's
CLOCK_MONOTONIC reading just before it started this process, to qamlz
imported and the config loaded), the numpy version, and the peak resident
memory of this process and of its reaped children (the `scan` workers).

With a qamlz argv, the child runs that one command and adds its exit code and
`command_s`, the wall time of `cli.main`. With `--setup-only` it stops after
set-up. With `--trace`, the report adds the span summary and counters, and
the raw spans go to PATH with the suffix `.spans.json`.

With `--plan`, a JSON file {"config", "dir", "files", "steps", "ref_share",
"until", "stop", "min_passes", "max_passes"}, the child loads `config` as its
set-up and then runs whole passes in this one process: pass k (from 0) goes to
`dir/pass<k>`, gets the config `files` ({name: text}) and runs every argv of
`steps` in order through `cli.main`. Before the first pass and after each, it
times the reference computation of reference.py, after a pass until those
samples add up to `ref_share` times the pass's time. It starts another pass
while fewer than `min_passes` have run, or while the last pass would still end
before the CLOCK_MONOTONIC time `until`; never one that would end after
`stop`, nor more than `max_passes`. The report (rewritten after every pass)
adds {"passes": [{"walls": {command: s}, "rcs": {command: exit code or
error}}], "ref_s": [[s]]}, where ref_s[k] holds the reference samples taken
just before pass k and ref_s[k + 1] those just after it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def run_plan(cli, plan: dict, report: dict, report_path: Path) -> None:
    from reference import reference_s

    passes = report["passes"] = []
    gaps = report["ref_s"] = []

    def gauge(seconds: float) -> None:
        gaps.append([reference_s()])
        while sum(gaps[-1]) < seconds:
            gaps[-1].append(reference_s())

    gauge(0.0)
    while len(passes) < plan["max_passes"]:
        d = Path(plan["dir"]) / f"pass{len(passes)}"
        d.mkdir(parents=True)
        for name, text in plan["files"].items():
            (d / name).write_text(text)
        os.chdir(d)
        walls, rcs = {}, {}
        for argv in plan["steps"]:
            start = time.perf_counter()
            try:
                rcs[argv[0]] = cli.main(argv)
            except Exception as exc:  # recorded as a failed command; the loop stops
                rcs[argv[0]] = repr(exc)
            walls[argv[0]] = time.perf_counter() - start
        passes.append({"walls": walls, "rcs": rcs})
        gauge(plan["ref_share"] * sum(walls.values()))
        write_report(report, report_path)
        end = time.monotonic() + (1.0 + plan["ref_share"]) * sum(walls.values())
        if (any(not isinstance(rc, int) for rc in rcs.values()) or end > plan["stop"]
                or (len(passes) >= plan["min_passes"] and end > plan["until"])):
            break
    write_report(report, report_path)


def write_report(report: dict, path: Path) -> None:
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    path.write_text(json.dumps(report))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    report_path = Path(args.report).resolve()
    plan = json.loads(Path(args.plan).read_text()) if args.plan else None

    sys.path.insert(0, args.src)
    import numpy
    from qamlz import cli

    cli.load_config(plan["config"] if plan else argv[argv.index("--config") + 1])
    report = {"setup_s": time.monotonic() - args.spawned, "numpy": numpy.__version__}
    if plan is not None:
        run_plan(cli, plan, report, report_path)
    elif not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer, instrument

            tracer = Tracer()
            instrument(tracer)
            top = tracer.begin("cli.main")
        start = time.perf_counter()
        report["rc"] = cli.main(argv)
        report["command_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.end(top)
            tracer.restore()
            report["spans"] = tracer.summary()
            report["counters"] = dict(tracer.counters)
            report_path.with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    write_report(report, report_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
