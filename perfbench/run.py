"""Run one seeded benchmark workload against the program in this checkout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload xmark-stream --seed 1 --seconds 22 --trace 0

Workloads: ``xmark-stream``, ``xmark-join``, ``feed-smallchunk`` and
``serve-fanout`` (see ``perfbench/README.md``).  The run builds its inputs
from ``--seed``, sets the program up several times (``setup_s`` is the
median), measures for about ``--seconds`` seconds, then checks every
output against the ``NaiveDomEngine`` reference.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is the separate
traced run and reports its per-layer metrics.

Every metric is printed by name and unit, followed by a last line holding
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``failed / attempted`` is the error rate.  The program runs in its default
configuration: the ``REPRO_*`` switches below are removed from the
environment and no option selecting a pipeline is passed.

Exit status: 0 with a result, 1 if the benchmark itself failed, 2 if the
checkout has no program to run (``src/repro``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

from harness import HostSpeed, Spans, Tally, clock, median, peak_rss_mb

#: Switches that would take the program off its default configuration.
SCRUBBED_ENV = ("REPRO_FASTPATH", "REPRO_TRACE", "REPRO_OBS_JSON", "REPRO_CRASH_DIR")
#: Set-ups per run: at least this many, and for at least this long;
#: ``setup_s`` is their median.
SETUP_REPEATS = 7
SETUP_SECONDS = 0.5
WORKLOAD_NAMES = ("xmark-stream", "xmark-join", "feed-smallchunk", "serve-fanout")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_specs(trace: bool):
    """``(name, unit)`` of every metric this run must report, from BENCHMARK.json."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return [(entry["name"], entry["unit"]) for entry in spec["per_layer" if trace else "end_to_end"]]


def _run(args, workdir: Path):
    import workloads
    from repro import ExecutionOptions
    from repro.fastpath import use_fastpath

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    outputs = workloads.Outputs(tally)
    repeats, budget = (1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_SECONDS)
    speed = HostSpeed()
    speed.mark()
    setups = []
    while len(setups) < repeats or sum(setups) < budget:
        workload.close()
        gc.collect()
        started = clock()
        workload.setup()
        setups.append(clock() - started)
        speed.mark()
    info = {}
    if args.trace:
        spans = Spans()
        metrics = workload.trace(args.seconds, outputs, spans)
        spans.write(Path(".perfbench") / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, info = workload.measure(args.seconds, outputs)
        metrics["setup_s"] = median([setup * speed.scale(index) for index, setup in enumerate(setups)])
        metrics["peak_rss_mb"] = peak_rss_mb()
    workload.close()
    outputs.verify(workload.reference)

    specs = _metric_specs(bool(args.trace))
    unknown = set(metrics) - {name for name, _ in specs}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not args.trace:
        missing = {name for name, _ in specs} - set(metrics)
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {sorted(missing)}")

    pipeline = "fast path" if use_fastpath(ExecutionOptions().fastpath) else "classic"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  pipeline: {pipeline} (default configuration)")
    print(f"  moves: {', '.join(workload.moves)}; holds: {', '.join(workload.holds)}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    result = {}
    for name, unit in specs:
        # A layer the workload does not reach by design reads 0.
        value = metrics.get(name, 0)
        result[name] = {"value": value, "unit": unit}
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<32} {tally.error_rate:>16.6g} ({tally.failed} failed of {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }


def main(argv=None) -> int:
    args = _arguments(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro; run from the root of a checkout", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(checkout / "src"))
    workdir = checkout / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Spill files of the memory governor stay inside the checkout.
    tempfile.tempdir = str(workdir)
    try:
        result = _run(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
