"""End-to-end benchmark of the bulk-bitwise service.

    python3 perfbench/run.py --workload adhoc_scan --seed 1 \
        --seconds 22 --trace 0

Run from the repository root.  Workloads: ``adhoc_scan``,
``ingest_durable``, ``apps_bulk`` (see ``workloads.py`` and
``NOTES.md``).  With ``--trace 0`` the last line
of standard output is a JSON object with every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer
metric, measured on a traced pass of the same seed.  Earlier lines
are a human-readable record of the run: sample counts, set-up times,
host steal, CPU per operation and the CPU affinity used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

import workloads
from layers import breakdown, layer_metrics
from loadgen import choose_cpus, memcpy_gbps
from spans import SpanRecorder


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an error, so the servers started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the repository root "
              "(no src/repro here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    sys.path.insert(0, src)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    cpus = choose_cpus()
    os.sched_setaffinity(0, cpus)
    workdir = os.path.join(root, ".perfbench", f"{args.workload}-"
                                               f"{os.getpid()}")
    os.makedirs(workdir)
    lines = [f"workload {args.workload} seed {args.seed}: server and "
             f"load generator pinned to CPU {sorted(cpus)}"]
    try:
        result = _measure(args, spec, workdir, cpus, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


def _measure(args, spec, workdir, cpus, lines) -> dict:
    """Run the workload (twice, the second time traced, with
    ``--trace 1``) and return the result object."""
    fn = getattr(workloads, args.workload)
    in_process = args.workload == "apps_bulk"
    roofline = memcpy_gbps()

    def run(seconds, setups, trace=None):
        config = workloads.Run(args.seed, seconds, workdir, cpus)
        if in_process:
            return fn(config, setups=setups, recorder=trace)
        return fn(config, setups=setups, trace=trace)

    if args.trace:
        half = args.seconds / 2
        untraced = run(half, 1)
        spans_path = os.path.join(workdir, "spans.json")
        recorder = SpanRecorder() if in_process else None
        out = run(half, 1, recorder or spans_path)
        if recorder is not None:
            spans_doc = {"spans": recorder.spans, "waits": recorder.waits}
        else:
            spans_doc = _load(spans_path)
        metrics = layer_metrics(
            out, memcpy_gbps=roofline, spans_doc=spans_doc,
            recovery_doc=_load(spans_path + ".recovery"),
            untraced=untraced)
        names = spec["per_layer"]
        failed = untraced.failed + out.failed
        attempted = untraced.attempted + out.attempted
        lines += untraced.notes + out.notes
        lines.append(breakdown(out, spans_doc))
        lines.append(
            f"tracing overhead: throughput "
            f"{untraced.metrics['throughput_rps']:.1f} -> "
            f"{out.metrics['throughput_rps']:.1f} /s, p50 "
            f"{untraced.metrics['p50_ms']:.3f} -> "
            f"{out.metrics['p50_ms']:.3f} ms")
    else:
        out = run(args.seconds, workloads.SETUPS)
        metrics = out.metrics
        names = spec["end_to_end"]
        failed, attempted = out.failed, out.attempted
        diag = layer_metrics(out, memcpy_gbps=roofline)
        lines += out.notes
        lines.append(
            f"host: steal {diag['host.steal_pct']:.2f}%, server CPU "
            f"{diag['server.cpu_us_per_op']:.1f} us/op, load generator "
            f"CPU {diag['client.cpu_us_per_op']:.1f} us/op, memcpy "
            f"{diag['host.memcpy_gbps']:.1f} GB/s")
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in names},
    }


def _load(path):
    if not os.path.exists(path):
        return None
    with open(path) as doc:
        return json.load(doc)


if __name__ == "__main__":
    sys.exit(main())
