"""policymap benchmark: oracle-checked map/verify/whatif latency.

    python3 perfbench/run.py --workload hub21 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  The seed makes the inputs (see ``workloads.py``); policymap sees
only the generated GraphML, policy and assignments files.  One worker
process runs a closed loop with one client (see ``worker.py``).  Every
command's exit code and output document are checked against references
derived by ``oracle.py`` from the depth-first path oracle, and every
output must be byte-identical to the same command's output in the other
iterations and in this process.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it has the per-layer metrics
from the spans of a traced run.  Details (tails with their percentile and
sample count, every sample, the spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "out"
COMMANDS = ("map", "verify", "whatif")
EXPECTED_CODE = {"map": 0, "verify:faulted": 3, "verify:clean": 0, "whatif": 0}
SETUP_REPEATS = 21
# A run must end within 180 s; the worker gets what is left after set-up.
DEADLINE_S = 170.0
TAIL_BEYOND = 10
# Below this percentile the value with TAIL_BEYOND samples above it is a
# median or a minimum, not a tail: it needs at least 40 samples.
TAIL_MIN_PERCENTILE = 75.0

# The probe runs after the import, so that the modules it needs do not
# shorten the import being timed.
IMPORT_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "import policymap.cli\n"
    "took = time.perf_counter() - started\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calibrate\n"
    "print(took, sorted(calibrate.probe() for _ in range(3))[1])\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def scaled(seconds: float, *probes: float) -> float:
    """``seconds`` at the reference speed, given the probe times around it."""
    return seconds * calibrate.REFERENCE_S / statistics.mean(probes)


def measure_setup() -> tuple[float, float]:
    """Median time to import policymap.cli in a fresh interpreter, raw and scaled."""
    raw, normal = [], []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if k:  # the first import may compile bytecode
            took, probe_s = map(float, done.stdout.split())
            raw.append(took)
            normal.append(scaled(took, probe_s))
    return statistics.median(raw), statistics.median(normal)


def tail(values: list[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    If that percentile is below TAIL_MIN_PERCENTILE there are too few
    samples for a tail, and its value and percentile are None.
    """
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    percentile = 100.0 * (k + 1) / len(ordered)
    if percentile < TAIL_MIN_PERCENTILE:
        return {"value": None, "percentile": None, "samples": len(ordered)}
    return {"value": ordered[k], "percentile": percentile, "samples": len(ordered)}


def write_inputs(workload, expected, work: Path) -> dict:
    """Input files and the worker's job; each variant writes its own output."""
    import oracle

    files = {
        "topology": work / "network.graphml",
        "policy": work / "network.policy",
        "faulted": work / "assignments-faulted.json",
        "clean": work / "assignments-clean.json",
    }
    files["topology"].write_text(workload.graphml, encoding="utf-8")
    files["policy"].write_text(workload.policy, encoding="utf-8")
    files["faulted"].write_text(oracle.assignments_document(expected.faulted.entries), encoding="utf-8")
    files["clean"].write_text(oracle.assignments_document(expected.map_entries), encoding="utf-8")
    common = [str(files["topology"]), str(files["policy"])]
    argvs = {
        "map": ["map", *common],
        "verify:faulted": ["verify", *common, str(files["faulted"])],
        "verify:clean": ["verify", *common, str(files["clean"])],
        "whatif": ["whatif", *common, *workload.whatif_args],
    }
    commands = {}
    for variant, argv in argvs.items():
        out = str(work / f"out-{variant.replace(':', '-')}.json")
        commands[variant] = {"argv": argv + ["--format", "structured", "--out", out], "out": out}
    return {"topology": str(files["topology"]), "policy": str(files["policy"]),
            "commands": commands}


def run_worker(job: dict, work: Path, seconds: float, trace: bool, timeout: float) -> dict:
    # Enough cycles for a steady median even in a slow spell of the machine.
    min_cycles = 3 if trace else 11
    job = dict(job, seconds=seconds, trace=trace, min_cycles=min_cycles)
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, timeout=timeout, check=True,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def validate_outputs(job: dict, expected) -> dict:
    """sha256 of each variant's output if it matches the oracle, else None."""
    import oracle
    from worker import digest

    checks = {
        "map": lambda doc: oracle.check_map(doc, expected),
        "verify:faulted": lambda doc: oracle.check_verify(doc, expected.faulted),
        "verify:clean": lambda doc: oracle.check_verify(doc, expected.clean),
        "whatif": lambda doc: oracle.check_whatif(doc, expected),
    }
    valid = {}
    for variant, check in checks.items():
        out = job["commands"][variant]["out"]
        try:
            with open(out, encoding="utf-8") as handle:
                ok = check(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{variant}: unreadable output: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"{variant}: output differs from the oracle reference", file=sys.stderr)
        valid[variant] = digest(out) if ok else None
    return valid


def in_process_run(job: dict, variant: str) -> dict:
    """``variant`` once more in this process: the cross-process determinism check."""
    import worker

    spec = job["commands"][variant]
    out = str(Path(spec["out"]).with_suffix(".again.json"))
    commands = {variant: {"argv": spec["argv"][:-1] + [out], "out": out}}
    return dict(worker.run_command({"commands": commands}, variant, None), cycle=None)


def failed_samples(samples, valid: dict) -> list[dict]:
    return [
        s for s in samples
        if s["code"] != EXPECTED_CODE[s["variant"]] or s["sha256"] != valid[s["variant"]]
        or valid[s["variant"]] is None
    ]


def command_of(variant: str) -> str:
    return variant.split(":")[0]


def end_to_end(result: dict, setup: tuple[float, float]) -> tuple[dict, dict]:
    """End-to-end metrics at the reference speed, and the same from raw times.

    Every time is scaled by the probes around it (see ``calibrate``).
    ``cmds_per_s`` is a cycle's commands over the median cycle's command time.
    """
    timed = [s for s in result["samples"] if s["cycle"] is not None]
    metrics, raw = {}, {}
    for out, seconds in ((metrics, lambda s: scaled(s["seconds"], s["probe_s"], s["probe_after_s"])),
                         (raw, lambda s: s["seconds"])):
        for cmd in COMMANDS:
            values = [seconds(s) for s in timed if command_of(s["variant"]) == cmd]
            out[f"{cmd}_p50_s"] = statistics.median(values)
            out[f"{cmd}_tail_s"] = tail(values)
        cycles: dict[int, float] = {}
        for s in timed:
            cycles[s["cycle"]] = cycles.get(s["cycle"], 0.0) + seconds(s)
        out["cmds_per_s"] = len(COMMANDS) / statistics.median(cycles.values())
    raw["setup_s"], metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
    return metrics, raw


def per_layer(result: dict) -> dict:
    """Per-layer metrics from the spans of a traced run.

    A ``*_s`` stage metric is the median over traced cycles of the stage's
    summed self time in one cycle (map + verify + whatif), scaled like the
    command it ran in; counts are read from the first traced cycle.
    """
    from spans import self_times

    spans = result["spans"]
    samples = [s for s in result["samples"] if s["cycle"] is not None]
    factor = {
        s["command"]: scaled(1.0, s["probe_s"], s["probe_after_s"]) for s in samples if s["command"]
    }
    cycles = sorted({s["cycle"] for s in samples})
    for c in cycles:  # the oracle runs right after the cycle's whatif
        factor[f"{c}:oracle"] = factor[f"{c}:whatif"]
    own = {k: v * factor[spans[k]["command"]] for k, v in self_times(spans).items()}

    def duration(s):
        return (s["end"] - s["start"]) * factor[s["command"]]

    def first(name, command):
        return next(s for s in spans if s["name"] == name and s["command"] == command)

    per_cycle: dict[str, dict[int, float]] = {}
    for s in spans:
        if not s["name"].startswith("cli."):
            stage = per_cycle.setdefault(s["name"] + "_s", dict.fromkeys(cycles, 0.0))
            stage[int(s["command"].split(":")[0])] += own[s["id"]]
    metrics = {name: statistics.median(values.values()) for name, values in per_cycle.items()}

    vs_oracle, share = [], []
    for c in cycles:
        closure = duration(first("closure.right_iterate", f"{c}:map"))
        vs_oracle.append(closure / duration(first("closure.oracle_dfs", f"{c}:oracle")))
        share.append(closure / duration(first("cli.map", f"{c}:map")))
    metrics["closure.vs_oracle"] = statistics.median(vs_oracle)
    metrics["closure.share_of_map"] = statistics.median(share)

    for s in spans:
        if s["command"] in ("0:map", "0:verify:faulted"):
            for name, value in s["counts"].items():
                metrics.setdefault(name, value)

    for cmd in COMMANDS:
        plain = statistics.median(
            scaled(s["seconds"], s["probe_s"], s["probe_after_s"])
            for s in samples if not s["command"] and command_of(s["variant"]) == cmd
        )
        roots = [s for s in spans if s["name"] == f"cli.{cmd}"]
        traced = statistics.median(duration(s) for s in roots)
        layers = statistics.median(duration(s) - own[s["id"]] for s in roots)
        metrics[f"cli.{cmd}.self_s"] = plain - layers
        metrics[f"trace.{cmd}.overhead_s"] = traced - plain
    metrics["cli.self_s"] = sum(metrics[f"cli.{cmd}.self_s"] for cmd in COMMANDS)
    metrics["trace.overhead_s"] = sum(metrics[f"trace.{cmd}.overhead_s"] for cmd in COMMANDS)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["hub21", "mesh10", "flat12"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "policymap" / "cli.py").is_file():
        print(f"error: no policymap sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import oracle
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        workload = workloads.generate(args.workload, args.seed)
        expected = oracle.expected_outputs(
            workload, random.Random(f"faults:{args.workload}:{args.seed}")
        )
        job = write_inputs(workload, expected, work)
        setup = None if args.trace else measure_setup()

        remaining = DEADLINE_S - (time.perf_counter() - started)
        try:
            result = run_worker(job, work, args.seconds, bool(args.trace), remaining)
        except subprocess.SubprocessError as exc:
            print(f"error: workload process failed: {exc}", file=sys.stderr)
            return 1
        valid = validate_outputs(job, expected)
        # One variant per run, chosen by the seed, keeps the run short; ten
        # seeds check every variant across processes.
        variants = list(EXPECTED_CODE)
        samples = result["samples"] + [in_process_run(job, variants[args.seed % len(variants)])]
        failed = failed_samples(samples, valid)
        for s in failed[:5]:
            print(f"failed: {s}", file=sys.stderr)
        correct = not failed

        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "cycles": result["cycles"], "loop_seconds": result["loop_seconds"]}
        if args.trace:
            metrics = per_layer(result)
            if metrics.get("closure.paths") != expected.paths:
                print(f"closure.paths {metrics.get('closure.paths')} differs from the "
                      f"oracle's {expected.paths}", file=sys.stderr)
                correct = False
            details["spans"] = result["spans"]
        else:
            metrics, details["unscaled"] = end_to_end(result, setup)
        details["metrics"] = metrics
        details["samples"] = samples
        declared = benchmark["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            print(f"error: metrics not measured: {missing}", file=sys.stderr)
            return 1
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(details, indent=1), encoding="utf-8"
        )

        def value(metric):  # a tail is stored with its percentile and sample count
            return metric["value"] if isinstance(metric, dict) else metric

        for name, metric in metrics.items():  # tails are reported, not bounded
            unit = units.get(name, "s")
            if isinstance(metric, dict) and metric["value"] is None:
                print(f"{name:36s} unavailable: {metric['samples']} samples are too few "
                      f"for a tail", file=sys.stderr)
                continue
            line = f"{name:36s} {value(metric):<12.6g} {unit:6s}"
            if not args.trace:
                line += f" unscaled {value(details['unscaled'][name]):.6g}"
            if isinstance(metric, dict):
                line += f"  (p{metric['percentile']:.0f} of {metric['samples']} samples)"
            print(line, file=sys.stderr)
        print(json.dumps({
            "correct": correct,
            "attempted": len(samples),
            "failed": len(failed),
            "metrics": {m["name"]: {"value": value(metrics[m["name"]]), "unit": m["unit"]}
                        for m in declared},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
