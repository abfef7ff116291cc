#!/usr/bin/env python3
"""The repository benchmark: builds the measuring driver, runs one workload
and prints every metric by name, with its unit, after checking every output.

    python3 perfbench/run.py --workload naim-60k --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload edit-200k --seed 1 --seconds 35 --steady 10
    python3 perfbench/run.py --write-benchmark-json

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
enforces the prediction checks. --steady N runs the workload with N seeds
and prints each end-to-end metric's spread across them, then one traced run
for the tracing overhead. The last line of standard output is always one
JSON object; see perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170

WORKLOADS = [
    {"name": "naim-60k",
     "why": "60k lines at +O4, no profile, 4 MiB NAIM budget: every acquire "
            "expands and bodies compact, offload and fetch, so the loader "
            "and its repository carry the build"},
    {"name": "edit-200k",
     "why": "a never-seen one-module edit, then a warm incremental rebuild "
            "and re-analysis on a primed cache: 1 miss, HLO and LLO skipped; "
            "frontend, cache plan and link dominate"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "build_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "build_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "analyze_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_mib", "unit": "MiB", "better": "lower", "bound": 0.05},
    {"name": "rss_mib", "unit": "MiB", "better": "lower", "bound": 0.15},
    {"name": "run_mcycles", "unit": "Mcycles", "better": "lower",
     "bound": 0.2},
    {"name": "code_kinstrs", "unit": "kinstrs", "better": "lower",
     "bound": 0.1},
]

PER_LAYER = [
    ("workload.generate_s", "s", "lower"),
    ("profile.train_s", "s", "lower"),
    ("vm.interpret_s", "s", "lower"),
    ("cache.prime_s", "s", "lower"),
    ("frontend.add_s", "s", "lower"),
    ("ir.verify_s", "s", "lower"),
    ("hlo.selectivity_s", "s", "lower"),
    ("profile.correlate_s", "s", "lower"),
    ("hlo.wpa_s", "s", "lower"),
    ("hlo.ltrans_s", "s", "lower"),
    ("llo.s", "s", "lower"),
    ("link.s", "s", "lower"),
    ("cache.plan_s", "s", "lower"),
    ("cache.store_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.stores", "count", "lower"),
    ("driver.teardown_s", "s", "lower"),
    ("driver.unattributed_s", "s", "lower"),
    ("support.parallel_eff", "ratio", "higher"),
    ("naim.acquires", "count", "lower"),
    ("naim.expansions", "count", "lower"),
    ("naim.compactions", "count", "lower"),
    ("naim.offloads", "count", "lower"),
    ("naim.fetches", "count", "lower"),
    ("naim.hit_ratio", "ratio", "higher"),
    ("naim.stored_mib", "MiB", "lower"),
    ("naim.lock_wait_ms", "ms", "lower"),
    ("naim.contentions", "count", "lower"),
    ("mem.ltrans_alloc_mib", "MiB", "lower"),
    ("mem.arena_waste_mib", "MiB", "lower"),
    ("analysis.s", "s", "lower"),
    ("analysis.cache_hits", "count", "higher"),
    ("vm.run_s", "s", "lower"),
    ("hlo.inline_sites", "count", "higher"),
    ("hlo.cmo_lines", "count", "lower"),
]


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 35,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


# --------------------------------------------------------------------------
# Building the driver
# --------------------------------------------------------------------------

def build_dir():
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build_driver():
    """Configures and builds scmo_perfbench from the checkout's sources."""
    if not (ROOT / "src" / "driver" / "CompilerSession.h").is_file():
        fail("no SCMO sources next to perfbench/ (expected %s)" %
             (ROOT / "src"))
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR
                            not in cache.read_text()):
        shutil.rmtree(out)  # Configured from another checkout.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "scmo_perfbench",
              "-j", jobs]]
    if cache.is_file():
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("building the driver failed: " + " ".join(step))
    return out / "scmo_perfbench"


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------

def run_driver(exe, workload, seed, seconds, trace):
    """Runs the driver once and returns its raw samples."""
    work = build_dir() / ("work-%d" % os.getpid())
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work)]
    if trace:
        cmd += ["--trace-file",
                str(build_dir() / ("trace-%s-%d.json" % (workload, seed)))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        raise
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def median_of(ops, key, missing=0.0):
    values = [op[key] for op in ops if key in op]
    return statistics.median(values) if values else missing


def tail(values):
    """The highest sample with at least ten samples beyond it. A run of
    fewer than 21 samples has none, so there (n - 1) // 2 samples must be
    beyond it instead: the upper median."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0, 0
    beyond = min(10, (len(ordered) - 1) // 2)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def end_to_end_metrics(raw):
    ops = raw["ops"]
    value, pct, beyond = tail([op["build_s"] for op in ops])
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "build_s": median_of(ops, "build_s"),
        "build_tail_s": value,
        "cpu_s": median_of(ops, "cpu_s"),
        "analyze_s": median_of(ops, "analyze_s"),
        "peak_mib": median_of(ops, "peak_mib"),
        "rss_mib": median_of(ops, "rss_mib"),
        "run_mcycles": median_of(ops, "run_mcycles"),
        "code_kinstrs": median_of(ops, "code_kinstrs"),
    }
    notes = {"build_tail_s": "p%.0f of %d builds, %d beyond" %
             (pct, len(ops), beyond)}
    return metrics, notes


def per_layer_metrics(raw):
    ops = raw["ops"]
    metrics = {}
    for name, _, _ in PER_LAYER:
        source = "analyze_s" if name == "analysis.s" else name
        value = median_of(ops, source, missing=None)
        metrics[name] = (raw["run"].get(source, 0.0) if value is None
                         else value)
    return metrics


def summarize(raw, trace):
    """The contract's result object plus the human-readable table rows."""
    ops = raw["ops"]
    correct = (bool(ops) and raw["wrong_outputs"] == 0
               and raw["cross_checked"]
               and all(p["ok"] for p in raw["predictions"]))
    if trace:
        values = per_layer_metrics(raw)
        units = {n: u for n, u, _ in PER_LAYER}
        notes = {}
    else:
        values, notes = end_to_end_metrics(raw)
        units = {m["name"]: m["unit"] for m in END_TO_END}
    rows = [(name, value, units[name], notes.get(name, ""))
            for name, value in values.items()]
    attempted, failed = raw["attempted"], raw["failed"]
    rows.append(("fail_rate", failed / attempted, "ratio",
                 "%d of %d operations" % (failed, attempted)))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return result, rows


def print_table(raw, rows):
    print("%s  seed %d  jobs %d  %d operations in %.1fs" %
          (raw["workload"], raw["seed"], raw["jobs"], len(raw["ops"]),
           raw["measured_s"]))
    for name, value, unit, note in rows:
        print("  %-24s %14.6g %-8s %s" % (name, value, unit, note))
    for failure in raw["failures"]:
        print("  FAILED %s" % failure)
    for p in raw["predictions"]:
        print("  prediction %-52s %s" % (p["check"],
                                         "ok" if p["ok"] else "FAILED"))
        if not p["ok"]:
            print("perfbench: PREDICTION FAILED on %s: %s" %
                  (raw["workload"], p["check"]), file=sys.stderr)


# --------------------------------------------------------------------------
# Steadiness mode
# --------------------------------------------------------------------------

def steadiness(exe, args):
    """Runs one workload with N seeds and prints each end-to-end metric's
    median, quartiles, spread (IQR / median) and max/min ratio."""
    samples = {m["name"]: [] for m in END_TO_END}
    first = None
    for i in range(args.steady):
        raw = run_driver(exe, args.workload, args.seed + i, args.seconds, 0)
        values, _ = end_to_end_metrics(raw)
        first = first or (raw, values)
        for name, value in values.items():
            samples[name].append(value)
        print("run %d (seed %d): %s" % (
            i + 1, args.seed + i,
            " ".join("%s=%.6g" % kv for kv in values.items())))
    print("\n%s, %d runs of %gs, seeds %d..%d" % (
        args.workload, args.steady, args.seconds, args.seed,
        args.seed + args.steady - 1))
    print("  %-14s %-8s %11s %11s %11s %8s %8s %6s  %s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "max/min",
        "bound", "verdict"))
    summary = {}
    for m in END_TO_END:
        values = samples[m["name"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        ratio = max(values) / min(values) if min(values) else 0.0
        verdict = ("steady" if spread <= m["bound"] / 3 else
                   "within bound" if spread <= m["bound"] else "TOO NOISY")
        if m["name"] == "setup_s":
            verdict += " (spread not gated)"
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": spread, "max_min": ratio}
        print("  %-14s %-8s %11.6g %11.6g %11.6g %7.2f%% %8.3f %5.0f%%  %s"
              % (m["name"], m["unit"], med, q1, q3, 100 * spread, ratio,
                 100 * m["bound"], verdict))
    # Tracing overhead: the traced run against the untraced run of the
    # same seed.
    traced = run_driver(exe, args.workload, args.seed, args.seconds, 1)
    untraced_build = first[1]["build_s"]
    traced_build = median_of(traced["ops"], "build_s")
    overhead = (traced_build - untraced_build) / untraced_build
    print("  tracing overhead on build_s (seed %d): %.6g s traced vs %.6g s "
          "untraced, %+.2f%%" % (args.seed, traced_build, untraced_build,
                                 100 * overhead))
    return {"workload": args.workload, "runs": args.steady,
            "metrics": summary, "tracing_overhead": overhead}


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[w["name"] for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness mode: N runs with seeds seed.."
                             "seed+N-1, then one traced run")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args()

    # A terminating signal unwinds through run_driver, which kills the
    # driver's process group before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if args.write_benchmark_json:
        text = json.dumps(benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        print(text, end="")
        return

    started = time.monotonic()
    exe = build_driver()
    print("perfbench: driver ready after %.1fs" %
          (time.monotonic() - started), file=sys.stderr)

    if args.steady:
        if args.workload == "all" or args.steady < 2:
            fail("--steady needs one workload and N >= 2")
        print(json.dumps(steadiness(exe, args)))
        return

    names = ([w["name"] for w in WORKLOADS] if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        raw = run_driver(exe, name, args.seed, args.seconds, args.trace)
        results[name], rows = summarize(raw, args.trace)
        print_table(raw, rows)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))


if __name__ == "__main__":
    main()
