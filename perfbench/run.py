"""rhorace benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload semiprime-race --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones (see perfbench/README.md).  The workload
pass runs in a child process (runner.py) under a wall-clock ceiling, so a
hung race is reported as a failed input instead of stalling the benchmark.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  The
full record (environment stamp, per-input samples, spans) is written to
perfbench/results/.  The exit code is 0 only when every input factored to
its planted primes and no process was left behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"

WORKERS = 2  # the timed client's RaceConfig(workers=...)
SETUP_REPEATS = 9
PASS_GRACE_S = 60  # ceiling on a pass beyond --seconds
SPAN_SUM_TOLERANCE_S = 1e-6

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import rhorace.pipeline
rhorace.pipeline.default_table()
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_environment() -> None:
    if not (ROOT / "src" / "rhorace" / "__init__.py").is_file():
        raise BenchError(f"rhorace sources not found under {ROOT / 'src'}")
    if not SPEC_PATH.is_file():
        raise BenchError(f"{SPEC_PATH} not found")
    cores = os.cpu_count() or 1
    if WORKERS > cores:
        raise BenchError(f"benchmark needs {WORKERS} workers but only {cores} core(s) exist")


def measure_setup() -> float:
    """Median of fresh-interpreter import rhorace + first default_table()."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def _stop_group(pgid: int) -> bool:
    """Kill whatever is left of the runner's process group and wait for it.

    Returns True if anything was still there to kill.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return True


def run_pass(args) -> dict:
    """Run runner.py under a ceiling; return its lines sorted by kind."""
    cmd = [
        sys.executable, str(HERE / "runner.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=args.seconds + PASS_GRACE_S)
    except subprocess.TimeoutExpired:
        timed_out = True
        _stop_group(proc.pid)
        out, _ = proc.communicate()
    leftovers = _stop_group(proc.pid)
    lines: dict = {
        "input": [], "timed_out": timed_out, "leftovers": leftovers, "pgid": proc.pid,
    }
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:  # the line a kill cut short
            continue
        kind = obj.pop("kind")
        if kind == "input":
            lines["input"].append(obj)
        else:
            lines[kind] = obj
    lines["returncode"] = proc.returncode
    return lines


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0 <= q <= 100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def end_to_end(inputs: list[dict], attempted: int, setup_s: float) -> dict:
    ok = [r for r in inputs if r["ok"]]
    w2 = [r["w2_s"] for r in ok]
    paired = [r for r in ok if "w1_s" in r]
    return {
        "latency_p50_s": percentile(w2, 50),
        "latency_p90_s": percentile(w2, 90),
        "throughput_inputs_per_s": len(w2) / sum(w2),
        "completed_ratio": len(ok) / attempted,
        "peak_rss_mb": peak_rss_mb(),
        # Total time at workers=1 over total at workers=2 on the same
        # inputs; steadier from seed to seed than a ratio of medians.
        "speedup_w2": sum(r["w1_s"] for r in paired) / sum(r["w2_s"] for r in paired),
        "setup_s": setup_s,
    }


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def winner_iters(spans: list[dict]) -> int:
    return sum(
        s["race"]["iterations"][s["race"]["winner"]] for s in spans if s["name"] == "race_factor"
    )


def per_layer(inputs: list[dict], layers: dict, detector: str) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced pass, plus any span-sum violations.

    Seconds and iterations are per input at workers=2, *_calls and
    race.calls are totals over the pass, race.rounds is per race.  The
    workers=1 figures come from the inputs that were also run at workers=1.
    """
    ok = [r for r in inputs if r["ok"]]
    n = len(ok)
    problems = []
    by = {"trial_divide": [], "is_probable_prime": [], "race_factor": []}
    races_w1: list[dict] = []
    self_w2 = 0.0
    iters_w2 = 0
    paired_iters = {1: 0, 2: 0}
    for r in ok:
        selfs = self_times(r["spans"])
        spans = {w: [s for s in r["spans"] if s["workers"] == w] for w in (1, 2)}
        for workers, group in spans.items():
            roots = [s for s in group if s["name"] == "factorize"]
            if not roots:
                continue
            total = sum(selfs[s["id"]] for s in group)
            if abs(total - (roots[0]["end"] - roots[0]["start"])) > SPAN_SUM_TOLERANCE_S:
                problems.append(f"input {r['i']} w{workers}: self times sum to {total}")
            if spans[1]:
                paired_iters[workers] += winner_iters(group)
        self_w2 += sum(selfs[s["id"]] for s in spans[2] if s["name"] == "factorize")
        iters_w2 += winner_iters(spans[2])
        for s in spans[2]:
            if s["name"] in by:
                by[s["name"]].append(s)
        races_w1 += [s for s in spans[1] if s["name"] == "race_factor"]

    def busy(name):
        return sum(s["end"] - s["start"] for s in by[name]) / n

    races = [s["race"] for s in by["race_factor"]]
    all_iters = sum(sum(r["iterations"]) for r in races)
    overshoot = [
        it - r["iterations"][r["winner"]]
        for r in races
        for it, kind in zip(r["iterations"], r["kinds"])
        if kind == "cancelled"
    ]
    w1_race_s = sum(s["end"] - s["start"] for s in races_w1)
    w1_iters = sum(s["race"]["iterations"][0] for s in races_w1)
    traced = [r["w2_s"] for r in ok]
    untraced = [r["w2_untraced_s"] for r in ok]
    metrics = {
        "sieve.build_s": layers["sieve_build_s"],
        "sieve.trial_divide_s": busy("trial_divide"),
        "sieve.trial_divide_calls": len(by["trial_divide"]),
        "numeric.mr_s": busy("is_probable_prime"),
        "numeric.mr_calls": len(by["is_probable_prime"]),
        "race.calls": len(races),
        "race.rounds": statistics.mean(r["rounds"] for r in races) if races else 0.0,
        "race.s": busy("race_factor"),
        "race.fixed_s": layers["race_fixed_s"],
        "race.useful_iters_ratio": iters_w2 / all_iters if all_iters else 0.0,
        "race.cancel_overshoot_iters": statistics.mean(overshoot) if overshoot else 0.0,
        "race.iter_speedup_w2": paired_iters[1] / paired_iters[2] if paired_iters[2] else 0.0,
        "rho.us_per_iter": 1e6 * w1_race_s / w1_iters if w1_iters else 0.0,
        "rho.iters_per_input": iters_w2 / n,
        "rho.polys_per_input": iters_w2 / n * (3 if detector == "floyd" else 1),
        "pipeline.races_per_input": len(races) / n,
        "pipeline.self_s": self_w2 / n,
        "trace.overhead_p50_s": percentile(traced, 50) - percentile(untraced, 50),
    }
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        check_environment()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s = measure_setup() if args.trace == 0 else None
    res = run_pass(args)
    inputs = res["input"]
    env = res.get("env", {})
    attempted = len(inputs) + (1 if res["timed_out"] else 0)
    failures = [f"input {r['i']}: {r['error']}" for r in inputs if not r["ok"]]
    if res["timed_out"]:
        failures.append(f"pass exceeded {args.seconds + PASS_GRACE_S:.0f} s and was killed")
    elif "end" not in res or res["returncode"] != 0:
        failures.append(f"runner exited with code {res['returncode']}")
    elif res["end"]["active_children"]:
        failures.append(f"{res['end']['active_children']} worker(s) alive after the pass")
    if res["leftovers"] and not res["timed_out"]:
        failures.append("processes of the pass outlived it")
    failed = len(inputs) - sum(r["ok"] for r in inputs) + (1 if res["timed_out"] else 0)
    ok_count = attempted - failed

    if ok_count == 0:
        metrics = {}
    elif args.trace == 0:
        metrics = end_to_end(inputs, attempted, setup_s)
    else:
        metrics, problems = per_layer(inputs, res["layers"], env["detector"])
        failures += problems
    section = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in spec[section]}
    correct = not failures and set(metrics) == set(units)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {ok_count}/{attempted} ok  nproc {env.get('nproc')}  "
          f"python {env.get('python')}  loadavg {env.get('loadavg', [None])[0]}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units.get(name, '?')}")
    if args.trace and metrics and metrics["race.iter_speedup_w2"]:
        paired = [r for r in inputs if r["ok"] and "w1_s" in r]
        wall = sum(r["w1_s"] for r in paired) / sum(r["w2_s"] for r in paired)
        iters = metrics["race.iter_speedup_w2"]
        print(f"  speedup model: iterations {iters:.3f} vs sqrt(2) = {math.sqrt(2):.3f} predicted; "
              f"wall (traced) {wall:.3f}; wall / iterations = {wall / iters:.3f} "
              f"(per-iteration throughput ratio x process overhead)")
    for line in failures:
        print(f"  FAILED {line}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [s for r in inputs for s in r.pop("spans", [])]
    record = {
        "env": env,
        "args": vars(args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        "inputs": inputs,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
