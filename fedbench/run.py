#!/usr/bin/env python3
"""Benchmark of the FedProx simulator, run from the root of a checkout:

  python3 fedbench/run.py --workload synth_small --seed 1 --seconds 30 --trace 0
  python3 fedbench/run.py --steadiness 10            # every workload, 10 runs

Builds fedbench/ (the program's library plus fedbench_rep) under
$CARGO_TARGET_DIR or .bench_build, then, for --seconds, runs repetitions
of one workload, each a fresh fedbench_rep process that sets the workload
up and trains one Trainer on 2 pool threads. --trace 0 prints every
end-to-end metric of BENCHMARK.json; --trace 1 alternates untraced and
traced repetitions, adds the kernel/codec probe, and prints every
per-layer metric. Either way the outputs are checked (see check_run) and
the last stdout line is the JSON result. NOTES.md explains the workloads
and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload inputs are fixed: every run of every check trains on the same
# data with the same sampling, straggler, fault and churn streams, so
# counts, losses and accuracies must repeat bit for bit.
WORKLOAD_SEED = 1
THREADS = 2
MIN_REPS = {0: 3, 1: 2}  # per mode, per run, by --trace
REP_TIMEOUT_S = 150
PROBE_SECONDS = 0.25

# This host's speed drifts by 20-40% over minutes, with other tenants'
# load, and no amount of repetition within one run averages that out. So
# each repetition also times a fixed benchmark-owned kernel before its
# set-up and after its run (rep.cpp: calibrate), and the end-to-end
# timings are reported at a reference host speed:
#   reported = measured * REFERENCE_CALIBRATION_S / median(run's calibrations)
# The median over the whole run shrugs off single slow calibrations; the
# drift it corrects is slower than a run. The kernel shares no code with
# the program, so a program change moves the reported timings exactly as
# much as the measured ones. The measured values stay in the run's record;
# per-layer timings are as measured, with host.calibration_s beside them.
REFERENCE_CALIBRATION_S = 0.2

# Train-loss target of time_to_target_s; each is first reached mid-run
# (synth_small at round 55, lstm_kernels at 40, wide_faulty at 50 of 100).
TARGET_LOSS = {
    "synth_small": 0.70,
    "lstm_kernels": 3.105,
    "wide_faulty": 2.85,
}

# Round-record columns that are facts of the run, not timings: they must
# repeat exactly across repetitions, modes and runs.
FACT_COLUMNS = ("evaluated", "train_loss", "test_accuracy", "selected",
                "contributors", "bytes_down", "bytes_up", "attempts",
                "retries", "up_deliveries", "partial_bytes",
                "checkpoint_written", "checkpoint_bytes",
                "checkpoint_file_bytes")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- build --

def build(build_root):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("fedbench: no program sources next to the benchmark; "
            "run it from the root of a full checkout")
        sys.exit(2)
    build_dir = build_root / "fedbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return build_dir / "fedbench_rep"


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    sources = sorted(p for d in ("src", "fedbench")
                     for p in (ROOT / d).rglob("*")
                     if p.is_file() and "__pycache__" not in p.parts)
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "commit": commit,
            "source_digest": file_digest(sources), "threads": THREADS,
            "loadavg_start": list(os.getloadavg())}


# ------------------------------------------------------------- running --

def run_rep(exe, work_dir, name, mode, index, seed=None):
    out = work_dir / f"{name}-{mode}-{index}.json"
    cmd = [str(exe), "--workload", name, "--mode", mode,
           "--workload-seed", str(WORKLOAD_SEED), "--out", str(out)]
    tmp = work_dir / f"{name}-{mode}-{index}.tmp"
    if mode == "probe":
        cmd += ["--seed", str(seed), "--probe-seconds", str(PROBE_SECONDS)]
    else:
        cmd += ["--tmp", str(tmp)]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=REP_TIMEOUT_S)
    shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def run_workload(exe, build_root, name, seed, seconds, trace):
    """Repetitions of one workload for about `seconds`: plain only, or
    alternating plain/traced with --trace 1. Returns the raw records."""
    work_dir = build_root / "runs" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    modes = ("plain", "traced") if trace else ("plain",)
    reps, durations = [], []
    start = time.monotonic()
    try:
        while True:
            mode = modes[len(reps) % len(modes)]
            began = time.monotonic()
            reps.append(run_rep(exe, work_dir, name, mode, len(reps)))
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - start
            if (len(reps) >= MIN_REPS[trace] * len(modes) and
                    len(reps) % len(modes) == 0 and
                    elapsed + statistics.median(durations) > seconds):
                break
        probe = run_rep(exe, work_dir, name, "probe", 0, seed) if trace else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    env["compiler"] = reps[0]["compiler"]
    env["build_type"] = reps[0]["build_type"]
    return {"workload": name, "seed": seed, "trace": trace, "env": env,
            "measured_s": time.monotonic() - start, "reps": reps,
            "probe": probe}


# ------------------------------------------------------------- derived --

def training_rounds(rep):
    return range(1, len(rep["rounds"]["round"]))


def round_seconds(rep):
    """Training-round wall times: previous on_round_end to on_aggregate
    (sampling, exchange, aggregation; eval and checkpoint excluded)."""
    c = rep["rounds"]
    return [c["agg_in"][r] - c["end_out"][r - 1] for r in training_rounds(rep)]


def target_round(rep, target):
    c = rep["rounds"]
    for r, (evaluated, loss) in enumerate(zip(c["evaluated"], c["train_loss"])):
        if evaluated and loss <= target:
            return r
    return None


def per_round_total(rep, column):
    c = rep["rounds"][column]
    return sum(c[r] for r in training_rounds(rep)) / len(training_rounds(rep))


def calibration_median(reps):
    return statistics.median(s for rep in reps for s in rep["calibration_s"])


def end_to_end(name, run):
    plain = [r for r in run["reps"] if r["mode"] == "plain"]
    # Scales this run's timings to the reference host speed.
    speed = REFERENCE_CALIBRATION_S / calibration_median(run["reps"])
    times = [t * speed for rep in plain for t in round_seconds(rep)]
    first = plain[0]
    c = first["rounds"]
    rounds = training_rounds(first)
    # A run that never reaches the target fails its checks; its time to
    # target then reads as the whole run.
    r_target = target_round(first, TARGET_LOSS[name])
    if r_target is None:
        r_target = len(c["round"]) - 1
    return {
        "setup_s": speed * statistics.median(
            s for rep in run["reps"] for s in rep["setup_s"]),
        "run_s": speed * statistics.median(rep["run_s"] for rep in plain),
        "round_p50_ms": stats.percentile(times, 50) * 1e3,
        "round_p90_ms": stats.percentile(times, 90) * 1e3,
        "time_to_target_s": speed * statistics.median(
            rep["rounds"]["end_in"][r_target] for rep in plain),
        "final_train_loss": first["final_train_loss"],
        "final_test_accuracy": first["final_test_accuracy"],
        "peak_rss_mb": statistics.median(
            rep["peak_rss_kb"] / 1024 for rep in plain),
        "wire_bytes_per_round": per_round_total(first, "bytes_down") +
                                per_round_total(first, "bytes_up"),
        "exchange_success_share":
            sum(c["contributors"][r] for r in rounds) /
            sum(c["selected"][r] for r in rounds),
        "ckpt_bytes_per_round": per_round_total(first, "checkpoint_file_bytes"),
    }, len(times)


def exchanges_by_round(rep):
    """round -> list of exchange indices."""
    out = defaultdict(list)
    for i, r in enumerate(rep["exchanges"]["round"]):
        out[r].append(i)
    return out


def per_layer(run):
    plain = [r for r in run["reps"] if r["mode"] == "plain"]
    traced = [r for r in run["reps"] if r["mode"] == "traced"]
    probe = run["probe"]
    series = defaultdict(list)
    totals = defaultdict(float)
    for rep in traced:
        c = rep["rounds"]
        x = rep["exchanges"]
        by_round = exchanges_by_round(rep)
        for r in range(len(c["round"])):
            if c["evaluated"][r]:
                series["eval"].append(c["eval_s"][r])
            if c["checkpoint_written"][r]:
                series["checkpoint"].append(c["checkpoint_s"][r])
        for r in training_rounds(rep):
            p = stats.round_layers(c, r)
            for phase in ("sampling", "aggregate", "parallel_for",
                          "unattributed"):
                series[phase].append(p[phase])
            idx = by_round.get(r, [])
            busy = sum(x["seconds"][i] for i in idx)
            per_device = defaultdict(float)
            for i in idx:
                per_device[x["device"][i]] += x["seconds"][i]
            makespan = max(max(per_device.values(), default=0.0),
                           busy / THREADS)
            series["pool_overhead"].append(p["parallel_for"] - makespan)
            totals["busy"] += busy
            totals["parallel_for"] += p["parallel_for"]
            totals["hooks"] += c["hook_s"][r]
            totals["rounds"] += 1
        for i in range(len(x["seconds"])):
            series["exchange"].append(x["seconds"][i])
            series["solve"].append(x["solve_s"][i])
            series["comm_self"].append(x["seconds"][i] - x["solve_s"][i])
            series["optim_self"].append(x["solve_s"][i] - x["nn_s"][i])
        totals["nn_s"] += sum(x["nn_s"])
        totals["grad_calls"] += sum(x["grad_calls"])
        totals["grad_samples"] += sum(x["grad_samples"])
        totals["eval_nn_s"] += rep["eval_nn_s"]
        totals["evals"] += sum(1 for e in c["evaluated"] if e)
        totals["bytes_down"] += sum(x["bytes_down"])
        totals["bytes_up"] += sum(x["bytes_up"])

    first = traced[0]
    reps = len(traced)
    metrics = {}
    metrics.update(stats.latency_summary(
        "sim.sampling_ms", [1e3 * v for v in series["sampling"]]))
    metrics.update(stats.latency_summary(
        "sim.aggregate_ms", [1e3 * v for v in series["aggregate"]]))
    metrics.update(stats.latency_summary(
        "sim.eval_ms", [1e3 * v for v in series["eval"]]))
    metrics["sim.partial_bytes_per_round"] = per_round_total(first,
                                                             "partial_bytes")
    metrics.update(stats.latency_summary(
        "support.parallel_for_ms", [1e3 * v for v in series["parallel_for"]]))
    metrics["support.pool_busy_share"] = (
        totals["busy"] / (THREADS * totals["parallel_for"]))
    metrics["support.pool_overhead_ms"] = 1e3 * statistics.median(
        series["pool_overhead"])
    metrics.update(stats.latency_summary(
        "comm.exchange_ms", [1e3 * v for v in series["exchange"]]))
    metrics["comm.self_ms"] = 1e3 * statistics.median(series["comm_self"])
    metrics["comm.retries_per_round"] = per_round_total(first, "retries")
    metrics["comm.bytes_down_per_round"] = (
        totals["bytes_down"] / totals["rounds"])
    metrics["comm.bytes_up_per_round"] = totals["bytes_up"] / totals["rounds"]
    metrics.update(stats.latency_summary(
        "optim.solve_ms", [1e3 * v for v in series["solve"]]))
    metrics["optim.self_ms"] = 1e3 * statistics.median(series["optim_self"])
    metrics["optim.samples"] = totals["grad_samples"] / reps
    metrics["nn.loss_and_grad_calls"] = totals["grad_calls"] / reps
    metrics["nn.loss_and_grad_us"] = 1e6 * totals["nn_s"] / totals["grad_calls"]
    metrics["nn.eval_us"] = 1e6 * totals["eval_nn_s"] / totals["evals"]
    metrics["nn.us_per_sample"] = 1e6 * totals["nn_s"] / totals["grad_samples"]
    metrics["tensor.gemv_gflops"] = probe["gemv_gflops"]
    metrics["tensor.exact_sum_ns_per_value"] = probe["exact_sum_ns_per_value"]
    metrics["support.codec_mb_per_s"] = probe["codec_mb_per_s"]
    metrics["support.fpc1_encode_ms"] = probe["fpc1_encode_ms"]
    metrics["core.checkpoint_ms"] = 1e3 * statistics.median(series["checkpoint"])
    metrics["core.checkpoint_bytes"] = statistics.mean(
        b for b, w in zip(first["rounds"]["checkpoint_file_bytes"],
                          first["rounds"]["checkpoint_written"]) if w)
    metrics["core.unattributed_ms"] = 1e3 * statistics.median(
        series["unattributed"])
    metrics["obs.hook_us_per_round"] = 1e6 * totals["hooks"] / totals["rounds"]
    metrics["obs.trace_overhead_share"] = (
        statistics.median(r["run_s"] for r in traced) /
        statistics.median(r["run_s"] for r in plain) - 1.0)
    metrics["host.calibration_s"] = calibration_median(run["reps"])
    return metrics


# -------------------------------------------------------------- checks --

def reference_problems(build_root, exe, name, rep):
    """Outputs must also repeat across runs of the same build: the first
    run in a checkout records them, later runs compare."""
    facts = {"digest": rep["digest"],
             "final_train_loss": rep["final_train_loss"],
             "final_test_accuracy": rep["final_test_accuracy"],
             "columns": {k: rep["rounds"][k] for k in FACT_COLUMNS}}
    binary = file_digest([exe])
    path = build_root / "reference" / f"{name}-w{WORKLOAD_SEED}.json"
    if path.exists():
        saved = json.loads(path.read_text())
        if saved["binary"] == binary:
            if saved["facts"] != facts:
                return [f"outputs differ from an earlier run of this build "
                        f"(digest {saved['facts']['digest']} -> "
                        f"{facts['digest']})"]
            return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"binary": binary, "facts": facts}))
    return []


def rep_problems(name, rep, first):
    """Checks one repetition on its own and against the run's first."""
    problems = []
    c = rep["rounds"]
    tag = f"{rep['mode']} rep"
    if rep["digest"] != first["digest"]:
        problems.append(f"{tag}: TrainHistory digest {rep['digest']} != "
                        f"{first['digest']}")
    for column in FACT_COLUMNS:
        if c[column] != first["rounds"][column]:
            problems.append(f"{tag}: round column {column} differs")
    rounds = len(training_rounds(rep))
    if rounds < 100:
        problems.append(f"{tag}: {rounds} training rounds (needs >= 100)")
    losses = [l for l, e in zip(c["train_loss"], c["evaluated"]) if e]
    if not all(math.isfinite(l) for l in losses) or losses[-1] >= losses[0]:
        problems.append(f"{tag}: train loss did not decrease: {losses}")
    if not 0.0 < rep["final_test_accuracy"] <= 1.0:
        problems.append(f"{tag}: test accuracy {rep['final_test_accuracy']}")
    r_target = target_round(rep, TARGET_LOSS[name])
    if r_target is None or not 0 < r_target < rounds:
        problems.append(f"{tag}: target loss {TARGET_LOSS[name]} first reached "
                        f"at round {r_target}, not mid-run")
    written = [r for r, w in enumerate(c["checkpoint_written"]) if w]
    if not written:
        problems.append(f"{tag}: no checkpoint written")
    for r in written:
        if not 0 < c["checkpoint_file_bytes"][r] == c["checkpoint_bytes"][r]:
            problems.append(f"{tag}: round {r} checkpoint file holds "
                            f"{c['checkpoint_file_bytes'][r]} bytes, RoundTrace "
                            f"says {c['checkpoint_bytes'][r]}")
    if rep["mode"] == "traced":
        problems += traced_problems(rep)
    return problems


def traced_problems(rep):
    """Layer accounting, exchange nesting, and decorator bytes against
    RoundTrace bytes."""
    problems = []
    c = rep["rounds"]
    x = rep["exchanges"]
    tol = stats.LAYER_TOLERANCE_S
    by_round = exchanges_by_round(rep)
    for r in training_rounds(rep):
        phases = stats.round_layers(c, r)
        problems += stats.layer_violations(c, r, phases)
        idx = by_round.get(r, [])
        calls = len(idx)
        down = sum(x["bytes_down"][i] for i in idx)
        up = sum(x["bytes_up"][i] for i in idx)
        # All broadcasts of a round have one size and all updates another,
        # so per-attempt and per-delivery bytes must agree exactly; the
        # fault wrapper outside the decorator adds the attempts and
        # deliveries the decorator never sees.
        if (down * c["attempts"][r] != c["bytes_down"][r] * calls or
                up * c["up_deliveries"][r] != c["bytes_up"][r] * calls):
            problems.append(
                f"round {r}: decorator bytes {down}/{up} over {calls} "
                f"exchanges disagree with RoundTrace {c['bytes_down'][r]}/"
                f"{c['bytes_up'][r]} over {c['attempts'][r]} attempts, "
                f"{c['up_deliveries'][r]} deliveries")
        busy = sum(x["seconds"][i] for i in idx)
        if busy > THREADS * phases["parallel_for"] + tol:
            problems.append(f"round {r}: {busy:.6f} s of exchanges in a "
                            f"{phases['parallel_for']:.6f} s parallel_for")
    for i in range(len(x["seconds"])):
        if (x["seconds"][i] < x["solve_s"][i] - tol or
                x["solve_s"][i] < x["nn_s"][i] - tol):
            problems.append(f"exchange {i}: nesting broken (exchange "
                            f"{x['seconds'][i]}, solve {x['solve_s'][i]}, "
                            f"nn {x['nn_s'][i]})")
    return problems


def check_run(build_root, exe, name, run):
    reps = run["reps"]
    first = reps[0]
    failed = 0
    problems = []
    for rep in reps:
        found = rep_problems(name, rep, first)
        failed += bool(found)
        problems += found
    found = reference_problems(build_root, exe, name, first)
    if found:
        failed = len(reps)
        problems += found
    return failed, problems


# ------------------------------------------------------------- reports --

def measure(exe, build_root, spec, name, seed, seconds, trace):
    """One run: repetitions, checks and metrics. Returns the metrics' units
    and the run's record (metrics, problems, failed repetitions, raw data)."""
    run = run_workload(exe, build_root, name, seed, seconds, trace)
    failed, problems = check_run(build_root, exe, name, run)
    if trace:
        metrics, round_samples = per_layer(run), None
    else:
        metrics, round_samples = end_to_end(name, run)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"fedbench: metric set mismatch: missing "
                         f"{sorted(set(units) - set(metrics))}, undeclared "
                         f"{sorted(set(metrics) - set(units))}")
    return units, dict(run, metrics=metrics, problems=problems, failed=failed,
                       round_samples=round_samples)


def print_report(units, record):
    metrics, problems = record["metrics"], record["problems"]
    print(f"fedbench {record['workload']}: {len(record['reps'])} repetitions in "
          f"{record['measured_s']:.1f} s (workload seed {WORKLOAD_SEED}, "
          f"probe seed {record['seed']}, {THREADS} threads)")
    for metric, value in metrics.items():
        print(f"  {metric:34s} {value:>16.6g} {units[metric]}")
    if record["round_samples"]:
        n = record["round_samples"]
        print(f"  round_p90_ms is the p90 of {n} training rounds "
              f"({stats.samples_beyond(n, 90)} beyond it); "
              f"tail allowed up to p{stats.tail_percentile(n)}")
        print(f"  timings above are at the reference host speed "
              f"(calibration {REFERENCE_CALIBRATION_S} s); this run's "
              f"calibration median {calibration_median(record['reps']):.4f} s, "
              f"measured run_s median "
              f"{statistics.median(r['run_s'] for r in record['reps']):.4f} s")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more failed checks")


def save_record(build_root, record):
    path = (build_root / "results" /
            f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    slim = {k: v for k, v in record.items() if k != "reps"}
    slim["reps"] = [{k: v for k, v in rep.items() if k != "exchanges"}
                    for rep in record["reps"]]
    path.write_text(json.dumps(slim))


def steadiness(exe, build_root, spec, names, runs, seconds, trace):
    """Runs every workload `runs` times, alternating the workload order, and
    prints each end-to-end metric's median, IQR and IQR/median against its
    bound."""
    values = {name: defaultdict(list) for name in names}
    for i in range(runs):
        order = names if i % 2 == 0 else names[::-1]
        for name in order:
            _, record = measure(exe, build_root, spec, name, i + 1, seconds,
                                trace)
            save_record(build_root, record)
            log(f"steadiness run {i + 1}/{runs} {name}: "
                f"{'FAILED' if record['problems'] else 'ok'}")
            for problem in record["problems"][:5]:
                log(f"  {problem}")
            for metric, value in record["metrics"].items():
                values[name][metric].append(value)
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if trace else "end_to_end"]}
    summary = {}
    worst = 0.0
    print(f"{'workload':14s} {'metric':34s} {'median':>12s} {'IQR':>10s} "
          f"{'IQR/med':>8s} {'bound':>6s} {'/bound':>7s}")
    for name in names:
        for metric, series in values[name].items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = stats.spread(series)
            bound = bounds[metric]
            ratio = share / bound if bound else None
            if ratio is not None and metric != "setup_s":
                worst = max(worst, ratio)
            summary.setdefault(name, {})[metric] = {
                "median": median, "iqr": q3 - q1, "spread": share,
                "bound": bound, "values": series}
            print(f"{name:14s} {metric:34s} {median:12.6g} {q3 - q1:10.4g} "
                  f"{share:8.4f} {bound if bound else '-':>6} "
                  f"{'' if ratio is None else f'{ratio:7.3f}'}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    print(json.dumps({"steadiness": summary}))


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the kernel/codec probe inputs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run every workload N times and report spreads")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workloads for --steadiness")
    args = parser.parse_args()
    if not args.steadiness and not args.workload:
        parser.error("--workload or --steadiness is required")
    if args.steadiness == 1:
        parser.error("--steadiness needs at least 2 runs for quartiles")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or
                      ROOT / ".bench_build")
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    exe = build(build_root)
    if args.steadiness:
        steadiness(exe, build_root, spec, args.workloads.split(","),
                   args.steadiness, args.seconds, args.trace)
        return
    units, record = measure(exe, build_root, spec, args.workload, args.seed,
                            args.seconds, args.trace)
    save_record(build_root, record)
    print_report(units, record)
    print(stats.result_line(not record["problems"], len(record["reps"]),
                            record["failed"], record["metrics"], units))


if __name__ == "__main__":
    main()
