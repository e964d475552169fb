"""Pure helpers for the benchmark: percentiles with sample-count hygiene,
per-round layer accounting, and the result line the benchmark prints.

Everything here works on plain lists and dicts so test_stats.py can pin
it without building the program.
"""

import json
import math
import statistics

# A percentile is only emitted when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

# Per-round layer accounting tolerance, in seconds. Every named phase is
# measured on its own (hook gaps on the round thread, the program's own
# eval/checkpoint stopwatches, the decorators on the workers), so a phase
# sum can only exceed the round's wall time by clock-read jitter.
LAYER_TOLERANCE_S = 50e-6


class PercentileError(ValueError):
    """A percentile was requested without enough samples beyond it."""


def samples_beyond(n, pct):
    """How many of n samples lie strictly above the pct-th percentile."""
    return n - math.ceil(n * pct / 100.0)


def percentile(values, pct):
    """Linear-interpolated percentile of `values` (0 <= pct <= 100).

    Raises PercentileError unless MIN_TAIL_SAMPLES samples lie beyond it;
    the median of any non-empty list is always allowed."""
    n = len(values)
    if n == 0:
        raise PercentileError("percentile of no samples")
    if pct > 50 and samples_beyond(n, pct) < MIN_TAIL_SAMPLES:
        raise PercentileError(
            f"p{pct:g} of {n} samples has {samples_beyond(n, pct)} beyond it "
            f"(needs {MIN_TAIL_SAMPLES})")
    ordered = sorted(values)
    rank = (n - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest percentile (one decimal) with MIN_TAIL_SAMPLES samples
    beyond it among n samples, or None when even the median has too few."""
    pct = math.floor(1000.0 * (1.0 - MIN_TAIL_SAMPLES / n)) / 10.0 if n else 0
    while pct > 50 and samples_beyond(n, pct) < MIN_TAIL_SAMPLES:
        pct = round(pct - 0.1, 1)
    return pct if pct > 50 else None


def latency_summary(name, values):
    """{name: median, name.tail: highest allowed percentile, name.tail_pct:
    that percentile, name.n: sample count}. With too few samples for any
    tail the tail reads as the median at percentile 50."""
    pct = tail_percentile(len(values))
    median = percentile(values, 50)
    return {
        name: median,
        name + ".tail": percentile(values, pct) if pct else median,
        name + ".tail_pct": pct if pct else 50.0,
        name + ".n": len(values),
    }


def spread(values):
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def round_layers(rounds, round_index):
    """Splits training round r (>= 1) into named phases, in seconds.

    `rounds` is the recorder's column dict; a round runs from the end of
    the previous round's on_round_end to the end of its own:
      sampling      previous on_round_end exit -> on_round_start entry
      parallel_for  on_round_start exit -> first post-barrier hook entry
      aggregate     last post-barrier hook exit -> on_aggregate entry
      eval, checkpoint   the program's own stopwatches (RoundTrace)
      obs           time inside observer hooks (the recorder and the
                    program's own observers it forwards to)
      unattributed  wall minus all of the above
    """
    r = round_index
    c = rounds
    prev_end = c["end_out"][r - 1]
    post_in = c["post_in"][r] if c["post_in"][r] >= 0 else c["agg_in"][r]
    post_out = c["post_out"][r] if c["post_out"][r] >= 0 else c["agg_in"][r]
    phases = {
        "wall": c["end_out"][r] - prev_end,
        "sampling": c["start_in"][r] - prev_end,
        "parallel_for": post_in - c["start_out"][r],
        "aggregate": c["agg_in"][r] - post_out - c["late_hook_s"][r],
        "eval": c["eval_s"][r],
        "checkpoint": c["checkpoint_s"][r],
        "obs": c["hook_s"][r],
    }
    named = sum(v for k, v in phases.items() if k != "wall")
    phases["unattributed"] = phases["wall"] - named
    return phases


def layer_violations(rounds, round_index, phases, tol=LAYER_TOLERANCE_S):
    """Ways round r's accounting breaks; empty when it holds.

    Each hook gap must contain the program's own stopwatch for that phase,
    the Trainer's round stopwatch must fit between the previous round's
    last hook and this round's on_round_end, and the phases may not sum
    past the wall time."""
    r = round_index
    c = rounds
    problems = []
    if phases["unattributed"] < -tol:
        problems.append(f"round {r}: phases exceed wall by "
                        f"{-phases['unattributed'] * 1e3:.3f} ms")
    for phase, own in (("sampling", "sampling_s"),
                       ("parallel_for", "solve_wall_s"),
                       ("aggregate", "aggregate_s")):
        if phases[phase] < c[own][r] - tol:
            problems.append(f"round {r}: {phase} gap {phases[phase]:.6f} s is "
                            f"shorter than the program's {c[own][r]:.6f} s")
    to_end = c["end_in"][r] - c["end_out"][r - 1]
    if to_end < c["round_s"][r] - tol:
        problems.append(f"round {r}: hooks span {to_end:.6f} s, the trainer's "
                        f"round stopwatch {c['round_s'][r]:.6f} s")
    return problems


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last stdout line: exactly correct/attempted/failed/
    metrics, each metric {"value", "unit"}. Refuses non-finite values and
    metrics without a unit."""
    out = {}
    for name, value in metrics.items():
        if name not in units:
            raise ValueError(f"metric {name} has no unit")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": units[name]}
    if int(attempted) < 1 or int(failed) < 0:
        raise ValueError("attempted must be >= 1 and failed >= 0")
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out},
                      separators=(",", ":"))
