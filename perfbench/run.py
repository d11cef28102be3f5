#!/usr/bin/env python3
"""Reference benchmark for sigrec: cold, census and serve workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 25 --trace 0

The script builds perfbench/perf.exe from source with dune (into
.bench_build/), generates the seeded inputs in a separate process, and
measures the program in fresh processes, so no process state (metrics
switch, heap high-water mark, domain pool, interner) leaks between
measurements:

* --trace 0: untraced end-to-end rounds over the same input, in one
  domain, each checked against the generator's ground truth, until
  their measured time reaches --seconds, with set-up timed in fresh
  processes between them. A fixed reference kernel (speed.ml) is timed
  between rounds and at pauses inside census and serve rounds, and
  every time is reported at the kernel's reference speed. Prints the
  end-to-end metrics, each the median over the rounds.
* --trace 1: pairs of untraced rounds (default configuration, then
  jobs = 1) for half of --seconds, then one sequential replay with
  bench-side spans around each layer's public calls. Prints the
  per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the hardware
and every round's raw figures. Any failure to build, generate or
measure exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perf.exe")
WORK = os.path.join(BUILD_DIR, "perfbench-work")

# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 840.0

# A round answers one fixed input in a fresh process; a run repeats it
# until the rounds' measured wall time reaches --seconds (at least
# MIN_ROUNDS rounds), so slow periods on a shared host cost rounds, not
# run time. Every round answers at least 1,000 lines or requests, so
# that ten of its latencies lie beyond its p99.
ROUND_SIZE = {"cold": 1_000, "census": 30_000, "serve": 1_000}
MIN_ROUNDS = 3
# Time kept back, after the rounds, for the replay and the checks.
RESERVE_S = 60.0
# Set-up is timed in fresh processes between the rounds, so that its
# median covers the same stretch of host speeds as the rounds' figures.
SETUP_SAMPLES_PER_ROUND = 5
# End-to-end rounds run in one domain. The host gives the benchmark two
# vCPUs of a shared machine: with a second domain (the default, one per
# vCPU) any other work on either vCPU stalls the domains at every
# stop-the-world minor collection, and the figures tracked the host's
# load, not the program (0.38-0.75 quartile spread over ten runs, CPU
# time included). The pool's fan-out is still measured: pool.speedup in the
# traced run compares default and one-domain rounds.
E2E_JOBS = "1"
# The host's speed swings by up to 1.6x from one ten-second stretch to
# the next, steal or none (the core's other hyperthread, cache and
# memory bandwidth belong to other tenants), and ten runs' medians
# spread by 0.11-0.32 of their median. The kernel in speed.ml, which no
# change to the program can alter, is timed before and after every
# round, and a round's times are multiplied by (SPEED_REF_S / k) **
# SPEED_EXPONENT, k the mean of the two timings: every time is reported
# as at the speed where the kernel takes SPEED_REF_S, about its time on
# an idle core of this 2-vCPU host. Round times moved by 0.6 to 1.0 of
# the kernel's time (log-log slope), depending on what the neighbours
# ran; the exponent sits between, and gave the smallest worst spread
# over six five-seed sets (0.04-0.09; 0.06-0.13 at 1.0). The raw times
# and kernel timings are on the line before the result.
SPEED_UNITS = "1"
SPEED_REF_S = 0.2
SPEED_EXPONENT = 0.75
# The host changes speed within seconds, inside a round: a census round
# (2 s) and a serve round (5-11 s) pause, unclocked, after every
# PAUSE_EVERY lines or requests for one more kernel timing, which cut
# the spread of a census round's calibrated rate within a run from
# 0.06-0.12 to 0.04-0.07 of its mean. A cold round (2 s) is one chunk.
PAUSE_EVERY = {"serve": 100, "census": 10_000}

UNITS = {
    "setup_s": "s",
    "contracts_per_s": "contracts/s",
    "requests_per_s": "req/s",
    "cpu_ms_per_contract": "ms",
    "peak_rss_mb": "MB",
    "request_latency_p50_ms": "ms",
    "request_latency_p99_ms": "ms",
    "success_ratio": "fraction",
    "signature_accuracy": "fraction",
}

PER_LAYER = [
    "input.self_us", "input.minor_words",
    "keccak.self_us", "keccak.us_per_kib",
    "engine.self_us", "engine.hit_ratio", "engine.dedup_ratio",
    "pool.speedup",
    "lift.self_us", "lift.minor_words", "lift.calls",
    "absint.contract_self_us", "absint.entry_self_us", "absint.minor_words", "absint.calls",
    "symex.self_us", "symex.minor_words", "symex.paths_per_function", "symex.pruned_fork_ratio",
    "rules.self_us", "rules.minor_words",
    "layout.self_us", "layout.calls",
    "classify.self_us", "classify.probes_per_contract",
    "render.self_us", "render.bytes_per_contract",
    "serve.self_us",
    "analysis.p50_us", "analysis.p99_us",
    "trace.coverage", "trace.overhead",
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    raise BenchError("dune not found")


def build():
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--cache=disabled", "./perfbench/perf.exe"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build failed:\n" + r.stderr[-4000:])


class Clock:
    def __init__(self, budget):
        self.end = time.monotonic() + budget

    def left(self):
        left = self.end - time.monotonic()
        if left <= 1:
            raise BenchError("out of time")
        return left


def perf(clock, *args, on_pause=None):
    """Run one perf.exe subcommand; return its last stdout line as JSON.
    Each time it prints "pause" it waits, and [on_pause] runs before it
    is told to go on."""
    what = " ".join(args)
    limit = clock.left()
    err_path = os.path.join(WORK, "perf.%d.stderr" % os.getpid())
    with open(err_path, "w+") as err:
        os.remove(err_path)
        p = subprocess.Popen([EXE, *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=err, text=True)
        timed_out = []

        def expire():
            timed_out.append(True)
            p.kill()
        timer = threading.Timer(limit, expire)
        timer.start()
        lines = []
        try:
            for line in p.stdout:
                if line == "pause\n" and on_pause:
                    on_pause()
                    p.stdin.write("go\n")
                    p.stdin.flush()
                else:
                    lines.append(line)
            p.wait()
        except BrokenPipeError:
            p.wait()
        finally:
            timer.cancel()
            if p.poll() is None:
                p.kill()
                p.wait()
            p.stdin.close()
            p.stdout.close()
        if timed_out:
            raise BenchError("perf.exe %s timed out" % what)
        if p.returncode != 0:
            err.seek(0)
            raise BenchError("perf.exe %s failed:\n%s" % (what, err.read()[-4000:]))
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("perf.exe %s printed no result" % what)


def kernel(clock):
    """Steal-free seconds the host-speed kernel (speed.ml) takes now."""
    r = perf(clock, "speed", "--units", SPEED_UNITS)
    return r["speed_s"] * (1.0 - r["steal"])


def factor(k):
    """The factor that brings times taken while the kernel took [k]
    seconds to the reference host speed."""
    return (SPEED_REF_S / k) ** SPEED_EXPONENT


def calibrated(clock, workload, work, *extra):
    """Plays calibrated rounds: the host-speed kernel is timed before
    the first round, after each, and at each pause of a round (every
    PAUSE_EVERY lines or requests). A chunk of answers, between two
    timings, is scaled by the factor of their mean: each latency by its
    chunk's, the round's wall and CPU time by the chunks' factors
    weighted by the time their answers took. The kernel timings are
    kept as "kernel_s", the factor as "scale", the scaled latencies
    (ms, sorted) as "lat_ms". After each round, set-up is timed
    SETUP_SAMPLES_PER_ROUND times and scaled by the last kernel timing,
    as "ready_s"."""
    last = [kernel(clock)]
    every = PAUSE_EVERY.get(workload, 0)
    pause = ("--pause-every", str(every)) if every else ()

    def go():
        ks = [last[0]]
        r = one_round(clock, workload, work, *extra, *pause,
                      on_pause=lambda: ks.append(kernel(clock)))
        ks.append(kernel(clock))
        last[0] = ks[-1]
        f = [factor((a + b) / 2) for a, b in zip(ks, ks[1:])]
        lat = [ns * f[min(i // every, len(f) - 1) if every else 0]
               for i, ns in enumerate(r["lat_ns"])]
        r["kernel_s"] = ks
        r["scale"] = sum(lat) / sum(r["lat_ns"])
        r["lat_ms"] = sorted(x * (1.0 - r["steal"]) / 1e6 for x in lat)
        r["ready_s"] = [setup_time(clock, workload) * factor(ks[-1])
                        for _ in range(SETUP_SAMPLES_PER_ROUND)]
        return r
    return go


def setup_time(clock, workload):
    """Seconds from spawning a fresh process to its 'ready': process
    start, engine (serve: service) creation, and for serve the first
    ping."""
    t0 = time.perf_counter()
    p = subprocess.Popen([EXE, "setup", "--workload", workload, "--jobs", E2E_JOBS],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.wait(timeout=clock.left())
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
        p.stdout.close()
    if p.returncode != 0 or not line.startswith("ready"):
        raise BenchError("setup process failed")
    return t1 - t0


def quantile(sorted_values, q):
    """Nearest rank, as the OCaml side computes it."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, max(0, math.ceil(q * n) - 1))] if n else 0


def one_round(clock, workload, work, *extra, on_pause=None):
    """One untraced round in a fresh process, with its latencies (ns,
    in answer order) attached."""
    r = perf(clock, "run", "--workload", workload, "--dir", work, *extra,
             on_pause=on_pause)
    r["hardware"]["nproc"] = len(os.sched_getaffinity(0))
    with open(os.path.join(work, workload + ".lat")) as f:
        r["lat_ns"] = [int(x) for x in f]
    if r["check"]["answered"] < 1 or wall(r) <= 0:
        raise BenchError("a round answered nothing")
    return r


def rounds(clock, seconds, play):
    """Repeats [play] (one round, or one pair of rounds) until their
    measured wall time reaches [seconds], at least MIN_ROUNDS times,
    and stops early rather than overrun the time budget."""
    out, measured, longest = [], 0.0, 0.0
    while len(out) < MIN_ROUNDS or measured < seconds:
        if out and clock.left() < 2 * longest + RESERVE_S:
            break
        t0 = time.monotonic()
        r = play()
        longest = max(longest, time.monotonic() - t0)
        measured += sum(x["wall_s"] for x in (r if isinstance(r, tuple) else (r,)))
        out.append(r)
    return out


def wall(r):
    """The round's steal-free wall time: the measured wall time less the
    share of it the hypervisor took from the machine's vCPUs (the steal
    column of /proc/stat, as a share of the CPU time the machine wanted,
    read at both ends of the measured region). On a shared host that
    share swings from 0 to over 30 % between minutes; the raw wall time
    and the share are on the line before the result."""
    return r["wall_s"] * (1.0 - r["steal"])


def rate(r):
    return r["check"]["answered"] / wall(r)


def end_to_end(rs):
    """Each figure is the median over the rounds, which each answered
    the whole input; latency percentiles are taken per round first, and
    set-up is the median of every sample taken between the rounds."""
    med = lambda f: statistics.median(f(r) for r in rs)
    attempted = sum(r["check"]["answered"] + r["check"]["skipped"] for r in rs)
    failed = sum(r["check"]["failed"] for r in rs)
    declared = sum(r["check"]["declared"] for r in rs)
    values = {
        "setup_s": statistics.median(x for r in rs for x in r["ready_s"]),
        "contracts_per_s": med(lambda r: rate(r) / r["scale"]),
        "requests_per_s": med(lambda r: r["requests"] / wall(r) / r["scale"]),
        "cpu_ms_per_contract": med(lambda r: 1000.0 * r["cpu_s"] * r["scale"]
                                   / r["check"]["answered"]),
        "peak_rss_mb": med(lambda r: r["rss_mb"]),
        "request_latency_p50_ms": med(lambda r: quantile(r["lat_ms"], 0.50)),
        "request_latency_p99_ms": med(lambda r: quantile(r["lat_ms"], 0.99)),
        "success_ratio": 1.0 - failed / attempted,
        "signature_accuracy": sum(r["check"]["correct"] for r in rs) / declared if declared else 0.0,
    }
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return attempted, failed, metrics


def ratio(a, b):
    return a / b if b else 0.0


def traced(clock, workload, work, seconds):
    """Pairs of default and jobs = 1 rounds, then the replay, which is
    checked line by line against the last default round's answers."""
    pairs = rounds(clock, seconds / 2, lambda: (
        one_round(clock, workload, work),
        one_round(clock, workload, work, "--jobs", "1")))
    d = one_round(clock, workload, work)
    t = perf(clock, "trace", "--workload", workload, "--dir", work)
    strip = lambda r: {k: v for k, v in r.items() if k != "lat_ns"}
    print(json.dumps({"hardware": d["hardware"],
                      "rounds": [[strip(a), strip(b)] for a, b in pairs],
                      "replay": {k: v for k, v in t.items() if k != "layers"}}))
    errors = list(t["identity_errors"])
    for r in [d] + [r for p in pairs for r in p]:
        errors += r["check"]["errors"]
    if d["engine"]["evictions"]:
        errors.append("the engine evicted, so the replay's cache model does not hold")
    for e in errors:
        log("check: " + e)
    eng = d["engine"]
    lookups = eng["hits"] + eng["misses"]
    j1_wall = statistics.median(b["wall_s"] for _, b in pairs)
    layers = dict(t["layers"])
    layers.update({
        "engine.hit_ratio": {"value": ratio(eng["hits"], lookups), "unit": "ratio"},
        "engine.dedup_ratio": {"value": ratio(eng["deduped"], lookups), "unit": "ratio"},
        "pool.speedup": {"value": statistics.median(rate(a) / rate(b) for a, b in pairs),
                         "unit": "x"},
        "trace.overhead": {"value": t["replay_program_s"] / j1_wall - 1.0, "unit": "ratio"},
    })
    missing = [n for n in PER_LAYER if n not in layers]
    if missing:
        raise BenchError("per-layer metrics missing: " + ", ".join(missing))
    return (d["check"]["answered"] + d["check"]["skipped"], d["check"]["failed"],
            {n: layers[n] for n in PER_LAYER}, not errors)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SIZE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    clock = Clock(RUN_BUDGET_S)
    work = os.path.join(WORK, a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        perf(clock, "gen", "--workload", a.workload, "--seed", str(a.seed),
             "--size", str(ROUND_SIZE[a.workload]), "--dir", work)
        if a.trace == 0:
            rs = rounds(clock, a.seconds, calibrated(clock, a.workload, work,
                                                     "--jobs", E2E_JOBS))
            print(json.dumps({"hardware": rs[0]["hardware"],
                              "rounds": [{k: v for k, v in r.items()
                                          if k not in ("lat_ns", "lat_ms")}
                                         for r in rs]}))
            attempted, failed, metrics = end_to_end(rs)
            errors = [e for r in rs for e in r["check"]["errors"]]
            for e in errors:
                log("check: " + e)
            correct = not errors
        else:
            attempted, failed, metrics, correct = traced(clock, a.workload, work, a.seconds)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(1)
