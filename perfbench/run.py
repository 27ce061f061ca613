#!/usr/bin/env python3
"""m3rma benchmark: builds perfbench/m3bench and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is built from source with the
project's default build type (RelWithDebInfo) in a build tree of its own,
under $CARGO_TARGET_DIR (default .bench_build). Then whole rounds run until
--seconds have passed and every sub-seed ran; a round is one m3bench process
driving one 8-rank World on one CPU (see m3bench.cpp). Round i runs sub-seed
i mod SUBSEEDS of --seed, so a run covers SUBSEEDS different inputs and
repeats them.

--trace 0 runs plain rounds and reports the end-to-end metrics: host ones
as the median over all rounds, each rescaled by the round's host-speed
probes to the reference host (see HostSpeed in m3bench.cpp), virtual ones
as the median over sub-seeds (each sub-seed's virtual numbers are
deterministic). --trace 1 alternates
split rounds (untraced, thread-CPU timers around the public calls into each
layer) with traced rounds (trace::Recorder and OpTimeline attached) and
reports the per-layer metrics.

Every round's oracles must pass, and every round of one sub-seed must report
the same virtual numbers, traced or not; otherwise "correct" is false. A round
that crashes or throws (segfault, DeadlockError, TransportError) counts all
its ops as failed; it is reported, never retried. The last stdout line is
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2_put_storm", "lock_epochs", "kv_zipf_torus",
             "kv_replicated_failover")
SUBSEEDS = 5            # distinct inputs per run; odd, so medians have a middle
ROUND_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "host_ops_per_s": "ops/s",
    "host_cpu_us_per_op": "us",
    "peak_rss_mb": "MiB",
    "vt_op_p50_us": "us",
    "vt_op_p99_us": "us",
    "vt_op_p999_us": "us",
    "vt_kops_per_s": "kops/s",
}

# Per-layer metrics: (name, unit, source). Sources: "host" = median over
# split rounds, "virtual" = deterministic value, "trace" = traced rounds.
SEGMENTS = ("inject", "wire", "contention", "delivery", "serialize_wait",
            "lock_wait", "apply", "completion", "notify", "retransmit",
            "failover", "other")
PER_LAYER = [
    ("simtime.events_per_op", "count", "virtual"),
    ("simtime.switches_per_op", "count", "virtual"),
    ("simtime.sched_cpu_ns_per_event", "ns", "host"),
    ("simtime.sys_ns_per_op", "ns", "host"),
    ("simtime.ctxsw_per_op", "count", "host"),
    ("simtime.minflt_setup", "count", "host"),
    ("simtime.minflt_per_op", "count", "host"),
    ("runtime.rank_cpu_ns_per_op", "ns", "host"),
    ("core.daemon_cpu_ns_per_op", "ns", "host"),
    ("core.put_cpu_ns", "ns", "host"),
    ("core.complete_cpu_ns", "ns", "host"),
    ("apps.start_cpu_ns", "ns", "host"),
    ("apps.finish_cpu_ns", "ns", "host"),
    ("apps.incr_cpu_ns", "ns", "host"),
    ("mpi2.epoch_cpu_ns", "ns", "host"),
] + [("seg.%s_us" % s, "us", "trace") for s in SEGMENTS] + [
    ("core.put_p50_us.none", "us", "virtual"),
    ("core.put_p50_us.ordering", "us", "virtual"),
    ("core.put_p50_us.remote_completion", "us", "virtual"),
    ("core.put_p50_us.atomicity", "us", "virtual"),
    ("core.put_p50_us.coarse_lock", "us", "virtual"),
    ("mpi2.epoch_p50_us", "us", "virtual"),
    ("apps.get_p99_us", "us", "virtual"),
    ("apps.put_p99_us", "us", "virtual"),
    ("apps.rmw_p99_us", "us", "virtual"),
    ("fabric.msgs_per_op", "count", "virtual"),
    ("fabric.bytes_per_op", "bytes", "virtual"),
    ("fabric.retransmits", "count", "virtual"),
    ("fabric.rerouted_packets", "count", "virtual"),
    ("topo.hot_link_util_pct", "%", "virtual"),
    ("core.mirror_bytes_per_op", "bytes", "virtual"),
    ("core.rescued_ops", "count", "virtual"),
    ("core.retargeted_ops", "count", "virtual"),
    ("core.reissued_gets", "count", "virtual"),
    ("core.rereplications", "count", "virtual"),
    ("core.rerepl_bytes", "bytes", "virtual"),
    ("apps.cache_hit_ratio", "ratio", "virtual"),
    ("apps.cas_conflicts", "count", "virtual"),
    ("apps.hot_shard_pct", "%", "virtual"),
    ("apps.failover_stall_us", "us", "virtual"),
    ("trace.host_overhead_pct", "%", "derived"),
]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build m3bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("m3rma sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "m3bench", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            sys.stderr.write(res.stdout[-4000:])
            return None
    exe = os.path.join(out, "m3bench")
    return exe if os.path.isfile(exe) else None


def run_round(exe, workload, seed, mode):
    """One m3bench process. Returns (planned_ops, result dict or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--mode", mode]
    # The round's stdout ends with one JSON result; its first line announces
    # the planned op count, so a round that dies still accounts its ops.
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             timeout=ROUND_TIMEOUT_S)
        stdout, rc = res.stdout, res.returncode
        err = res.stderr
    except subprocess.TimeoutExpired as e:
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (
            e.stdout or "")
        rc, err = "timeout", ""
    planned, result = None, None
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "planned" in obj:
            planned = int(obj["planned"])
        elif "virtual" in obj:
            result = obj
    if rc != 0 or result is None:
        log("%s round (seed %d) failed: exit %s %s" %
            (mode, seed, rc, err.strip()[-500:]))
        result = None
    return planned, result


def median_of(rounds, section, name):
    vals = [r[section][name] for r in rounds if name in r[section]]
    return statistics.median(vals) if vals else None


def subseed(seed, i):
    return seed * 1000 + i % SUBSEEDS


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        log("cannot build m3bench")
        return 2

    modes = ["plain"] if args.trace == 0 else ["split", "traced"]
    rounds = {m: [] for m in modes}
    attempted = failed = 0
    correct = True
    t0 = time.monotonic()
    i = 0
    while True:
        for mode in modes:
            sub = subseed(args.seed, i)
            planned, res = run_round(exe, args.workload, sub, mode)
            if planned is None:
                log("round printed no op plan")
                return 2
            attempted += planned
            if res is None:
                failed += planned
                continue
            failed += int(res["failed"])
            if res["oracle_failures"]:
                correct = False
                log("%s oracle failures: %s" % (mode, res["oracle_failures"]))
            if int(res["ops"]) != planned:
                correct = False
            res["subseed"] = sub
            rounds[mode].append(res)
        i += 1
        if time.monotonic() - t0 >= args.seconds and i >= SUBSEEDS:
            break
        if time.monotonic() - t0 >= args.seconds + 60:
            log("stopping before every sub-seed ran")
            break

    ok_rounds = [r for m in modes for r in rounds[m]]
    if not ok_rounds or not all(rounds[m] for m in modes):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 0
    # Determinism: every round of one sub-seed, traced or not, reports the
    # same virtual numbers.
    by_sub = {}
    for r in ok_rounds:
        ref = by_sub.setdefault(r["subseed"], r["virtual"])
        if r["virtual"] != ref:
            correct = False
            diff = sorted(k for k in set(ref) | set(r["virtual"])
                          if ref.get(k) != r["virtual"].get(k))
            log("virtual numbers differ between rounds of sub-seed %d "
                "(%s): %s" % (r["subseed"], r["mode"], diff[:8]))
    if len(by_sub) < SUBSEEDS:
        log("only %d of %d sub-seeds completed" % (len(by_sub), SUBSEEDS))

    def virtual(name):
        vals = [v[name] for v in by_sub.values() if name in v]
        return statistics.median(vals) if vals else None

    metrics = {}
    if args.trace == 0:
        plain = rounds["plain"]
        log("as measured: host_ops_per_s %.1f, setup_s %.4f; host slowdown "
            "against the reference host %.3f (medians over %d rounds)" %
            (median_of(plain, "host", "host.raw_ops_per_s"),
             median_of(plain, "host", "host.raw_setup_s"),
             median_of(plain, "host", "host.slowdown"), len(plain)))
        for name, unit in END_TO_END.items():
            v = median_of(plain, "host", name)
            if v is None:
                v = virtual(name)
            if v is None:
                correct = False
                log("metric %s missing" % name)
                continue
            metrics[name] = {"value": v, "unit": unit}
    else:
        split, traced = rounds["split"], rounds["traced"]
        for name, unit, src in PER_LAYER:
            if src == "host":
                v = median_of(split, "host", name)
            elif src == "trace":
                v = median_of(traced, "trace", name)
            elif src == "virtual":
                v = virtual(name)
            else:  # tracing overhead: untraced vs traced host rate
                a = median_of(split, "host", "host_ops_per_s")
                b = median_of(traced, "host", "host_ops_per_s")
                v = 100.0 * (a / b - 1.0)
            metrics[name] = {"value": 0.0 if v is None else v, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
