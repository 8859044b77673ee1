#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds the
library, `omniboost_cli` and `perfbench_harness` into `.bench_build/`.

Workloads (see BENCHMARK.json for why each exists):
  daemon-greedy    `omniboost_cli serve --listen 0 --scheduler greedy --boards 4
                   --background-slice-ms 0`, driven over loopback by one
                   closed-loop client on one persistent connection.
  serve-warm       in-process ClusterSession, 1 HiKey970 board, default
                   OmniBoostScheduler, Poisson arrivals, no SLOs.
  serve-slo-recur  as serve-warm, with a stable base and three toggling
                   streams (8 mixes recur), SLOs on every arrival and the
                   migration-cost model at scale 2.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
again with spans on, plus the in-process layer timings, prints the per-layer
metrics and writes a Chrome trace-event file to `.bench_build/out/`.
The last stdout line is always one JSON object:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
"""

import argparse
import json
import math
import os
import platform
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
HARNESS = os.path.join(BUILD, "perfbench_harness")
CLI = os.path.join(BUILD, "omniboost", "omniboost_cli")

WORKLOADS = ("daemon-greedy", "serve-warm", "serve-slo-recur")

# Commands a fresh daemon replays to check repeatability. (The serve-*
# design-time campaign, its repetitions and replayed decisions are fixed in
# harness.cpp.)
DAEMON_PREFIX = 20

DAEMON_BOARDS = 4
DAEMON_SPAWNS = 31         # set-up samples; the last spawn serves the run
STATUS_EVERY = 16          # one `status` in this many commands
FAULT_EVERY = 24           # one fail/throttle/recover in this many
DAEMON_WINDOW = 6          # streams present once the fleet has filled
REPLY_TIMEOUT_S = 10.0
NOOP_PROBES = 100
LAYER_STREAM_EVENTS = 10000

MODELS = ("AlexNet", "MobileNet", "ResNet-34", "ResNet-50", "ResNet-101",
          "VGG-13", "VGG-16", "VGG-19", "SqueezeNet", "Inception-v3",
          "Inception-v4")


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(samples, q):
    """Linear-interpolated q-quantile (0 < q < 1). Refuses when fewer than
    10 samples lie beyond it: p50 needs 20 samples, p90 needs 100."""
    n = len(samples)
    beyond = n - math.ceil(q * n - 1e-9)
    if beyond < 10:
        raise BenchError("p%g needs at least 10 samples beyond it; have %d "
                         "samples" % (100 * q, n))
    s = sorted(samples)
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def min_samples(q):
    """Smallest sample count percentile(., q) accepts."""
    n = 1
    while n - math.ceil(q * n - 1e-9) < 10:
        n += 1
    return n


def ratio(num, den):
    """num / den, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0


def fnv1a(text, h=0xcbf29ce484222325):
    for b in text.encode():
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no program sources at %s (missing %s)" %
                             (ROOT, need))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, timeout=840)
    os.makedirs(OUT, exist_ok=True)


def harness(*args, timeout=170):
    proc = subprocess.run([HARNESS] + [str(a) for a in args],
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("perfbench_harness %s exited %d" %
                         (args[0], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def daemon_stream(seed):
    """Endless seeded command stream, legal for a 4-board fleet: mostly
    arrive/depart over the 11 zoo models, a board fault or recovery every
    FAULT_EVERY commands and a `status` every STATUS_EVERY commands.
    Arrivals deal the zoo from a shuffled deck and, once DAEMON_WINDOW
    streams are present, alternate with the oldest stream leaving: every
    model is offered equally often and stays equally long, so the fleet's
    load varies little from seed to seed."""
    rng = random.Random(seed)
    present, deck = [], []
    degraded = None   # the one board that is failed or throttled, if any
    i = 0
    while True:
        i += 1
        if i % STATUS_EVERY == 0:
            yield "status"
        elif i % FAULT_EVERY == FAULT_EVERY // 2:
            if degraded is not None:
                yield "recover board %d" % degraded
                degraded = None
            else:
                degraded = rng.randrange(DAEMON_BOARDS)
                if rng.random() < 0.5:
                    yield "fail board %d" % degraded
                else:
                    yield "throttle board %d %s" % (
                        degraded, rng.choice(("0.5", "0.75")))
        elif len(present) == DAEMON_WINDOW:
            yield "depart " + present.pop(0)
        else:
            while True:
                if not deck:
                    deck = list(MODELS)
                    rng.shuffle(deck)
                m = deck.pop()
                if m not in present:
                    break
            present.append(m)
            yield "arrive " + m


def write_event_stream(seed, count, path):
    """The first `count` event clauses of the daemon stream (no `status`)."""
    with open(path, "w") as f:
        n = 0
        for cmd in daemon_stream(seed):
            if cmd == "status":
                continue
            f.write(cmd + "\n")
            n += 1
            if n == count:
                break
    return path


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def self_times(spans):
    """spans: [[name, start_us, end_us, parent, id], ...] -> self time (us)
    of each span: its duration minus what its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        parent = int(s[3])
        if parent >= 0:
            child[parent] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def write_chrome_trace(path, spans):
    selfs = self_times(spans)
    events = []
    for s, self_us in zip(spans, selfs):
        events.append({"name": s[0], "ph": "X", "ts": s[1],
                       "dur": s[2] - s[1], "pid": 1, "tid": 1,
                       "args": {"id": int(s[4]), "parent": int(s[3]),
                                "self_us": self_us}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ---------------------------------------------------------------------------
# daemon-greedy
# ---------------------------------------------------------------------------

class Daemon:
    """One `omniboost_cli serve --listen 0` subprocess. The port comes from
    its banner; the process is killed and reaped on every exit path."""

    def __init__(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--listen", "0", "--scheduler", "greedy",
             "--boards", str(DAEMON_BOARDS), "--background-slice-ms", "0"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
            banner = self.proc.stdout.readline().decode() if ready else ""
            if not banner.startswith("listening on "):
                raise BenchError("daemon printed no banner: %r" % banner)
            self.spawn_s = time.perf_counter() - t0
            self.port = int(banner.split()[-1])
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=REPLY_TIMEOUT_S)
        except BaseException:
            self.close()
            raise
        self.buf = b""

    def command(self, line):
        """Sends one command; returns its reply lines, terminator last.
        Raises OSError on a timeout, a reset or a closed connection."""
        self.sock.sendall(line.encode() + b"\n")
        lines = []
        while True:
            nl = self.buf.find(b"\n")
            if nl < 0:
                chunk = self.sock.recv(65536)
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                self.buf += chunk
                continue
            text = self.buf[:nl].decode()
            self.buf = self.buf[nl + 1:]
            lines.append(text)
            if text == "ok" or text.startswith("err"):
                return lines

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self):
        sock = getattr(self, "sock", None)
        if sock is not None:
            try:
                sock.settimeout(2.0)
                sock.sendall(b"shutdown\n")
            except OSError:
                pass
            sock.close()
            self.sock = None
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=3.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def reply_key(cmd, lines):
    """What a command's reply contributes to the repeatability fingerprint;
    `status` bodies carry wall-clock downtime, so they are left out."""
    return "" if cmd == "status" else cmd + "|" + "|".join(lines)


def run_prefix(stream_seed, count):
    """A fresh daemon runs the stream's first `count` commands; returns its
    reply fingerprint, the summed command latency (ms) and its spawn time."""
    d = Daemon()
    try:
        h, total_ms = 0xcbf29ce484222325, 0.0
        stream = daemon_stream(stream_seed)
        for _ in range(count):
            cmd = next(stream)
            t0 = time.perf_counter()
            lines = d.command(cmd)
            total_ms += 1e3 * (time.perf_counter() - t0)
            h = fnv1a(reply_key(cmd, lines), h)
        return h, total_ms, d.spawn_s
    finally:
        d.close()


def run_daemon(seed, seconds, trace):
    spawn_s = []
    attempted = failed = 0
    correct = True
    # Set-up samples; the first spare daemon also replays the prefix that
    # the main run's replies are checked against.
    prefix_fp, prefix_ms, s = run_prefix(seed, DAEMON_PREFIX)
    spawn_s.append(s)
    for _ in range(DAEMON_SPAWNS - 2):
        d = Daemon()
        spawn_s.append(d.spawn_s)
        d.close()

    spans = [["daemon.session", 0.0, 0.0, -1, -1]] if trace else None
    cmd_ms, status_ms, reply_lines, t_values = [], [], [], []
    broken = False
    main_fp, main_prefix_ms = 0xcbf29ce484222325, 0.0
    d = Daemon()
    spawn_s.append(d.spawn_s)
    try:
        stream = daemon_stream(seed)
        need_cmd, need_status = min_samples(0.9), min_samples(0.5)
        origin = time.perf_counter()
        n = 0
        while True:
            elapsed = time.perf_counter() - origin
            enough = len(cmd_ms) >= need_cmd and len(status_ms) >= need_status
            if (elapsed >= seconds and enough) or elapsed >= 3 * seconds:
                break
            cmd = next(stream)
            attempted += 1
            t0 = time.perf_counter()
            try:
                lines = d.command(cmd)
            except OSError as e:   # timeout, reset or closed connection
                log("command %d (%s) failed: %s" % (n, cmd, e))
                failed += 1
                broken = True
                break
            t1 = time.perf_counter()
            ms = 1e3 * (t1 - t0)
            if spans is not None:
                spans.append(["cmd." + cmd.split()[0], 1e6 * (t0 - origin),
                              1e6 * (t1 - origin), 0, n])
            if lines[-1] != "ok":
                log("command %d (%s) answered %s" % (n, cmd, lines[-1]))
                failed += 1
            (status_ms if cmd == "status" else cmd_ms).append(ms)
            reply_lines.append(len(lines))
            for line in lines[:-1]:
                if " T=" in line:
                    t_values.append(float(line.split(" T=")[1].split()[0]))
            if n < DAEMON_PREFIX:
                main_fp = fnv1a(reply_key(cmd, lines), main_fp)
                main_prefix_ms += ms
            n += 1
        loop_s = time.perf_counter() - origin
        if spans is not None:
            spans[0][2] = 1e6 * loop_s

        noop_ms = []
        if trace and not broken:
            for _ in range(NOOP_PROBES):
                t0 = time.perf_counter()
                lines = d.command("# noop")
                noop_ms.append(1e3 * (time.perf_counter() - t0))
                if lines != ["ok"]:
                    failed += 1
                attempted += 1

        # Output checks: the live accounting conserves streams and equals
        # an offline Cluster::run replay of the saved trace (D6).
        if not broken:
            status = d.command("status")
            conservation = [l for l in status
                            if l.startswith("conservation:")]
            trace_path = os.path.join(OUT, "daemon-trace-%d.txt" % seed)
            saved = d.command("save-trace " + trace_path)
            attempted += 2
            if status[-1] != "ok" or saved[-1] != "ok" or not conservation:
                failed += 1
                broken = True
        rss_mb = d.peak_rss_mb()
    finally:
        d.close()

    replay = {}
    if broken:
        correct = False
    else:
        live = dict(kv.split("=") for kv in conservation[0].split()[1:])
        replay = harness("replay", "--trace-file", trace_path,
                         "--boards", DAEMON_BOARDS)
        if replay["conservation"] != conservation[0]:
            log("live %r != replay %r" % (conservation[0],
                                           replay["conservation"]))
            correct = False
        if int(live["admitted"]) != (int(live["departures"]) +
                                     int(live["shed"]) +
                                     int(live["resident"])):
            correct = False
    if n >= DAEMON_PREFIX and main_fp != prefix_fp:
        log("daemon replies differ from a fresh daemon's on the same prefix")
        correct = False
    print("fingerprints: workload=daemon-greedy seed=%d replies[%d]=%016x "
          "replay=%016x" % (seed, DAEMON_PREFIX, main_fp, prefix_fp))

    result = {"correct": correct and failed == 0, "attempted": attempted,
              "failed": failed}
    if not trace:
        result["metrics"] = with_units({
            "setup_s": statistics.median(spawn_s),
            "op_p50_ms": percentile(cmd_ms, 0.5),
            "op_p90_ms": percentile(cmd_ms, 0.9),
            "ops_per_s": (len(cmd_ms) + len(status_ms)) / loop_s,
            "status_p50_ms": percentile(status_ms, 0.5),
            "sim_T_inf_s": statistics.fmean(t_values),
            "peak_rss_mb": rss_mb,
        }, END_TO_END)
        return result

    write_chrome_trace(os.path.join(OUT, "trace-daemon-greedy-%d.json" % seed),
                       spans)
    layers = harness("layers", "--stream", write_event_stream(
        seed, LAYER_STREAM_EVENTS,
        os.path.join(OUT, "stream-%d.txt" % seed)))["layers"]
    check_stage_copy(layers, result)
    all_ms = [s_[2] - s_[1] for s_ in spans[1:]]
    quarter = max(len(all_ms) // 4, 1)
    q1 = statistics.median([x / 1e3 for x in all_ms[:quarter]])
    q4 = statistics.median([x / 1e3 for x in all_ms[-quarter:]])
    decide_ms = layers["mirror.decide_ms"]
    m = layer_defaults()
    m.update({
        "net.noop_rtt_ms": percentile(noop_ms, 0.5) if noop_ms else 0.0,
        "net.reply_lines": statistics.fmean(reply_lines),
        "daemon.cmd_p50_ms.q1": q1,
        "daemon.cmd_p50_ms.q4": q4,
        "daemon.cmd_growth": q4 / q1,
        "daemon.session_cmds": n,
        "serving.decide_ms": decide_ms,
        "serving.measure_ms": layers["mirror.apply_mean_ms"] - decide_ms,
        "serving.decisions": layers["mirror.decisions"],
        "search.other_ms": decide_ms,
        "setup.spawn_s": statistics.median(spawn_s),
        "error_rate": ratio(failed, attempted),
        "trace.overhead": ratio(main_prefix_ms, prefix_ms),
    })
    m.update(shared_layers(layers))
    m.update({"cluster." + k: replay.get(k, 0.0) for k in CLUSTER_COUNTS})
    result["metrics"] = with_units(m, PER_LAYER)
    return result


# ---------------------------------------------------------------------------
# serve-warm / serve-slo-recur
# ---------------------------------------------------------------------------

def run_serve(workload, seed, seconds, trace):
    args = ["serve", "--workload", workload, "--seed", seed,
            "--seconds", seconds, "--trace", int(trace)]
    if trace:
        args += ["--stream", write_event_stream(
            seed, LAYER_STREAM_EVENTS,
            os.path.join(OUT, "stream-%d.txt" % seed))]
    r = harness(*args)
    print("fingerprints: workload=%s seed=%d estimator=%s decisions[%d]=%s "
          "replay=%s" % (workload, seed, r["estimator_fingerprint"],
                         r["fingerprint_decisions"], r["decision_fingerprint"],
                         r["prefix_fingerprint"]))
    result = {"correct": bool(r["correct"]) and r["failed"] == 0,
              "attempted": r["attempted"], "failed": r["failed"]}
    if not trace:
        result["metrics"] = with_units({
            "setup_s": statistics.median(r["setup_s"]),
            "op_p50_ms": percentile(r["decision_ms"], 0.5),
            "op_p90_ms": percentile(r["decision_ms"], 0.9),
            "ops_per_s": r["events"] / r["loop_s"],
            "status_p50_ms": percentile(r["status_ms"], 0.5),
            "sim_T_inf_s": r["sim_T_inf_s"],
            "peak_rss_mb": r["peak_rss_mb"],
        }, END_TO_END)
        return result

    spans = r["spans"]
    write_chrome_trace(
        os.path.join(OUT, "trace-%s-%d.json" % (workload, seed)), spans)
    selfs = self_times(spans)
    deciding = {int(s[3]) for s in spans if s[0] == "decide"}
    measure_ms = [selfs[i] / 1e3 for i in deciding]
    layers = r["layers"]
    check_stage_copy(layers, result)
    decisions = max(r["decisions"], 1)
    decide_ms = 1e3 * r["decide_s"] / decisions
    est_ms = r["evaluations"] / decisions * layers["estimator.query_us"] / 1e3
    des_ms = r["des_replays"] / decisions * layers["des.replay_us"] / 1e3

    m = layer_defaults()
    m.update({"cluster." + k: r[k] for k in CLUSTER_COUNTS})
    m.update({
        "serving.decide_ms": decide_ms,
        "serving.measure_ms": statistics.fmean(measure_ms),
        "serving.decisions": r["decisions"],
        "serving.infeasible_epochs": r["infeasible_epochs"],
        "serving.mean_churn": r["mean_churn"],
        "serving.slo_violation_rate":
            ratio(r["slo_violations"], r["slo_streams"]),
        "serving.distinct_mixes": r["distinct_mixes"],
        "search.evaluations": r["evaluations"] / decisions,
        "search.cache_hits": r["cache_hits"] / decisions,
        "search.cache_hit_ratio":
            ratio(r["cache_hits"], r["evaluations"] + r["cache_hits"]),
        "search.des_replays": r["des_replays"] / decisions,
        "search.replay_hits": r["replay_hits"] / decisions,
        "search.replay_hit_ratio":
            ratio(r["replay_hits"], r["des_replays"] + r["replay_hits"]),
        "search.other_ms": decide_ms - est_ms - des_ms,
        "estimator.attributed_ms": est_ms,
        "des.attributed_ms": des_ms,
        "setup.embedding_s": statistics.median(r["setup_embedding_s"]),
        "setup.dataset_s": statistics.median(r["setup_dataset_s"]),
        "setup.fit_s": statistics.median(r["setup_fit_s"]),
        "error_rate": ratio(r["failed"], r["attempted"]),
        "trace.overhead": ratio(r["prefix_traced_ms"],
                                r["prefix_untraced_ms"]),
    })
    m.update(shared_layers(layers))
    result["metrics"] = with_units(m, PER_LAYER)
    return result


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit of the end-to-end metrics every untraced run prints.
END_TO_END = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
    "status_p50_ms": "ms", "sim_T_inf_s": "inf/s", "peak_rss_mb": "MB",
}

# name -> unit of the per-layer metrics. Every traced run prints all of
# them; a layer that is not on a workload's path reads 0 there (e.g. net.*
# on serve-*, search.* on the Greedy daemon).
PER_LAYER = {
    "net.noop_rtt_ms": "ms", "net.reply_lines": "lines",
    "daemon.cmd_p50_ms.q1": "ms", "daemon.cmd_p50_ms.q4": "ms",
    "daemon.cmd_growth": "ratio", "daemon.session_cmds": "count",
    "workload.parse_us": "us", "workload.validate_ms.n1k": "ms",
    "workload.validate_ms.n10k": "ms",
    "cluster.apply_us": "us", "cluster.finish_ms.n1k": "ms",
    "cluster.finish_ms.n10k": "ms", "cluster.format_ms.n10k": "ms",
    "cluster.admitted": "count", "cluster.rejected": "count",
    "cluster.shed": "count", "cluster.migrations": "count",
    "cluster.failovers": "count",
    "serving.decide_ms": "ms", "serving.measure_ms": "ms",
    "serving.decisions": "count", "serving.infeasible_epochs": "count",
    "serving.mean_churn": "ratio", "serving.slo_violation_rate": "ratio",
    "serving.distinct_mixes": "count",
    "search.evaluations": "count/decision",
    "search.cache_hits": "count/decision",
    "search.cache_hit_ratio": "ratio",
    "search.des_replays": "count/decision",
    "search.replay_hits": "count/decision",
    "search.replay_hit_ratio": "ratio",
    "search.other_ms": "ms",
    "estimator.query_us": "us", "estimator.attributed_ms": "ms",
    "nn.conv_us": "us", "nn.batchnorm_us": "us", "nn.gelu_us": "us",
    "nn.maxpool_us": "us", "nn.gap_us": "us", "nn.linear_us": "us",
    "nn.forward_flops": "flop_computed",
    "des.replay_us": "us", "des.attributed_ms": "ms", "des.measure_us": "us",
    "setup.embedding_s": "s", "setup.dataset_s": "s", "setup.fit_s": "s",
    "setup.spawn_s": "s",
    "error_rate": "ratio", "trace.overhead": "ratio",
}


CLUSTER_COUNTS = ("admitted", "rejected", "shed", "migrations", "failovers")


def layer_defaults():
    return {name: 0.0 for name in PER_LAYER}


def check_stage_copy(layers, result):
    """The nn.* timings come from a copy of the estimator's stages; a copy
    that no longer computes what the estimator does fails the run."""
    if layers["nn.stages_match"] != 1:
        log("nn stage copy no longer matches the estimator's network")
        result["correct"] = False


def shared_layers(layers):
    """The layer-suite timings every traced run measures the same way."""
    return {k: v for k, v in layers.items() if k in PER_LAYER}


def with_units(values, table):
    """{name: (value, unit)} for every metric of `table`, in its order."""
    missing = set(table) - set(values)
    if missing:
        raise BenchError("metrics missing: %s" % sorted(missing))
    return {k: (float(values[k]), table[k]) for k in table}


def print_host():
    """The host line baselines are quoted with."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            names = [l.split(":", 1)[1].strip() for l in f
                     if l.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    h = harness("host")
    print("host: %s, nproc=%d, estimator kernel=%s, simd: %s" %
          (cpu, os.cpu_count(), h["kernel"], h["simd"]))


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    # A SIGTERM unwinds through the finally blocks that reap subprocesses.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        if a.trace:
            print_host()
        if a.workload == "daemon-greedy":
            result = run_daemon(a.seed, a.seconds, bool(a.trace))
        else:
            result = run_serve(a.workload, a.seed, a.seconds, bool(a.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
