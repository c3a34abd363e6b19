#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fleet|fulltable|study|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the benchmark and the
`tdat` binaries with dune, generates the workload's inputs from the seed
(cached per workload, seed and parameters under perfbench/_inputs), runs
the workload in fresh processes and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (END_TO_END), with
--trace 1 the per-layer ones (PER_LAYER) from a traced run, whose spans
are also written as Chrome trace JSON to perfbench/_out/.  README.md in
this directory explains the workloads and how to read the numbers.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as bl  # noqa: E402

BENCH_DIR = "perfbench"
INPUTS = os.path.join(BENCH_DIR, "_inputs")
OUT = os.path.join(BENCH_DIR, "_out")
BUILD = os.path.join("_build", "default")
GEN = os.path.join(BUILD, BENCH_DIR, "gen.exe")
BATCH = os.path.join(BUILD, BENCH_DIR, "batch.exe")
CALIB = os.path.join(BUILD, BENCH_DIR, "calib.exe")
TDAT = os.path.join(BUILD, "bin", "tdat_cli.exe")
SIMGEN = os.path.join(BUILD, "bin", "simgen.exe")

# Set-up samples per run: each is a fresh process (batch) or a fresh
# daemon (serve), and setup_s is their median.
SETUP_RUNS = 11

# Times are reported at the reference speed: a time t measured
# beside a reference-kernel time r (calib.ml) reads t * REF_MS / r, as
# on a host where the kernel takes REF_MS.  The host's speed moves in
# phases by up to ~1.8x and the kernel moves with it; the program under
# test never touches the kernel, so a change to the program moves only t.
REF_MS = 5.0

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("slo_attainment", "ratio"),
    ("mem_peak_mb", "MB"),
]

# Batch layers whose self times, with op.residual.ms, add up to an op.
ANALYZE_LAYERS = [
    "pkt.pcap_decode", "pkt.partition", "core.conn_profile", "core.ack_shift",
    "core.transfer_id", "core.series_gen", "core.factors", "core.detect_timer",
    "core.detect_loss", "core.detect_peer_group", "core.detect_zero_ack",
    "serve.render",
]
STUDY_LAYERS = ["bgp.mrt_decode", "study.detect", "study.aggregate", "study.report"]

PER_LAYER = (
    [(l + ".ms", "ms") for l in ANALYZE_LAYERS]
    + [
        ("pkt.pcap_decode.minor_words", "words"),
        ("pkt.connections", "count"),
        ("core.transfer_id.minor_words", "words"),
        ("core.series_gen.minor_words", "words"),
        ("serve.render.bytes", "bytes"),
        ("bgp.mrt_decode.ms", "ms"),
        ("bgp.mrt.records", "count"),
        ("bgp.mrt.skipped", "count"),
        ("study.scan.ms", "ms"),
        ("study.detect.ms", "ms"),
        ("study.aggregate.ms", "ms"),
        ("study.report.ms", "ms"),
        ("study.transfers", "count"),
        ("serve.queue_wait.p50_ms", "ms"),
        ("serve.queue_wait.p90_ms", "ms"),
        ("serve.transport.ms", "ms"),
        ("serve.decode_hit.ms", "ms"),
        ("serve.decode_miss.ms", "ms"),
        ("serve.cache.hit_ratio", "ratio"),
        ("serve.analyze.ms", "ms"),
        ("serve.daemon_total.ms", "ms"),
        ("serve.rejected", "count"),
        ("gen.late_max_ms", "ms"),
        ("gen.late_p99_ms", "ms"),
        ("gc.minor_collections", "count"),
        ("gc.major_collections", "count"),
        ("op.ms", "ms"),
        ("op.residual.ms", "ms"),
        ("op.trace_overhead_pct", "%"),
    ]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def run_cmd(argv, timeout=300, **kw):
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       timeout=timeout, **kw)
    if p.returncode != 0:
        raise BenchError("%s exited %d: %s" % (argv[0], p.returncode,
                                               p.stderr.decode(errors="replace")[-2000:]))
    return p.stdout


def md5(b):
    return hashlib.md5(b).hexdigest()


# --- build --------------------------------------------------------------


def preflight():
    for need in ("dune-project", "lib", os.path.join("bin", "tdat_cli.ml")):
        if not os.path.exists(need):
            raise BenchError("not a source checkout (missing %s); run from the repo root" % need)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = [os.path.join(BENCH_DIR, x) for x in ("gen.exe", "batch.exe", "calib.exe")] + [
        os.path.join("bin", "tdat_cli.exe"), os.path.join("bin", "simgen.exe")]
    p = subprocess.run(["dune", "build", "--root", ".", "-j", "2"] + targets,
                       stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if p.returncode != 0:
        raise BenchError("dune build failed")


# --- inputs -------------------------------------------------------------


def session_spec(mix, i, prefixes):
    """The bench/scaling.ml session mix for router i (1-based): greedy,
    200 ms and 100 ms timers with varied quotas, and 1% upstream loss on
    every fourth session.  timer200 and timer100 are paced sessions
    with no loss."""
    if mix == "timer200":
        return "%d,200,10,0" % prefixes
    if mix == "timer100":
        return "%d,100,12,0" % prefixes
    timer, quota = [(0, 8), (200, 6), (100, 12)][i % 3]
    loss = 0.01 if i % 4 == 0 else 0.0
    return "%d,%d,%d,%g" % (prefixes, timer, quota, loss)


def spread_prefixes(lo, hi, n, i):
    return lo if n == 1 else lo + (hi - lo) * i // (n - 1)


def gen_capture(path, seed, specs):
    run_cmd([GEN, "--seed", str(seed), path] + specs)
    return md5(run_cmd([TDAT, "analyze", "-j", "1", path]))


def gen_study(d, seed, archives, prefixes, timer_ms, quota):
    """simgen --emit-mrt: one archive per session + ground_truth.tsv."""
    mrt = os.path.join(d, "mrt")
    run_cmd([SIMGEN, "-j", "1", "--seed", str(seed), "--routers", str(archives),
             "--prefixes", str(prefixes), "--timer-ms", str(timer_ms), "--quota", str(quota),
             "--emit-mrt", mrt, os.path.join(d, "sessions.pcap")])
    os.remove(os.path.join(d, "sessions.pcap"))
    return sorted(os.path.join(mrt, f) for f in os.listdir(mrt) if f.endswith(".mrt"))


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def prepare_inputs(name, params, seed):
    """Generate the workload's inputs once per (workload, seed,
    parameters) into a cell directory; a cell whose DONE marker exists
    is reused as it is, any other is generated afresh."""
    key = md5(json.dumps([name, params, seed], sort_keys=True).encode())[:10]
    cell = os.path.join(INPUTS, "%s-s%d-%s" % (name, seed, key))
    if os.path.exists(os.path.join(cell, "DONE")):
        return cell
    shutil.rmtree(cell, ignore_errors=True)
    os.makedirs(cell)
    lines = lambda xs: "".join(x + "\n" for x in xs)  # noqa: E731
    if name == "study":
        paths = gen_study(cell, seed, params["archives"], params["prefixes"],
                          params["timer_ms"], params["quota"])
        os.rename(os.path.join(cell, "mrt", "ground_truth.tsv"),
                  os.path.join(cell, "ground_truth.tsv"))
        write(os.path.join(cell, "archives.txt"), lines(paths))
        write(os.path.join(cell, "manifest.tsv"),
              "study\t%s\n" % md5(run_cmd([TDAT, "study", "-j", "1"] + paths)))
    elif params["kind"] == "serve":
        # One session per capture; every capture of a class has the
        # class's size, so each class is one tight latency cluster.
        rows, classes = [], {}
        for cls in params["classes"]:
            for _ in range(cls["captures"]):
                c = len(rows)
                path = os.path.join(cell, "cap%02d.pcap" % c)
                spec = session_spec(params["mix"], c + 1, cls["prefixes"])
                rows.append("%s\t%s" % (path, gen_capture(path, seed * 1000 + c * 37, [spec])))
                classes.setdefault(cls["name"], []).append(path)
        mrts = gen_study(cell, seed, params["study_archives"], params["study_prefixes"], 0, 10)
        write(os.path.join(cell, "archives.txt"), lines(mrts))
        write(os.path.join(cell, "classes.json"), json.dumps(classes))
        write(os.path.join(cell, "manifest.tsv"), lines(rows))
        write(os.path.join(cell, "study.json"),
              run_cmd([TDAT, "study", "-j", "1", "--json"] + mrts).decode())
    else:
        n, s = params["captures"], params["sessions"]
        lo, hi = params["prefixes"]
        rows = []
        for c in range(n):
            path = os.path.join(cell, "cap%02d.pcap" % c)
            specs = [session_spec(params["mix"], i + 1, spread_prefixes(lo, hi, s, i))
                     for i in range(s)]
            rows.append("%s\t%s" % (path, gen_capture(path, seed * 1000 + c * 37, specs)))
        write(os.path.join(cell, "manifest.tsv"), lines(rows))
    write(os.path.join(cell, "DONE"), "")
    return cell


# --- batch workloads ----------------------------------------------------


# The measured process (batch.exe or the daemon) and calib.exe share
# one CPU, so the kernel runs where the measured work ran; the serve
# load generator runs on another one when there is one.
CPUS = sorted(os.sched_getaffinity(0))


def pin_to_one_cpu():
    os.sched_setaffinity(0, {CPUS[0]})


def batch(mode, name, cell, seconds, trace_out=None):
    argv = [BATCH, mode, name, cell, "%g" % seconds] + ([trace_out] if trace_out else [])
    return json.loads(run_cmd(argv, timeout=seconds + 120, preexec_fn=pin_to_one_cpu))


def at_ref(ms, ref_ms):
    """Times at the reference speed (REF_MS), each by its own kernel time."""
    return [t * REF_MS / r for t, r in zip(ms, ref_ms)]


def run_batch(name, cell, seconds, trace):
    if trace:
        trace_out = os.path.join(OUT, "%s.trace.json" % name)
        r = batch("trace", name, cell, seconds, trace_out)
        diag = {"ops": len(r["op_ms"]) + len(r["traced_ms"])}
        return r["attempted"], r["failed"], batch_layers(r, diag, trace_out), diag
    r = batch("measure", name, cell, seconds)
    runs = [batch("setup", name, cell, 0) for _ in range(SETUP_RUNS - 1)] + [r]
    setups = at_ref([s["setup_s"] for s in runs], [s["setup_ref_ms"] for s in runs])
    ops = at_ref(r["op_ms"], r["op_ref_ms"])
    diag = {"ops": len(ops), "setup_samples": setups, "tail": bl.tail_percentile(ops),
            "raw_latency_p50_ms": bl.median(r["op_ms"]),
            "raw_setup_s": bl.median([s["setup_s"] for s in runs]),
            "ref_ms_median": bl.median(r["op_ref_ms"])}
    metrics = {
        "setup_s": bl.median(setups),
        "throughput_per_s": sum(r["op_units"]) / sum(ops) * 1e3,
        "latency_p50_ms": bl.median(ops),
        "latency_p90_ms": bl.percentile(ops, 90),
        # Batch ops have no latency objective: every correct op meets it.
        "slo_attainment": sum(r["op_ok"]) / len(ops),
        "mem_peak_mb": r["mem_peak_kb"] / 1024.0,
    }
    return r["attempted"], r["failed"], metrics, diag


def batch_layers(r, diag, trace_out):
    """Per-layer rows of the traced run.  Each row is a per-op mean over
    the same middle half of traced ops (by op time), so the layer self
    times plus op.residual.ms add up to op.ms exactly, as the op's own
    accounting does; op.trace_overhead_pct compares medians."""
    traced = at_ref(r["traced_ms"], r["traced_ref_ms"])
    layers = dict(r["layers"], **{"op.residual.ms": r["residual_ms"]})
    for k, v in layers.items():
        if len(v) != len(traced):
            raise BenchError("layer %s has %d samples for %d traced ops" % (k, len(v), len(traced)))
    # Every time at the reference speed of its own op, so the rows
    # still add up to the op.
    layers = {k: at_ref(v, r["traced_ref_ms"]) if k.endswith(".ms") else v
              for k, v in layers.items()}
    layers.update({"op.ms": traced, "gc.minor_collections": r["gc_minor"],
                   "gc.major_collections": r["gc_major"]})
    if "study.scan.ms" in layers:
        layers["study.detect.ms"] = [s - d for s, d in zip(layers["study.scan.ms"],
                                                            layers["bgp.mrt_decode.ms"])]
    mid = bl.middle_half(traced)
    m = {k: bl.mean_at(v, mid) for k, v in layers.items()}
    plain = bl.median(at_ref(r["op_ms"], r["op_ref_ms"]))
    m["op.trace_overhead_pct"] = (bl.median(traced) - plain) / plain * 100.0 if plain else 0.0
    names = STUDY_LAYERS if "study.scan.ms" in layers else ANALYZE_LAYERS
    op = m["op.ms"]
    diag["traced_ops_averaged"] = len(mid)
    diag["shares_pct"] = {l: m.get(l + ".ms", 0.0) / op * 100.0 for l in names + ["op.residual"]}
    diag["trace_file"] = trace_out
    return m


# --- serve workload -----------------------------------------------------


class Daemon:
    """A `tdat serve --jobs 1` subprocess on a Unix socket in the cell."""

    def __init__(self, cell):
        self.path = os.path.join(cell, "d%d.sock" % os.getpid())
        if os.path.exists(self.path):
            os.remove(self.path)
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [TDAT, "serve", "--socket", self.path, "--jobs", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=pin_to_one_cpu)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.buf = b""
        deadline = self.t0 + 30
        while True:
            try:
                self.sock.connect(self.path)
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("tdat serve did not start listening")
                time.sleep(0.002)

    def call(self, req):
        self.sock.sendall((json.dumps(req) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("tdat serve closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            self.sock.settimeout(10)
            self.call({"cmd": "shutdown"})
        except (OSError, BenchError, ValueError):
            pass
        self.sock.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Expect:
    """What every serve response must say, from the CLI on the same files."""

    def __init__(self, cell):
        self.captures = [l.split("\t") for l in open(os.path.join(cell, "manifest.tsv")).read().splitlines()]
        self.digest = dict(self.captures)
        self.archives = open(os.path.join(cell, "archives.txt")).read().split()
        self.study = json.loads(open(os.path.join(cell, "study.json")).read())
        self.classes = json.loads(open(os.path.join(cell, "classes.json")).read())

    def ok(self, req, resp):
        if not resp.get("ok"):
            return False
        res = resp.get("result", {})
        if req["cmd"] == "analyze":
            return md5(res.get("output", "").encode()) == self.digest[req["path"]]
        if req["cmd"] == "check":
            return res.get("ok") is True
        return res.get("report") == self.study


def request_plan(params, expect, seed, count):
    """The seeded request sequence.  Each class's share of analyze
    requests goes uniformly to its captures; check goes to the light
    captures, study to its archives."""
    rng = random.Random(seed)
    kinds = [c["name"] for c in params["classes"]] + ["check", "study"]
    shares = [c["share"] for c in params["classes"]] + [params["check_share"],
                                                        params["study_share"]]
    plan = []
    for _ in range(count):
        kind = rng.choices(kinds, shares)[0]
        if kind == "study":
            plan.append({"cmd": "study", "paths": expect.archives})
        elif kind == "check":
            plan.append({"cmd": "check", "path": rng.choice(expect.classes["light"])})
        else:
            plan.append({"cmd": "analyze", "path": rng.choice(expect.classes[kind])})
    return plan


def cold_pass(d, expect):
    for path, _ in expect.captures:
        req = {"cmd": "analyze", "path": path}
        if not expect.ok(req, d.call(req)):
            raise BenchError("cold pass: wrong analyze output for %s" % path)


# The generator times the reference kernel only while no request is
# outstanding and the next one is due at least CALIB_GAP_S away, and at
# most once per CALIB_EVERY_S, so the kernel never delays a request or
# competes with the daemon.
CALIB_GAP_S = 0.012
CALIB_EVERY_S = 0.1


def open_loop(d, plan, rate, expect, trace, calib):
    """Send plan at a fixed rate over one pipelined connection from one
    thread, whatever the daemon's progress; match responses by id.
    With trace, every other request asks for the daemon's timings.
    Returns the rows and the kernel samples [(time, ms)]."""
    sock = d.sock
    sock.setblocking(False)
    start = time.monotonic() + 0.05
    due = bl.due_times(start, rate, len(plan))
    sent, recv, resp = [None] * len(plan), [None] * len(plan), [None] * len(plan)
    wire = []
    for i, req in enumerate(plan):
        r = dict(req, id=i)
        if trace and i % 2 == 1:
            r["timings"] = True
        wire.append((json.dumps(r) + "\n").encode())
    nxt, pending, buf, out = 0, 0, d.buf, b""
    drain_deadline = due[-1] + 30.0
    samples, last_calib = [], 0.0
    while nxt < len(plan) or pending or out:
        now = time.monotonic()
        if (nxt < len(plan) and not pending and not out and due[nxt] - now >= CALIB_GAP_S
                and now - last_calib >= CALIB_EVERY_S):
            samples.append((now, calib.ms()))
            last_calib = now
            continue
        while nxt < len(plan) and due[nxt] <= now:
            out += wire[nxt]
            sent[nxt] = now
            nxt += 1
            pending += 1
        if out:
            try:
                n = sock.send(out)
                out = out[n:]
            except BlockingIOError:
                pass
        timeout = 0.0 if out else (max(0.0, due[nxt] - time.monotonic()) if nxt < len(plan) else 0.5)
        r, _, _ = select.select([sock], [sock] if out else [], [], timeout)
        if r:
            chunk = sock.recv(1 << 20)
            if not chunk:
                break
            buf += chunk
            at = time.monotonic()
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                msg = json.loads(line)
                i = msg.get("id")
                if isinstance(i, int) and 0 <= i < len(plan) and recv[i] is None:
                    recv[i], resp[i] = at, msg
                    pending -= 1
        if nxt == len(plan) and time.monotonic() > drain_deadline:
            break
    sock.setblocking(True)
    d.buf = buf
    rows = []
    for i, req in enumerate(plan):
        ok = resp[i] is not None and expect.ok(req, resp[i])
        lat = bl.latency_ms(due[i], recv[i]) if recv[i] is not None else None
        rows.append({"req": req, "ok": ok, "due": due[i], "sent": sent[i], "recv": recv[i],
                     "lat": lat, "resp": resp[i]})
    return rows, samples


class Calib:
    """calib.exe driven from here: the reference kernel's time, in ms."""

    def __init__(self):
        self.proc = subprocess.Popen([CALIB], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, preexec_fn=pin_to_one_cpu)

    def ms(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return int(self.proc.stdout.readline()) / 1e6

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_serve(params, cell, seconds, trace, seed):
    expect = Expect(cell)
    os.sched_setaffinity(0, {CPUS[-1]})
    setups, refs = [], []
    daemons = 1 if trace else SETUP_RUNS
    calib = Calib()
    try:
        before = calib.ms()
        for k in range(daemons):
            d = Daemon(cell)
            try:
                cold_pass(d, expect)
            except BaseException:
                d.stop()
                raise
            setups.append(time.monotonic() - d.t0)
            after = calib.ms()
            refs.append((before + after) / 2)
            before, last = after, (time.monotonic(), after)
            if k < daemons - 1:
                d.stop()
        try:
            count = max(1, int(params["rate_per_s"] * seconds))
            plan = request_plan(params, expect, seed, count)
            rows, samples = open_loop(d, plan, params["rate_per_s"], expect, trace, calib)
            samples.insert(0, last)
            mem = d.vm_hwm_mb()
        finally:
            d.stop()
    finally:
        calib.close()
    attempted = len(rows)
    failed = sum(1 for r in rows if not r["ok"])
    lats = [r["lat"] for r in rows if r["lat"] is not None]
    late = [bl.lateness_ms(r["due"], r["sent"]) for r in rows]
    diag = {"requests": attempted, "setup_samples": at_ref(setups, refs),
            "raw_setup_s": bl.median(setups), "raw_latency_p50_ms": bl.median(lats),
            "ref_ms_median": bl.median([ms for _, ms in samples]), "ref_samples": len(samples),
            "beyond_p90": bl.beyond(len(lats), 90), "tail": bl.tail_percentile(lats),
            "gen_late_max_ms": max(late)}
    if trace:
        return attempted, failed, serve_layers(rows, late, diag), diag
    # Latencies and busy time at the reference speed of their moment.
    at_ref_of = lambda t, ms: ms * REF_MS / bl.ref_at(samples, t)  # noqa: E731
    for r in rows:
        r["lat_ref"] = at_ref_of(r["due"], r["lat"]) if r["lat"] is not None else None
    lats_ref = [r["lat_ref"] for r in rows if r["lat_ref"] is not None]
    busy = sum(at_ref_of((a + b) / 2, b - a)
               for a, b in bl.busy_segments([(r["sent"], r["recv"]) for r in rows if r["ok"]]))
    metrics = {
        "setup_s": bl.median(at_ref(setups, refs)),
        "throughput_per_s": sum(1 for r in rows if r["ok"]) / busy if busy else 0.0,
        "latency_p50_ms": bl.median(lats_ref),
        "latency_p90_ms": bl.percentile(lats_ref, 90),
        "slo_attainment": bl.slo_attainment([(r["ok"], r["lat_ref"]) for r in rows],
                                            params["slo_ms"]),
        "mem_peak_mb": mem,
    }
    return attempted, failed, metrics, diag


def serve_layers(rows, late, diag):
    timed = [r for r in rows if r["ok"] and "timings" in r["resp"]["result"]]
    plain = [r["lat"] for r in rows if r["ok"] and "timings" not in r["resp"]["result"]]
    tm = lambda r, k: r["resp"]["result"]["timings"].get(k, 0.0) / 1e3  # noqa: E731
    analyze = [r for r in rows if r["ok"] and r["req"]["cmd"] == "analyze"]
    t_an = [r for r in timed if r["req"]["cmd"] == "analyze"]
    hits = [r for r in t_an if r["resp"]["result"].get("cache_hit")]
    misses = [r for r in t_an if not r["resp"]["result"].get("cache_hit")]
    qw = [tm(r, "queue_wait_us") for r in timed]
    traced_p50 = bl.median([r["lat"] for r in timed])
    m = {
        "serve.queue_wait.p50_ms": bl.median(qw),
        "serve.queue_wait.p90_ms": bl.percentile(qw, 90),
        "serve.transport.ms": bl.median([(r["recv"] - r["sent"]) * 1e3 - tm(r, "total_us")
                                         for r in timed]),
        "serve.decode_hit.ms": bl.median([tm(r, "decode_us") for r in hits]),
        "serve.decode_miss.ms": bl.median([tm(r, "decode_us") for r in misses]),
        "serve.cache.hit_ratio": (sum(1 for r in analyze if r["resp"]["result"].get("cache_hit"))
                                  / len(analyze)) if analyze else 0.0,
        "serve.analyze.ms": bl.median([tm(r, "analyze_us") for r in t_an]),
        "serve.render.ms": bl.median([tm(r, "render_us") for r in t_an]),
        "serve.render.bytes": bl.median([len(r["resp"]["result"]["output"]) for r in analyze]),
        "serve.daemon_total.ms": bl.median([tm(r, "total_us") for r in timed]),
        "serve.rejected": sum(1 for r in rows if r["resp"] and not r["resp"].get("ok")
                              and r["resp"].get("error", {}).get("status") == 429),
        "gen.late_max_ms": max(late),
        "gen.late_p99_ms": bl.percentile(late, 99),
        "op.ms": traced_p50,
        "op.trace_overhead_pct": (traced_p50 - bl.median(plain)) / bl.median(plain) * 100.0
        if plain else 0.0,
    }
    trace_out = os.path.join(OUT, "serve.trace.json")
    write_serve_trace(trace_out, rows)
    diag["trace_file"] = trace_out
    return m


def write_serve_trace(path, rows):
    """Client-side spans: gen.late (due -> sent) and serve.request
    (sent -> answered) per request, the daemon's stage timings as args."""
    t0 = rows[0]["due"]
    ev = []
    for i, r in enumerate(rows):
        us = lambda t: (t - t0) * 1e6  # noqa: E731
        ev.append({"name": "gen.late", "ph": "X", "pid": 1, "tid": 1, "ts": us(r["due"]),
                   "dur": us(r["sent"]) - us(r["due"]), "args": {"op": i, "parent": "op"}})
        if r["recv"] is not None:
            res = (r["resp"] or {}).get("result", {})
            ev.append({"name": "serve.request", "ph": "X", "pid": 1, "tid": 1, "ts": us(r["sent"]),
                       "dur": us(r["recv"]) - us(r["sent"]),
                       "args": {"op": i, "parent": "op", "cmd": r["req"]["cmd"],
                                "ok": r["ok"], "timings_us": res.get("timings")}})
    with open(path, "w") as f:
        json.dump({"traceEvents": ev}, f)


# --- main ---------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    workloads = json.load(open(os.path.join(HERE, "workloads.json")))
    if a.workload not in workloads:
        raise BenchError("unknown workload %r (have %s)" % (a.workload, ", ".join(workloads)))
    params = workloads[a.workload]
    preflight()
    build()
    os.makedirs(INPUTS, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    t = time.monotonic()
    cell = prepare_inputs(a.workload, params, a.seed)
    log("inputs: %s (%.1f s); units: %s" % (cell, time.monotonic() - t, params["unit"]))
    speed0, cpu0 = bl.cpu_speed(), bl.cpu_times()
    if params["kind"] == "serve":
        attempted, failed, metrics, diag = run_serve(params, cell, a.seconds, a.trace, a.seed)
    else:
        attempted, failed, metrics, diag = run_batch(a.workload, cell, a.seconds, a.trace)
    host = {"nproc": len(CPUS), "steal_share": bl.steal_share(cpu0, bl.cpu_times()),
            "cpu_speed_before": speed0, "cpu_speed_after": bl.cpu_speed(),
            "machine": platform.machine(), "kernel": platform.release(),
            "python": platform.python_version()}
    print("host " + json.dumps(host))
    print("diag " + json.dumps(diag))
    names = PER_LAYER if a.trace else END_TO_END
    out = {}
    for name, unit in names:
        out[name] = {"value": float(metrics.get(name, 0.0)), "unit": unit}
        print("%-32s %14.4f %s" % (name, out[name]["value"], unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
