#!/usr/bin/env python3
"""Browse-session benchmark for the lsdb browser.

    python3 perfbench/run.py --workload cold-eager --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. It builds the worker program
(perfbench/main.exe, with dune), then for one workload:

  1. generates the seeded heap and persists it as a snapshot plus a log
     tail (set-up, repeated SETUP_REPS times; the median is setup_s);
  2. opens the heap in twelve fresh processes, each answering the same
     first command (open_s and first_answer_s are medians over them);
  3. in four of those processes, runs a closed-loop scripted session
     through the shell, each on its own part of the command stream: in
     all a fixed number of operations, --seconds times the workload's
     nominal rate (so a run lasts about --seconds on the host the rates
     were measured on, and every run of a workload does the same amount
     of work, however fast the program is); two cold processes run
     before each session, so the samples come from across the whole run;
  4. checks the answers (see perfbench/NOTES.md) and prints every
     metric with its unit and sample count.

Every time is scaled to the host's nominal speed by the pace probes the
worker takes around it (perfbench/pace.ml, class Pace below): the host
shares its cores with other tenants and its speed moves by up to 1.7x
within seconds. The unscaled figures are printed as a comment line.

With --trace 1 it instead runs the session twice, untraced and then
traced with a span around each layer call, and prints the per-layer
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any error exits non-zero
without printing it.
"""

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

N = 2000  # employees, and books (with N/5 authors)
SETUP_REPS = 5
SEGMENTS = 4  # sessions per run, each on its own part of the stream
COLD_PER_SEGMENT = 2  # cold processes (open + first answer) before each session
STREAM_LEN = 120_000  # operations, split into SEGMENTS segments
PROC_TIMEOUT = 150
# Pace: the median duration of perfbench/pace.ml's probe on this host
# (2-core x86-64 VM) in its fast phases, and the window around a
# measured time from which its probes are taken.
NOMINAL_PACE_S = 0.0008
PACE_WINDOW = 0.5
PACE_MIN = 12

# rate: nominal session operations per second (2-core x86-64 VM).
WORKLOADS = {
    "cold-eager": {"mode": "eager", "draw": "zipf", "writes_every": 0, "rate": 500},
    "browse-demand": {"mode": "demand", "draw": "zipf", "writes_every": 0, "rate": 300},
    "edit-mix": {"mode": "eager", "draw": "uniform", "writes_every": 4, "rate": 220},
}

END_TO_END = [
    ("setup_s", "s"),
    ("open_s", "s"),
    ("first_answer_s", "s"),
    ("session_cmds_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p95_ms", "ms"),
    ("nav_p50_ms", "ms"),
    ("try_p50_ms", "ms"),
    ("q_p50_ms", "ms"),
    ("assoc_gmean_ms", "ms"),
    ("probe_gmean_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER_UNITS = {
    "storage.snapshot_decode_s": "s",
    "storage.log_read_s": "s",
    "storage.log_apply_s": "s",
    "storage.us_per_fact_open": "us",
    "storage.journal_s": "s",
    "storage.log_bytes_per_write": "B",
    "storage.sync_s": "s",
    "closure.compute_s": "s",
    "closure.facts": "count",
    "closure.derived": "count",
    "closure.rounds": "count",
    "closure.minor_bytes_per_fact": "B",
    "closure.maintain_s": "s",
    "closure.extensions": "count",
    "closure.retractions": "count",
    "closure.support_size": "count",
    "demand.cone_facts": "count",
    "demand.memo_hit_ratio": "ratio",
    "demand.deltas": "count",
    "demand.activations": "count",
    "demand.magic_patterns": "count",
    "parse.s": "s",
    "eval.s": "s",
    "eval.candidates_per_row": "ratio",
    "eval.fused_intersections": "count",
    "match.cache_hit_ratio": "ratio",
    "match.cache_evictions": "count",
    "navigation.neighborhood_s": "s",
    "navigation.render_s": "s",
    "navigation.bytes_per_cmd": "B",
    "composition.search_s": "s",
    "composition.paths": "count",
    "composition.expansions": "count",
    "composition.truncated": "count",
    "probing.probe_s": "s",
    "probing.waves": "count",
    "probing.attempted": "count",
    "probing.success_ratio": "ratio",
    "probing.broadness_s": "s",
    "integrity.insert_checked_s": "s",
    "shell.self_s": "s",
    "gc.minor_mb_per_cmd": "MB",
    "gc.major_collections": "count",
    "trace.session_s": "s",
    "trace.overhead_pct": "%",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", root, "./perfbench/main.exe"],
            cwd=root, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError("build failed")
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    if not os.path.isfile(exe):
        raise BenchError("build produced no perfbench/main.exe")
    return exe


def worker(exe, args):
    """Run the worker to completion; return its last stdout line as JSON."""
    try:
        r = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=PROC_TIMEOUT, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args[:2])}")
    if r.returncode != 0:
        raise BenchError(f"worker failed ({r.returncode}): {' '.join(args)}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def read_ops(path):
    """Per-operation (label, latency_ms, started) records of one worker
    process; started is in seconds of the system's monotonic clock."""
    ops = []
    with open(path) as f:
        for line in f:
            _index, label, us, started, _failed, _digest = line.rstrip("\n").split("\t")
            ops.append((label, float(us) / 1000.0, float(started)))
    return ops


class Pace:
    """The host's speed through a run, from the probes (perfbench/pace.ml)
    every worker process takes: before and after each cold phase, and
    every 50 ms of a session. The probes of all processes share one
    clock, so they are pooled."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def add(self, path):
        with open(path) as f:
            for line in f:
                t, d = line.split()
                self.starts.append(float(t))
                self.durations.append(float(d))
        order = sorted(range(len(self.starts)), key=self.starts.__getitem__)
        self.starts = [self.starts[i] for i in order]
        self.durations = [self.durations[i] for i in order]

    def at(self, t0, t1):
        """Median probe duration from PACE_WINDOW before t0 to PACE_WINDOW
        after t1, the window widened until it holds PACE_MIN probes."""
        w = PACE_WINDOW
        while True:
            lo = bisect.bisect_left(self.starts, t0 - w)
            hi = bisect.bisect_right(self.starts, t1 + w)
            if hi - lo >= PACE_MIN or (lo == 0 and hi == len(self.starts)):
                break
            w *= 2
        if hi == lo:
            raise BenchError("no pace probes")
        return statistics.median(self.durations[lo:hi])

    def scale(self, t0, seconds):
        """A time measured from t0, at the host's nominal speed."""
        return seconds * NOMINAL_PACE_S / self.at(t0, t0 + seconds)


def percentile(xs, q):
    """Nearest-rank percentile of a non-empty list."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


class Run:
    def __init__(self, root, exe, workload, seed):
        self.exe = exe
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.work = os.path.join(root, ".perfbench_work")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.heap = os.path.join(self.work, "heap")
        self.stream = os.path.join(self.work, "stream.tsv")
        self.attempted = 0
        self.failed = 0
        self.pace = Pace()
        self.procs = 0

    def path(self, name):
        return os.path.join(self.work, name)

    def worker(self, args):
        """Run the worker, keeping the pace probes it took."""
        self.procs += 1
        pace = self.path(f"pace{self.procs}.tsv")
        out = worker(self.exe, args + ["--pace-out", pace])
        self.pace.add(pace)
        return out

    def setup(self, reps):
        out = self.worker([
            "setup", "--seed", str(self.seed), "--n", str(N), "--dir", self.heap,
            "--reps", str(reps), "--stream", self.stream, "--length", str(STREAM_LEN),
            "--draw", self.w["draw"], "--writes-every", str(self.w["writes_every"])])
        return out

    def fresh_copy(self, name):
        dst = self.path(name)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(self.heap, dst)
        return dst

    def session(self, segment, count, ops_out, extra=()):
        args = ["session", "--dir", self.fresh_copy(f"db{segment}"), "--stream", self.stream,
                "--mode", self.w["mode"], "--segment", f"{segment}/{SEGMENTS}",
                "--count", str(count),
                "--ops-out", ops_out] + list(extra)
        out = self.worker(args)
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        out["ops"] = read_ops(ops_out)
        return out


def session_metrics(ops):
    """End-to-end latency metrics of the session operations (first answers
    excluded), with their sample counts."""
    reads = [lat for label, lat, _ in ops if label != "write"]
    by_kind = {}
    for label, lat, _ in ops:
        by_kind.setdefault(label, []).append(lat)
    if not reads:
        raise BenchError("session ran no reads")
    total_s = sum(lat for _, lat, _ in ops) / 1000.0
    m = {
        "session_cmds_per_s": (len(ops) / total_s, len(ops)),
        "read_p50_ms": (percentile(reads, 0.5), len(reads)),
        "read_p95_ms": (percentile(reads, 0.95), len(reads)),
        "read_p99_ms": (percentile(reads, 0.99), len(reads)),
        "nav_p50_ms": (percentile(by_kind.get("nav", []) + by_kind.get("t", []), 0.5),
                       len(by_kind.get("nav", [])) + len(by_kind.get("t", []))),
    }
    for kind in ("try", "q", "assoc", "probe"):
        if not by_kind.get(kind):
            raise BenchError(f"session ran no {kind} command")
    for kind in ("try", "q"):
        m[f"{kind}_p50_ms"] = (percentile(by_kind[kind], 0.5), len(by_kind[kind]))
    # assoc and probe latencies spread over one to two orders of magnitude
    # and their medians sit on steep parts of the mixture, so they move
    # with small changes in the mix; the geometric mean moves much less
    # (NOTES.md, Metric choices).
    for kind in ("assoc", "probe"):
        xs = by_kind[kind]
        m[f"{kind}_gmean_ms"] = (math.exp(statistics.fmean(math.log(x) for x in xs)), len(xs))
    writes = by_kind.get("write", [])
    if writes:
        m["write_p50_ms"] = (percentile(writes, 0.5), len(writes))
        m["write_p99_ms"] = (percentile(writes, 0.99), len(writes))
    return m


def session_count(run, seconds):
    count = int(seconds * run.w["rate"])
    if count > STREAM_LEN // SEGMENTS - 100:
        raise BenchError("--seconds too large for the generated stream")
    return count


def timed_metrics(run, setup, procs, sessions, scale):
    """The timed end-to-end metrics, each time passed through
    scale(started, seconds)."""
    setups = [scale(t, d) for t, d in zip(setup["setup_started"], setup["setup_s"])]
    opens = [scale(p["opening"], p["open_s"]) for p in procs]
    firsts = [scale(p["ops"][0][2], p["ops"][0][1] / 1000.0) for p in procs]
    ops = [(label, 1000.0 * scale(t, lat / 1000.0), t)
           for s in sessions for label, lat, t in s["ops"][1:]]
    setup_s = statistics.median(setups)
    if run.w["writes_every"] > 0:
        # Edit-mix warms the closure before timing: that counts as set-up.
        setup_s += statistics.median(o + f for o, f in zip(opens, firsts))
    m = {
        "setup_s": (setup_s, len(setups)),
        "open_s": (statistics.median(opens), len(opens)),
        "first_answer_s": (statistics.median(firsts), len(firsts)),
    }
    m.update(session_metrics(ops))
    return m


def run_untraced(run, seconds):
    """COLD_PER_SEGMENT cold processes before each of SEGMENTS sessions, so
    that the samples of every metric are spread over the whole run."""
    setup = run.setup(SETUP_REPS)
    part = session_count(run, seconds) // SEGMENTS
    procs, sessions = [], []
    for seg in range(SEGMENTS):
        for _ in range(COLD_PER_SEGMENT):
            procs.append(run.session(0, 0, run.path("ops_cold.tsv")))
        if run.w["writes_every"] > 0:
            check = ["--check-closure"] if seg == SEGMENTS - 1 else []
        else:
            check = ["--check-dir", run.fresh_copy("check")]
        out = run.session(seg, part, run.path(f"ops{seg}.tsv"), check)
        procs.append(out)
        sessions.append(out)
    m = timed_metrics(run, setup, procs, sessions, run.pace.scale)
    m["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in sessions), len(sessions))
    reads = m["read_p50_ms"][1]
    above = reads - math.ceil(0.95 * reads)
    print(f"# {reads} reads, {above} above read_p95_ms")
    raw = timed_metrics(run, setup, procs, sessions, lambda _t, s: s)
    print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items()))
    return m, setup


def run_traced(run, seconds):
    setup = run.setup(1)
    count = session_count(run, seconds)
    plain_ops = run.path("ops_plain.tsv")
    plain = run.session(0, count, plain_ops)
    traced = run.session(0, count, run.path("ops_traced.tsv"), [
        "--trace", "--reference", plain_ops, "--spans", run.path("spans.tsv")])
    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = 100.0 * (traced["session_s"] / plain["session_s"] - 1.0)
    m = {k: (v, traced["session_ops"]) for k, v in layers.items()}
    plain_m = session_metrics([(label, 1000.0 * run.pace.scale(t, lat / 1000.0), t)
                               for label, lat, t in plain["ops"][1:]])
    for k in ("read_p99_ms", "write_p50_ms", "write_p99_ms"):
        m[k] = plain_m.get(k, (0.0, 0))
    return m, setup


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    try:
        exe = build(root)
        run = Run(root, exe, a.workload, a.seed)
        if a.trace:
            m, setup = run_traced(run, a.seconds)
            wanted = [(k, PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS]
        else:
            m, setup = run_untraced(run, a.seconds)
            wanted = END_TO_END
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
    print(f"# workload {a.workload}, seed {a.seed}, N={N}, "
          f"{setup['base_facts']} base facts")
    metrics = {}
    for name, unit in wanted:
        value, samples = m[name]
        print(f"{name:32s} {value:14.6f} {unit:6s} n={samples}")
        metrics[name] = {"value": value, "unit": unit}
    frac = run.failed / max(1, run.attempted)
    print(f"# failed_frac {frac:.6f} ({run.failed} of {run.attempted} operations)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
