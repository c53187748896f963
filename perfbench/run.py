#!/usr/bin/env python3
"""The zkperf benchmark: one command per workload.

    python3 perfbench/run.py --workload <snark-sweep|stark-sweep|serve-mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the library, the zkbench
driver and the zkperfd daemon from source into .bench_build/ (the
first run compiles), runs the workload, checks every output, prints a
host block and the metric tables, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with no probe on.
--trace 1 is the traced run: the workload with the obs span tracer on
(alternate rounds, so its overhead shows), the layer suite, and a
short serve session; it reports the per-layer metrics and prints the
fraction of each parent span its children explain.

Exit status: 0 when every output check passed, 1 when one failed or
the program could not run, 2 on usage errors, 3 when a probe
environment variable is set. perfbench/README.md lists every metric.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402

WORKLOADS = ("snark-sweep", "stark-sweep", "serve-mix")
BUILD_DIR = ".bench_build"
SOCKET = os.path.join(BUILD_DIR, "zkperfd.sock")
# Environment variables that turn on a probe inside the library.
PROBE_VARS = ("ZKP_TRACE", "ZKP_REPORT", "ZKP_MEMPROF", "ZKP_MEMPROF_SPANS",
              "ZKP_PMU_SPANS")
SETUP_REPS = 3
# The host-speed probe's median on the reference host (4-vCPU Xeon,
# quiet spell). The host's speed drifts by a quarter or more in spells
# of minutes; the probe runs between proves and the sweeps'
# prove_s and prove_rate are scaled by probe/PROBE_REF_S, so most of
# the drift cancels (README.md, "The host-speed probe").
PROBE_REF_S = 0.036
# A cold STARK prove takes ~1 s, so its set-up median can afford more
# fresh processes.
STARK_SETUP_REPS = 5
# serve-mix: one closed-loop client per daemon worker, so requests
# never queue behind each other for long and latency stays readable;
# each prove gets nproc / SERVE_WORKERS threads, so load = nproc.
SERVE_WORKERS = 2
SUBPROCESS_TIMEOUT = 170
MIB = 1024.0 * 1024.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The program could not be built or run: no result to report."""


# --- host block -------------------------------------------------------------


def cpu_facts():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "flags" and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    return model, flags


def source_digest(root):
    """sha256 over src/ (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def host_lines(root, nproc, notes, traced):
    model, flags = cpu_facts()
    probes = ["sim::count (always on, compiled in)"]
    if traced:
        probes.append("obs span tracer (benchmark spans + library spans)")
    return [
        "host.cpu: %s" % model,
        "host.nproc: %d" % nproc,
        "host.mul_impl: %s" % notes.get("mul_impl", "?"),
        "host.avx512ifma: %s" % ("yes" if "avx512ifma" in flags else "no"),
        "host.sha_ni: %s" % ("yes" if "sha_ni" in flags else "no"),
        "host.build_type: %s" % notes.get("build_type", "?"),
        "host.commit: %s" % commit(root),
        "host.source_sha256: %s" % source_digest(root),
        "host.probes: %s" % ", ".join(probes),
        "host.pmu: off (ZKP_PMU=0 for every child)",
    ]


# --- build and run ------------------------------------------------------------


def run_quiet(cmd, timeout):
    """Run cmd with its output on our stderr; raise on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("command failed (%d): %s" %
                         (proc.returncode, " ".join(cmd)))


def build(nproc):
    gen = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        try:
            subprocess.run(["ninja", "--version"], capture_output=True,
                           check=True)
            gen = ["-G", "Ninja"]
        except (OSError, subprocess.CalledProcessError):
            gen = []
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen, 600)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(nproc)], 900)


def child_env():
    env = dict(os.environ)
    env["ZKP_PMU"] = "0"  # no hardware-counter reads in timed regions
    return env


def zkbench(mode, out_name, args):
    """Run one zkbench invocation; returns its parsed record."""
    out = os.path.join(BUILD_DIR, out_name)
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD_DIR, "zkbench"), mode, "--out", out] + args
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env(), timeout=SUBPROCESS_TIMEOUT)
    if not os.path.exists(out):
        raise BenchError("zkbench %s produced no record (exit %d)" %
                         (mode, proc.returncode))
    with open(out) as f:
        rec = json.load(f)
    rec["exit"] = proc.returncode
    return rec


class Daemon:
    """A zkperfd process on SOCKET; stop() always reaps it."""

    def __init__(self, nproc):
        if os.path.exists(SOCKET):
            os.remove(SOCKET)
        prove_threads = max(1, nproc // SERVE_WORKERS)
        self.log = open(os.path.join(BUILD_DIR, "zkperfd.log"), "ab")
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [os.path.join(BUILD_DIR, "zkperfd"), "--socket", SOCKET,
             "--log2", "12", "--stark", "mimc:4096",
             "--workers", str(SERVE_WORKERS),
             "--prove-threads", str(prove_threads)],
            stdout=self.log, stderr=self.log, env=child_env())
        self.ready_s = None

    def wait_ready(self, timeout=60):
        """Seconds from launch until the socket accepts (keys prewarmed:
        the daemon listens only after prewarm)."""
        deadline = self.t0 + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("zkperfd exited with %d during start-up"
                                 % self.proc.returncode)
            if os.path.exists(SOCKET):
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    s.connect(SOCKET)
                    self.ready_s = time.monotonic() - self.t0
                    return self.ready_s
                except OSError:
                    pass
                finally:
                    s.close()
            time.sleep(0.005)
        raise BenchError("zkperfd not ready after %ds" % timeout)

    def peak_rss_bytes(self):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) * 1024
        except OSError:
            pass
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def serve_session(nproc, seed, seconds, trace, out_name):
    """Launch zkperfd SETUP_REPS times (the last one serves), drive it
    with closed-loop clients, stop it. Returns (record, ready times,
    daemon peak RSS)."""
    ready = []
    for _ in range(SETUP_REPS - 1):
        d = Daemon(nproc)
        try:
            ready.append(d.wait_ready())
        finally:
            d.stop()
    d = Daemon(nproc)
    try:
        ready.append(d.wait_ready())
        rec = zkbench("serve-mix", out_name,
                      ["--socket", SOCKET, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--threads", str(nproc),
                       "--clients", str(min(nproc, SERVE_WORKERS))])
        rss = d.peak_rss_bytes()
    finally:
        code = d.stop()
    if code != 0:
        raise BenchError("zkperfd exited with %d on drain" % code)
    return rec, ready, rss


# --- end-to-end metrics -------------------------------------------------------


def sweep_e2e(rec, setup_s):
    """snark-sweep and stark-sweep share their metric definitions.
    prove_s and prove_rate are scaled to a host on which the speed
    probe takes PROBE_REF_S; the unscaled values are info lines."""
    s = rec["samples"]
    proves = {k[len("prove."):]: v for k, v in s.items()
              if k.startswith("prove.") and "@" not in k}
    rows = {k[len("rows."):]: v for k, v in rec["values"].items()
            if k.startswith("rows.")}
    probe_s = M.median(s["probe_s"])
    speed = probe_s / PROBE_REF_S
    wall_s = M.median(proves[rec["notes"]["headline"]])
    wall_rate = M.rate(rows, proves)
    return {
        "setup_s": setup_s,
        "prove_s": wall_s / speed,
        "prove_rate": wall_rate * speed,
        "prove_wall_s": wall_s,
        "prove_wall_rate": wall_rate,
        "probe_ms": probe_s * 1e3,
        "peak_rss_mb": rec["values"]["peak_rss_bytes"] / MIB,
        "verify_p25_ms": M.percentile(s["verify_ms"], 25),
        "reject_p25_ms": M.percentile(s["reject_ms"], 25),
    }


def serve_e2e(rec, ready, rss):
    s, v = rec["samples"], rec["values"]
    out = {
        "setup_s": M.median(ready),
        "prove_s": M.median(s["latency.prove"]),
        "prove_rate": v["rows_proven"] / v["elapsed_s"],
        "peak_rss_mb": rss / MIB,
    }
    # A short run may see no flip that gets past the daemon's parser.
    for name, series in (("verify_p25_ms", "latency.verify"),
                         ("reject_p25_ms", "latency.verify_mutated")):
        if s.get(series):
            out[name] = M.percentile(s[series], 25) * 1e3
    return out


# Gated end-to-end metrics. The verify and reject quartiles are printed
# as info lines: single-threaded timings on a shared host spread 15-40%
# between runs (README.md, "End-to-end metrics").
E2E_UNITS = {"setup_s": "s", "prove_s": "s", "prove_rate": "rows/s",
             "peak_rss_mb": "MiB"}


# --- per-layer metrics --------------------------------------------------------


def lane(stats, kind, circuit):
    for ln in stats.get("lanes", []):
        if ln["kind"] == kind and ln["circuit"] == circuit:
            return ln
    raise BenchError("stats/v2 has no %s lane for %s" % (kind, circuit))


def serve_layers(rec):
    """serve.* per-layer metrics from the stats/v2 scrape and the
    client's timing (both halves: client spans cost nothing next to a
    prove, obs.trace_overhead_frac shows it)."""
    stats = json.loads(rec["notes"]["stats_v2"])
    prove = lane(stats, "prove", "exp12")
    verify = lane(stats, "verify", "exp12")
    client = (rec["samples"]["latency.prove"] +
              rec["samples"].get("latency.prove@traced", []))
    # stats/v2 histograms are log2-bucketed: their p50 is a bucket
    # edge, so the server side is read as means.
    client_mean_ms = sum(client) / len(client) * 1e3
    stage_ms = {k: prove[k + "_us"]["mean"] / 1e3 for k in (
        "queue_wait", "key_wait", "exec", "serialize", "e2e")}
    out = {
        "serve.queue_wait_ms.mean": stage_ms["queue_wait"],
        "serve.key_ready_ms.mean": stage_ms["key_wait"],
        "serve.exec_ms.mean": stage_ms["exec"],
        "serve.serialize_ms.mean": stage_ms["serialize"],
        "serve.wire_ms.mean": client_mean_ms - stage_ms["e2e"],
        "serve.verify_batch_mean": verify["verify_batch"]["mean"],
        "serve.queue_full_retries": rec["values"]["queue_full_retries"],
        "serve.request_explained_frac":
        (stage_ms["queue_wait"] + stage_ms["key_wait"] + stage_ms["exec"] +
         stage_ms["serialize"]) / client_mean_ms,
        "serve.rps": sum(len(v) for k, v in rec["samples"].items()
                         if k.startswith("latency.")) /
        rec["values"]["elapsed_s"],
    }
    t = M.tail(client)
    if t is None:
        raise BenchError("too few prove samples for a tail")
    out["serve.prove_tail_ms"] = t[1] * 1e3
    out["serve.prove_tail_percentile"] = t[0]
    out["serve.prove_samples"] = len(client)
    return out


def overhead_frac(rec, series):
    s = rec["samples"]
    if series + "@traced" not in s or series not in s:
        raise BenchError("traced run has no traced/untraced %s" % series)
    return M.overhead(s[series + "@traced"], s[series])


# --- main ---------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_run(args, nproc):
    """Returns (records, end-to-end metrics)."""
    seed, secs = str(args.seed), str(args.seconds)
    common = ["--seed", seed, "--seconds", secs, "--trace", "0",
              "--threads", str(nproc)]
    if args.workload == "snark-sweep":
        rec = zkbench("snark-sweep", "snark.json",
                      common + ["--setup-reps", str(SETUP_REPS)])
        return [rec], sweep_e2e(rec, rec["values"]["setup.prewarm_s"] +
                                M.median(rec["samples"]["setup.sweep_s"]))
    if args.workload == "stark-sweep":
        rec = zkbench("stark-sweep", "stark.json", common)
        setups = [rec["samples"]["setup.sweep_s"][0]]
        recs = [rec]
        for i in range(STARK_SETUP_REPS - 1):
            extra = zkbench("stark-sweep", "stark-setup.json",
                            common + ["--setup-only"])
            setups.append(extra["samples"]["setup.sweep_s"][0])
            recs.append(extra)
        return recs, sweep_e2e(rec, M.median(setups))
    rec, ready, rss = serve_session(nproc, args.seed, args.seconds, 0,
                                    "serve.json")
    return [rec], serve_e2e(rec, ready, rss)


def traced_run(args, nproc):
    """Returns (records, per-layer metrics)."""
    half = str(max(2.0, args.seconds / 2))
    common = ["--seed", str(args.seed), "--trace", "1",
              "--threads", str(nproc)]
    out = {}
    recs = []
    if args.workload == "snark-sweep":
        rec = zkbench("snark-sweep", "snark-traced.json",
                      common + ["--seconds", half, "--setup-reps", "1"])
        out["obs.trace_overhead_frac"] = overhead_frac(
            rec, "prove.groth16.bn254.2e16")
        recs.append(rec)
    elif args.workload == "stark-sweep":
        rec = zkbench("stark-sweep", "stark-traced.json",
                      common + ["--seconds", half])
        out["obs.trace_overhead_frac"] = overhead_frac(
            rec, "prove.mimc.2e16")
        recs.append(rec)
    serve_secs = args.seconds if args.workload == "serve-mix" else 10
    srec, _ready, _rss = serve_session(nproc, args.seed, serve_secs, 1,
                                       "serve-traced.json")
    recs.append(srec)
    out.update(serve_layers(srec))
    if args.workload == "serve-mix":
        out["obs.trace_overhead_frac"] = overhead_frac(srec,
                                                       "latency.prove")
    layers = zkbench("layers", "layers.json",
                     common + ["--seconds", half])
    recs.append(layers)
    for k, v in layers["values"].items():
        if k.split(".")[0] in ("ff", "ec", "poly", "pairing", "r1cs",
                               "snark", "stark", "core", "common"):
            out[k] = v
    return recs, out


def explained_lines(recs):
    """The explained fraction and gap of every parent span name."""
    spans = []
    for i, rec in enumerate(recs):
        # Keep segments of different records apart.
        spans += [(s[0], (i, s[1]), s[2], s[3], s[4], s[5])
                  for s in rec.get("spans", [])]
    agg = M.explained(spans)
    lines = ["explained: %-34s %7s %10s %9s %7s" %
             ("parent span", "count", "total_ms", "explained", "gap")]
    for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["total_ns"]):
        lines.append("explained: %-34s %7d %10.2f %8.1f%% %6.1f%%" % (
            name, a["count"], a["total_ns"] / 1e6, 100 * a["explained"],
            100 * (1 - a["explained"])))
    return lines, agg


def main(argv):
    args = parse_args(argv)
    if args.seconds <= 0:
        log("run.py: --seconds must be positive")
        return 2
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("run.py: run from the repository root: no src/ here")
        return 1
    probes = [v for v in PROBE_VARS if os.environ.get(v)]
    if probes:
        log("run.py: refusing to measure with probes on: %s" %
            ", ".join(probes))
        return 3
    nproc = os.cpu_count() or 1
    try:
        os.makedirs(BUILD_DIR, exist_ok=True)
        build(nproc)
        if args.trace:
            recs, values = traced_run(args, nproc)
        else:
            recs, values = timed_run(args, nproc)
    except (BenchError, subprocess.TimeoutExpired, KeyError,
            ValueError, OSError) as e:
        log("run.py: %s: %s" % (type(e).__name__, e))
        return 1

    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    crashed = [r for r in recs if r["exit"] not in (0, 1)]
    correct = failed == 0 and not crashed and all(
        r["exit"] == 0 for r in recs)

    for line in host_lines(root, nproc, recs[0]["notes"], args.trace):
        print(line)
    print("workload: %s seed=%d seconds=%g trace=%d threads=%d" %
          (args.workload, args.seed, args.seconds, args.trace, nproc))
    if args.trace:
        lines, _ = explained_lines(recs)
        for line in lines:
            print(line)
        units = layer_units()
        missing = sorted(set(units) - set(values))
        if missing:
            log("run.py: per-layer metrics not produced: %s" %
                ", ".join(missing))
            return 1
        for k in sorted(set(values) - set(units)):
            print("info: %-46s %14.6g" % (k, values[k]))
        result = {k: {"value": values[k], "unit": units[k]}
                  for k in sorted(units)}
    else:
        for k in sorted(set(values) - set(E2E_UNITS)):
            print("info: %-46s %14.6g" % (k, values[k]))
        result = {k: {"value": values[k], "unit": E2E_UNITS[k]}
                  for k in E2E_UNITS}
    for k, m in result.items():
        print("metric: %-44s %14.6g %s" % (k, m["value"], m["unit"]))
    print("checks: attempted=%d failed=%d" % (attempted, failed))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


def layer_units():
    """Per-layer metric units, from BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
