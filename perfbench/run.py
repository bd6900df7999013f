#!/usr/bin/env python3
"""balign benchmark: one command that builds balign from source, generates a
workload's inputs from a seed, drives the real programs, checks their
outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload paper-bounds|fast-build|serve-mixed
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
run replays the workload in process with spans around every layer call and
the metrics are the per-layer ones. perfbench/README.md defines each
metric and workload.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper-bounds", "fast-build", "serve-mixed")
DEFAULT_SEED = 1
# Set-ups per run (setup_s is their median). A serve-mixed set-up
# includes the cold pre-warm, so it repeats fewer times.
SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3
# serve-mixed: sessions in the fixed prefix after which the server's
# VmSize and Metrics frame are read (both then depend only on the seed).
FIXED_SESSIONS = 48


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def threads():
    return max(1, min(os.cpu_count() or 1, 4))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures the repository with the benchmark hook and builds the
    system under test (align_tool) plus the harness (balign_bench)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: run from a balign "
                         "checkout" % ROOT)
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", out,
                          "-DCMAKE_PROJECT_balign_INCLUDE=" +
                          os.path.join(HERE, "hook.cmake")])
        steps.append(["cmake", "--build", out, "-j", str(threads()),
                      "--target", "align_tool", "balign_bench"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(out, "examples", "align_tool"),
            os.path.join(out, "balign_bench"))


def run_json(cmd, cwd):
    """Runs a balign_bench subcommand and returns (exit code, parsed JSON)."""
    try:
        proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=150)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % cmd[1])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing (exit %d): %s" %
                         (cmd[1], proc.returncode, proc.stderr[-2000:]))
    return proc.returncode, json.loads(lines[-1])


def median(values):
    return statistics.median(values)


def proc_status_kib(pid, key):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise BenchError("no %s for pid %d" % (key, pid))


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Child:
    """One align_tool --batch child: wall time from exec to exit, CPU and
    peak RSS from wait4, and the largest VmSize polled from /proc while it
    runs. Polling misses the microsecond spikes of a new malloc arena's
    aligned reservation, which VmPeak would catch at random."""

    def __init__(self, argv, cwd, stdout_path):
        err_path = stdout_path + ".err"
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            vm_kib = 0
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                try:
                    vm_kib = max(vm_kib, proc_status_kib(proc.pid, "VmSize"))
                except (OSError, BenchError):
                    pass
                time.sleep(0.02)
            self.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit = proc.returncode
        with open(err_path, "rb") as f:
            self.stderr = f.read().decode(errors="replace")
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mib = ru.ru_maxrss / 1024.0
        self.vm_mib = vm_kib / 1024.0
        with open(stdout_path, "rb") as f:
            self.stdout = f.read()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def percentile(values, q):
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


# --------------------------------------------------------------------------
# Batch workloads: paper-bounds, fast-build.


def batch_setup(bench, workload, seed, work, repeats):
    times = []
    for _ in range(repeats):
        fresh_dir(work)
        t0 = time.perf_counter()
        code, gen = run_json([bench, "gen", "--workload", workload,
                              "--seed", str(seed), "--dir", work], work)
        if code != 0:
            raise BenchError("gen failed")
        times.append(time.perf_counter() - t0)
    with open(os.path.join(work, "list.txt")) as f:
        entries = sum(1 for line in f if line.strip())
    return times, gen, entries


def check(bench, workload, seed, work, errors):
    """Runs the output checks; returns (failed operations, quality)."""
    cmd = [bench, "check", "--workload", workload, "--seed", str(seed),
           "--dir", work]
    if workload != "serve-mixed":
        cmd += ["--report", os.path.join(work, "stdout0.txt")]
    code, quality = run_json(cmd, work)
    errors.extend(quality["first_errors"])
    return int(code != 0), quality


def run_batch(tool, bench, workload, seed, seconds, work):
    setup, gen, entries = batch_setup(bench, workload, seed, work,
                                      SETUP_REPEATS)
    argv = [tool, "--batch", "list.txt"] + gen["align_tool_flags"]
    children, attempted, failed, errors = [], 0, 0, []
    invocations = 1
    while len(children) < invocations:
        out = os.path.join(work, "stdout%d.txt" % len(children))
        child = Child(argv, work, out)
        children.append(child)
        attempted += entries
        if child.exit != 0:
            failed += entries
            errors.append("align_tool exited %d: %s" %
                          (child.exit, child.stderr[-500:]))
        elif child.stdout != children[0].stdout:
            failed += entries
            errors.append("align_tool stdout differs between invocations")
        # As many invocations as fill --seconds, to the nearest one.
        invocations = max(1, round(seconds / children[0].wall_s))
    bad, quality = check(bench, workload, seed, work, errors)
    attempted, failed = attempted + 1, failed + bad
    walls = [c.wall_s for c in children]
    metrics = {
        "setup_s": (median(setup), "s"),
        "compile_s": (median(walls), "s"),
        "compile_cpu_s": (median([c.cpu_s for c in children]), "s"),
        "peak_rss_mb": (median([c.rss_mib for c in children]), "MiB"),
        # One batch invocation is one request on the batch path.
        "serve_p50_ms": (1e3 * median(walls), "ms"),
        "serve_p99_ms": (1e3 * percentile(walls, 0.99), "ms"),
        "serve_rps": (entries / median(walls), "req/s"),
        "server_vm_mb": (median([c.vm_mib for c in children]), "MiB"),
        "penalty_ratio": (quality["penalty_ratio"], "ratio"),
        "sim_cycles_ratio": (quality["sim_cycles_ratio"], "ratio"),
    }
    info = {"shape": gen["shape"], "invocations": len(children),
            "procedures_checked": quality["procedures"]}
    return metrics, attempted, failed, errors, info


def trace_batch(tool, bench, workload, seed, work):
    _, gen, entries = batch_setup(bench, workload, seed, work, 1)
    child = Child([tool, "--batch", "list.txt"] + gen["align_tool_flags"],
                  work, os.path.join(work, "stdout0.txt"))
    attempted, failed, errors = entries + 1, 0, []
    if child.exit != 0:
        failed += entries
        errors.append("align_tool exited %d" % child.exit)
    code, replay = run_json([bench, "replay", "--workload", workload,
                             "--seed", str(seed), "--dir", work,
                             "--report", os.path.join(work, "stdout0.txt")],
                            work)
    if code != 0:
        failed += 1
        errors.extend(replay["errors"])
    bad, quality = check(bench, workload, seed, work, errors)
    attempted, failed = attempted + 1, failed + bad
    extra = {
        "hk_gap_pct": (quality["hk_gap_pct"], "%"),
        "support.pool_efficiency": (
            child.cpu_s / (child.wall_s * replay["threads"]), "ratio"),
        "trace.overhead_pct": (100.0 * (replay["wall_s"] - child.wall_s) /
                               child.wall_s, "%"),
    }
    return layer_metrics(replay, gen["shape"], extra), attempted, failed, \
        errors


# --------------------------------------------------------------------------
# serve-mixed.


class Server:
    """align_tool --serve on a socket in the work directory."""

    def __init__(self, tool, work):
        self.sock = "serve.sock"
        path = os.path.join(work, self.sock)
        if os.path.exists(path):
            os.unlink(path)
        self.log = open(os.path.join(work, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [tool, "--serve", self.sock, "--threads", str(threads())],
            cwd=work, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 30
        while True:
            if self.proc.poll() is not None:
                raise BenchError("server exited %d at start" %
                                 self.proc.returncode)
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(path)
                s.close()
                break
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("server socket never came up")
                time.sleep(0.005)

    def stop(self):
        """Graceful drain (SIGTERM); returns the server's exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def serve_setup(tool, bench, seed, work):
    """Input generation, server start and cold pre-warm; the server is left
    running. Returns (setup seconds, prewarm JSON, server CPU, server, gen)."""
    fresh_dir(work)
    t0 = time.perf_counter()
    code, gen = run_json([bench, "gen", "--workload", "serve-mixed",
                          "--seed", str(seed), "--dir", work], work)
    if code != 0:
        raise BenchError("gen failed")
    server = Server(tool, work)
    try:
        cpu0 = proc_cpu_s(server.proc.pid)
        _, warm = run_json([bench, "load", "--phase", "prewarm",
                            "--dir", work, "--sock", server.sock,
                            "--clients", str(threads())], work)
        cpu = proc_cpu_s(server.proc.pid) - cpu0
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - t0, warm, cpu, server, gen


def serve_load(bench, seed, seconds, work, server):
    return run_json([bench, "load", "--phase", "run", "--dir", work,
                     "--sock", server.sock, "--seed", str(seed),
                     "--clients", str(threads()), "--seconds", str(seconds),
                     "--fixed-sessions", str(FIXED_SESSIONS),
                     "--server-pid", str(server.proc.pid)], work)


def account_warm(warm, attempted, failed, errors):
    attempted += warm["attempted"]
    failed += warm["failed"]
    if warm["failed"]:
        errors.append("prewarm: " + warm["first_error"])
    return attempted, failed


def run_serve(tool, bench, seed, seconds, work):
    setups, warm_walls, warm_cpus = [], [], []
    attempted, failed, errors = 0, 0, []
    for i in range(SERVE_SETUP_REPEATS):
        setup_s, warm, cpu, server, gen = serve_setup(tool, bench, seed,
                                                      work)
        setups.append(setup_s)
        warm_walls.append(warm["wall_s"])
        warm_cpus.append(cpu)
        attempted, failed = account_warm(warm, attempted, failed, errors)
        if i + 1 < SERVE_SETUP_REPEATS:
            attempted += 1
            code = server.stop()
            if code != 0:
                failed += 1
                errors.append("server exited %d" % code)
    try:
        _, load = serve_load(bench, seed, seconds, work, server)
    finally:
        stop = server.stop()
    attempted += load["attempted"] + 1
    failed += load["failed"]
    errors.extend(load["first_errors"])
    if stop != 0:
        failed += 1
        errors.append("server exited %d" % stop)
    bad, quality = check(bench, "serve-mixed", seed, work, errors)
    attempted, failed = attempted + 1, failed + bad
    metrics = {
        "setup_s": (median(setups), "s"),
        "compile_s": (median(warm_walls), "s"),
        "compile_cpu_s": (median(warm_cpus), "s"),
        "peak_rss_mb": (load["fixed_hwm_mib"], "MiB"),
        "serve_p50_ms": (load["p50_ms"], "ms"),
        "serve_p99_ms": (load["p99_ms"], "ms"),
        "serve_rps": (load["rps"], "req/s"),
        "server_vm_mb": (load["vm_mib"], "MiB"),
        "penalty_ratio": (quality["penalty_ratio"], "ratio"),
        "sim_cycles_ratio": (quality["sim_cycles_ratio"], "ratio"),
    }
    info = {"shape": gen["shape"], "miss_shape": gen["miss_shape"],
            "requests": load["requests"], "hits": load["hits"],
            "misses": load["misses"], "sessions": load["sessions"],
            "p99_samples_beyond": load["p99_samples_beyond"]}
    return metrics, attempted, failed, errors, info


def trace_serve(tool, bench, seed, seconds, work):
    attempted, failed, errors = 0, 0, []
    _, warm, cpu, server, gen = serve_setup(tool, bench, seed, work)
    attempted, failed = account_warm(warm, attempted, failed, errors)
    try:
        _, load = serve_load(bench, seed, seconds, work, server)
    finally:
        stop = server.stop()
    attempted += load["attempted"] + 1
    failed += load["failed"] + (stop != 0)
    errors.extend(load["first_errors"])
    code, replay = run_json([bench, "replay", "--workload", "serve-mixed",
                             "--seed", str(seed), "--dir", work,
                             "--fixed-sessions", str(FIXED_SESSIONS)], work)
    attempted += 1
    if code != 0:
        failed += 1
        errors.extend(replay["errors"])
    bad, quality = check(bench, "serve-mixed", seed, work, errors)
    attempted, failed = attempted + 1, failed + bad
    fixed = load["fixed_metrics"]["counters"]
    lookups = fixed.get("cache.hits", 0) + fixed.get("cache.misses", 0)
    requests = max(1, load["requests"])
    extra = {
        "hk_gap_pct": (quality["hk_gap_pct"], "%"),
        "support.pool_efficiency": (cpu / (warm["wall_s"] * threads()),
                                    "ratio"),
        "trace.overhead_pct": (100.0 * (replay["composed_s"] -
                                        replay["handle_s"]) /
                               replay["handle_s"], "%"),
        "cache.hit_ratio": (fixed.get("cache.hits", 0) / max(1, lookups),
                            "ratio"),
        "serve.handle_ms": (replay["handle_p50_ms"], "ms"),
        "serve.connect_ms": (load["connect_ms"], "ms"),
        "serve.rtt_hit_ms": (load["rtt_hit_ms"], "ms"),
        "serve.rtt_miss_ms": (load["rtt_miss_ms"], "ms"),
        "serve.wait_ms": (load["p50_ms"] - replay["handle_p50_ms"], "ms"),
        "serve.queue_highwater": (load["end_metrics"]["gauges"].get(
            "serve.queue.highwater", 0), "count"),
        "serve.hit_share": (load["hits"] / requests, "ratio"),
        "serve.exttsp_share": (load["exttsp_requests"] / requests, "ratio"),
        "serve.encoded_share": (load["encoded_requests"] / requests,
                                "ratio"),
        "serve.requests": (load["requests"], "count"),
    }
    return layer_metrics(replay, gen["shape"], extra), attempted, failed, \
        errors


# --------------------------------------------------------------------------
# Per-layer metrics from a replay.

# (metric, span names summed, unit). Self times, so nested calls are
# never counted twice.
TIMED_LAYERS = [
    ("tsp.solve_s", ["tsp.solve"], "s"),
    ("align.bounds_s", ["align.bounds", "align.matrix.bounds",
                        "tsp.heldkarp", "tsp.assignment"], "s"),
    ("tsp.heldkarp_s", ["tsp.heldkarp"], "s"),
    ("tsp.assignment_s", ["tsp.assignment"], "s"),
    ("align.greedy_s", ["align.greedy"], "s"),
    ("align.matrix_s", ["align.matrix"], "s"),
    ("objective.evaluate_s", ["objective.evaluate"], "s"),
    ("align.refine_s", ["align.refine"], "s"),
    ("objective.materialize_s", ["objective.materialize",
                                 "objective.displace"], "s"),
    ("align.exttsp_s", ["align.exttsp"], "s"),
    ("ir.parse_s", ["ir.parse"], "s"),
    ("profile.parse_s", ["profile.parse"], "s"),
    ("profile.synthesize_s", ["profile.synthesize"], "s"),
    ("cache.lookup_s", ["cache.lookup"], "s"),
    ("cache.store_s", ["cache.store"], "s"),
    ("serve.render_s", ["serve.render"], "s"),
    ("sim.replay_s", ["sim.replay"], "s"),
]

# Layers whose self time is also reported as a share of the traced
# pipeline time (wall x threads, probes excluded).
SHARE_LAYERS = ["tsp.solve", "tsp.heldkarp", "tsp.assignment",
                "align.greedy", "align.matrix", "objective.evaluate",
                "align.refine", "align.exttsp", "ir.parse", "profile.parse",
                "profile.synthesize", "cache.lookup", "cache.store",
                "serve.render", "serve.codec"]
# Spans whose self time is glue between layer calls (unattributed), and
# probe spans, which measure work the pipeline does not do.
ROOT_SPANS = {"pipeline.procedure", "serve.request"}
PROBE_SPANS = {"objective.materialize", "objective.displace",
               "tsp.assignment.probe", "sim.replay", "serve.handle"}
HISTOGRAM = ["1-15", "16-30", "31-45", "46-70", "71-100", "101-up"]
# Per-layer metrics that only the serve workload measures (0 elsewhere).
SERVE_ONLY = {"cache.hit_ratio": "ratio", "serve.handle_ms": "ms",
              "serve.connect_ms": "ms", "serve.rtt_hit_ms": "ms",
              "serve.rtt_miss_ms": "ms", "serve.wait_ms": "ms",
              "serve.queue_highwater": "count", "serve.hit_share": "ratio",
              "serve.exttsp_share": "ratio", "serve.encoded_share": "ratio",
              "serve.requests": "count"}


def layer_metrics(replay, shape, extra):
    layers = replay["layers"]
    counts = replay["counts"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    m = {}
    for metric, spans, unit in TIMED_LAYERS:
        m[metric] = (sum(self_s(span) for span in spans), unit)
    codec = layers.get("serve.codec", {"self_s": 0.0, "calls": 0})
    m["serve.codec_us"] = (1e6 * codec["self_s"] / max(1, codec["calls"]),
                           "us")
    m["tsp.cities"] = (counts["cities"], "count")
    m["tsp.runs"] = (counts["runs"], "count")
    m["tsp.runs_best_ratio"] = (counts["runs_best"] / max(1, counts["runs"]),
                                "ratio")
    m["tsp.ap_tight_share"] = (counts["ap_tight"] /
                               max(1, counts["ap_known"]), "ratio")
    m["tsp.ap_tight_solve_share"] = (
        counts["ap_tight_solve_s"] / counts["solve_s"]
        if counts["solve_s"] else 0.0, "ratio")
    m["objective.long_branch_share"] = (
        counts["long_branches"] / max(1, counts["branch_sites"]), "ratio")
    m["objective.displace_rounds"] = (counts["displace_rounds"], "count")
    pipeline = max(1e-9, replay["wall_s"] * replay["threads"] -
                   sum(self_s(name) for name in PROBE_SPANS))
    attributed = sum(v["self_s"] for k, v in layers.items()
                     if k not in ROOT_SPANS and k not in PROBE_SPANS)
    for name in SHARE_LAYERS:
        m["share." + name] = (100.0 * self_s(name) / pipeline, "%")
    m["trace.unattributed_pct"] = (
        100.0 * max(0.0, pipeline - attributed) / pipeline, "%")
    m["trace.spans"] = (replay["spans"], "count")
    m["shape.procedures"] = (shape["procedures"], "count")
    m["shape.max_cities"] = (shape["max_cities"], "count")
    for bucket in HISTOGRAM:
        m["shape.blocks_" + bucket] = (shape["blocks_histogram"][bucket],
                                       "count")
    for name, unit in SERVE_ONLY.items():
        m[name] = (0.0, unit)
    m.update(extra)
    return m


# --------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a whole number")
    # SIGTERM unwinds like an error, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        tool, bench = build()
        work = os.path.join(build_dir(), "work", args.workload)
        os.makedirs(work, exist_ok=True)
        if args.trace:
            if args.workload == "serve-mixed":
                metrics, attempted, failed, errors = trace_serve(
                    tool, bench, args.seed, args.seconds, work)
            else:
                metrics, attempted, failed, errors = trace_batch(
                    tool, bench, args.workload, args.seed, work)
            # Failed / attempted operations of the traced run's untraced
            # phase and checks (the untraced runs report the same pair as
            # the result's "attempted" and "failed").
            metrics["error_rate"] = (failed / max(1, attempted), "ratio")
            info = {}
        elif args.workload == "serve-mixed":
            metrics, attempted, failed, errors, info = run_serve(
                tool, bench, args.seed, args.seconds, work)
        else:
            metrics, attempted, failed, errors, info = run_batch(
                tool, bench, args.workload, args.seed, args.seconds, work)
    except BenchError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1

    for e in errors[:20]:
        sys.stderr.write("check failed: %s\n" % e)
    for name, (value, unit) in sorted(metrics.items()):
        print("%-32s %16.6f %s" % (name, value, unit))
    if info:
        print("inputs: " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value) if math.isfinite(value)
                           else 1e300, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
