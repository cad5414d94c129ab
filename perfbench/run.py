#!/usr/bin/env python3
"""End-to-end benchmark of the `prio` tool, from file in to file out and from
request to response.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `prio` binary and the
benchmark's helper (`perfbench/`, a Cargo package of its own), makes the
workload's inputs from the seed, and runs `prio` as a user does: as a child
process with default flags. Every workload has two phases:

* a one-shot phase: `prio instrument` or `prio schedule` on generated files,
  each run timed from process start to exit;
* a daemon phase: a `prio serve` child with default settings, driven by a
  closed loop over two TCP connections.

The two phases alternate in slices across the run.

Every output is checked by the helper against the generated graph, without
the program's parsers. The last line of standard output is one JSON object:
with `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics of an in-process replay of the same inputs (see README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")

# Share of --seconds given to the daemon phase; the one-shot phase gets the
# rest. The two phases alternate in SLICES slices, so that both sample the
# whole run rather than one end of it; each slice makes at least one
# one-shot run.
WORKLOADS = {
    "instrument_montage": {"serve_share": 0.4, "replay_reps": 3},
    "schedule_layered": {"serve_share": 0.4, "replay_reps": 1},
    "serve_mix": {"serve_share": 0.75, "replay_reps": 1},
}
SLICES = 4
SETUP_REPS = 3
# Logged daemon requests the replay re-runs (a prefix, in send order).
REPLAY_SERVE_LIMIT = 2000
# The replay's layer times must add up to its wall time within this share.
RECONCILE = 0.10
MAX_OP_SECONDS = 60
# serve_mix's one-shot runs cycle over the largest pool DAGs (the pool is in
# size order), where the work per file outweighs starting a process.
ONE_SHOT_POOL_ENTRIES = 16


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_json(cmd, timeout):
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if p.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} failed: {p.stderr.strip()[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def build():
    """Builds `prio` and the helper from source; returns their paths."""
    for need in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found: run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "prio-cli", "--bin", "prio"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True, timeout=850)
        if p.returncode != 0:
            raise BenchError(f"build failed: {p.stderr.strip()[-2000:]}")
    return os.path.join(target, "release", "prio"), os.path.join(target, "release", "perfbench")


def wait_rusage(proc, timeout):
    """Waits for `proc` (killing it after `timeout` seconds) and returns
    (exit code, peak RSS in MB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss / 1024.0


class Daemon:
    """A `prio serve` child with default settings on a free local port."""

    def __init__(self, prio, workdir):
        self.err_path = os.path.join(workdir, "serve.err")
        self.err = open(self.err_path, "w")
        self.proc = subprocess.Popen([prio, "serve", "--listen", "127.0.0.1:0"], cwd=ROOT,
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.err)
        self.addr = None
        try:
            deadline = time.monotonic() + 20
            while self.addr is None:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("prio serve did not start")
                with open(self.err_path) as f:
                    for line in f:
                        if "serving on " in line:
                            self.addr = line.strip().split("serving on ", 1)[1]
                time.sleep(0.002)
            while self.call("ping").get("pong") is not True:
                time.sleep(0.002)
        except BaseException:
            self.kill()
            raise

    def call(self, verb):
        host, port = self.addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=20) as s:
            s.sendall(json.dumps({"v": 1, "id": verb, "verb": verb}).encode() + b"\n")
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf)

    def shutdown(self):
        """Stops the daemon; returns its peak RSS in MB."""
        self.call("shutdown")
        code, rss = wait_rusage(self.proc, 30)
        self.err.close()
        if code != 0:
            raise BenchError(f"prio serve exited with {code}")
        return rss

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.err.close()


def setup(args, prio, helper, workdir):
    """Generates the inputs, starts the daemon and warms its pool; returns
    (seconds, generator metadata, daemon, pool eligibility)."""
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "cli"))
    common = [args.workload, "--seed", str(args.seed), "--dir", workdir]
    meta = run_json([helper, "gen"] + common, 120)
    daemon = Daemon(prio, workdir)
    try:
        warm = run_json([helper, "warm"] + common + ["--addr", daemon.addr], 120)
    except BaseException:
        daemon.kill()
        raise
    return time.perf_counter() - t0, meta, daemon, warm["mean_eligible"]


def one_shot_command(workload, prio, workdir, entry, pool_files):
    """The CLI command of one one-shot run, and where its output goes."""
    out = os.path.join(workdir, "cli", f"{entry}.out")
    if workload == "schedule_layered":
        return [prio, "schedule", os.path.join(workdir, "input.dag")], out, True
    src = os.path.join(workdir, "input.dag") if workload == "instrument_montage" else pool_files[entry]
    return [prio, "instrument", src, "--output", out], out, False


class OneShot:
    """The one-shot phase: runs the CLI in slices, checking every output with
    a long-lived checker process. Keeps per-run (entry, seconds, peak MB)."""

    def __init__(self, args, prio, helper, workdir):
        self.workload, self.prio, self.workdir = args.workload, prio, workdir
        common = [args.workload, "--seed", str(args.seed), "--dir", workdir]
        pool_dir = os.path.join(workdir, "pool")
        self.pool_files = {int(f.split(".")[0]): os.path.join(pool_dir, f)
                           for f in (os.listdir(pool_dir) if os.path.isdir(pool_dir) else []) if f[0].isdigit()}
        self.entries = sorted(self.pool_files)[-ONE_SHOT_POOL_ENTRIES:] or [0]
        self.runs, self.failures, self.eligible = [], [], None
        self.checker = subprocess.Popen([helper, "checker"] + common, cwd=ROOT, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def run_slice(self, seconds):
        start = time.perf_counter()
        first = True
        while len(self.failures) < 5 and (first or time.perf_counter() - start < seconds):
            first = False
            entry = self.entries[(len(self.runs) + len(self.failures)) % len(self.entries)]
            cmd, out, to_stdout = one_shot_command(self.workload, self.prio, self.workdir, entry, self.pool_files)
            sink = open(out, "w") if to_stdout else subprocess.DEVNULL
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sink,
                                    stderr=subprocess.DEVNULL)
            code, rss = wait_rusage(proc, MAX_OP_SECONDS)
            dt = time.perf_counter() - t0
            if to_stdout:
                sink.close()
            if code != 0:
                self.failures.append(f"prio {cmd[1]} exited with {code}")
                continue
            self.checker.stdin.write(f"{entry} {out}\n")
            self.checker.stdin.flush()
            verdict = self.checker.stdout.readline().strip()
            if not verdict.startswith("ok "):
                self.failures.append(verdict or "checker stopped")
                continue
            if self.eligible is None:
                self.eligible = float(verdict.split()[1])
            self.runs.append((entry, dt, rss))

    def close(self):
        self.checker.stdin.close()
        try:
            self.checker.wait(timeout=30)
        finally:
            if self.checker.returncode is None:
                self.checker.kill()
                self.checker.wait()


def source_digest():
    """SHA-256 over the sources the benchmark builds, for runs outside git."""
    h = hashlib.sha256()
    for base in ("Cargo.toml", "Cargo.lock", "crates", "compat", "perfbench"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py")) and "target" not in d.split(os.sep))
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else None
    except OSError:
        return None


LAYER_MS = {
    "dagman.parse": "dagman.parse_ms",
    "dagman.to_dag": "dagman.to_dag_ms",
    "dagman.to_workflow": "dagman.to_workflow_ms",
    "dagman.instrument": "dagman.instrument_ms",
    "dagman.write": "dagman.write_ms",
    "dagman.jsdf": "dagman.jsdf_ms",
    "core.prioritize": "core.prioritize_ms",
}
STAGE_MS = {
    "stage.graph.reduce": "graph.reduce_ms",
    "stage.graph.remove_arcs": "graph.remove_arcs_ms",
    "stage.graph.check": "graph.check_ms",
    "stage.core.decompose": "core.decompose_ms",
    "stage.core.schedule": "core.schedule_ms",
    "stage.core.combine": "core.combine_ms",
}
COUNTS = {
    "dagman.to_dag_peak_mb": "MB",
    "core.prioritize_peak_mb": "MB",
    "dagman.statements_inserted": "count",
    "dagman.bytes_out": "bytes",
    "graph.shortcuts": "count",
    "core.components": "count",
    "core.general_search_iterations": "count",
    "core.fallback_components": "count",
}
FORMATS = ("dagman", "json", "edges")


def per_layer_metrics(replay, runs, serve):
    """Per-layer metrics of the replay, as a user of the benchmark reads
    them: one-shot layers per run (weighted like the measured runs), daemon
    layers per request, and the residual the replay does not cover."""
    ops = {op["entry"]: op for op in replay["ops"]}
    m = {}

    def weighted(get):
        return statistics.fmean(get(ops[entry]) for entry, _, _ in runs)

    for key, name in LAYER_MS.items():
        m[name] = (weighted(lambda op: op["layers_ms"].get(key, 0.0)), "ms")
    for key, name in STAGE_MS.items():
        m[name] = (weighted(lambda op: op["counts"].get(key, 0.0) * 1e3), "ms")
    for name, unit in COUNTS.items():
        m[name] = (weighted(lambda op: op["counts"].get(name, 0.0)), unit)
    m["other_ms"] = (statistics.median(dt * 1e3 - ops[entry]["layers_ms"]["sum"] for entry, dt, _ in runs), "ms")
    m["trace.oneshot_layer_share"] = (weighted(lambda op: op["layers_ms"]["sum"] / op["wall_ms"]), "ratio")

    per_call = replay["serve_per_call_us"]
    per_request = replay["serve_per_request_us"]
    for fmt in FORMATS:
        m[f"ir.import_us.{fmt}"] = (per_call.get(f"ir.import.{fmt}", 0.0), "us")
        m[f"ir.export_us.{fmt}"] = (per_call.get(f"ir.export.{fmt}", 0.0), "us")
    for key in ("parse_request", "key", "cache", "respond"):
        m[f"serve.{key}_us"] = (per_request.get(f"serve.{key}", 0.0), "us")
    m["serve.prioritize_us"] = (per_call.get("core.prioritize", 0.0), "us")
    m["trace.serve_layer_share"] = (per_call["sum_ms"] / per_call["wall_ms"] if per_call["wall_ms"] else 1.0, "ratio")
    m["trace.serve_requests"] = (per_call["requests"], "count")
    lookups = serve["cache_hits"] + serve["cache_misses"]
    m["serve.cache_hit_ratio"] = (serve["cache_hits"] / lookups if lookups else 0.0, "ratio")
    for key in ("cache_evictions", "cache_bytes", "shed", "errors"):
        m[f"serve.{key}"] = (serve[key], "bytes" if key == "cache_bytes" else "count")
    return m


def run(args):
    spec = WORKLOADS[args.workload]
    prio, helper = build()
    workdir = os.path.join(WORK, args.workload)
    common = [args.workload, "--seed", str(args.seed), "--dir", workdir]

    setup_times = []
    daemon = client = one_shot = None
    try:
        for _ in range(SETUP_REPS):
            if daemon is not None:
                daemon.shutdown()
                daemon = None
            seconds, meta, daemon, pool_eligible = setup(args, prio, helper, workdir)
            setup_times.append(seconds)

        client = subprocess.Popen([helper, "client"] + common + ["--addr", daemon.addr], cwd=ROOT,
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        one_shot = OneShot(args, prio, helper, workdir)
        for _ in range(SLICES):
            client.stdin.write(f"{args.seconds * spec['serve_share'] / SLICES}\n")
            client.stdin.flush()
            if client.stdout.readline().strip() != "done":
                raise BenchError("the daemon's client stopped")
            one_shot.run_slice(args.seconds * (1 - spec["serve_share"]) / SLICES)
        client.stdin.close()
        serve = json.loads(client.stdout.read().strip().splitlines()[-1])
        if client.wait(timeout=60) != 0:
            raise BenchError("the daemon's client failed")
        daemon_rss = daemon.shutdown()
        daemon = None
    finally:
        if client is not None and client.poll() is None:
            client.kill()
            client.wait()
        if one_shot is not None:
            one_shot.close()
        if daemon is not None:
            daemon.kill()

    runs, failures, file_eligible = one_shot.runs, one_shot.failures, one_shot.eligible
    if serve["error_messages"]:
        log(f"daemon replies failed checks: {serve['error_messages']}")
    for f in failures[:5]:
        log(f"one-shot run failed: {f}")

    attempted = len(runs) + len(failures) + serve["attempted"]
    failed = len(failures) + serve["failed"]
    correct = failed == 0 and bool(runs)
    times = [dt for _, dt, _ in runs] or [0.0]
    served = serve["hits"] + serve["misses"]

    print(json.dumps({"meta": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "host_cores": len(os.sched_getaffinity(0)), "jobs": meta["jobs"], "arcs": meta["arcs"],
        "input_bytes": meta["input_bytes"], "input_files": meta["files"],
        "commit": commit(), "source_sha256": source_digest(),
        "one_shot_s": [round(dt, 6) for _, dt, _ in runs][:200], "requests": served, "hits": serve["hits"], "misses": serve["misses"],
    }}))

    if args.trace == 0:
        rss = daemon_rss if args.workload == "serve_mix" else statistics.median(r for _, _, r in runs or [(0, 0, 0)])
        eligible = pool_eligible if args.workload == "serve_mix" else file_eligible
        metrics = {
            "file_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "mean_eligible_jobs": (eligible or 0.0, "jobs"),
            "serve_rps": (served / serve["elapsed_s"], "1/s"),
            "hit_p50_us": (serve["hit_p50_us"], "us"),
            "hit_p99_us": (serve["hit_p99_us"], "us"),
            "miss_p50_us": (serve["miss_p50_us"], "us"),
            "miss_p99_us": (serve["miss_p99_us"], "us"),
        }
    else:
        entries = ",".join(str(e) for e in sorted({entry for entry, _, _ in runs}))
        replay = run_json([helper, "replay"] + common + [
            "--entries", entries, "--reps", str(spec["replay_reps"]),
            "--serve-limit", str(REPLAY_SERVE_LIMIT)], 170)
        metrics = per_layer_metrics(replay, runs, serve)
        for share in ("trace.oneshot_layer_share", "trace.serve_layer_share"):
            if abs(metrics[share][0] - 1.0) > RECONCILE:
                log(f"{share} = {metrics[share][0]:.3f}: layer times do not add up to the replay's wall time")
                correct = False

    shutil.rmtree(WORK, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
