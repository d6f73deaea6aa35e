#!/usr/bin/env python3
"""perfbench: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload build-dblp --seed 1 --seconds 10 --trace 0

Builds `hopi` and perfbench/bench.exe from source (dune, release profile,
build directory .bench_build), makes the workload's inputs from --seed,
drives the `hopi` executable as child processes, checks every answer
against the BFS oracle in bench.exe, and prints one JSON object as the
last line of standard output: the end-to-end metrics with --trace 0, the
per-layer metrics of the traced run with --trace 1.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_ROOT = ".perfbench_work"
HOPI = os.path.join(BUILD_DIR, "default", "bin", "hopi_cli.exe")
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")

SETUPS = 3  # set-up repetitions per end-to-end run; setup_s is their median
VERIFIES = 3  # build-dblp: `hopi verify-store` runs after each timed build
TRACE_FRAMES = 2000  # frames the traced run replays on the sharded read path
TRACE_ROUNDS = 6  # rounds the traced run replays through Generation: those of a 15 s serve-live run
P = {}  # workload parameters, read from `bench.exe params` (perfbench/common.ml)

children = []  # live child processes, stopped on any exit path


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    stop_children()
    sys.exit(1)


def stop_children():
    for p in children:
        if p.poll() is None:
            p.kill()
            p.wait()
    children.clear()


def on_signal(signum, frame):
    fail("stopped by signal %d (SIGALRM: the run exceeded its time limit)" % signum)


def spawn(cmd, log):
    with open(log, "ab") as out:
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    children.append(p)
    return p


def reap(p):
    """Wait for a child; returns (exit code, peak RSS in MiB, CPU seconds)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    children.remove(p)
    return p.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def run_hopi(args, log):
    """Runs `hopi ARGS` to completion: (exit code, wall seconds, peak RSS
    MiB, CPU seconds: user plus system time of all its threads)."""
    t0 = time.perf_counter()
    p = spawn([HOPI] + args, log)
    code, rss, cpu = reap(p)
    return code, time.perf_counter() - t0, rss, cpu


def bench(args, log):
    """Runs bench.exe; returns the JSON of its RESULT line."""
    with open(log, "ab") as out:
        p = subprocess.Popen([BENCH] + args, stdout=subprocess.PIPE, stderr=out, stdin=subprocess.DEVNULL)
        children.append(p)
        text = p.communicate()[0].decode()
        children.remove(p)
    with open(log, "a") as out:
        out.write(text)
    if p.returncode != 0:
        fail("bench.exe %s failed (exit %d); see %s" % (args[0], p.returncode, log))
    sys.stdout.write("".join(l + "\n" for l in text.splitlines() if not l.startswith("RESULT ")))
    for line in reversed(text.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    fail("bench.exe %s printed no result" % args[0])


def request(sock_path, payload, kind=b"Q", timeout=30.0):
    """One frame-protocol request (a 'Q' query or 'C' control frame); returns the reply kind."""
    body = payload.encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(struct.pack(">IcI", 5 + len(body), kind, 1) + body)
        head = b""
        while len(head) < 4:
            chunk = s.recv(4 - len(head))
            if not chunk:
                raise ConnectionError("closed")
            head += chunk
        (n,) = struct.unpack(">I", head)
        rest = b""
        while len(rest) < n:
            chunk = s.recv(n - len(rest))
            if not chunk:
                raise ConnectionError("closed")
            rest += chunk
        return rest[:1]


def start_server(args, sock_path, log):
    """Spawns `hopi serve ... --socket`; returns (process, seconds until the first reply)."""
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    t0 = time.perf_counter()
    p = spawn([HOPI, "serve"] + args + ["--socket", sock_path, "-j", str(P["serve_jobs"])], log)
    while True:
        if p.poll() is not None:
            fail("server exited during start-up; see " + log)
        try:
            if request(sock_path, "reach 0 1") == b"R":
                return p, time.perf_counter() - t0
        except (FileNotFoundError, ConnectionError, ConnectionRefusedError, socket.timeout):
            time.sleep(0.002)


def stop_server(p, sock_path):
    """The protocol's `quit`, then reap; returns peak RSS in MiB.  (Not
    SIGTERM: the server binds its socket before it installs its signal
    handlers, and a SIGTERM right after the first reply once killed it.)"""
    if request(sock_path, "quit", kind=b"C") != b"R":
        fail("server refused quit")
    code, rss, _ = reap(p)
    if code != 0:
        fail("server exited with %d" % code)
    return rss


def du_mb(path):
    if os.path.isfile(path):
        return os.path.getsize(path) / 2**20
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs) / 2**20


def make_corpus(seed, workload, work):
    corpus = os.path.join(work, "corpus")
    shutil.rmtree(corpus, ignore_errors=True)
    t0 = time.perf_counter()
    docs = P[workload.split("-")[-1] + "_docs"]
    bench(["corpus", "--seed", str(seed), "--docs", str(docs), "--out", corpus], os.path.join(work, "bench.log"))
    return corpus, time.perf_counter() - t0


# {1 Workloads}


def build_args(corpus, store, work):
    return ["build", corpus, "-j", str(P["build_jobs"]), "--build-mem-mb", str(P["build_mem_mb"]),
            "--spill-dir", os.path.join(work, "spill"), "--store", store, "--no-fsync"]


def check_built_store(store, corpus, seed, work, doctor):
    log = os.path.join(work, "check.log")
    code = run_hopi(["verify-store", store], log)[0]
    r = bench(["check-store", "--store", store, "--corpus", corpus, "--seed", str(seed)]
              + (["--doctor"] if doctor else []), log)
    print("verify-store: %s" % ("ok" if code == 0 else "FAILED (exit %d)" % code))
    return code == 0 and r["mismatches"] == 0


# Each workload function runs the set-up SETUPS times and the timed phase
# once, checks the answers, and returns (correct, attempted, failed,
# end-to-end metrics, figures): the figures are the end-to-end values the
# traced run sets its coverage lines against.
#
# The two request metrics are CPU times of the `hopi` process serving the
# request: rusage of a `hopi build` or `verify-store` process, and for a
# server the on-CPU time of its threads over one request (load.ml), with
# no other request in flight.  Time the hypervisor steals is not CPU
# time: on a busy shared host the client-observed probe p50 spread 0.42
# (IQR/median over five seeds) and the build's wall time 0.26, while the
# CPU times moved about 10% between builds.  Wall-clock figures are
# printed.


def build_dblp(seed, seconds, setups, work, doctor):
    log = os.path.join(work, "hopi.log")
    os.makedirs(os.path.join(work, "spill"), exist_ok=True)
    store = os.path.join(work, "store.db")
    # A set-up writes the corpus and runs one warm-up build: writing a
    # 350-file corpus alone took from 28 ms to 230 ms on the same disk
    # within minutes, and holds no program code.
    # the CPU time of a build is the same work in the set-up's warm-up
    # builds and the timed ones; its median is over all of them
    setup_times, rss, build_cpu, attempted, failed = [], [], [], 0, 0
    for _ in range(setups):
        corpus, gen_s = make_corpus(seed, "build-dblp", work)
        code, warm_s, peak, cpu = run_hopi(build_args(corpus, store, work), log)
        attempted, failed = attempted + 1, failed + (code != 0)
        setup_times.append(gen_s + warm_s)
        rss.append(peak)
        build_cpu.append(cpu)
    # A timed round: one build, then VERIFIES reads of the whole store it wrote.
    builds, verifies, verify_cpu = [], [], []
    t0 = time.perf_counter()
    while len(builds) < 2 or time.perf_counter() - t0 < seconds:
        code, dt, peak, cpu = run_hopi(build_args(corpus, store, work), log)
        attempted, failed = attempted + 1, failed + (code != 0)
        builds.append(dt)
        build_cpu.append(cpu)
        rss.append(peak)
        for _ in range(VERIFIES):
            code, dt, _, cpu = run_hopi(["verify-store", store], log)
            attempted, failed = attempted + 1, failed + (code != 0)
            verifies.append(dt)
            verify_cpu.append(cpu)
    ok = check_built_store(store, corpus, seed, work, doctor)
    print("builds: %d attempted; verify-store: %d attempted; %d failed in all"
          % (setups + len(builds), len(verifies), failed))
    print("wall (not metrics): build p50 %.3f s, verify-store p50 %.1f ms"
          % (statistics.median(builds), 1e3 * statistics.median(verifies)))
    print("build CPU s: " + " ".join("%.3f" % c for c in build_cpu))
    print("peak RSS MiB: " + " ".join("%.1f" % m for m in rss))
    return ok, attempted, failed, {
        "setup_s": statistics.median(setup_times),
        "store_mb": du_mb(store),
        "peak_rss_mb": max(rss),
        "main_op_cpu_ms": 1e3 * statistics.median(build_cpu),
        "second_op_cpu_ms": 1e3 * statistics.median(verify_cpu),
    }, {"e2e-build-s": statistics.median(builds)}


def serve_sharded(seed, seconds, setups, work, doctor):
    log = os.path.join(work, "hopi.log")
    shards = os.path.join(work, "shards")
    sock = os.path.join(work, "s.sock")
    setup_times, rss, server = [], [], None
    for _ in range(setups):
        if server:
            rss.append(stop_server(server, sock))
        corpus, gen_s = make_corpus(seed, "serve-sharded", work)
        shutil.rmtree(shards, ignore_errors=True)
        code, split_s, peak, _ = run_hopi(["shard-split", corpus, "-k", str(P["shards"]), "--out", shards, "--no-fsync"], log)
        if code != 0:
            fail("hopi shard-split failed; see " + log)
        rss.append(peak)
        server, start_s = start_server([shards, "--shard", "--pool-pages", str(P["sharded_pool_pages"]),
                                        "--cache-mb", str(P["cache_mb"])], sock, log)
        setup_times.append(gen_s + split_s + start_s)
    r = bench(["load", "--workload", "serve-sharded", "--socket", sock, "--server-pid", str(server.pid), "--seed", str(seed),
               "--seconds", repr(seconds), "--corpus", corpus] + (["--doctor"] if doctor else []),
              os.path.join(work, "bench.log"))
    rss.append(stop_server(server, sock))
    print("queries: %d attempted, %d failed; %d reachable and %d unreachable pairs; %d mismatches"
          % (r["attempted"], r["failed"], r["reachable_pairs"], r["unreachable_pairs"], r["mismatches"]))
    print("peak RSS MiB: " + " ".join("%.1f" % m for m in rss))
    print("client-observed (not metrics): qps %.1f, probe p50 %.1f us, probe p95 %.1f us, expand p50 %.1f us"
          % (r["qps"], r["probe_p50_us"], r["probe_p95_us"], r["expand_p50_us"]))
    return r["mismatches"] == 0, r["attempted"], r["failed"], {
        "setup_s": statistics.median(setup_times),
        "store_mb": du_mb(shards),
        "peak_rss_mb": max(rss),
        "main_op_cpu_ms": r["probe_cpu_ms"],
        "second_op_cpu_ms": r["expand_cpu_ms"],
    }, {"e2e-sharded-probe-us": r["probe_p50_us"]}


def serve_live(seed, seconds, setups, work, doctor):
    log = os.path.join(work, "hopi.log")
    live = os.path.join(work, "live")
    base = os.path.join(live, "base.db")
    sock = os.path.join(work, "s.sock")
    setup_times, rss, server = [], [], None
    for _ in range(setups):
        if server:
            rss.append(stop_server(server, sock))
        corpus, gen_s = make_corpus(seed, "serve-live", work)
        shutil.rmtree(live, ignore_errors=True)
        os.makedirs(live)
        server, start_s = start_server([base, "--live", "--corpus", corpus, "--no-fsync",
                                        "--pool-pages", str(P["live_pool_pages"]), "--cache-mb", str(P["cache_mb"])],
                                       sock, log)
        setup_times.append(gen_s + start_s)
    r = bench(["load", "--workload", "serve-live", "--socket", sock, "--server-pid", str(server.pid), "--seed", str(seed),
               "--seconds", repr(seconds), "--corpus", corpus] + (["--doctor"] if doctor else []),
              os.path.join(work, "bench.log"))
    rss.append(stop_server(server, sock))
    print("queries: %d attempted, %d failed; applies: %d attempted, %d failed; flips: %d attempted, %d failed"
          % (r["queries"], r["queries_failed"], r["applies"], r["applies_failed"], r["flips"], r["flips_failed"]))
    print("oracle: %d generations replayed; %d reachable and %d unreachable pairs; %d mismatches"
          % (r["generations_checked"], r["reachable_pairs"], r["unreachable_pairs"], r["mismatches"]))
    # Printed, not reported: the reads re-warm a label cache emptied by
    # every flip through a page pool smaller than the store, and their
    # client-observed figures spread 0.25-0.94 (IQR/median) over ten seeds.
    print("reads (not metrics here): qps %.1f, probe p50 %.1f us, probe p95 %.1f us, expand p50 %.1f us, "
          "server CPU per probe frame %.3f ms" % (r["qps"], r["probe_p50_us"], r["probe_p95_us"],
                                                  r["expand_p50_us"], r["probe_cpu_ms"]))
    print("client-observed (not metrics): flip p50 %.1f ms, apply %.1f ms" % (r["flip_p50_ms"], r["apply_ms"]))
    print("peak RSS MiB: " + " ".join("%.1f" % m for m in rss))
    live_gen = r["flips"]
    store = base if live_gen == 0 else "%s.gen%d" % (base, live_gen)
    return r["mismatches"] == 0, r["attempted"], r["failed"], {
        "setup_s": statistics.median(setup_times),
        "store_mb": du_mb(store),
        "peak_rss_mb": max(rss),
        "main_op_cpu_ms": r["flip_cpu_ms"],
        "second_op_cpu_ms": r["apply_cpu_ms"],
    }, {"e2e-flip-ms": r["flip_p50_ms"], "e2e-live-probe-us": r["probe_p50_us"]}


def traced(workload, seed, work, figures):
    """The traced run on the workload's inputs (its corpus is still in
    WORK): every layer, in-process.  Returns (correct, per-layer metrics)."""
    tdir = os.path.join(work, "traced")
    spill = os.path.join(work, "spill")
    os.makedirs(spill, exist_ok=True)
    args = ["trace", "--corpus", os.path.join(work, "corpus"), "--seed", str(seed), "--dir", tdir,
            "--spill-dir", spill, "--frames", str(TRACE_FRAMES), "--rounds", str(TRACE_ROUNDS),
            "--frames-per-round", str(P["frames_per_round"])]
    for k, v in sorted(figures.items()):
        args += ["--" + k, repr(v)]
    r = bench(args, os.path.join(work, "bench.log"))
    failed_ops, mismatches = r.pop("failed_ops"), r.pop("mismatches")
    print("traced run: %d failed ops; traced build's store: %d mismatches against BFS" % (failed_ops, mismatches))
    ok = failed_ops == 0 and mismatches == 0
    if workload == "build-dblp":
        store, composed = os.path.join(work, "store.db"), os.path.join(tdir, "traced.db")
        with open(store, "rb") as a, open(composed, "rb") as b:
            identical = a.read() == b.read()
        print("byte-identity: traced store %s the store hopi build wrote (%d bytes)"
              % ("is identical to" if identical else "DIFFERS from", os.path.getsize(store)))
        ok = ok and identical
    return ok, r


WORKLOADS = {"build-dblp": build_dblp, "serve-sharded": serve_sharded, "serve-live": serve_live}


def environment(seed):
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    commit = "unknown"
    if os.path.isdir(".git"):
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
    print("env: nproc=%d ocaml=%s commit=%s seed=%d" % (os.cpu_count(), ocaml or "unknown", commit, seed))


def build_binaries():
    for f in ("dune-project", os.path.join("bin", "hopi_cli.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(f):
            fail("run from the root of a hopi checkout (%s is missing)" % f)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    r = subprocess.run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
                        "./bin/hopi_cli.exe", "./perfbench/bench.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--doctor", action="store_true",
                    help="flip one checked answer; the run must then report correct=false")
    a = ap.parse_args()
    for sig in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, on_signal)
    signal.alarm(880)  # the first run in a checkout compiles
    build_binaries()
    signal.alarm(175)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    environment(a.seed)
    work = os.path.join(WORK_ROOT, "%s-%d" % (a.workload, a.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    P.update(bench(["params"], os.path.join(work, "bench.log")))
    try:
        ok, attempted, failed, metrics, figures = WORKLOADS[a.workload](
            a.seed, a.seconds, 1 if a.trace else SETUPS, work, a.doctor)
        if a.trace:
            traced_ok, metrics = traced(a.workload, a.seed, work, figures)
            ok = ok and traced_ok
    finally:
        stop_children()
    shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("no figure for " + ", ".join(missing))
    out = {"correct": bool(ok), "attempted": int(attempted), "failed": int(failed),
           "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
