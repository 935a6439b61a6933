#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the REF service.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds ref_serve and the benchmark's
programs in Release mode under .bench_build/, then for workload W:

  1. starts a fresh `ref_serve --listen 127.0.0.1:0` (text framing,
     one shard, default flags; pooled_churn adds --pooled);
  2. preloads the population and ticks once (set-up; setup_s is the
     server's spawn to its LISTENING line plus the client's first
     connect to that TICK's reply, so the client's own launch in
     between is not counted);
  3. runs whole rounds of the seeded request stream for S seconds,
     closed loop on two connections, reading the server's peak RSS
     after a fixed number of rounds and its byte counters around
     the phase;
  4. reads back every share and STATS, shuts the server down, and
     checks it all with check.py;
  5. pooled_churn only, untimed: repeats the set-up and a few rounds
     on a server with a group-commit journal, restarts it on that
     journal, reads everything again, and checks that too.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it
also runs perfbench_layers, the in-process traced replay of the same
streams, and prints the per-layer metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("epoch_flat", "pooled_churn")

# Rounds per connection of pooled_churn's journaled run: enough to
# cross snapshot compactions and churn the journal after the set-up.
DURABLE_ROUNDS = 8

END_TO_END = {
    "ops_per_s": "ops/s",
    "tick_ms": "ms",
    "op_p50_us": "us",
    "op_mean_us": "us",
    "setup_s": "s",
    "server_cpu_us_per_op": "us/op",
    "server_rss_mb": "MB",
}

# Per-layer metrics read from the socket run; perfbench_layers
# prints the rest with their units.
SOCKET_LAYERS = {
    "net.rtt_over_exec_us": "us",
    "net.bytes_per_op": "bytes",
    "svc.journal.records": "count",
    "svc.journal.fsyncs": "count",
    "svc.journal.snapshots": "count",
    "svc.epoch_latency_ns_mean": "ns",
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the three programs, Release mode."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no REF source tree at {ROOT}")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "ref_serve",
         "perfbench_client", "perfbench_layers"],
        check=True, stdout=sys.stderr)


def program(name):
    path = os.path.join(BUILD, "ref", "tools", name) \
        if name == "ref_serve" else os.path.join(BUILD, name)
    if not os.path.isfile(path):
        raise RuntimeError(f"{path} was not built")
    return path


class Server:
    """One ref_serve process; stderr is drained on a thread."""

    def __init__(self, args):
        self.lines = []
        self.spawned = time.monotonic()
        self.listening_s = None  # Spawn to the LISTENING line.
        self.proc = subprocess.Popen(
            [program("ref_serve"), "--listen", "127.0.0.1:0"] + args,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.port = None
        listening = threading.Event()

        def drain():
            for line in self.proc.stderr:
                self.lines.append(line.rstrip("\n"))
                if line.startswith("LISTENING "):
                    self.listening_s = time.monotonic() - self.spawned
                    for field in line.split():
                        if field.startswith("addr="):
                            self.port = int(field.rsplit(":", 1)[1])
                    listening.set()
            listening.set()

        self.reader = threading.Thread(target=drain, daemon=True)
        self.reader.start()
        if not listening.wait(60) or self.port is None:
            self.stop()
            raise RuntimeError("ref_serve did not start listening: " +
                               " | ".join(self.lines[-5:]))

    def wait(self, timeout=60):
        """Wait for a SHUTDOWN the client sent; True on exit code 0."""
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            return False
        self.reader.join(10)
        return code == 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join(10)


def run_client(args, timeout):
    out = subprocess.run([program("perfbench_client")] + args,
                         stdout=subprocess.PIPE, text=True,
                         timeout=timeout)
    if out.returncode != 0:
        raise RuntimeError(f"perfbench_client exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def drive(server_args, client_args, timeout):
    """Start ref_serve, run the client against it, wait for the server
    to exit on the client's SHUTDOWN. Returns (client summary, set-up
    seconds: spawn to LISTENING plus the client's connect to set-up
    done)."""
    server = Server(server_args)
    try:
        summary = run_client(
            client_args + ["--port", str(server.port),
                           "--server-pid", str(server.proc.pid)],
            timeout)
        if not server.wait():
            raise RuntimeError("ref_serve did not exit cleanly")
    finally:
        server.stop()
    setup = server.listening_s + (summary.get("setup_done_mono_s", 0) -
                                  summary.get("connect_mono_s", 0))
    return summary, setup


def socket_run(workload, seed, seconds, work):
    """Steps 1-4 above. Returns (timed-phase summary, its report, the
    STATS of the journaled run (pooled_churn) or the timed one, and
    whether every check passed)."""
    pooled = workload == "pooled_churn"
    server_args = ["--pooled"] if pooled else []
    client_args = ["--workload", workload, "--seed", str(seed)]
    report_path = os.path.join(work, "report.txt")
    summary, setup = drive(
        server_args,
        client_args + ["--seconds", str(seconds), "--report", report_path],
        timeout=seconds + 150)
    summary["setup_s"] = setup
    report = check.read_report(report_path)
    errors = check.check_report(report)
    stats = report["stats"]
    if pooled:
        # The durable path, untimed: the same set-up and DURABLE_ROUNDS
        # rounds on a journaled server, then a restart on its journal.
        journal_args = server_args + [
            "--journal", os.path.join(work, "journal"),
            "--fsync-policy", "group:65536,2000"]
        durable_path = os.path.join(work, "durable.txt")
        durable_args = client_args + ["--report", durable_path]
        durable, _ = drive(
            journal_args,
            durable_args + ["--rounds", str(DURABLE_ROUNDS), "--journal"],
            timeout=150)
        again, _ = drive(journal_args, durable_args + ["--restart"],
                            timeout=150)
        durable_report = check.read_report(durable_path)
        errors += check.check_report(durable_report, restarted=True)
        stats = durable_report["stats"]
        for part in (durable, again):
            summary["attempted"] += part["attempted"]
            summary["failed"] += part["failed"]
    for error in errors:
        log(f"check failed: {error}")
    return summary, report, stats, not errors


def layer_run(workload, seed, seconds, spans):
    out = subprocess.run(
        [program("perfbench_layers"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--spans", spans],
        stdout=subprocess.PIPE, text=True, timeout=seconds + 150)
    if out.returncode != 0:
        raise RuntimeError(f"perfbench_layers exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        summary, report, stats, correct = socket_run(
            args.workload, args.seed, args.seconds, work)
        if args.trace:
            spans = os.path.join(ROOT, ".bench_build", "spans",
                                 f"{args.workload}-seed{args.seed}.json")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            layers = layer_run(args.workload, args.seed, args.seconds,
                               spans)
            log(f"spans written to {os.path.relpath(spans, ROOT)}")
            values = {
                "net.rtt_over_exec_us": summary["query_p50_us"] -
                layers["svc.protocol.exec_us.query"]["value"],
                "net.bytes_per_op": summary["bytes_per_op"],
                "svc.journal.records": int(stats["journal_records"]),
                "svc.journal.fsyncs": int(stats["journal_fsyncs"]),
                "svc.journal.snapshots": int(stats["journal_snapshots"]),
                "svc.epoch_latency_ns_mean":
                    int(report["stats"]["epoch_latency_ns_mean"]),
            }
            metrics = dict(layers)
            for name, unit in SOCKET_LAYERS.items():
                metrics[name] = {"value": values[name], "unit": unit}
        else:
            metrics = {name: {"value": summary[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(1)
