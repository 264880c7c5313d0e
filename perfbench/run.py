#!/usr/bin/env python3
"""Wire-to-verdict benchmark for CloudSeer's WorkflowMonitor.

Run from the repository root:

    python3 perfbench/run.py --workload table6 --seed 1 --seconds 21 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench/ (and the libraries it links) into .bench_build/, then
runs the C++ bench binary in fresh processes: each timed pass runs in a
child forked from a warmed-up process, so that every timed pass is the
first pass over its stream. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a "META {...}" line
before it records the machine, build, seed, configs and per-pass
figures. Exits 1 when any verdict gate
fails. perfbench/README.md defines the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
SCRATCH_DIR = os.path.join(".bench_build", "run")
TRACE_DIR = os.path.join(".bench_build", "trace")
BINARY = os.path.join(BUILD_DIR, "perfbench")
COMMITTED_CONFIGS = os.path.join("perfbench", "configs.json")
PROCESS_TIMEOUT_S = 150

# Per workload: the timed passes per run (together they feed --seconds
# of stream at the nominal rate in msg/s), and how many streams of the
# seed exec_miss_share is scored over. The stream length, not the clock,
# ends a pass, so the same seed and --seconds always give the same
# inputs. inflight1k's stream is its minimum of 2 tasks per user (about
# 33k lines, 2-3 s), so it gets fewer passes. The traffic shape itself
# lives in perfbench.cpp.
WORKLOADS = {
    "table6": {"rate": 250000.0, "passes": 48, "score_streams": 8},
    "inflight1k": {"rate": 13000.0, "passes": 8, "score_streams": 16},
    "vault_adverse": {"rate": 90000.0, "passes": 24, "score_streams": 4},
}

# Processes the timed passes of a --trace 0 run are split over.
TIME_GROUPS = 3

# Time and trace processes per --trace 1 run.
TRACE_REPS = 3
# Untimed scoring processes run side by side, between the timed ones.
SCORE_WORKERS = 4

END_TO_END_UNITS = {
    "msgs_per_s": "msg/s",
    "feed_p50_us": "us",
    "feed_p99_us": "us",
    "allocs_per_msg": "count",
    "heap_peak_mb": "MB",
    "setup_s": "s",
    "exec_miss_share": "ratio",
}

PER_LAYER_UNITS = {
    "logging.decode_ns": "ns",
    "logging.extract_ns": "ns",
    "logging.intern_ns": "ns",
    "logging.allocs_per_line": "count",
    "logging.interner_entries": "count",
    "logging.malformed_lines": "count",
    "monitor.feed_ns": "ns",
    "monitor.guard_ns": "ns",
    "monitor.problem_call_us": "us",
    "monitor.reorder_peak": "count",
    "monitor.duplicates_suppressed": "count",
    "monitor.clamped": "count",
    "monitor.groups_shed": "count",
    "checker.sweep_ns": "ns",
    "checker.feed_ns": "ns",
    "checker.allocs_per_msg": "count",
    "checker.groups_peak": "count",
    "checker.groups_mean": "count",
    "checker.idsets_peak": "count",
    "checker.probes_per_msg": "count",
    "checker.decisive_share": "ratio",
    "vault.append_ns": "ns",
    "vault.wal_bytes_per_line": "B",
    "vault.checkpoint_ms": "ms",
    "vault.checkpoint_bytes": "B",
    "vault.restore_ms": "ms",
    "vault.replayed_lines": "count",
    "obs.bundles": "count",
    "setup.mine_s": "s",
    "setup.model_io_ms": "ms",
    "setup.monitor_ctor_ms": "ms",
    "trace.overhead": "ratio",
}

# Per-layer metrics only the vaulted pass produces; 0 elsewhere.
VAULTED_ONLY = ("vault.checkpoint_ms", "vault.checkpoint_bytes",
                "vault.restore_ms", "vault.replayed_lines", "obs.bundles")


class BenchError(Exception):
    """Raised when the benchmark cannot produce a result at all."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        raise BenchError("run from the repository root")
    if not os.path.isdir("src"):
        raise BenchError("no src/ next to perfbench/: nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def bench_command(workload, mode, seed, lines, vault_dir, corrupt=False,
                  trace_out=None, score_index=0, stream_cache=None,
                  passes=1):
    cmd = [BINARY, "--workload", workload, "--mode", mode,
           "--seed", str(seed), "--lines", str(lines),
           "--score-index", str(score_index), "--passes", str(passes),
           "--vault-dir", vault_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if stream_cache:
        cmd += ["--stream-cache", stream_cache]
    if corrupt:
        cmd.append("--corrupt-digest")
    return cmd


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_bench(workload, mode, seed, lines, tag, **kwargs):
    """One bench process; returns (exit code, parsed result or None)."""
    vault_dir = os.path.join(SCRATCH_DIR, tag)
    shutil.rmtree(vault_dir, ignore_errors=True)
    cmd = bench_command(workload, mode, seed, lines, vault_dir, **kwargs)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    finally:
        shutil.rmtree(vault_dir, ignore_errors=True)
    return proc.returncode, parse_result(proc.stdout)


def run_parallel(commands):
    """Run commands SCORE_WORKERS at a time; returns (code, result)s."""
    out = []
    for start in range(0, len(commands), SCORE_WORKERS):
        batch = [subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True)
                 for cmd in commands[start:start + SCORE_WORKERS]]
        try:
            for proc in batch:
                stdout, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
                out.append((proc.returncode, parse_result(stdout)))
        finally:
            for proc in batch:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def hist_quantile(counts, lo_us, ratio, q):
    """Quantile q of pooled [bin, count] pairs (bin k holds
    [lo_us * ratio^k, lo_us * ratio^(k+1))): the call of rank
    q * (n - 1), placed geometrically inside its bin by its rank there."""
    counts = sorted(counts.items())
    total = sum(n for _, n in counts)
    if total == 0:
        return 0.0
    rank = q * (total - 1)
    seen = 0
    for k, n in counts:
        if seen + n > rank:
            frac = (rank - seen + 0.5) / n
            return lo_us * ratio ** (k + frac)
        seen += n
    return lo_us * ratio ** (counts[-1][0] + 1)


def composite_pass(passes, lo_us, ratio):
    """(msgs_per_s, feed_p50_us, feed_p99_us) of the composite pass.

    Every pass runs the same stream, cut into the same slices. The
    composite takes each slice from the pass that ran it fastest: its
    wall time, and its calls' latencies. The host flips between a fast
    state and one up to 2x slower every fraction of a second (memory
    contention from outside the machine), so a slow spell in one pass
    costs only the slices it covers, and only if every other pass was
    slow there too.
    """
    lines = passes[0]["lines"]
    seconds = 0.0
    counts = {}
    for index in range(len(passes[0]["slice_s"])):
        best = min(passes, key=lambda p: p["slice_s"][index])
        seconds += best["slice_s"][index]
        for k, n in best["slice_counts"][index]:
            counts[k] = counts.get(k, 0) + n
    return (lines / seconds, hist_quantile(counts, lo_us, ratio, 0.50),
            hist_quantile(counts, lo_us, ratio, 0.99))


def source_digest():
    """SHA-1 over the program's sources (the checkout has no .git)."""
    sha = hashlib.sha1()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            sha.update(path.encode())
            with open(path, "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()


def git_commit():
    """HEAD of a git checkout rooted here; None elsewhere (the ceiling
    keeps git from reading any directory above this one)."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """One benchmark run: the processes, their gates and the metrics."""

    def __init__(self, workload, seed, seconds, passes, trace_reps,
                 lines_scale=1.0, score_streams=None):
        self.workload = workload
        self.seed = seed
        spec = WORKLOADS[workload]
        self.lines = int(seconds / passes * spec["rate"] * lines_scale)
        self.score_streams = score_streams or spec["score_streams"]
        self.passes = passes
        self.trace_reps = trace_reps
        # Per mode, what ran over the stream: the time mode's passes,
        # every other mode's process result.
        self.results = {}
        self.setups = []
        self.hist_scale = None
        self.failed = 0
        self.attempted = 0

    def process(self, mode, rep, trace_out=None, passes=1):
        tag = "%s-%s-%d" % (self.workload, mode, rep)
        cache = os.path.join(SCRATCH_DIR, "stream-%s-%d-%d.lines"
                             % (self.workload, self.seed, self.lines))
        code, result = run_bench(self.workload, mode, self.seed,
                                 self.lines, tag, trace_out=trace_out,
                                 stream_cache=cache, passes=passes)
        self.record(mode, code, result)
        if mode == "time" and len(result["passes"]) != passes:
            raise BenchError("time process ran %d of %d passes"
                             % (len(result["passes"]), passes))

    def record(self, mode, code, result):
        if result is None:
            raise BenchError("%s pass exited %d without a result"
                             % (mode, code))
        lines = int(result.get("lines", 0))
        self.attempted += lines
        if code != 0 or not result.get("gates_ok", False):
            self.failed += lines
        self.setups += result.get("setup_samples", [])
        if mode == "time":
            self.hist_scale = (result["hist_lo_us"], result["hist_ratio"])
            self.results.setdefault(mode, []).extend(result["passes"])
        else:
            self.results.setdefault(mode, []).append(result)

    def score(self, first, last):
        """Score streams [first, last) of the seed."""
        commands = []
        for index in range(first, last):
            vault_dir = os.path.join(SCRATCH_DIR, "score-%d" % index)
            commands.append(bench_command(
                self.workload, "score", self.seed, self.lines, vault_dir,
                score_index=index))
        for code, result in run_parallel(commands):
            self.record("score", code, result)

    def exec_miss_share(self):
        scored = self.results["score"]
        executions = sum(r["executions"] for r in scored)
        exact = sum(r["exactly_accepted"] for r in scored)
        return 1.0 - exact / executions if executions else 0.0

    def gate_digests(self):
        """Verdicts run on the message clock: every pass over the same
        stream and config must give the same report digest."""
        by_mode = {}
        for mode, results in self.results.items():
            if mode == "score":
                continue
            for result in results:
                by_mode.setdefault(result["digest"], []).append(mode)
        if len(by_mode) > 1:
            log("gate cross-process digests MISMATCH: %s" % by_mode)
            self.failed += 1
        else:
            log("gate cross-process digests ok (%s)" % list(by_mode))

    def setup_s(self):
        """Every setup sample's total (mining + model I/O + ctor), s."""
        return [mine + (io_ms + ctor_ms) / 1e3
                for mine, io_ms, ctor_ms in self.setups]

    def end_to_end(self):
        check = self.results["check"][0]
        rate, p50, p99 = composite_pass(self.results["time"],
                                        *self.hist_scale)
        return {
            "msgs_per_s": rate,
            "feed_p50_us": p50,
            "feed_p99_us": p99,
            "allocs_per_msg": check["allocs_per_msg"],
            "heap_peak_mb": check["heap_peak_mb"],
            "setup_s": median(self.setup_s()),
            "exec_miss_share": self.exec_miss_share(),
        }

    def per_layer(self):
        traces = self.results["trace"]
        metrics = {}
        for name in PER_LAYER_UNITS:
            values = [r[name] for r in traces if name in r]
            metrics[name] = median(values)
        for name in VAULTED_ONLY:
            values = [r[name] for r in self.results.get("vtrace", [])
                      if name in r]
            metrics[name] = median(values)
        for column, name in enumerate(("setup.mine_s", "setup.model_io_ms",
                                       "setup.monitor_ctor_ms")):
            metrics[name] = median([s[column] for s in self.setups])
        # Medians on each side; time and trace processes alternate, so
        # slow spells fall on both.
        traced_mode = "vtrace" if self.workload == "vault_adverse" else "trace"
        traced = median([r["traced_msgs_per_s"]
                         for r in self.results[traced_mode]])
        untraced = median([r["msgs_per_s"] for r in self.results["time"]])
        metrics["trace.overhead"] = untraced / traced - 1.0 if traced else 0.0
        return metrics

    def split_checks(self):
        """How far the traced split explains the untraced result.

        split_line_ns_x_rate: (logging.decode_ns + monitor.feed_ns) per
        line times the untraced whole-pass msgs_per_s, for each traced
        process paired with the time process run just before it (both
        whole passes, so one estimator on each side); the median over
        the pairs. 1.0 means the split accounts for all the time.
        checker_share_of_feed: checker sweep + feed over monitor.feed_ns
        in the same traced process; the median over processes.
        """
        pairs = zip(self.results["time"], self.results["trace"])
        split = [(t["logging.decode_ns"] + t["monitor.feed_ns"]) *
                 r["msgs_per_s"] / 1e9 for r, t in pairs]
        share = [(t["checker.sweep_ns"] + t["checker.feed_ns"]) /
                 t["monitor.feed_ns"] for t in self.results["trace"]
                 if t["monitor.feed_ns"] > 0]
        return {"split_line_ns_x_rate": median(split),
                "checker_share_of_feed": median(share)}

    def execute(self, trace, score):
        self.process("check", 0)
        if trace:
            # One untimed-against-traced pair per rep, side by side in
            # time, so the host's slow spells fall on both sides.
            os.makedirs(TRACE_DIR, exist_ok=True)
            for rep in range(self.trace_reps):
                self.process("time", rep)
                out = os.path.join(TRACE_DIR, self.workload + ".spans")
                self.process("trace", rep, trace_out=out)
                if self.workload == "vault_adverse":
                    vout = os.path.join(TRACE_DIR,
                                        self.workload + ".vault.spans")
                    self.process("vtrace", rep, trace_out=vout)
        else:
            # The host's speed holds for tens of seconds at a time, so
            # the passes go in TIME_GROUPS processes spread over the
            # run, with the untimed scoring between them.
            for group in range(TIME_GROUPS):
                self.process("time", group, passes=(
                    (group + 1) * self.passes // TIME_GROUPS -
                    group * self.passes // TIME_GROUPS))
                if score and group + 1 < TIME_GROUPS:
                    self.score(
                        group * self.score_streams // (TIME_GROUPS - 1),
                        (group + 1) * self.score_streams //
                        (TIME_GROUPS - 1))
        if score and trace:
            self.score(0, self.score_streams)
        self.gate_digests()

    def config_drift(self, live):
        """True when the binary's config dump differs from the committed
        one, i.e. a default changed what the metrics mean."""
        with open(COMMITTED_CONFIGS) as handle:
            committed = json.load(handle).get(self.workload)
        if committed == live:
            return False
        log("warning: %s config differs from %s; see META config"
            % (self.workload, COMMITTED_CONFIGS))
        return True

    def meta(self):
        check = self.results["check"][0]
        times = self.results.get("time", [])
        return {
            "config_drift": self.config_drift(check["config"]),
            "workload": self.workload,
            "seed": self.seed,
            "tasks_per_user": check["tasks_per_user"],
            "lines_per_pass": check["lines"],
            "hw_threads": os.cpu_count(),
            "compiler": check["compiler"],
            "build_type": check["build_type"],
            "git_commit": git_commit(),
            "source_sha1": source_digest(),
            "timed_passes": len(times),
            "feed_latency_samples": check["lines"],
            "feed_p99_samples_beyond": int(check["lines"] * 0.01),
            "problem_calls_per_rep": check["problem_calls"],
            "executions_scored": sum(
                r["executions"] for r in self.results.get("score", [])),
            "per_rep": {
                "msgs_per_s": [r["msgs_per_s"] for r in times],
                "restore_ms": [r["restore_ms"] for r in times],
                "feed_p50_us": [r["feed_p50_us"] for r in times],
                "feed_p99_us": [r["feed_p99_us"] for r in times],
                "setup_s": self.setup_s(),
            },
            "digest": check["digest"],
            "config": check["config"],
        }


def result_line(correct, attempted, failed, values, units):
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_once(args):
    run = Run(args.workload, args.seed, args.seconds,
              WORKLOADS[args.workload]["passes"], TRACE_REPS)
    run.execute(args.trace == 1, score=args.trace == 0)
    if args.trace == 1:
        values, units = run.per_layer(), PER_LAYER_UNITS
    else:
        values, units = run.end_to_end(), END_TO_END_UNITS
    meta = run.meta()
    meta["trace"] = args.trace
    if args.trace == 1:
        meta.update(run.split_checks())
        log("split_line_ns_x_rate %.3f, checker_share_of_feed %.3f"
            % (meta["split_line_ns_x_rate"], meta["checker_share_of_feed"]))
    print("META " + json.dumps(meta, sort_keys=True))
    correct = run.failed == 0
    print(result_line(correct, run.attempted, run.failed, values, units))
    return 0 if correct else 1


def smoke():
    """Tiny streams: every named metric prints with its unit, and a
    corrupted digest makes the bench binary exit nonzero."""
    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)
    want_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    problems = []
    if want_e2e != END_TO_END_UNITS:
        problems.append("end_to_end names/units differ from BENCHMARK.json")
    if want_layer != PER_LAYER_UNITS:
        problems.append("per_layer names/units differ from BENCHMARK.json")
    for workload in WORKLOADS:
        run = Run(workload, 7, 1.0, 2, 1, lines_scale=0.05,
                  score_streams=1)
        run.execute(trace=True, score=True)
        for values, units in ((run.end_to_end(), END_TO_END_UNITS),
                              (run.per_layer(), PER_LAYER_UNITS)):
            line = json.loads(result_line(True, 1, 0, values, units))
            for name, unit in units.items():
                got = line["metrics"].get(name)
                if (got is None or got["unit"] != unit or
                        not isinstance(got["value"], (int, float))):
                    problems.append("%s: %s missing" % (workload, name))
        if run.failed:
            problems.append("%s: a verdict gate failed" % workload)
        for mode in ("check", "trace"):
            code, _ = run_bench(workload, mode, 7, run.lines,
                                "smoke-corrupt", corrupt=True)
            if code == 0:
                problems.append("%s: corrupted digest in %s exited 0"
                                % (workload, mode))
    for problem in problems:
        log("smoke FAIL: " + problem)
    log("smoke %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-check on tiny streams")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        os.makedirs(SCRATCH_DIR, exist_ok=True)
        return smoke() if args.smoke else run_once(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        log("error: %s" % err)
        return 2
    finally:
        shutil.rmtree(SCRATCH_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
