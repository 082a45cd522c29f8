#!/usr/bin/env python3
"""The StatFI benchmark: four workloads through the user-facing surfaces.

    python3 benchsuite/run.py --workload NAME|all --seed S [--seconds N]
                              [--trace 0|1] [--build-dir DIR]
    python3 benchsuite/run.py --smoke

Every workload runs the real programs as child processes: the `statfi` CLI
for the three campaign workloads, `statfi serve` over loopback HTTP for the
service workload. Each run first builds `statfi`, the in-process probe
(`statfi_probe`) and a small launcher (`statfi_spawn`) from the source tree
this file sits in, into --build-dir; the first build takes about a minute.

--trace 0 measures the end-to-end metrics for --seconds and checks every
output. --trace 1 is the separate traced run: it walks the layer ladder on
the workload's first recipe (CLI run, in-process probes, shard children,
daemon job), prints the per-layer metrics and writes a Chrome trace. In both
modes the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it starts with
"# statfi-bench " and records the machine, the seed and the raw samples,
which compare.py reads.

Inputs are a pure function of --seed: each campaign run gets its own
recipe seed derived from it, so one run averages over several networks and
fault samples instead of timing one of them repeatedly.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent
RUNS = ROOT / ".bench_runs"  # per-run working directories, removed after
TRACES = RUNS / "traces"     # Chrome traces of --trace 1 runs, kept

# One recipe per workload, in the service's wire format: the CLI flags, the
# daemon's POST body and the probe's --recipe are all derived from it.
WORKLOADS = {
    # The paper's exhaustive reference on the smallest network: per-fault
    # work is tiny, every ensemble group is full and half the stuck-ats are
    # masked, so engine overhead and the journal weigh most.
    "census-micronet": {
        "model": "micronet", "approach": "exhaustive", "images": 4,
        "policy": "golden"},
    # The paper's method on the paper's network: deep suffixes make it
    # GEMM-bound, and data-aware analysis runs in set-up.
    "sample-resnet20": {
        "model": "resnet20", "approach": "data-aware", "margin": 0.12,
        "images": 1, "policy": "golden"},
    # The same core used differently: flips are never masked, faults are
    # spread over 70.5M weights, depthwise convs leave the GEMM path, and
    # memory use is the highest.
    "sample-mobilenetv2-flip": {
        "model": "mobilenetv2", "approach": "network-wise",
        "fault_model": "flip", "margin": 0.05, "images": 1,
        "policy": "golden"},
    # The only path through HTTP, the queue, the result cache and in-daemon
    # shards: fresh data-aware MicroNet recipes (writes) interleaved with
    # resubmissions of finished ones (cache hits, reads).
    "service-mixed": {
        "model": "micronet", "approach": "data-aware", "margin": 0.005,
        "images": 4, "policy": "golden"},
}
SERVICE = "service-mixed"

MIN_REPS = 3           # CLI runs per measured run, at least
WARM_RECIPES = 3       # service set-ups; their recipes are resubmitted
BLOCK = 6              # service requests per fresh recipe
CLIENTS = 2            # closed-loop service clients
SHARDS = 8             # shard children in the traced ladder
CLI_TIMEOUT = 170


class BenchError(RuntimeError):
    """A set-up failure: the benchmark cannot run here at all."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def sub_seed(seed, index):
    """Recipe seed number @p index of the run seeded with @p seed."""
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 2_000_000_000 + 1


def median(values):
    return statistics.median(values) if values else 0.0


# --- build -------------------------------------------------------------------

class Binaries:
    def __init__(self, build_dir):
        self.statfi = build_dir / "statfi" / "tools" / "statfi"
        self.probe = build_dir / "statfi_probe"
        self.spawn = build_dir / "statfi_spawn"


def build(build_dir):
    """Configure and build `statfi`, `statfi_probe` and `statfi_spawn`
    (incremental after the first run), then refuse builds that would time
    the wrong thing."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no StatFI source tree at {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(SUITE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
              "statfi_cli", "statfi_probe", "statfi_spawn"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    bins = Binaries(build_dir)
    info = json.loads(subprocess.run([str(bins.probe), "build-info"],
                                     capture_output=True, check=True,
                                     timeout=30).stdout)
    cache = (build_dir / "CMakeCache.txt").read_text()
    if (not info["optimized"] or not info["ndebug"] or info["sanitizers"]
            or re.search(r"^(CMAKE_\w*FLAGS\w*:\w+=.*-fsanitize"
                         r"|STATFI_SANITIZE:\w+=\S)", cache, re.M)):
        raise BenchError(f"refusing to time this build: {info}; rebuild "
                         f"{build_dir} as Release without sanitizers")
    return bins


def machine_stamp(bins):
    version = json.loads(subprocess.run([str(bins.statfi), "version", "--json"],
                                        capture_output=True, check=True,
                                        timeout=30).stdout)
    flags = []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = sorted(f for f in line.split(":", 1)[1].split()
                               if re.match(r"(avx|fma|sse4|f16c)", f))
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "kernels": version.get("kernels"),
            "kernels_available": version.get("kernels_available"),
            "cpu": version.get("cpu"), "cpu_flags": flags}


# --- tracing -----------------------------------------------------------------

def now_us():
    return time.monotonic_ns() / 1000.0


class Tracer:
    """Spans held in memory and written once as a Chrome trace. Each span
    has a name, start, end and parent; one trace id covers the run. Self
    time is a span's duration minus the part its children cover."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []   # [name, start_us, end_us, parent, pid, args]
        self.stack = []

    @contextmanager
    def span(self, name, **args):
        self.spans.append([name, now_us(), None,
                           self.stack[-1] if self.stack else -1, 1, args])
        index = len(self.spans) - 1
        self.stack.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = now_us()
            self.stack.pop()

    def add(self, name, start_s, end_s, parent=None, **args):
        """A finished span (monotonic seconds) under @p parent, by default
        the open one."""
        if parent is None:
            parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start_s * 1e6, end_s * 1e6, parent, 1, args])
        return len(self.spans) - 1

    def add_probe(self, path):
        """Spans the probe recorded, re-parented under the open span."""
        base = len(self.spans)
        for s in json.loads(Path(path).read_text()):
            parent = base + s["parent"] if s["parent"] >= 0 else self.stack[-1]
            self.spans.append([s["name"], s["start_us"], s["end_us"], parent,
                               2, {}])

    def write(self, path, stamp):
        children = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s[3], []).append(i)
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": name}}
                  for pid, name in ((1, "run.py"), (2, "statfi_probe"))]
        for i, (name, start, end, parent, pid, args) in enumerate(self.spans):
            end = start if end is None else end
            covered, cursor = 0.0, start
            for c in sorted(children.get(i, []),
                            key=lambda c: self.spans[c][1]):
                lo = max(cursor, self.spans[c][1])
                hi = min(end, self.spans[c][2] or lo)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            events.append({"name": name, "ph": "X", "ts": start,
                           "dur": end - start, "pid": pid, "tid": 1,
                           "args": dict(args, span_id=i, parent_id=parent,
                                        trace_id=self.trace_id,
                                        self_us=end - start - covered)})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "otherData": dict(stamp,
                                                      trace_id=self.trace_id)}))


# --- the CLI surface ---------------------------------------------------------

def cli_args(recipe):
    """`statfi` flags describing @p recipe."""
    args = ["--model", recipe["model"], "--approach", recipe["approach"],
            "--images", str(recipe["images"]), "--policy", recipe["policy"],
            "--seed", str(recipe["seed"])]
    if "margin" in recipe:
        args += ["--margin", str(recipe["margin"])]
    if "fault_model" in recipe:
        args += ["--fault-model", recipe["fault_model"]]
    return args


def run_cli(bins, recipe, workdir, tag, env, tracer=None):
    """One campaign through the CLI. Set-up ends at the stderr line the CLI
    prints just before classifying; classification ends at exit."""
    census = recipe["approach"] == "exhaustive"
    out_json = workdir / f"{tag}.json"
    table = workdir / f"{tag}.sfio"
    args = (["exhaustive", "--out", str(table)] if census else ["campaign"])
    args += cli_args(recipe) + ["--json", "--journal",
                                str(workdir / f"{tag}.sfij")]
    marker = b"exhaustive census:" if census else b"running on"
    rep = {"seed": recipe["seed"], "json": out_json,
           "table": table if census else None}
    report = workdir / f"{tag}.spawn"
    with open(out_json, "wb") as out:
        proc = subprocess.Popen([str(bins.spawn), str(report), str(bins.statfi)]
                                + args, stdout=out, stderr=subprocess.PIPE,
                                env=env, start_new_session=True)
        killer = threading.Timer(CLI_TIMEOUT, os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        marked, seen = None, b""
        while chunk := os.read(proc.stderr.fileno(), 1 << 16):
            if marked is None:
                seen += chunk
                if marker in seen:
                    marked = time.monotonic()
        proc.wait()
        killer.cancel()
        proc.stderr.close()
    spawned = json.loads(report.read_text())
    start = spawned["spawn_ns"] * 1e-9
    if "exit_ns" not in spawned:  # killed with its launcher at the timeout
        rep.update(exit=proc.returncode, wall_s=CLI_TIMEOUT, ok=False,
                   error=f"killed after {CLI_TIMEOUT} s")
        return rep
    end = spawned["exit_ns"] * 1e-9
    rep.update(exit=proc.returncode, wall_s=end - start,
               rss_mb=spawned["maxrss_kb"] / 1024.0, ok=False)
    if tracer:
        span = tracer.add("cli_rep", start, end, seed=recipe["seed"])
        tracer.add("setup", start, marked or end, parent=span)
        if marked:
            tracer.add("classify", marked, end, parent=span)
    if proc.returncode != 0 or marked is None:
        rep["error"] = f"exit {proc.returncode}"
        return rep
    try:
        doc = json.loads(out_json.read_text())
    except ValueError as e:
        rep["error"] = f"bad JSON: {e}"
        return rep
    rep.update(doc=doc, setup_s=marked - start, classify_s=end - marked,
               faults=doc["classified"] if census else doc["total_injected"],
               ok=not doc.get("interrupted", False))
    return rep


def same_campaign(a, b):
    """Two campaign documents (CLI, shard merge or served result.json)
    report the same outcome; timing and the producing command aside."""
    keys = ("total_injected", "total_critical", "network", "critical_rate",
            "layers")
    shared = [k for k in keys if k in a and k in b]
    return "layers" in shared and all(a[k] == b[k] for k in shared)


def probe_check(bins, recipe, rep, seed, env):
    args = [str(bins.probe), "check", "--recipe", json.dumps(recipe),
            "--cli-json", str(rep["json"]), "--check-seed", str(seed)]
    if rep["table"]:
        args += ["--table", str(rep["table"])]
    done = subprocess.run(args, capture_output=True, env=env, timeout=170)
    try:
        verdict = json.loads(done.stdout)
    except ValueError:
        return {"ok": False, "notes": [done.stderr.decode()[-300:]]}
    return verdict


def cli_workload(recipe, args, bins, workdir, env):
    """Measure CLI runs for --seconds, then check every output. Each run has
    its own recipe seed, except that the second repeats the first: the two
    must give the same answer (the same table bytes for a census). The
    probe then spot-checks each run against the reference."""
    reps = []
    start = time.monotonic()
    while True:
        index = 0 if len(reps) == 1 else len(reps)
        r = dict(recipe, seed=sub_seed(args.seed, index))
        reps.append(run_cli(bins, r, workdir, f"rep{len(reps)}", env))
        elapsed = time.monotonic() - start
        typical = median([x["wall_s"] for x in reps])
        if len(reps) >= max(2, args.min_reps) and \
                elapsed + typical > args.seconds:
            break

    first, again = reps[0], reps[1]
    if first["ok"] and again["ok"]:
        if first["table"]:
            same = first["table"].read_bytes() == again["table"].read_bytes()
        else:
            same = same_campaign(first["doc"], again["doc"])
        if not same:
            again.update(ok=False, error="rerun of the same recipe differs")
    for i, rep in enumerate(reps):
        if rep["ok"]:
            verdict = probe_check(bins, dict(recipe, seed=rep["seed"]), rep,
                                  sub_seed(args.seed, 1000 + i), env)
            if not verdict["ok"]:
                rep.update(ok=False, error="check: " + "; ".join(
                    verdict.get("notes", [])))

    good = [r for r in reps if r["ok"]]
    metrics = {
        "setup_s": median([r["setup_s"] for r in good]),
        "faults_per_s": median([r["faults"] / r["classify_s"] for r in good]),
        "job_p50_s": median([r["wall_s"] for r in good]),
        "peak_rss_mb": median([r["rss_mb"] for r in good]),
    }
    samples = [{k: rep.get(k) for k in ("seed", "ok", "error", "setup_s",
                                        "classify_s", "wall_s", "rss_mb",
                                        "faults")} for rep in reps]
    return metrics, len(reps), len(reps) - len(good), samples


# --- the service surface -----------------------------------------------------

def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CLI_TIMEOUT)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Daemon:
    """`statfi serve` as a child process, stopped on leaving its `with`
    block; `spawned` is its spawn time on the time.monotonic() clock."""

    def __init__(self, bins, state, env):
        self.state = state
        self.report = state.with_suffix(".spawn")
        self.rss_mb = None
        self.proc = subprocess.Popen(
            [str(bins.spawn), str(self.report), str(bins.statfi), "serve",
             "--port", "0", "--workers", "2", "--shards", "2", "--state",
             str(state)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
            start_new_session=True)
        try:
            line = self.proc.stderr.readline().decode()
            found = re.search(r"127\.0\.0\.1:(\d+)", line)
            if not found:
                raise BenchError(f"statfi serve did not start: {line!r}")
            self.port = int(found.group(1))
            self.spawned = json.loads(self.report.read_text())["spawn_ns"] * 1e-9
            while request(self.port, "GET", "/healthz")[0] != 200:
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        self.drain = threading.Thread(target=self.proc.stderr.read)
        self.drain.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def stop(self):
        """SIGTERM and reap (SIGKILL after 30 s); records the daemon's peak
        RSS in MiB."""
        if self.rss_mb is not None:
            return self.rss_mb
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        if hasattr(self, "drain"):
            self.drain.join()
        self.proc.stderr.close()
        spawned = json.loads(self.report.read_text())
        self.rss_mb = spawned.get("maxrss_kb", 0) / 1024.0
        return self.rss_mb


def submit(port, recipe, poll=None):
    """POST a recipe, wait on events?follow=1 until its stream ends, then
    GET result.json. With @p poll, a 2 ms /status poller records when the
    job left the queue and when /status first said done."""
    op = {"t0": time.monotonic(), "ok": False}
    status, body = request(port, "POST", "/campaigns", json.dumps(recipe))
    op["t_submit"] = time.monotonic()
    if status not in (200, 202):
        op["error"] = f"POST {status}"
        return op
    job = json.loads(body)
    op["cached"] = bool(job.get("cached"))
    states, stop = {}, threading.Event()

    def poller():
        while not stop.is_set():
            body = request(port, "GET", f"/campaigns/{job['id']}/status")[1]
            states.setdefault(json.loads(body)["state"], time.monotonic())
            time.sleep(0.002)

    thread = threading.Thread(target=poller) if poll else None
    if thread:
        thread.start()
    status, _ = request(port, "GET", f"/campaigns/{job['id']}/events?follow=1")
    op["t_follow"] = time.monotonic()
    if thread:
        while "done" not in states and "failed" not in states and \
                time.monotonic() - op["t_follow"] < 1:
            time.sleep(0.001)
        stop.set()
        thread.join()
        op["states"] = states
    status, result = request(port, "GET", f"/campaigns/{job['id']}/result.json")
    op["t_result"] = time.monotonic()
    op["latency"] = op["t_result"] - op["t0"]
    if status != 200:
        op["error"] = f"result.json {status}"
        return op
    op.update(result=result, ok=True)
    return op


def matches_cli(bins, recipe, served, workdir, tag, env):
    """A served result equals `statfi campaign --json` of the same recipe."""
    rep = run_cli(bins, recipe, workdir, tag, env)
    return rep["ok"] and same_campaign(json.loads(served), rep["doc"])


def planned_request(seed, index):
    """Request @p index of the stream: in each block of BLOCK requests one
    fresh recipe (its seed derived from the block) at a seeded place, and
    resubmissions of a seeded warm recipe everywhere else."""
    block, place = divmod(index, BLOCK)
    if place == random.Random(f"{seed}/block/{block}").randrange(BLOCK):
        return "fresh", sub_seed(seed, block)
    warm = random.Random(f"{seed}/request/{index}").randrange(WARM_RECIPES)
    return "hit", warm


def service_workload(recipe, args, bins, workdir, env):
    """Closed loop: CLIENTS threads, each sending its next request only when
    the previous one is verified. The request stream is fixed by the seed:
    fresh recipes interleaved with resubmissions of WARM_RECIPES finished
    ones, which the daemon answers from its cache.

    Set-up fills that cache: WARM_RECIPES times, a daemon starts on the
    shared state directory, runs one warm recipe and stops. Each set-up is
    timed from spawn to the verified result of its job, so work moved into
    the daemon's start shows as set-up time."""
    state, warm, setups = workdir / "state", [], []
    for j in range(WARM_RECIPES):
        r = dict(recipe, seed=sub_seed(args.seed, 10_000 + j))
        with Daemon(bins, state, env) as daemon:
            op = submit(daemon.port, r)
        if not op["ok"] or op["cached"]:
            raise BenchError(f"warm-up job failed: {op.get('error')}")
        setups.append(op["t_result"] - daemon.spawned)
        warm.append((r, op["result"]))
    ops, lock = [], threading.Lock()
    with Daemon(bins, state, env) as daemon:
        start = time.monotonic()

        def client():
            while True:
                with lock:
                    if time.monotonic() - start >= args.seconds or \
                            len(ops) >= args.max_requests:
                        return
                    kind, what = planned_request(args.seed, len(ops))
                    record = {"kind": kind, "ok": False}
                    ops.append(record)
                r = (dict(recipe, seed=what) if kind == "fresh"
                     else warm[what][0])
                record["recipe"] = r
                try:
                    record.update(submit(daemon.port, r))
                except (OSError, ValueError, http.client.HTTPException) as e:
                    record["error"] = str(e)
                if not record["ok"]:
                    continue
                if kind == "hit":
                    record["ok"] = record["result"] == warm[what][1]
                    if not record["ok"]:
                        record["error"] = "cache hit differs from the first"
                else:
                    record["faults"] = json.loads(record["result"]).get(
                        "total_injected", 0)
                    record["ok"] = record["faults"] > 0

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.monotonic() - start

    fresh = [op for op in ops if op["kind"] == "fresh" and op["ok"]]
    for i in random.Random(args.seed).sample(range(len(fresh)),
                                             min(2, len(fresh))):
        if not matches_cli(bins, fresh[i]["recipe"], fresh[i]["result"],
                           workdir, f"direct{i}", env):
            fresh[i].update(ok=False, error="served result != statfi campaign")
    fresh = [op for op in fresh if op["ok"]]
    good = [op for op in ops if op["ok"]]
    metrics = {
        "setup_s": median(setups),
        "faults_per_s": sum(op["faults"] for op in fresh) / wall,
        "job_p50_s": median([op["latency"] for op in good]),
        "peak_rss_mb": daemon.rss_mb,
    }
    samples = {"setup_s": setups, "wall_s": wall,
               "requests": [{"kind": op["kind"], "ok": op["ok"],
                             "latency": op.get("latency"),
                             "error": op.get("error")} for op in ops]}
    return metrics, len(ops), len(ops) - len(good), samples


# --- the traced ladder -------------------------------------------------------

def ladder(name, recipe, args, bins, workdir, env, tracer):
    """kernel -> node -> evaluate_group -> engine -> shard child -> daemon
    job, all on the workload's first recipe. Returns the per-layer metrics,
    the operation counts, and the end-to-end values seen while tracing."""
    attempted, failed, notes = 0, 0, []

    def expect(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            notes.append(what)
        return ok

    r0 = dict(recipe, seed=sub_seed(args.seed, 0))
    with tracer.span("workload", workload=name, seed=r0["seed"]):
        with tracer.span("cli"):
            rep = run_cli(bins, r0, workdir, "rep0", env, tracer)
        if not expect(rep["ok"], f"CLI run failed: {rep.get('error')}"):
            return {}, attempted, failed, notes, {}
        # The same measurement as an untraced CLI run, for the overhead;
        # the service workload's ladder has no counterpart of its stream.
        traced = {} if name == SERVICE else {
            "setup_s": rep["setup_s"],
            "faults_per_s": rep["faults"] / rep["classify_s"],
            "job_p50_s": rep["wall_s"], "peak_rss_mb": rep["rss_mb"]}

        with tracer.span("probe"):
            spans = workdir / "probe-spans.json"
            probe = [str(bins.probe), "ladder", "--recipe", json.dumps(r0),
                     "--cli-json", str(rep["json"]), "--check-seed",
                     str(sub_seed(args.seed, 1000)),
                     "--classify-s", repr(rep["classify_s"]),
                     "--spans", str(spans),
                     "--quick", "1" if args.smoke else "0"]
            if rep["table"]:
                probe += ["--table", str(rep["table"])]
            done = subprocess.run(probe, capture_output=True, env=env,
                                  timeout=CLI_TIMEOUT)
            if spans.exists():
                tracer.add_probe(spans)
        try:
            verdict = json.loads(done.stdout)
        except ValueError:
            verdict = {"ok": False, "notes": [done.stderr.decode()[-300:]]}
        if not expect(verdict["ok"], "probe: " + "; ".join(verdict["notes"])):
            return {}, attempted, failed, notes, traced
        m = dict(verdict["metrics"])
        core_s = verdict["items"] / m["core.faults_per_s"]

        with tracer.span("shards"):
            manifest = workdir / "ladder.sfim"
            census = r0["approach"] == "exhaustive"
            children = []
            shards = min(args.shards, verdict["items"])
            plan = subprocess.run(
                [str(bins.statfi), "shard", "plan", "--manifest", str(manifest),
                 "--shards", str(shards)] + cli_args(r0),
                capture_output=True, env=env, timeout=CLI_TIMEOUT)
            planned = expect(plan.returncode == 0, "shard plan failed")
            for k in range(shards if planned else 0):
                t0 = time.monotonic()
                child = subprocess.run(
                    [str(bins.statfi), "shard", "run", "--manifest",
                     str(manifest), "--shard", str(k)],
                    capture_output=True, env=env, timeout=CLI_TIMEOUT)
                t1 = time.monotonic()
                tracer.add(f"shard_child {k}", t0, t1)
                children.append(t1 - t0)
                expect(child.returncode == 0, f"shard {k} failed")
            merged_table = workdir / "merged.sfio"
            t0 = time.monotonic()
            merge = subprocess.run(
                [str(bins.statfi), "shard", "merge", "--manifest",
                 str(manifest), "--json"]
                + (["--out", str(merged_table)] if census else []),
                capture_output=True, env=env, timeout=CLI_TIMEOUT)
            t1 = time.monotonic()
            tracer.add("shard_merge", t0, t1)
            if expect(merge.returncode == 0, "shard merge failed"):
                doc = json.loads(merge.stdout)
                same = (merged_table.read_bytes() == rep["table"].read_bytes()
                        if census else same_campaign(doc, rep["doc"]))
                expect(same, "merged shards differ from the direct run")
        m["shard.child_s"] = sum(children) / len(children) if children else 0
        m["shard.merge_s"] = t1 - t0
        m["shard.child_share"] = core_s / sum(children) if children else 0

        with tracer.span("service"):
            with Daemon(bins, workdir / "ladder-state", env) as daemon:
                fresh = submit(daemon.port, r0, poll=True)
                hit = submit(daemon.port, r0)
            queue = daemon.state / "queue.sfiq"
            queue_kb = queue.stat().st_size / 1024 if queue.exists() else 0
            for op, label in ((fresh, "fresh"), (hit, "hit")):
                span = tracer.add(f"request {label}", op["t0"],
                                  op.get("t_result", op["t_submit"]))
                tracer.add("POST", op["t0"], op["t_submit"], parent=span)
                if "t_follow" in op:
                    tracer.add("follow", op["t_submit"], op["t_follow"],
                               parent=span)
                    tracer.add("result", op["t_follow"], op["t_result"],
                               parent=span)
        expect(fresh["ok"] and same_campaign(json.loads(fresh["result"]),
                                             rep["doc"]),
               "served result differs from the CLI")
        expect(hit["ok"] and hit.get("result") == fresh.get("result"),
               "cache hit differs from the first result")
        if fresh["ok"] and hit["ok"]:
            states = fresh["states"]
            left_queue = min((t for s, t in states.items() if s != "queued"),
                             default=fresh["t_submit"])
            done_at = states.get("done", fresh["t_follow"])
            m.update({
                "service.submit_ms": 1e3 * (fresh["t_submit"] - fresh["t0"]),
                "service.queue_wait_ms": 1e3 * (left_queue - fresh["t_submit"]),
                "service.run_s": done_at - left_queue,
                "service.notice_ms": 1e3 * (fresh["t_follow"] - done_at),
                "service.result_ms": 1e3 * (fresh["t_result"]
                                            - fresh["t_follow"]),
                "service.hit_ms": 1e3 * hit["latency"],
                "service.job_share": rep["wall_s"] / fresh["latency"],
                "io.queue_kb": queue_kb,
            })
    return m, attempted, failed, notes, traced


# --- main --------------------------------------------------------------------

def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name, args, bins, stamp):
    """One run of one workload: (the stamp, the result line)."""
    bench = load_benchmark()
    recipe = WORKLOADS[name]
    if args.smoke:
        recipe = (dict(recipe, images=1) if recipe["approach"] == "exhaustive"
                  else dict(recipe, margin=0.5))
    workdir = RUNS / f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, STATFI_CACHE_DIR=str(workdir / "cache"))
    info = dict(stamp, workload=name, seed=args.seed, trace=args.trace,
                recipe=recipe)
    try:
        if args.trace:
            tracer = Tracer(hashlib.sha256(
                f"{name}/{args.seed}".encode()).hexdigest()[:16])
            metrics, attempted, failed, notes, traced = ladder(
                name, recipe, args, bins, workdir, env, tracer)
            trace_path = TRACES / f"{name}-seed{args.seed}.json"
            tracer.write(trace_path, info)
            info.update(trace_file=str(trace_path), notes=notes,
                        traced_e2e=traced)
            names = [m["name"] for m in bench["per_layer"]]
        else:
            if name == SERVICE:
                metrics, attempted, failed, samples = service_workload(
                    recipe, args, bins, workdir, env)
            else:
                metrics, attempted, failed, samples = cli_workload(
                    recipe, args, bins, workdir, env)
            info["samples"] = samples
            names = [m["name"] for m in bench["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    out = {n: {"value": metrics[n], "unit": units[n]}
           for n in names if n in metrics}
    result = {"correct": failed == 0 and len(out) == len(names),
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": out}
    return info, result


def smoke(args):
    """Every workload at smoke size, untraced and traced: each metric named
    in BENCHMARK.json must appear with its unit and nothing may fail."""
    bench = load_benchmark()
    bins = build(Path(args.build_dir))
    stamp = machine_stamp(bins)
    args.seconds, args.min_reps, args.max_requests, args.shards = \
        0, 1, 2 * BLOCK, 2
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args.trace = trace
        for name in WORKLOADS:
            start = time.monotonic()
            _, result = run_workload(name, args, bins, stamp)
            log(f"smoke: {name} trace {trace}: "
                f"{time.monotonic() - start:.1f} s")
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                if not got or got["unit"] != m["unit"]:
                    problems.append(f"{name}: {m['name']} missing")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} (trace {trace}): "
                                f"{result['failed']} failed")
    for p in problems:
        log("smoke: " + p)
    print(json.dumps({"ok": not problems}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir", default=str(ROOT / ".bench_build"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    args.min_reps, args.max_requests, args.shards = \
        MIN_REPS, float("inf"), SHARDS
    try:
        if args.smoke:
            return smoke(args)
        if not args.workload:
            parser.error("--workload is required")
        bins = build(Path(args.build_dir))
        stamp = machine_stamp(bins)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        correct = True
        for name in names:
            info, result = run_workload(name, args, bins, stamp)
            print("# statfi-bench " + json.dumps(info, default=str))
            print(json.dumps(result), flush=True)
            correct = correct and result["correct"]
        return 0 if correct else 1
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"statfi-bench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
