#!/usr/bin/env python3
"""The repository benchmark: closed loops of user-visible mrefine jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

  refine-scale    cold `mrefine refine` + `mrefine lint` pairs on generated
                  specs at 1, 2, 4 and 8 times the medical spec's size
  fault-campaign  cold `mrefine faults` and `mrefine litmus` runs
  serve-mixed     a live `mrefine serve` daemon driven over its Unix socket
                  and over authenticated TCP by one client, one job in
                  flight at a time

BENCHMARK.json gates refine-scale and serve-mixed; fault-campaign is run
the same way but not gated (perfbench/README.md, "Run-to-run spread").

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
replays the workload's jobs in-process (perfbench/tool/pbtool.ml) with a
span around every call into a layer and reports the per-layer metrics.
Every job's output is checked; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The lines before it
report every metric by name and unit, plus the run's context.

--workload all runs the three in turn and prints each one's lines prefixed
with its name.

The script builds the program from source with dune first and exits 2,
printing no result, when the checkout cannot be built.
"""

import argparse
import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
MR = os.path.join("_build", "default", "bin", "mrefine.exe")
PB = os.path.join("_build", "default", BENCH, "tool", "pbtool.exe")
EXAMPLES = os.path.join("examples", "specs")
SHIPPED = ["fig1", "fig2", "medical", "fir", "elevator", "pingpong"]
MEDICAL = os.path.join(EXAMPLES, "medical.sc")
# Fault campaigns run on elevator, whose divisors are all constants: an
# injected fault that zeroes medical's `count` divisor crashes the campaign
# (README, defect 6).
ELEVATOR = os.path.join(EXAMPLES, "elevator.sc")
# CLI set-ups per run, about 0.15 s each; setup_s is their median.
SETUP_REPEATS = 15
JOB_TIMEOUT_S = 60.0
MIN_SAMPLES = 110  # at least 10 samples beyond the p90 of every run
VERIFY_PROCS = 2  # output checks after the timed loop run on nproc processes
RSS_AT_JOBS = 600  # serve-mixed reads the daemon's VmHWM after this many jobs
# The daemon keeps every job and refuses submits past its 4096-job table
# (README, defect 4): a run stops starting decks well before that, however
# fast the daemon gets.
SUBMIT_CAP = 3500
HELD_OUT_SEED = 9001

# The per-layer metrics a workload reports with --trace 1: the layers all
# three workloads pass through, plus check, print and lint for the two in
# BENCHMARK.json, which both run refine and lint jobs.  The rest are
# printed as "layer" lines and written to the result file.
COMMON_LAYER = [
    ("spec.parse_ms", "ms"),
    ("spec.validate_ms", "ms"),
    ("spec.typecheck_ms", "ms"),
    ("agraph.build_ms", "ms"),
    ("partition.greedy_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("spec.bytes", "count"),
    ("core.refined_lines", "count"),
    ("trace.overhead_pct", "%"),
]
REFINE_LINT_LAYER = COMMON_LAYER + [
    ("core.check_ms", "ms"),
    ("spec.print_ms", "ms"),
    ("lint.race_ms", "ms"),
    ("lint.conformance_ms", "ms"),
    ("lint.liveness_ms", "ms"),
    ("lint.contention_ms", "ms"),
    ("lint.width_ms", "ms"),
    ("lint.typecheck_ms", "ms"),
    ("lint.diagnostics", "count"),
]


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-th quantile (0 < q < 1): a
    beta-weighted mean of the order statistics.  Unlike a single order
    statistic it does not jump between the modes of a job mix whose
    kinds leave a gap at the quantile."""
    s = sorted(values)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(s))


# --- build and context ------------------------------------------------------


def build():
    for need in ("dune-project", os.path.join("bin", "mrefine.ml"), MEDICAL):
        if not os.path.exists(need):
            die(f"{need} is missing: run from the root of a full checkout")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./" + MR, "./" + PB],
        capture_output=True, env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        die("build failed")


def tree_digest():
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", BENCH):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top)
            if "_work" not in d for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def steal_seconds():
    """CPU time the hypervisor took from this machine's CPUs (the steal
    column of /proc/stat), or 0 where the kernel does not report it.
    Printed beside the metrics: it rises when other tenants load the host,
    which is when runs are slow."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def context(args):
    commit = None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           timeout=10)
        if r.returncode == 0:
            commit = r.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        ocaml = subprocess.run(["ocamlopt", "-version"],
                               capture_output=True, timeout=10
                               ).stdout.decode().strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        ocaml = "unknown"
    cpu = platform.processor() or "unknown"
    mem = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as f:
            mem = f.readline().split(":", 1)[1].strip()
    except OSError:
        pass
    machine = f"{platform.machine()}|{cpu}|{os.cpu_count()}|{mem}"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit or "tree:" + tree_digest(),
        "nproc": os.cpu_count(),
        "ocaml": ocaml,
        "python": platform.python_version(),
        "machine": digest(machine.encode()),
        "machine_desc": machine,
    }


# --- running the program ----------------------------------------------------


class Sample:
    """One job of the timed loop and what the output check decided."""

    def __init__(self, key, kind, latency_s, ok, reason="", out=b"",
                 rss_kb=0, hit=None, submit_s=0.0):
        self.key = key
        self.kind = kind
        self.latency_s = latency_s
        self.ok = ok
        self.reason = reason
        self.out = out
        self.rss_kb = rss_kb
        self.hit = hit
        self.submit_s = submit_s


class Spawner:
    """The perfbench/spawn.py process, which runs every cold mrefine
    process so that the child's peak RSS is not the benchmark's own (see
    that file)."""

    proc = None

    @classmethod
    def run(cls, argv, errfile):
        if cls.proc is None:
            cls.proc = subprocess.Popen(
                [sys.executable, "-S", os.path.join(BENCH, "spawn.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        outfile = errfile + ".out"
        req = {"argv": [MR] + argv, "out": outfile, "err": errfile,
               "timeout": JOB_TIMEOUT_S}
        cls.proc.stdin.write(json.dumps(req).encode() + b"\n")
        cls.proc.stdin.flush()
        line = cls.proc.stdout.readline()
        if not line:
            raise BenchError("the spawner exited")
        with open(outfile, "rb") as f:
            return json.loads(line), f.read()

    @classmethod
    def stop(cls):
        if cls.proc is not None:
            cls.proc.stdin.close()
            cls.proc.wait()
            cls.proc.stdout.close()
            cls.proc = None


def run_cli(argv, errfile):
    """Run one cold mrefine process; returns (exit code, stdout, seconds,
    the child's peak RSS in kB).  The clock runs from spawn to exit."""
    r, out = Spawner.run(argv, errfile)
    return r["code"], out, r["seconds"], r["maxrss_kb"]


def run_pbtool(args, what):
    r = subprocess.run([PB] + args, capture_output=True)
    if r.returncode not in (0, 1) or (r.returncode == 1 and what != "verify"):
        raise BenchError(f"pbtool {what} failed: "
                         + r.stderr.decode(errors="replace")[-2000:])
    return r.returncode, r.stdout.decode()


def gen_specs(workdir, specs):
    """specs: list of (path, seed, vars, leaves, stmts, par)."""
    listing = os.path.join(workdir, "gen.txt")
    with open(listing, "w") as f:
        for row in specs:
            f.write(" ".join(str(x) for x in row) + "\n")
    run_pbtool(["gen", listing], "gen")


def verify(workdir, checks):
    """Run pbtool verify over check records, split over VERIFY_PROCS
    processes; returns {label: reason} for the failed ones."""
    outs = [""] * VERIFY_PROCS

    def part(i):
        listing = os.path.join(workdir, f"verify-{i}.txt")
        with open(listing, "w") as f:
            for c in checks[i::VERIFY_PROCS]:
                f.write(json.dumps(c) + "\n")
        outs[i] = run_pbtool(["verify", listing], "verify")[1]

    threads = [threading.Thread(target=part, args=(i,))
               for i in range(VERIFY_PROCS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    failed = {}
    seen = set()
    for line in "".join(outs).splitlines():
        if line.startswith("ok "):
            seen.add(line[3:])
        elif line.startswith("FAIL "):
            label, _, reason = line[5:].partition(": ")
            failed[label] = reason
            seen.add(label)
    for c in checks:
        if c["label"] not in seen:
            failed[c["label"]] = "not verified"
    return failed


LINT_TOTAL = re.compile(rb"total: (\d+) error\(s\), (\d+) warning\(s\)\s*$")


def lint_ok(code, out, as_json):
    """Lint exits 0, or 1 when (and only when) it reports errors."""
    if as_json:
        try:
            doc = json.loads(out)
        except ValueError:
            return "lint --json output is not JSON"
        errors = doc.get("errors") if isinstance(doc, dict) else None
        if not isinstance(errors, int):
            return "lint --json output has no error count"
    else:
        m = LINT_TOTAL.search(out)
        if not m:
            return "lint report has no 'total: N error(s)' line"
        errors = int(m.group(1))
    if code == 0 and errors == 0 or code == 1 and errors > 0:
        return ""
    return f"lint exit {code} with {errors} error(s)"


def check_digests(samples):
    """Every job of a key must produce the bytes of the key's first
    (verified) output."""
    first = {}
    for s in samples:
        if not s.ok:
            continue
        d = digest(s.out)
        if first.setdefault(s.key, d) != d:
            s.ok = False
            s.reason = "output differs from the first output of this job"
    return first


# --- CLI workloads ----------------------------------------------------------


class CliWorkload:
    """A closed loop, concurrency 1, of cold mrefine processes over a
    seeded cycle of jobs.  The loop runs whole cycles, so every run sees
    the same job mix, until both the time and the sample floor are met."""

    final_stats = None
    LAYERS = COMMON_LAYER

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.errfile = os.path.join(workdir, "stderr.txt")
        self.jobs = {}  # every job run, by key

    def stop(self):
        pass

    def peak_rss_kb(self, samples):
        return max(s.rss_kb for s in samples)

    def setup_once(self):
        raise NotImplementedError

    def setup(self):
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def run_job(self, job):
        code, out, elapsed, rss_kb = run_cli(job["argv"], self.errfile)
        ok, reason = True, ""
        if job["kind"] == "lint":
            reason = lint_ok(code, out, job["json"])
        elif code != 0:
            with open(self.errfile, "rb") as f:
                reason = f"exit {code}: " + f.read()[-300:].decode(
                    errors="replace")
        if reason:
            ok = False
        if ok and "out" in job:
            with open(job["out"], "wb") as f:
                f.write(out)
        return Sample(job["key"], job["kind"], elapsed, ok, reason, out,
                      rss_kb)

    def loop(self, seconds):
        """Pass 0 warms the page cache and the CPU and is not timed; its
        jobs are still checked.  Returns (warm-up samples, timed samples,
        timed wall seconds)."""
        warm = []
        for job in self.cycle(0):
            self.jobs[job["key"]] = job
            warm.append(self.run_job(job))
        samples = []
        t0 = time.perf_counter()
        for n in itertools.count(1):
            for job in self.cycle(n):
                self.jobs[job["key"]] = job
                samples.append(self.run_job(job))
            if (time.perf_counter() - t0 >= seconds
                    and len(samples) >= MIN_SAMPLES):
                break
        return warm, samples, time.perf_counter() - t0

    def fixed_keys(self):
        """Jobs every run of this seed runs: the warm-up and first timed
        pass."""
        return {job["key"] for n in (0, 1) for job in self.cycle(n)}

    def trace_jobs(self):
        """The first pass, for the in-process replay."""
        return [{k: v for k, v in j.items() if k != "argv"}
                for j in self.cycle(0)]

    def check(self, samples):
        """Verify the first output of every key against the libraries,
        then hold every other job of the key to the same bytes.  A job's
        fields double as its pbtool check record."""
        first = {}
        for s in samples:
            if s.ok and s.key not in first:
                first[s.key] = s
        checks = []
        for key, s in first.items():
            path = os.path.join(self.workdir, f"out-{len(checks)}.txt")
            with open(path, "wb") as f:
                f.write(s.out)
            record = {k: v for k, v in self.jobs[key].items() if k != "argv"}
            record.update(check=record["kind"], label=key, out=path)
            checks.append(record)
        failed = verify(self.workdir, checks)
        for s in samples:
            if s.ok and s.key in failed:
                s.ok, s.reason = False, failed[s.key]
        return check_digests(samples)


class RefineScale(CliWorkload):
    SIZES = (1, 2, 4, 8)
    LAYERS = REFINE_LINT_LAYER

    def spec_path(self, k, m):
        return os.path.join(self.workdir, f"gen-k{k}-m{m}.sc")

    def refined_path(self, k, m):
        return os.path.join(self.workdir, f"refined-k{k}-m{m}.sc")

    def setup_once(self):
        gen_specs(self.workdir, [
            (self.spec_path(k, m), self.seed * 100 + 10 * k + m, 14 * k,
             16 * k, 6, 2)
            for k in self.SIZES for m in (1, 2, 3, 4)])
        for job in (self.refine_job(1, 1), self.lint_job(1, 1)):
            s = self.run_job(job)
            if not s.ok:
                raise BenchError(f"warm-up {job['key']} failed: {s.reason}")

    def refine_job(self, k, m):
        spec = self.spec_path(k, m)
        return {"key": f"refine/k{k}/m{m}", "kind": "refine", "spec": spec,
                "model": str(m), "mode": "per_tag",
                "out": self.refined_path(k, m),
                "argv": ["refine", "-q", "-m", str(m), spec]}

    def lint_job(self, k, m):
        spec = self.refined_path(k, m)
        return {"key": f"lint/k{k}/m{m}", "kind": "lint", "spec": spec,
                "json": False, "argv": ["lint", spec]}

    def pairs(self):
        pairs = [(k, m) for k in self.SIZES for m in (1, 2, 3, 4)]
        random.Random(self.seed).shuffle(pairs)
        return pairs

    def cycle(self, n):
        jobs = []
        for k, m in self.pairs():
            jobs += [self.refine_job(k, m), self.lint_job(k, m)]
        return jobs

    def extra_metrics(self, samples):
        """growth_exponent: least-squares slope of log(median refine+lint
        pair latency of a spec) on log(k)."""
        lat = {}
        for s in samples:
            if s.ok:
                lat.setdefault(s.key, []).append(s.latency_s)
        xs, ys = [], []
        for k in self.SIZES:
            pair = []
            for m in (1, 2, 3, 4):
                r = lat.get(f"refine/k{k}/m{m}", [])
                lt = lat.get(f"lint/k{k}/m{m}", [])
                pair += [a + b for a, b in zip(r, lt)]
            if pair:
                xs.append(math.log(k))
                ys.append(math.log(quantile(pair, 0.5)))
        if len(xs) < 2:  # too many failed jobs to fit a slope
            return {}
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs)
        return {"growth_exponent": (slope, "1")}


class FaultCampaign(CliWorkload):
    GEN_SPECS = 64  # generated specs, four new ones per pass
    # Campaign runs per faults job: half the command line's default, so a
    # run reaches its 110 samples within --seconds.
    SEEDS = 4
    LITMUS_SEEDS = 4

    def gen_path(self, i):
        return os.path.join(self.workdir, f"gen-par{i % self.GEN_SPECS}.sc")

    def setup_once(self):
        gen_specs(self.workdir, [
            (self.gen_path(i), self.seed * 1000 + i, 28, 32, 6, 2)
            for i in range(self.GEN_SPECS)])
        s = self.run_job(self.litmus_jobs()[0])
        if not s.ok:
            raise BenchError(f"warm-up litmus failed: {s.reason}")

    def litmus_jobs(self):
        """`mrefine litmus` has no base-seed option: its runs are the same
        for every workload seed, at the command line's default 4 seeds."""
        seeds = str(self.LITMUS_SEEDS)
        return [
            {"key": f"litmus/seeds{seeds}{flag}", "kind": "litmus",
             "faults": bool(flag), "seeds": int(seeds),
             "argv": ["litmus", "--seeds", seeds] + ([flag] if flag else [])}
            for flag in ("", "--faults")]

    def faults_configs(self, n):
        """(spec, model, harden) of every faults job of pass n: elevator on
        models 1-4, plain and hardened, and four generated parallel specs,
        one per model.  Relaxed ordering is left out because some base
        seeds deadlock its golden run (README, defect 5)."""
        return ([(ELEVATOR, m, harden)
                 for m in (1, 2, 3, 4) for harden in (False, True)]
                + [(self.gen_path(4 * n + i), i + 1, False)
                   for i in range(4)])

    def cycle(self, n):
        """Pass n.  Every pass draws new campaign base seeds and new
        generated specs, so a run averages over many inputs."""
        rng = random.Random(f"{self.seed}/{n}")
        jobs = []
        for spec, m, harden in self.faults_configs(n):
            base = rng.randint(1, 10 ** 6)
            argv = ["faults", "-m", str(m), "--seeds", str(self.SEEDS),
                    "--base-seed", str(base)]
            if harden:
                argv.append("--harden")
            jobs.append({
                "key": f"faults/{os.path.basename(spec)}/m{m}"
                       f"{'/harden' if harden else ''}/b{base}",
                "kind": "faults", "spec": spec, "model": str(m),
                "harden": harden, "seeds": self.SEEDS, "base_seed": base,
                "argv": argv + [spec]})
        jobs += self.litmus_jobs()
        rng.shuffle(jobs)
        return jobs

    def extra_metrics(self, samples):
        return {}


# --- serve workload ---------------------------------------------------------


class Conn:
    """One newline-JSON connection to the daemon."""

    def __init__(self, endpoint, token=None):
        if isinstance(endpoint, str):
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.settimeout(JOB_TIMEOUT_S)
        self.sock.connect(endpoint)
        self.f = self.sock.makefile("rwb")
        if token is not None:
            r = self.rpc({"op": "auth", "token": token})
            if not r.get("ok"):
                raise BenchError(f"TCP auth refused: {r}")

    def rpc(self, obj):
        self.f.write(json.dumps(obj).encode() + b"\n")
        self.f.flush()
        line = self.f.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        try:
            self.f.close()
            self.sock.close()
        except OSError:
            pass


def die_with_parent():
    """Have the kernel send SIGTERM to the daemon if the benchmark dies,
    so a killed run leaves no process behind (Linux prctl)."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Daemon:
    def __init__(self, workdir):
        self.sock = os.path.join(workdir, "daemon.sock")
        self.journal = os.path.join(workdir, "daemon.journal")
        self.errpath = os.path.join(workdir, "daemon.err")
        self.token = digest(f"{workdir}/{time.time()}".encode())
        self.proc = None
        self.port = None

    def start(self):
        for p in (self.sock, self.journal):
            if os.path.exists(p):
                os.remove(p)
        self.err = open(self.errpath, "wb")
        self.proc = subprocess.Popen(
            [MR, "serve", "--socket", self.sock, "--journal", self.journal,
             "--listen", "127.0.0.1:0", "--token", self.token],
            stdout=subprocess.DEVNULL, stderr=self.err,
            preexec_fn=die_with_parent)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            with open(self.errpath, "rb") as f:
                m = re.search(rb"tcp port (\d+)", f.read())
            if m and os.path.exists(self.sock):
                self.port = int(m.group(1))
                try:
                    Conn(self.sock).close()
                    return
                except OSError:
                    pass
            time.sleep(0.01)
        raise BenchError("daemon did not come up within 30s")

    def vm_hwm_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc is None:
            return
        try:
            c = Conn(self.sock)
            c.rpc({"op": "shutdown"})
            c.close()
        except (OSError, ConnectionError, ValueError):
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.err.close()
        self.proc = None


class ServeMixed:
    """One daemon per run; one client, one closed loop (concurrency 1) over
    a seeded job mix, sending each job on the Unix-socket and the
    authenticated TCP connection in turn."""

    FRESH = 600  # never-seen specs for the fresh jobs: 6 a deck, SUBMIT_CAP
    DECK = 40  # jobs per deck, see deck()
    LITMUS_SEEDS = 2
    LAYERS = REFINE_LINT_LAYER
    SETUP_REPEATS = 3  # a daemon set-up takes seconds

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.daemon = None
        self.conns = []
        self.final_stats = None
        self.texts = {}
        self.jobs = {}  # every job submitted, by key
        self.seen = set()
        self.next_fresh = 0
        rng = random.Random(f"{seed}/serve")
        self.explore_seeds = [rng.randint(1, 1000) for _ in range(8)]
        # Campaign costs vary widely with the base seed: each deck draws
        # its four faults jobs from a pool of 40 (base, model) pairs, so a
        # run averages over most of the pool.
        self.faults_pool = [(rng.randint(1, 10 ** 6), 1 + i % 4)
                            for i in range(40)]

    def fresh_path(self, i):
        return os.path.join(self.workdir, "fresh", f"f{i}.sc")

    def text(self, path):
        if path not in self.texts:
            with open(path) as f:
                self.texts[path] = f.read()
        return self.texts[path]

    def setup_once(self):
        os.makedirs(os.path.join(self.workdir, "fresh"), exist_ok=True)
        rng = random.Random(f"{self.seed}/fresh")
        gen_specs(self.workdir, [
            (self.fresh_path(i), self.seed * 10000 + i, 6, 8, 5,
             rng.choice((0, 2))) for i in range(self.FRESH)])
        self.texts = {}
        self.seen = set()
        self.next_fresh = 0
        self.submitted = 0  # jobs submitted to this daemon
        self.daemon = Daemon(self.workdir)
        self.daemon.start()
        self.conns = [Conn(self.daemon.sock),
                      Conn(("127.0.0.1", self.daemon.port), self.daemon.token)]
        warm = [self.refine_job(MEDICAL, m) for m in (1, 2, 3, 4)]
        warm += [self.lint_job(os.path.join(EXAMPLES, s + ".sc"), "text")
                 for s in SHIPPED]
        warm.append(self.faults_job(*self.faults_pool[0]))
        warm += [self.litmus_job(faults) for faults in (False, True)]
        warm += [self.explore_job(seed) for seed in self.explore_seeds]
        for job in warm:
            s = self.submit(self.conns[0], job)
            if not s.ok:
                raise BenchError(f"warm-up {job['key']} failed: {s.reason}")

    def setup(self):
        times = []
        for i in range(self.SETUP_REPEATS):
            if i:
                self.stop()
            t0 = time.perf_counter()
            self.setup_once()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def peak_rss_kb(self, samples):
        return self.rss_kb

    def stop(self):
        for c in self.conns:
            c.close()
        self.conns = []
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    # Job constructors: the serve payload and the equivalent command line.

    def refine_job(self, path, m):
        return {"key": f"refine/{path}/m{m}", "kind": "refine", "path": path,
                "model": str(m),
                "payload": {"kind": "refine", "spec": self.text(path),
                            "model": f"model{m}"},
                "argv": ["refine", "-q", "-m", str(m), path]}

    def lint_job(self, path, mode):
        payload = {"kind": "lint", "spec": self.text(path), "file": path}
        argv = ["lint"]
        if mode == "json":
            payload["json"] = True
            argv.append("--json")
        elif mode == "flow":
            payload["flow"] = True
            argv.append("--flow")
        return {"key": f"lint/{path}/{mode}", "kind": "lint", "path": path,
                "mode": mode, "payload": payload, "argv": argv + [path]}

    def faults_job(self, base, m):
        return {"key": f"faults/m{m}/b{base}", "kind": "faults",
                "path": ELEVATOR, "model": str(m), "base_seed": base,
                "payload": {"kind": "faults", "spec": self.text(ELEVATOR),
                            "model": f"model{m}", "seeds": 1,
                            "base_seed": base},
                "argv": ["faults", "-m", str(m), "--seeds", "1",
                         "--base-seed", str(base), ELEVATOR]}

    def litmus_job(self, faults):
        """The weak-memory litmus suite: no spec, so neither a hit nor a
        miss."""
        flag = ["--faults"] if faults else []
        return {"key": f"litmus/seeds{self.LITMUS_SEEDS}{''.join(flag)}",
                "kind": "litmus", "path": None, "faults": faults,
                "payload": {"kind": "litmus", "seeds": self.LITMUS_SEEDS,
                            "faults": faults},
                "argv": ["litmus", "--seeds", str(self.LITMUS_SEEDS)] + flag}

    def explore_job(self, seed):
        return {"key": f"explore/s{seed}", "kind": "explore", "path": MEDICAL,
                "seed": seed,
                "payload": {"kind": "explore", "spec": self.text(MEDICAL),
                            "seeds": [seed], "steps": 400},
                "argv": ["explore", MEDICAL, "--seeds", str(seed), "--steps",
                         "400", "--no-cache"]}

    def deck(self, rng):
        """The next 40 jobs, shuffled: 8 refines of medical (models 1-4),
        12 lints of the shipped specs (text, JSON, --flow), 4 faults jobs
        from the pool, the litmus suite with and without faults, one
        explore per sweep seed (8), and 6 fresh jobs (15%) on never-seen
        generated specs.  Fixed shares keep the mix identical across
        seeds; the seed picks the order and the parameters.  The eight
        sweeps, the costliest jobs, are the top 20%, so p90 is their
        median: a lower quantile of the sweeps spread half as much again
        from run to run."""
        lint_specs = rng.sample(SHIPPED, len(SHIPPED)) * 2
        jobs = [self.refine_job(MEDICAL, 1 + i % 4) for i in range(8)]
        jobs += [self.lint_job(os.path.join(EXAMPLES, spec + ".sc"),
                               ("text", "json", "flow")[i % 3])
                 for i, spec in enumerate(lint_specs)]
        jobs += [self.faults_job(base, m)
                 for base, m in rng.sample(self.faults_pool, 4)]
        jobs += [self.litmus_job(faults) for faults in (False, True)]
        jobs += [self.explore_job(seed) for seed in self.explore_seeds]
        first = self.next_fresh
        self.next_fresh += 6
        for i in range(first, first + 6):
            path = self.fresh_path(i % self.FRESH)
            if i % 2 == 0:
                jobs.append(self.refine_job(path, 1 + (i // 2) % 4))
            else:
                jobs.append(self.lint_job(path, "text"))
        rng.shuffle(jobs)
        return jobs

    def submit(self, conn, job):
        hit = None
        if job["path"] is not None:
            hit = job["path"] in self.seen
            self.seen.add(job["path"])
        self.jobs[job["key"]] = job
        self.submitted += 1
        jid = f"pb-{self.submitted}"
        t0 = time.perf_counter()
        try:
            ack = conn.rpc({"op": "submit", "id": jid, "job": job["payload"]})
            t1 = time.perf_counter()
            if not ack.get("ok"):
                return Sample(job["key"], job["kind"], t1 - t0, False,
                              "refused: " + str(ack.get("error")), hit=hit)
            res = conn.rpc({"op": "result", "id": jid, "wait": True})
        except (OSError, ConnectionError, ValueError) as e:
            return Sample(job["key"], job["kind"], time.perf_counter() - t0,
                          False, f"connection: {e}", hit=hit)
        t2 = time.perf_counter()
        if res.get("state") != "done":
            return Sample(job["key"], job["kind"], t2 - t0, False,
                          f"state {res.get('state')}: {res.get('error')}",
                          hit=hit, submit_s=t1 - t0)
        return Sample(job["key"], job["kind"], t2 - t0, True,
                      out=res.get("output", "").encode(), hit=hit,
                      submit_s=t1 - t0)

    def loop(self, seconds):
        """Whole decks until both --seconds and 600 jobs are reached.  One
        job is in flight at a time: the daemon runs jobs one after another,
        so a second concurrent connection would make a cheap job's latency
        depend on whether it queued behind a sweep."""
        rng = random.Random(f"{self.seed}/decks")
        samples = []
        t0 = time.perf_counter()
        while ((time.perf_counter() - t0 < seconds
                or len(samples) < RSS_AT_JOBS)
               and self.submitted + self.DECK <= SUBMIT_CAP):
            for i, job in enumerate(self.deck(rng)):
                samples.append(self.submit(self.conns[i % 2], job))
                if len(samples) == RSS_AT_JOBS:
                    self.rss_kb = self.daemon.vm_hwm_kb()
        wall = time.perf_counter() - t0
        self.final_stats = self.conns[0].rpc({"op": "stats"})
        return [], samples, wall

    def check(self, samples):
        """Each result must be byte-identical to the cold command line's
        output for the same job (explore: identical up to the cache
        counters) and pass the library check of its kind."""
        first = {}
        for s in samples:
            if s.ok and s.key not in first:
                first[s.key] = s
        bad = {}
        checks = []
        errfile = os.path.join(self.workdir, "stderr.txt")
        for key, s in first.items():
            job = self.jobs[key]
            code, out, _, _ = run_cli(job["argv"], errfile)
            if job["kind"] == "lint":
                reason = lint_ok(code, out, job["mode"] == "json")
                if reason:
                    bad[key] = "cold CLI: " + reason
            elif code != 0:
                bad[key] = f"cold CLI exit {code}"
            if job["kind"] == "explore":
                same = strip_cache_counters(out) == strip_cache_counters(s.out)
            else:
                same = out == s.out
            if not same:
                bad.setdefault(key, "served output differs from the cold CLI")
            if job["kind"] != "explore":
                path = os.path.join(self.workdir, f"out-{len(checks)}.txt")
                with open(path, "wb") as f:
                    f.write(s.out)
                record = self.tool_fields(job)
                record.update(check=job["kind"], label=key, out=path)
                checks.append(record)
        bad.update(verify(self.workdir, checks))
        for s in samples:
            if s.ok and s.key in bad:
                s.ok, s.reason = False, bad[s.key]
        return check_digests([s for s in samples if s.kind != "explore"])

    def tool_fields(self, job):
        """The job as pbtool's verify and trace commands read it."""
        if job["kind"] == "litmus":
            return {"kind": "litmus", "seeds": self.LITMUS_SEEDS,
                    "faults": job["faults"]}
        fields = {"kind": job["kind"], "spec": job["path"]}
        if job["kind"] == "refine":
            par = re.search(r"\bbehavior \w+ : par is", self.text(job["path"]))
            fields.update(model=job["model"],
                          mode="per_tag" if par else "total")
        elif job["kind"] == "lint":
            fields.update(json=job["mode"] == "json",
                          flow=job["mode"] == "flow")
        elif job["kind"] == "faults":
            fields.update(model=job["model"], seeds=1,
                          base_seed=job["base_seed"])
        else:
            fields.update(seeds=[job["seed"]], steps=400)
        return fields

    def extra_metrics(self, samples):
        ok = [s for s in samples if s.ok]
        hits = [s.latency_s * 1e3 for s in ok if s.hit]
        misses = [s.latency_s * 1e3 for s in ok if s.hit is False]
        report = {"hit_samples": (len(hits), "count"),
                  "miss_samples": (len(misses), "count")}
        for name, lat in (("hit", hits), ("miss", misses)):
            if lat:
                report[f"{name}_latency_p50_ms"] = (quantile(lat, 0.5), "ms")
        return report

    def first_deck(self):
        """The deck every run of this seed starts with."""
        self.next_fresh = 0
        return self.deck(random.Random(f"{self.seed}/decks"))

    def fixed_keys(self):
        return {job["key"] for job in self.first_deck()}

    def trace_jobs(self):
        """The first deck, decomposed for the in-process replay, each job
        with its serve payload."""
        jobs = []
        for job in self.first_deck():
            fields = self.tool_fields(job)
            fields.update(key=job["key"], serve=job["payload"])
            jobs.append(fields)
        return jobs


def strip_cache_counters(out):
    """Explore reports differ between a cold CLI sweep and a daemon sweep
    only in the cache hit/miss counters and the per-row cached marks."""
    out = out.replace(b" (cached)\n", b"\n")
    return re.sub(rb"cache \d+ hits / \d+ misses \(\d+% hit rate\)", b"cache",
                  out)


# --- reporting --------------------------------------------------------------


def latency_metrics(samples, wall, rss_kb):
    ok = [s.latency_s * 1e3 for s in samples if s.ok]
    if not ok:
        raise BenchError("no job completed")
    return {
        "jobs_per_s": (len(ok) / wall, "1/s"),
        "latency_p50_ms": (quantile(ok, 0.5), "ms"),
        "latency_p90_ms": (quantile(ok, 0.9), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def emit(correct, attempted, failed, metrics, report, ctx, workdir):
    ctx = dict(ctx)
    for name, (value, unit) in sorted(report.items()):
        print(f"{name} {value!r} {unit}")
    print("context " + json.dumps(ctx, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in metrics.items()}}
    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump({"result": result, "context": ctx,
                   "report": {n: {"value": v, "unit": u}
                              for n, (v, u) in report.items()}},
                  f, indent=1, sort_keys=True)
    print(json.dumps(result))


def report_failures(samples):
    """Print why the first failed jobs failed; returns the failed count."""
    failed = [s for s in samples if not s.ok]
    for s in failed[:10]:
        print(f"FAILED {s.key}: {s.reason}", file=sys.stderr)
    return len(failed)


def run_e2e(args, wl, ctx, workdir):
    setup_s = wl.setup()
    steal0 = steal_seconds()
    warm, samples, wall = wl.loop(args.seconds)
    steal = steal_seconds() - steal0
    wl.stop()
    rss_kb = wl.peak_rss_kb(warm + samples)
    stats = wl.final_stats
    t0 = time.perf_counter()
    digests = wl.check(warm + samples)
    check_s = time.perf_counter() - t0
    with open(os.path.join(workdir, "samples.jsonl"), "w") as f:
        for s in samples:
            f.write(json.dumps({"key": s.key, "kind": s.kind,
                                "ms": s.latency_s * 1e3, "ok": s.ok,
                                "hit": s.hit}) + "\n")
    failed = report_failures(warm + samples)
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(latency_metrics(samples, wall, rss_kb))
    report = dict(metrics)
    report.update(wl.extra_metrics(samples))
    ok = [s for s in samples if s.ok]
    for kind in sorted({s.kind for s in ok}):
        lat = [s.latency_s * 1e3 for s in ok if s.kind == kind]
        report[f"kind.{kind}.p50_ms"] = (quantile(lat, 0.5), "ms")
        report[f"kind.{kind}.samples"] = (len(lat), "count")
    attempted = len(warm) + len(samples)
    report["failed_frac"] = (failed / attempted, "ratio")
    report["samples"] = (len(ok), "count")
    report["samples_beyond_p90"] = (
        len(ok) - max(1, math.ceil(0.9 * len(ok))), "count")
    report["warmup_jobs"] = (len(warm), "count")
    report["loop_wall_s"] = (wall, "s")
    report["loop_steal_s"] = (steal, "s")
    report["check_s"] = (check_s, "s")
    if stats is not None:
        report["serve.retained_jobs"] = (stats.get("jobs", 0), "count")
        report["serve.busy_rejects"] = (stats.get("busy_rejects", 0), "count")
    fixed = wl.fixed_keys()
    ctx["outputs_digest"] = digest("".join(
        f"{k}={v};" for k, v in sorted(digests.items()) if k in fixed
    ).encode())
    ctx["outputs_digest_jobs"] = len(fixed)
    ctx["distinct_jobs"] = len(digests)
    with open(os.path.join(workdir, "digests.json"), "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
    emit(failed == 0, attempted, failed, metrics, report, ctx, workdir)


def pbtool_trace(workdir, jobs, seconds):
    listing = os.path.join(workdir, "trace-jobs.txt")
    with open(listing, "w") as f:
        for j in jobs:
            f.write(json.dumps(j) + "\n")
    spans = os.path.join(workdir, "spans.jsonl")
    _, out = run_pbtool(["trace", listing, repr(seconds), spans], "trace")
    metrics, jobms = {}, {}
    for line in out.splitlines():
        parts = line.split()
        if parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "jobms":
            jobms[parts[1]] = float(parts[2])
    return metrics, jobms, len(jobs)


def run_traced(args, wl, ctx, workdir):
    serve = isinstance(wl, ServeMixed)
    wl.setup_once()
    if serve:
        # Half the run drives the live daemon for the client-side serve
        # timings; the other half replays jobs in-process.
        _, samples, _ = wl.loop(args.seconds / 2)
        wl.stop()
        replay_s = args.seconds / 2
    else:
        # The first pass runs on the command line too, so the traced run
        # also checks the program's outputs.
        jobs = wl.cycle(0)
        wl.jobs.update((job["key"], job) for job in jobs)
        samples = [wl.run_job(job) for job in jobs]
        replay_s = args.seconds
    wl.check(samples)
    failed = report_failures(samples)
    metrics, jobms, n = pbtool_trace(workdir, wl.trace_jobs(), replay_s)
    if serve:
        stats = wl.final_stats
        ok = [s for s in samples if s.ok]
        submit = [s.submit_s * 1e3 for s in ok]
        wait = [(s.latency_s - s.submit_s) * 1e3 for s in ok]
        overhead = [s.latency_s * 1e3 - jobms[s.key] for s in ok
                    if s.key in jobms]
        metrics["serve.submit_ms"] = (statistics.median(submit), "ms")
        metrics["serve.wait_ms"] = (statistics.median(wait), "ms")
        metrics["serve.overhead_ms"] = (statistics.median(overhead), "ms")
        metrics["serve.busy_rejects"] = (stats.get("busy_rejects", 0), "count")
        metrics["serve.retained_jobs"] = (stats.get("jobs", 0), "count")
    attempted = len(samples) + int(metrics["trace.passes"][0]) * n
    for name, _ in wl.LAYERS:
        if name not in metrics:
            raise BenchError(f"traced run did not measure {name}")
    emit(failed == 0, attempted, failed,
         {name: metrics[name] for name, _ in wl.LAYERS},
         {f"layer {k}": v for k, v in metrics.items()}, ctx, workdir)


WORKLOADS = {
    "refine-scale": RefineScale,
    "fault-campaign": FaultCampaign,
    "serve-mixed": ServeMixed,
}


def run_all(args):
    """Every workload in turn, each line prefixed with its name; exits 1
    when a workload fails or reports a failed job."""
    bad = False
    for name in WORKLOADS:
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True)
        lines = r.stdout.decode().splitlines()
        for line in lines:
            print(f"{name}: {line}")
        sys.stderr.write(r.stderr.decode())
        bad |= (r.returncode != 0 or not lines
                or not json.loads(lines[-1])["correct"])
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    if args.workload == "all":
        run_all(args)
        return
    workdir = os.path.join(BENCH, "_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = context(args)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            run_traced(args, wl, ctx, workdir)
        else:
            run_e2e(args, wl, ctx, workdir)
    except BenchError as e:
        die(str(e))
    finally:
        wl.stop()
        Spawner.stop()


if __name__ == "__main__":
    main()
