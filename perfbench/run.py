#!/usr/bin/env python3
"""End-to-end benchmark of demsort: gensort -> demsort-launch -> valsort.

Run from the root of a checkout:

    python3 perfbench/run.py --workload canonical_p2 --seed 1 --seconds 20 --trace 0

The script builds the program from source, writes the input with
`gensort -s SEED` and runs one warm-up sort (set-up), then sorts the
input again and again with `demsort-launch` as a subprocess for
`--seconds` seconds, one sort at a time. Every sort is checked with `valsort`, whose fingerprint must equal
the input's. With `--trace 1` each untraced sort is paired with a traced
sort by `demsort-seamtrace` (perfbench/seamtrace), which times the
program's layer seams from outside and must reproduce the untraced sort
byte for byte.

Human-readable lines go to stdout first; the last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for workloads and metric definitions.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = 2_000_000
RECORD_BYTES = 100
SETUP_REPS = 3
SORT_TIMEOUT_S = 60.0
# Timings use only sorts during which the hypervisor stole at most this
# share of the host's CPU time, when at least MIN_STEADY such sorts ran.
STEAL_LIMIT = 0.05
MIN_STEADY = 3
# A run starts no new sort past this point, so that even a run of slow
# sorts ends within three minutes.
RUN_BUDGET_S = 120.0

# Every shape flag pinned; anything else is the CLI's default.
COMMON = ["--block-kib", "64", "--disks", "4"]
WORKLOADS = {
    "canonical_p2": ["--algo", "canonical", "--ranks", "2", "--cores", "1", "--mem-mib", "4"],
    "striped_p2": ["--algo", "striped", "--ranks", "2", "--cores", "1", "--mem-mib", "4"],
    "striped_p2_repl1": ["--algo", "striped", "--ranks", "2", "--cores", "1", "--mem-mib", "4",
                         "--replication", "1"],
    "striped_p1_c2": ["--algo", "striped", "--ranks", "1", "--cores", "2", "--mem-mib", "8"],
}

BINS = ["gensort", "valsort", "demsort-launch", "demsort-worker"]
DONE_RE = re.compile(
    r"done: (\d+) records on (\d+) ranks, (\d+) runs, I/O volume ([\d.]+) N, "
    r"communication ([\d.]+) N")
FP_RE = re.compile(r"fingerprint:\s+(\S+)")


def log(msg):
    print(msg, flush=True)


class BenchError(Exception):
    """A failure of the benchmark itself (build, set-up), not of a sort."""


# ---------------------------------------------------------------- processes

def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs; zeros where /proc/stat
    is unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    return (after[0] - before[0]) / max(after[1] - before[1], 1)


@dataclass
class Sort:
    """One sort: how it ended and what it cost. `steal` is the share of
    the host's CPU time the hypervisor gave to other machines while it
    ran."""
    ok: bool
    reason: str
    wall: float
    cpu: float = 0.0
    rss: float = 0.0
    steal: float = 0.0
    text: str = ""


def killpg(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_timed(argv, out_path, timeout=SORT_TIMEOUT_S):
    """Run argv to completion in its own process group, stdout+stderr to
    out_path. CPU and peak RSS cover the process and every child it
    reaped (the launcher reaps its workers). The group is killed on a
    timeout and on any exception, signals included."""
    with open(out_path, "wb") as out:
        ticks = cpu_ticks()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        timed_out = threading.Event()
        timer = threading.Timer(timeout, lambda: (timed_out.set(), killpg(proc.pid)))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            killpg(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        steal = steal_share(ticks, cpu_ticks())
    # Whatever the group left behind goes with it.
    killpg(proc.pid)
    text = out_path.read_text(errors="replace")
    if timed_out.is_set():
        return Sort(False, f"timed out after {timeout:.0f} s", wall, text=text)
    if proc.returncode != 0:
        tail = text.strip().splitlines()[-1:] or ["(no output)"]
        return Sort(False, f"exit code {proc.returncode}: {tail[0]}", wall, text=text)
    return Sort(True, "", wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, steal, text)


def capture(argv, timeout=SORT_TIMEOUT_S):
    """(exit code, output) of a short helper run; code None on timeout."""
    try:
        r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           stdin=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{Path(argv[0]).name} timed out after {timeout:.0f} s"
    return r.returncode, r.stdout.decode(errors="replace")


# ------------------------------------------------------------------- build

def build(target_dir):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        raise BenchError(f"{ROOT} holds no demsort source tree to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "demsort-bench"]
        + [a for b in BINS for a in ("--bin", b)],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(ROOT / "perfbench" / "seamtrace" / "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    bins = {b: target_dir / "release" / b for b in BINS + ["demsort-seamtrace"]}
    for b, p in bins.items():
        if not p.is_file():
            raise BenchError(f"build produced no {b}")
    return bins


# ----------------------------------------------------------------- checks

def fingerprint(bins, path):
    """valsort's order-independent fingerprint, whether it says sorted, and
    its last output line."""
    code, out = capture([str(bins["valsort"]), str(path)])
    m = FP_RE.search(out)
    last = (out.strip().splitlines() or ["(no output)"])[-1]
    return (m.group(1) if m else None), (code == 0 and "SUCCESS" in out), last


def checked_sort(bins, argv, output, input_fp, work):
    """Run one sort and validate its output; the validation is outside
    the timed interval."""
    if output.exists():
        output.unlink()
    s = run_timed(argv, work / "sort.log")
    if not s.ok:
        return s
    fp, sorted_ok, last = fingerprint(bins, output)
    if not sorted_ok:
        s.ok, s.reason = False, f"valsort: {last}"
    elif fp != input_fp:
        s.ok, s.reason = False, f"fingerprint {fp} != input {input_fp}"
    return s


def parse_done(text):
    m = DONE_RE.search(text)
    if not m:
        return None
    return {"elements": int(m.group(1)), "ranks": int(m.group(2)), "runs": int(m.group(3)),
            "io_volume_n": m.group(4), "comm_volume_n": m.group(5)}


def merge_work_bound(n, k):
    """n * ceil(log2 k): the exact comparison count of a k-way merge."""
    return 0 if k < 2 else n * (k - 1).bit_length()


# ------------------------------------------------------------------ stats

def spread(values):
    """(median, q1, q3, n) with Python's default quartile method."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def show(name, unit, values, note=""):
    med, q1, q3, n = spread(values)
    # The highest percentile with at least ten samples beyond it.
    if n >= 20:
        p = 100 * (n - 10) // n
        tail = f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    else:
        tail = "no tail percentile (n < 20)"
    log(f"  {name:<16} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
        f"max {max(values):.4f}  {tail}  n={n}{note}")


def host():
    ram = 0
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    ram = int(line.split()[1]) // 1024
    except OSError:
        pass
    try:
        rustc = capture(["rustc", "--version"])[1].strip()
    except (OSError, subprocess.SubprocessError):
        rustc = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        code, out = capture(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        if code == 0:
            commit = out.strip()
    return {"nproc": os.cpu_count(), "ram_mib": ram, "rustc": rustc, "commit": commit,
            "machine": platform.machine()}


# ------------------------------------------------------------------- main

def setup(bins, seed, work):
    """Write the input with gensort and fingerprint it, SETUP_REPS times
    (the same seed gives the same file); returns (input, fingerprint,
    set-up seconds per repetition)."""
    inp = work / "input.dat"
    times, fps = [], set()
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        code, out = capture([str(bins["gensort"]), "-s", str(seed), str(RECORDS), str(inp)])
        if code != 0:
            raise BenchError(f"gensort failed: {out.strip()}")
        fp, _, last = fingerprint(bins, inp)
        # Flush the input now, so its writeback does not land inside a
        # timed sort.
        fd = os.open(inp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        times.append(time.perf_counter() - t)
        if fp is None:
            raise BenchError(f"valsort printed no fingerprint for the input: {last}")
        fps.add(fp)
    if len(fps) != 1:
        raise BenchError(f"gensort -s {seed} is not deterministic: {sorted(fps)}")
    return inp, fps.pop(), times


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Unwind on SIGTERM too, so the running sort's process group is
    # killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    try:
        bins = build(target)
        # The run budget starts after the build: only a cold build may
        # take long.
        started = time.perf_counter()
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        return measure(args, bins, work, started)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, bins, work, started):
    h = host()
    flags = WORKLOADS[args.workload] + COMMON
    ranks = int(flags[flags.index("--ranks") + 1])
    cores = int(flags[flags.index("--cores") + 1])
    log(f"host: nproc {h['nproc']}, RAM {h['ram_mib']} MiB, {h['machine']}, {h['rustc']}, "
        f"commit {h['commit']}")
    log(f"workload {args.workload}: {RECORDS} records, seed {args.seed}, "
        f"flags {' '.join(flags)}")
    if h["nproc"] and ranks * cores > h["nproc"]:
        log(f"warning: --ranks x --cores = {ranks * cores} exceeds nproc {h['nproc']}")

    inp, input_fp, setup_times = setup(bins, args.seed, work)
    out = work / "output.dat"
    traced_out = work / "traced.dat"
    launch = [str(bins["demsort-launch"]), *flags, "--worker-bin", str(bins["demsort-worker"]),
              str(inp), str(out)]
    seamtrace = [str(bins["demsort-seamtrace"]), *flags, str(inp), str(traced_out)]

    def untraced():
        s = checked_sort(bins, launch, out, input_fp, work)
        done = parse_done(s.text) if s.ok else None
        if s.ok and done is None:
            s.ok, s.reason = False, "launcher printed no done: line"
        if s.ok and done["runs"] <= 1:
            s.ok, s.reason = False, f"R = {done['runs']}: the sort was not external"
        if not s.ok:
            failures.append(s)
            log(f"FAILED sort: {s.reason}")
        return s, done

    sorts, failures, problems = [], [], []
    dones, layers, traced = [], [], 0
    # Warm-up: one checked sort, part of the set-up, not of the sample.
    warm, _ = untraced()
    setup_s = statistics.median(setup_times) + warm.wall
    log(f"set-up: input {statistics.median(setup_times):.4f} s (median of {SETUP_REPS}) "
        f"+ warm-up sort {warm.wall:.4f} s")
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        s, done = untraced()
        if s.ok:
            sorts.append(s)
            dones.append(done)
        pair = s.wall
        if args.trace and s.ok:
            t = checked_sort(bins, seamtrace, traced_out, input_fp, work)
            pair += t.wall
            if t.ok:
                traced += 1
                layer, why = check_traced(args.workload, t.text, done, ranks, out, traced_out)
                if why:
                    problems.append(why)
                    log(f"FAILED check: {why}")
                else:
                    layer["bench.trace_overhead_s"] = t.wall - s.wall
                    layers.append(layer)
            else:
                failures.append(t)
                log(f"FAILED traced sort: {t.reason}")
        longest = max(longest, pair)
        now = time.perf_counter()
        if now - t0 >= args.seconds or now - started + 2 * longest > RUN_BUDGET_S:
            break

    attempted = int(warm.ok) + len(sorts) + traced + len(failures)
    failed = len(failures)
    correct = failed == 0 and not problems and bool(sorts) and (not args.trace or bool(layers))
    log(f"sorts: {attempted} attempted, {failed} failed "
        f"(failed_runs = {failed / attempted:.4f} ratio)")
    metrics = {}
    if sorts:
        metrics = report_e2e(sorts, dones, setup_s)
    if args.trace:
        metrics = report_layers(layers) if layers else {}
    if not metrics:
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def check_traced(workload, text, done, ranks, out, traced_out):
    """Seam transparency and "exercises what it names" checks of one
    traced sort against the untraced sort just before it. Returns
    (per-layer metrics, None) or (None, reason)."""
    try:
        tr = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "demsort-seamtrace printed no JSON"
    m = tr["metrics"]
    for key in ("io_volume_n", "comm_volume_n", "runs", "elements"):
        if str(tr[key]) != str(done[key]):
            return None, f"traced {key} {tr[key]} != untraced {done[key]}"
    # The program's pinned merge identity, from the untraced n, R, P:
    # canonical's whole sort, and striped's merge phase, each do
    # n * (ceil log2 R + ceil log2 P) merge comparisons.
    n, runs = done["elements"], done["runs"]
    want = merge_work_bound(n, runs) + merge_work_bound(n, ranks)
    got = m["core.merge.merge_work"] if workload.startswith("canonical") \
        else tr["final_merge_work"]
    if got != want:
        return None, f"traced merge work {got:.0f} != n(ceil log2 R + ceil log2 P) = {want}"
    if not same_bytes(out, traced_out):
        return None, "traced output differs from the untraced output"
    named = {
        "canonical_p2": [("core.extselect.probes", ">0"), ("core.ctx.fetch_blocks", ">0"),
                         ("core.ctx.store_blocks", "=0")],
        "striped_p2": [("net.transport.bytes_sent", ">0"), ("core.ctx.store_blocks", "=0")],
        "striped_p2_repl1": [("net.transport.bytes_sent", ">0"), ("core.ctx.store_blocks", ">0")],
        "striped_p1_c2": [("core.merge.split_probes", ">0"), ("core.ctx.store_blocks", "=0")],
    }[workload]
    for key, cond in named:
        if (m[key] > 0) != (cond == ">0"):
            return None, f"{workload} must have {key} {cond}, got {m[key]}"
    if m["core.ctx.failed_ops"] != 0:
        return None, f"{m['core.ctx.failed_ops']:.0f} failed block-service operations"
    return m, None


def same_bytes(a, b, chunk=1 << 22):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(chunk), fb.read(chunk)
            if x != y:
                return False
            if not x:
                return True


def report_e2e(sorts, dones, setup_s):
    n_bytes = RECORDS * RECORD_BYTES
    io = [float(d["io_volume_n"]) for d in dones]
    comm = [float(d["comm_volume_n"]) for d in dones]
    moved = [a + b for a, b in zip(io, comm)]
    log("end-to-end (measured):")
    log("  sort walls in run order, s [host CPU share stolen by the hypervisor]: "
        + " ".join(f"{s.wall:.3f}[{100 * s.steal:.0f}%]" for s in sorts))
    # A sort during which the hypervisor ran other machines on this
    # host's CPUs measures the host, not the program: the timings use
    # the sorts with little steal, if there are enough of them.
    steady = [s for s in sorts if s.steal <= STEAL_LIMIT]
    if len(steady) >= MIN_STEADY:
        log(f"  timings below use the {len(steady)} of {len(sorts)} sorts with at most "
            f"{100 * STEAL_LIMIT:.0f}% steal")
        sorts = steady
    else:
        log(f"  fewer than {MIN_STEADY} sorts with at most {100 * STEAL_LIMIT:.0f}% steal: "
            f"timings below use all {len(sorts)} sorts")
    walls = [s.wall for s in sorts]
    show("sort_wall_s", "s", walls)
    show("throughput", "MB/s", [n_bytes / w / 1e6 for w in walls])
    show("cpu_s", "s", [s.cpu for s in sorts])
    show("peak_rss_mib", "MiB", [s.rss for s in sorts], "  largest rank")
    show("io_volume_n", "N", io)
    show("comm_volume_n", "N", comm)
    show("moved_volume_n", "N", moved, "  I/O + communication")
    log(f"  {'setup_s':<16} {setup_s:.4f} s  input (median of {SETUP_REPS}) + warm-up sort")
    return {
        "sort_wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(s.cpu for s in sorts), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(s.rss for s in sorts), "unit": "MiB"},
        "io_volume_n": {"value": statistics.median(io), "unit": "N"},
        "moved_volume_n": {"value": statistics.median(moved), "unit": "N"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


LAYER_UNITS = [
    ("net.transport.messages", "count"), ("net.transport.bytes_sent", "bytes"),
    ("net.transport.send_s", "s"), ("net.transport.recv_wait_s", "s"),
    ("core.ctx.fetch_blocks", "count"), ("core.ctx.fetch_wait_s", "s"),
    ("core.ctx.store_blocks", "count"), ("core.ctx.store_wait_s", "s"),
    ("core.ctx.failed_ops", "count"),
    ("storage.backend.read_blocks", "count"), ("storage.backend.read_s", "s"),
    ("storage.backend.write_blocks", "count"), ("storage.backend.write_s", "s"),
    ("storage.engine.bytes_read", "bytes"), ("storage.engine.bytes_written", "bytes"),
    ("storage.engine.modeled_disk_busy_s", "s"),
    ("types.buf.hit_ratio", "ratio"), ("types.buf.copied_per_byte", "ratio"),
    ("core.runform.s", "s"), ("core.runform.self_s", "s"), ("core.seqsort.sort_work", "count"),
    ("core.extselect.s", "s"), ("core.extselect.self_s", "s"),
    ("core.extselect.probes", "count"),
    ("core.alltoall.s", "s"), ("core.alltoall.self_s", "s"),
    ("core.localmerge.s", "s"), ("core.localmerge.self_s", "s"),
    ("core.striped.run_formation_s", "s"), ("core.striped.final_merge_s", "s"),
    ("core.striped.self_s", "s"),
    ("core.merge.merge_work", "count"), ("core.merge.split_probes", "count"),
    ("procs.rank_skew_s", "s"), ("bench.trace_overhead_s", "s"),
]


def report_layers(layers):
    log(f"per-layer (traced, median of {len(layers)} traced sorts; times measured except "
        f"where the name says modeled):")
    metrics = {}
    for name, unit in LAYER_UNITS:
        value = statistics.median(layer[name] for layer in layers)
        label = "  MODELED (DiskModel), not measured" if "modeled" in name else ""
        log(f"  {name:<36} {value:.6g} {unit}{label}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
