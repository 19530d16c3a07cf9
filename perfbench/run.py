"""Benchmark for singcurve: seeded workloads, checked answers, CPU time.

Run from the repository root; it imports singcurve from ./src:

    python3 perfbench/run.py --workload prime_sweep --seed 1 --seconds 15 \\
        --trace 0

With --trace 0 it times whole cycles of queries until --seconds of query
CPU time are spent, checks every answer, and prints the end-to-end metrics;
timings are CPU time rescaled by a reference kernel (see calibrate.py).
With --trace 1 it runs a fixed number of cycles three times (plain, with
spans, with coefficient counters) and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md beside this file.
"""

import argparse
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

import calibrate
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

DEADLINE_S = 3.0           # per-query rescaled CPU deadline; a miss fails
TRACED_DEADLINE_S = 60.0   # for queries that met DEADLINE_S untraced
MIN_QUERIES = 150          # so that >= 15 samples lie beyond p90
SETUP_PROBES = 5           # fresh processes timed for setup_s
WALL_CAP_S = 120.0         # start no new cycle after this much wall time
HEAVY_STEAL_RATIO = 1.5    # wall/CPU above this flags a run as stolen
TRACE_CYCLES = {"prime_sweep": 8, "mu_corpus": 1, "branch_series": 1}


class Record(NamedTuple):
    cycle: int
    query: dict
    status: str      # ok, deadline or exception
    result: Any      # raw answer, or the error text
    cpu: float       # thread CPU seconds
    scaled: float = 0.0  # cpu rescaled by the reference kernel


class DeadlineMiss(BaseException):
    """Raised by the CPU-time alarm; not an Exception, so nothing in the
    package can swallow it."""


class _Alarm:
    armed = False

    @classmethod
    def fire(cls, signum, frame):
        if cls.armed:
            cls.armed = False
            raise DeadlineMiss()


def _load_package():
    """Import singcurve from this checkout's src/, or stop."""
    if not (SRC / "singcurve" / "__init__.py").is_file():
        sys.exit(f"perfbench: no singcurve package under {SRC}")
    sys.path.insert(0, str(SRC))
    import singcurve
    where = Path(singcurve.__file__).resolve().parent
    if where != SRC / "singcurve":
        sys.exit(f"perfbench: imported singcurve from {where}, not {SRC}")


def setup(name, seed):
    """Corpus generation and warm-up: one query of each kind, untimed."""
    import execute
    wl = corpus.Workload(name, seed)
    kinds = set()
    for q in wl.cycle(0):
        if q["kind"] not in kinds:
            kinds.add(q["kind"])
            execute.run_query(q)
    # keep the modules and the corpus out of every later collection
    gc.collect()
    gc.freeze()
    return wl


def _cpu_self():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def probe_setup(name, seed):
    """(raw, rescaled) CPU seconds of fresh processes that import,
    generate and warm up; each rescaled by kernel samples taken here just
    before it starts."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        ref = statistics.median(calibrate.kernel_ms() for _ in range(5))
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=120, check=True)
        cpu = json.loads(out.stdout.splitlines()[-1])["setup_cpu_s"]
        raw.append(cpu)
        scaled.append(cpu * calibrate.REF_MS / ref)
    return raw, scaled


def _steal_ticks():
    """Host steal ticks summed over all CPUs (1/USER_HZ s), or None."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith("cpu "):
                    return int(line.split()[8])
    except (OSError, IndexError, ValueError):
        pass
    return None


def run_one(q, cycle, deadline):
    """Record of one query; `deadline` is in raw CPU seconds."""
    import execute
    # start each query without garbage left by the previous one
    gc.collect()
    t0 = time.thread_time()
    try:
        _Alarm.armed = True
        signal.setitimer(signal.ITIMER_PROF, deadline)
        try:
            result = execute.run_query(q)
        finally:
            _Alarm.armed = False
            signal.setitimer(signal.ITIMER_PROF, 0)
    except DeadlineMiss:
        return Record(cycle, q, "deadline", None, time.thread_time() - t0)
    except Exception as e:  # any other error is a failed query
        return Record(cycle, q, "exception", f"{type(e).__name__}: {e}",
                      time.thread_time() - t0)
    return Record(cycle, q, "ok", result, time.thread_time() - t0)


def run_queries(queries, cycle, deadline, cal):
    """Records of queries run in order, with kernel samples between them;
    `deadline` is in rescaled CPU seconds."""
    out = []
    for q in queries:
        cal.due()
        out.append(run_one(q, cycle, cal.raw_seconds(deadline)))
        cal.add(out[-1].cpu)
    return out


def rescale(records, cal, deadline):
    """Records with their rescaled CPU time.  A query that missed its
    deadline is charged the deadline: the alarm converts it to raw CPU at
    the speed seen before the query, and the speed moves while it runs."""
    return [r._replace(scaled=deadline if r.status == "deadline"
                       else r.cpu * f)
            for r, f in zip(records, cal.scales())]


def timed_cycles(wl, seconds, cal):
    """Whole cycles until `seconds` of query CPU time, MIN_QUERIES and the
    workload's minimum number of cycles."""
    records = []
    used = 0.0
    wall0 = time.perf_counter()
    cycle = 0
    while True:
        batch = run_queries(wl.cycle(cycle), cycle, DEADLINE_S, cal)
        records += batch
        used += sum(r.cpu for r in batch)
        cycle += 1
        if used >= seconds and len(records) >= MIN_QUERIES and \
                cycle >= wl.min_cycles:
            break
        if time.perf_counter() - wall0 > WALL_CAP_S:
            break
    return rescale(records, cal, DEADLINE_S), cycle


def judge(records):
    """Counts of outcomes, plus the first few problems for the log."""
    import execute
    counts = {"deadline": 0, "exception": 0, "wrong": 0}
    notes = []
    for r in records:
        status, detail = r.status, r.result
        if status == "ok":
            try:
                bad = execute.check(r.query, r.result)
            except Exception as e:  # a crash in a check is a wrong answer
                bad = [f"check raised {type(e).__name__}: {e}"]
            if bad:
                status, detail = "wrong", "; ".join(bad)
        if status != "ok":
            counts[status] += 1
            if len(notes) < 10:
                q = r.query
                notes.append(f"  {status}: cycle {r.cycle} {q['kind']} "
                             f"{q['name']} p={q['p']}: {detail}")
    return counts, notes


def digest(records, cycle=0):
    """sha256 over the inputs and answers of one cycle."""
    import execute
    h = hashlib.sha256()
    for r in records:
        if r.cycle == cycle:
            q = r.query
            text = execute.answer(q, r.result) if r.status == "ok" \
                else r.status
            h.update(f"{q['p']}^{q.get('k', 1)}|{q['f']}|{q.get('g')}|"
                     f"{text}\n".encode())
    return h.hexdigest()


def summary(times, failed):
    """(p50 ms, p90 ms, samples beyond p90, completed per second, total s)
    of per-query seconds; p90 is nearest-rank."""
    s = sorted(times)
    k = math.ceil(0.9 * len(s))
    total = sum(s)
    return (statistics.median(s) * 1000.0, s[k - 1] * 1000.0, len(s) - k,
            (len(s) - failed) / total, total)


def _emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def end_to_end(args):
    wl = setup(args.workload, args.seed)
    cal = calibrate.Calibrator()
    steal0, wall0, cpu0 = _steal_ticks(), time.perf_counter(), _cpu_self()
    records, cycles = timed_cycles(wl, args.seconds, cal)
    wall, cpu = time.perf_counter() - wall0, _cpu_self() - cpu0
    steal1 = _steal_ticks()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_raw, setup_scaled = probe_setup(args.workload, args.seed)

    counts, notes = judge(records)
    n = len(records)
    failed = sum(counts.values())
    p50, p90, beyond, qps, total = summary([r.scaled for r in records],
                                           failed)
    raw = summary([r.cpu for r in records], failed)
    metrics = {
        "query_p50_ms": (p50, "ms"),
        "query_p90_ms": (p90, "ms"),
        "throughput_qps": (qps, "1/s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  cycles {cycles}  "
          f"queries {n}")
    print(f"  query_p50_ms    {p50:10.3f} ms   (n = {n}; raw CPU "
          f"{raw[0]:.3f})")
    print(f"  query_p90_ms    {p90:10.3f} ms   (n = {n}, {beyond} samples "
          f"beyond; raw CPU {raw[1]:.3f})")
    print(f"  throughput_qps  {qps:10.3f} 1/s  ({n - failed} completed in "
          f"{total:.3f} s; raw CPU {raw[3]:.3f} in {raw[4]:.3f} s)")
    print(f"  failed_share    {failed / n:10.4f}      ({failed} of {n}: "
          f"{counts['deadline']} deadline, {counts['wrong']} wrong, "
          f"{counts['exception']} exception)")
    print(f"  setup_s         {metrics['setup_s'][0]:10.4f} s    (median of "
          f"{len(setup_raw)} fresh processes; raw CPU "
          f"{', '.join(f'{v:.3f}' for v in setup_raw)})")
    print(f"  peak_rss_mb     {rss_mb:10.2f} MB")
    for line in notes:
        print(line)
    print(f"digest {args.workload} seed {args.seed} cycle 0: "
          f"{digest(records)}")
    ratio = wall / cpu if cpu > 0 else float("inf")
    steal = "n/a" if steal0 is None or steal1 is None else steal1 - steal0
    flag = "  HEAVY STEAL: wall time is not comparable" \
        if ratio > HEAVY_STEAL_RATIO else ""
    print(f"diagnostics: timed wall {wall:.3f} s, process CPU {cpu:.3f} s, "
          f"wall/CPU {ratio:.3f}, host steal {steal} ticks{flag}; "
          f"reference kernel median {cal.kernel_median_ms():.3f} ms "
          f"(unit {calibrate.REF_MS} ms)")
    correct = counts["wrong"] == 0 and counts["exception"] == 0
    _emit(correct, n, failed, metrics)


def _pass(queries, deadline):
    cal = calibrate.Calibrator()
    return rescale(run_queries(queries, 0, deadline, cal), cal, deadline)


def traced(args):
    import layers
    wl = setup(args.workload, args.seed)
    cycles = TRACE_CYCLES[args.workload]
    queries = [q for c in range(cycles) for q in wl.cycle(c)]
    # a query that missed its deadline is not traced: it would only add
    # a partial trace and burn the deadline twice more
    plain = [r for r in _pass(queries, DEADLINE_S) if r.status != "deadline"]
    misses = len(queries) - len(plain)
    done = [r.query for r in plain]
    with layers.Tracer() as tracer:
        unpatched = tracer.unpatched()
        spanned = _pass(done, TRACED_DEADLINE_S)
    with layers.CoeffCounter() as counter:
        unpatched += counter.unpatched()
        counted = _pass(done, TRACED_DEADLINE_S)
        coeff_ops = counter.total()

    counts, notes = judge(plain)
    failed = misses + sum(counts.values()) + \
        sum(r.status != "ok" for r in spanned + counted)
    same = digest(plain) == digest(spanned) == digest(counted)
    plain_s = sum(r.scaled for r in plain)
    span_s = sum(r.scaled for r in spanned)
    overhead = (span_s / plain_s - 1.0) * 100.0
    metrics = layers.layer_metrics(tracer, coeff_ops, overhead, unpatched)

    print(f"workload {args.workload}  seed {args.seed}  traced cycles "
          f"{cycles}  queries {len(queries)}, {misses} past the deadline "
          f"and not traced")
    width = max(len(k) for k in metrics)
    for k, (v, u) in metrics.items():
        print(f"  {k:<{width}}  {v:>14.6g} {u}")
    print(f"tracing overhead: {plain_s:.3f} s plain, {span_s:.3f} s with "
          f"spans, rescaled CPU ({overhead:+.1f}%)")
    for name in unpatched:
        print(f"  self-check: still unpatched: {name}")
    for line in notes:
        print(line)
    if not same:
        print("  answers differ between the plain and traced passes")
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(out, "w") as fh:
        for sid, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")
    print(f"spans: {len(tracer.spans)} written to "
          f"{out.relative_to(ROOT)} (cap {layers.SPAN_CAP})")
    correct = counts["wrong"] == 0 and counts["exception"] == 0 and same
    _emit(correct, len(queries) + 2 * len(done), failed, metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    _load_package()
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(json.dumps({"setup_cpu_s": _cpu_self()}))
        return
    signal.signal(signal.SIGPROF, _Alarm.fire)
    if args.trace:
        traced(args)
    else:
        end_to_end(args)


if __name__ == "__main__":
    main()
