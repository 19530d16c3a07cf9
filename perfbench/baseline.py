"""Re-measure the ROADMAP baseline rows as medians of repeated runs.

Run from the repository root:

    python3 perfbench/baseline.py

Each row is timed in CPU seconds, in this process for library calls and
as the children's CPU for subprocesses (CLI calls, interpreter start-up,
pytest), and printed raw and rescaled by the reference kernel of
calibrate.py, as a markdown table.  The pytest rows need pytest and
sympy.  Slow rows run three times, the others five times.
"""

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REPEAT = 5
SLOW_REPEAT = 3


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _subprocess(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = _children_cpu()
    subprocess.run(argv, cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=600)
    return _children_cpu() - before


def _in_process(fn):
    t0 = time.thread_time()
    fn()
    return time.thread_time() - t0


def rows():
    import singcurve
    from singcurve import field_ctx, parse_poly
    py = sys.executable
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    cli = [py, "-m", "singcurve.cli"]
    qq, f7 = field_ctx(0), field_ctx(7)
    ex1_q, ex1_7 = parse_poly(corpus.EX1, qq), parse_poly(corpus.EX1, f7)
    ex2_q = parse_poly(corpus.EX2, qq)
    primes = [p for p in range(2, 32) if corpus.is_prime(p)]
    return [
        ("Tier-1 suite", SLOW_REPEAT,
         lambda: _subprocess(pytest + ["--continue-on-collection-errors"])),
        ("test_hn_transform_ex1_stage2_and_3 (HN maps over Q)", SLOW_REPEAT,
         lambda: _subprocess(pytest + [
             "tests/test_hn.py::test_hn_transform_ex1_stage2_and_3"])),
        ("test_parametrize_ex1_orders", SLOW_REPEAT,
         lambda: _subprocess(pytest + [
             "tests/test_invariants.py::test_parametrize_ex1_orders"])),
        ("build_tree(EX1 over Q)", REPEAT,
         lambda: _in_process(lambda: singcurve.build_tree(ex1_q))),
        ("parametrize_branch(EX1 over Q, 64)", SLOW_REPEAT,
         lambda: _in_process(
             lambda: singcurve.parametrize_branch(ex1_q, 64))),
        ("parametrize_branch(EX1 over F_7, 250)", SLOW_REPEAT,
         lambda: _in_process(
             lambda: singcurve.parametrize_branch(ex1_7, 250))),
        ("check_conjecture(EX2, primes 2..31, verify_shortcut=True)", REPEAT,
         lambda: _in_process(lambda: singcurve.check_conjecture(
             ex2_q, primes, verify_shortcut=True))),
        ("CLI `mu -p 3 -f EX1`", REPEAT,
         lambda: _subprocess(cli + ["mu", "-p", "3", "-f", corpus.EX1])),
        ("CLI `check -f EX1 --primes 2..200`", REPEAT,
         lambda: _subprocess(cli + ["check", "-f", corpus.EX1,
                                    "--primes", "2..200"])),
        ("bare interpreter start", REPEAT,
         lambda: _subprocess([py, "-c", ""])),
        ("`import singcurve.cli`", REPEAT,
         lambda: _subprocess([py, "-c", "import singcurve.cli"])),
    ]


def main():
    sys.path.insert(0, str(SRC))
    print("| row | runs | median CPU s | median rescaled s |")
    print("|---|---|---|---|")
    for name, n, fn in rows():
        raw, scaled = [], []
        for _ in range(n):
            ref = statistics.median(calibrate.kernel_ms() for _ in range(5))
            cpu = fn()
            raw.append(cpu)
            scaled.append(cpu * calibrate.REF_MS / ref)
        print(f"| {name} | {n} | {statistics.median(raw):.3f} | "
              f"{statistics.median(scaled):.3f} |", flush=True)


if __name__ == "__main__":
    main()
