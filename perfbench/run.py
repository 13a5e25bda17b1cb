"""Benchmark of torsionres: verified density reports, invariant sweeps and
lemma checks, timed end to end and per layer.

    python3 perfbench/run.py --workload report-exact --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
load is closed-loop: one process, one thread, and each case starts when
the previous one has finished.  Every output is checked (see
``verify.py``).  The case times behind the end-to-end metrics are scaled
to a fixed reference speed by a short loop timed beside each case, because
on a shared host the speed of a core can change by 1.5x for minutes.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
Each run also writes a result file, and a traced run its spans, under
``perfbench/results/``.
"""

import time

_T0_PERF = time.perf_counter()
_T0_BOOT = time.clock_gettime(time.CLOCK_BOOTTIME)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

END_TO_END_UNITS = {
    "setup_s": "s",
    "case_s_p50": "s",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CALIBRATION_LOOP = 1_000_000
MUL_ADD_LOOP = 20_000
# The reference loop timed beside every case, and the time it is scaled to:
# a case time t measured while the loop took r seconds counts as t * REF_S / r.
# r is the fastest of three loops, so that one preempted loop does not count.
REFERENCE_LOOP = 50_000
REF_S = 0.0035


def layer_units():
    """Unit of every per-layer metric."""
    from tracing import LAYER_METRICS

    units = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        if kind == "self":
            units[metric] = "s/case"
        elif source == "report.bytes":
            units[metric] = "bytes/case"
        elif kind == "max":
            units[metric] = "bits" if source == "scalars.max_bits" else "count"
        else:
            units[metric] = "count/case"
    units["scalars.mul_add_per_s"] = "1/s"
    units["trace.overhead_s"] = "s/case"
    return units


def process_age_at_start() -> float:
    """Seconds from the process's start to the first line of this script."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    age = _T0_BOOT - started
    return age if 0.0 <= age < 60.0 else 0.0


def loop_s(n: int) -> float:
    """Time of a fixed pure-Python loop of ``n`` steps."""
    t0 = time.perf_counter()
    sum(i * i for i in range(n))
    return time.perf_counter() - t0


def reference_s() -> float:
    """Time of the reference loop: the fastest of three."""
    return min(loop_s(REFERENCE_LOOP) for _ in range(3))


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop, to compare machines."""
    return statistics.median(loop_s(CALIBRATION_LOOP) for _ in range(3))


def mul_add_per_s() -> float:
    """Exact multiply-adds per second in a fixed loop, timed on its own."""
    from torsionres.scalars import GaussianRational

    values = [GaussianRational(p, q) / 6 for p in (-3, -1, 2) for q in (1, -2, 3)]
    rates = []
    for _ in range(5):
        acc = GaussianRational(0)
        t0 = time.perf_counter()
        for k in range(MUL_ADD_LOOP):
            acc = acc + values[k % 9] * values[(k * 5 + 1) % 9]
        rates.append(MUL_ADD_LOOP / (time.perf_counter() - t0))
    return statistics.median(rates)


class Run:
    """Counts, case times and problems of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = []
        self.references = []
        self.scaled = []
        self.by_label = {}

    def attempt(self, case):
        """Run one case; return (ok, output, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = case.run()
        except Exception as exc:  # a failed case is counted, and the run goes on
            self.failed += 1
            self.problems.append(f"{case.label}: raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return False, None, 0.0
        return True, output, time.perf_counter() - t0

    def check(self, done):
        for case, output in done:
            self.problems.extend(f"{case.label}: {p}" for p in case.check(output))

    def record(self, case, seconds, reference):
        """Keep a case's wall time, and its time at reference speed, given
        the reference loop's time beside it."""
        scaled = seconds * REF_S / reference
        self.times.append(seconds)
        self.references.append(reference)
        self.scaled.append(scaled)
        self.by_label.setdefault(case.label, []).append(scaled)


def run_timed(rounds, seconds, run):
    """Repeat whole rounds, untraced, until ``seconds`` have passed.  The
    reference loop runs before each case and after the last one; a case's
    reference time is the mean of the two beside it."""
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        done = []
        before = reference_s()
        for case in rounds[r % len(rounds)]:
            ok, output, dt = run.attempt(case)
            after = reference_s()
            if ok:
                run.record(case, dt, (before + after) / 2)
                done.append((case, output))
            before = after
        run.check(done)
        r += 1
        if time.perf_counter() >= deadline:
            return r


def _traced_pass(cases, run, tracer, done, first_id, counting=False):
    ids = list(range(first_id, first_id + len(cases)))
    with tracer.active(counting):
        t0 = time.perf_counter()
        for case_id, case in zip(ids, cases):
            with tracer.case(case_id):
                ok, output, _ = run.attempt(case)
            if ok:
                done.append((case, output))
        wall = time.perf_counter() - t0
    return ids, wall


def run_traced(rounds, seconds, run, tracer):
    """Trace the first round: one pass with scalar counters, then pairs of
    an untraced and a spanned pass until ``seconds`` have passed.  Return
    the counting pass's case ids and one record per pair."""
    deadline = time.perf_counter() + seconds
    done = []
    count_ids, _ = _traced_pass(rounds[0], run, tracer, done, 0, counting=True)
    run.check(done)
    pairs = []
    while True:
        done = []
        t0 = time.perf_counter()
        for case in rounds[0]:
            ok, output, _ = run.attempt(case)
            if ok:
                done.append((case, output))
        untraced = time.perf_counter() - t0
        first_id = len(rounds[0]) * (len(pairs) + 1)
        ids, traced = _traced_pass(rounds[0], run, tracer, done, first_id)
        run.check(done)
        pairs.append({"case_ids": ids, "untraced_wall_s": untraced, "traced_wall_s": traced})
        if time.perf_counter() >= deadline:
            return count_ids, pairs


def end_to_end_metrics(run, setup_s):
    times = run.scaled
    return {
        "setup_s": setup_s,
        "case_s_p50": statistics.median(times) if times else 0.0,
        "cases_per_s": len(times) / sum(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(count_ids, pairs, tracer):
    """Per-case layer figures: the median over pairs of passes for times,
    the first pair's value for counts, which every pair repeats."""
    per_pair = [tracer.summarize(p["case_ids"], count_ids) for p in pairs]
    out = {}
    for metric in per_pair[0]:
        if metric.endswith("_s"):
            out[metric] = statistics.median(p[metric] for p in per_pair)
        else:
            out[metric] = per_pair[0][metric]
    out["scalars.mul_add_per_s"] = mul_add_per_s()
    out["trace.overhead_s"] = statistics.median(
        (p["traced_wall_s"] - p["untraced_wall_s"]) / len(p["case_ids"]) for p in pairs
    )
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def traced_figures(rounds, seconds, run, stem):
    """Per-layer metrics of a traced run, and their bases."""
    from tracing import Tracer

    tracer = Tracer()
    count_ids, pairs = run_traced(rounds, seconds, run, tracer)
    counts = [tracer.counts_of(p["case_ids"]) for p in pairs]
    bases = {
        "per_case": "each /case figure is a total over the cases of one pass "
                    "divided by its case count",
        "cases_per_pass": len(rounds[0]),
        "counting_pass_case_ids": count_ids,
        "pairs": pairs,
        "counts": counts[0],
        "counts_repeat": all(c == counts[0] for c in counts),
        "spans": len(tracer.spans),
        "spans_file": stem + "-spans.jsonl.gz",
    }
    tracer.write_spans(bases["spans_file"])
    return layer_metrics(count_ids, pairs, tracer), layer_units(), bases


def timed_figures(rounds, seconds, run, setup_s):
    """End-to-end metrics of an untraced run, and their bases."""
    n_rounds = run_timed(rounds, seconds, run)
    bases = {
        "rounds": n_rounds,
        "cases_timed": len(run.times),
        "timed_s": sum(run.times),
        "scaled_to_reference": "case_s_p50 and cases_per_s use case_s_scaled: each wall "
                               f"time in case_s times {REF_S} s over the reference loop's "
                               "time beside it in reference_s (the fastest of three loops of "
                               f"{REFERENCE_LOOP} steps)",
        "wall_case_s_p50": statistics.median(run.times) if run.times else 0.0,
        "wall_cases_per_s": len(run.times) / sum(run.times) if run.times else 0.0,
        "case_s_scaled_by_label": {
            label: {"n": len(ts), "median": statistics.median(ts)}
            for label, ts in sorted(run.by_label.items())
        },
        "case_s": run.times,
        "reference_s": run.references,
        "case_s_scaled": run.scaled,
    }
    return end_to_end_metrics(run, setup_s), END_TO_END_UNITS, bases


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torsionres", "__init__.py")):
        print(f"error: no torsionres package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run = Run()
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        rounds = workloads.build_rounds(args.workload, args.seed, workdir)
        setup_s = process_age_at_start() + time.perf_counter() - _T0_PERF
        if args.trace:
            metrics, units, bases = traced_figures(rounds, args.seconds, run, stem)
        else:
            metrics, units, bases = timed_figures(rounds, args.seconds, run, setup_s)
    correct = not run.problems and run.attempted > run.failed
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        problems=run.problems[:50],
        python=platform.python_version(),
        cpu_count=os.cpu_count(),
        calibration_s=calibration_s(),
        bases=bases,
    )
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for problem in run.problems[:20]:
        print(f"INCORRECT {problem}")
    print(f"workload {args.workload} seed {args.seed}: attempted {run.attempted}, "
          f"failed {run.failed}, correct {correct}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
