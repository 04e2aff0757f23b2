"""The jordan-strata benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  One process, one thread, one client in a
closed loop: each request calls `jordan_strata.cli.main(argv)` in-process
and the next starts when it returns.

A run draws the workload's request list from the seed, writes its input
files under `.perfbench_run/`, times the cold set-up, then runs the whole
list at least twice, and again while another pass should end within
`--seconds`.  Every request is checked against the golden table in
`data/golden.json`.

With `--trace 0` it reports the end-to-end metrics:

  setup_s      median over three fresh processes of import plus cold builds
  wall_s       time to run the request list once with caches warm: the
               sum of the request latencies
  peak_rss_mb  ru_maxrss of the run process
  lat_p50_ms   median request latency
  lat_tail_ms  latency at the highest percentile with ten requests beyond
               it (the largest latency when a list has fewer than 21)

Times are in reference seconds (see HostSpeed): each is scaled by the host
speed that a stdlib reference loop, run at short intervals inside it,
shows.  The
line before the result gives the same time metrics in raw seconds.  A
request's latency is its median over the passes, so the percentiles are
taken over the requests of one list.  An over-budget request is charged
its budget.

With `--trace 1` it sets up with tracing on, runs one traced pass over the
list, and reports the per-layer metrics of `tracing.py` from it; its spans
go to `.perfbench_run/spans-<workload>.tsv`.  It then alternates untraced
and traced passes under the host-speed probes: `trace.overhead_s` is the
median over those pairs of the traced minus the untraced pass, in
reference seconds.

The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import runner  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


MIN_PASSES = 2  # passes over the request list in an untraced run, at least
OVERHEAD_PAIRS = 3  # untraced and traced pass pairs in a traced run, at least


def _die(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


class HostSpeed:
    """The host's speed over time, read from a fixed reference loop.

    On a shared host the CPU speed drifts by 20% and more, on every time
    scale from tenths of a second to minutes.  The reference loop is stdlib
    Fraction arithmetic that shares no code with the program.  While
    started, a SIGPROF timer runs it every PERIOD_S of process CPU time, in
    the middle of whatever the process is doing, so a long request holds
    many probes; `start` and `stop` probe once more.  After `stop`,
    `measure(a, b, seconds)` takes the probes out of a span of time and
    converts the rest to reference seconds: the time on a host where the
    loop takes REF_S.  A span with no probe inside is scaled by the nearest
    probe on each side.
    """

    ITERATIONS = 750
    REF_S = 0.005
    PERIOD_S = 0.1

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")

    def _probe(self, signum=None, frame=None) -> None:
        a = Fraction(1, 3)
        t0 = time.perf_counter()
        for i in range(self.ITERATIONS):
            a = a * Fraction(7, 5) + Fraction(1, i + 1) if i % 50 else Fraction(1, 3)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._probe()

    def measure(self, a: float, b: float, seconds: float) -> tuple:
        """(raw, reference) seconds of `seconds` measured from a to b."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        probes = range(lo, hi) if hi > lo else range(max(lo - 1, 0), min(lo + 1, len(self.starts)))
        durations = [self.ends[i] - self.starts[i] for i in probes]
        raw = seconds - sum(durations[: hi - lo])
        return raw, raw * self.REF_S / statistics.mean(durations)

    def scales(self) -> list:
        return [self.REF_S / (e - s) for s, e in zip(self.starts, self.ends)]


def timed_setup(workload: str, after_import=None) -> float:
    t0 = time.perf_counter()
    wl.setup(workload, after_import)
    return time.perf_counter() - t0


def scaled_setup(workload: str) -> tuple:
    """(raw, reference) set-up seconds."""
    speed = HostSpeed()
    speed.start()
    t0 = time.perf_counter()
    seconds = timed_setup(workload)
    speed.stop()
    return speed.measure(t0, time.perf_counter(), seconds)


def child_setups(workload: str, count: int) -> list:
    """(raw, reference) set-up seconds of `count` fresh processes, one
    after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        raw, scaled = proc.stdout.split()[-2:]
        out.append((float(raw), float(scaled)))
    return out


class Tally:
    """Latencies and failures over every request a run makes."""

    def __init__(self):
        self.attempted = 0
        self.by_request = {}  # position in the list -> [(start, end, seconds)]
        self.failed = 0
        self.wrong = 0  # failures other than budget overruns
        self.reasons = {}

    def add(self, pos, req, reason, span):
        self.attempted += 1
        self.by_request.setdefault(pos, []).append(span)
        if reason is None:
            return
        self.failed += 1
        if not reason.startswith("over budget"):
            self.wrong += 1
        key = f"{req.key}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1


def run_pass(reqs, budget_s, golden, tally, tracer=None) -> float:
    from jordan_strata import cli

    t0 = time.perf_counter()
    for pos, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = tally.attempted
        a = time.perf_counter()
        outcome = runner.execute(cli.main, req.argv, budget_s)
        span = (a, time.perf_counter(), outcome.seconds)
        tally.add(pos, req, runner.check(req, outcome, golden), span)
    return time.perf_counter() - t0


def traced_pass(reqs, budget_s, golden, tally):
    """Run one pass with a fresh tracer installed; return the tracer."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_pass(reqs, budget_s, golden, tally, tracer)
    finally:
        tracer.uninstall()
    return tracer


def tail_latency(latencies):
    """(value, percentile): the highest order statistic with at least ten
    requests above it, or the maximum for fewer than 21 requests, where
    that order statistic would not lie above the median."""
    lat = sorted(latencies)
    idx = len(lat) - 11 if len(lat) >= 21 else len(lat) - 1
    return lat[idx], 100.0 * (idx + 1) / len(lat)


def deterministic(workload: str, seed: int, inputs: dict) -> bool:
    """Same seed, same bytes; another seed, other bytes."""
    a = wl.list_bytes(wl.request_list(workload, seed, inputs), inputs)
    b = wl.list_bytes(wl.request_list(workload, seed, inputs), inputs)
    c = wl.list_bytes(wl.request_list(workload, seed + 1, inputs), inputs)
    return a == b and a != c


def self_test() -> int:
    inputs = wl.load_inputs()
    golden = json.loads((wl.DATA_DIR / "golden.json").read_text())
    ok = True
    for name in wl.WORKLOADS:
        for seed in (0, 1, 17):
            if not deterministic(name, seed, inputs):
                print(f"FAIL {name} seed {seed}: request list is not seed-determined")
                ok = False
        pool = wl.pool_name(name)
        missing = [r.key for r in wl.pool(pool) if r.key not in golden.get(pool, {})]
        if missing:
            print(f"FAIL {name}: {len(missing)} pool requests lack golden entries")
            ok = False
    bench = ROOT / "BENCHMARK.json"
    if bench.exists():
        spec = json.loads(bench.read_text())
        declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        if declared != tracing.metric_names():
            print("FAIL BENCHMARK.json per_layer differs from tracing.metric_names()")
            ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def latency_metrics(setup_s: float, per_request: list) -> dict:
    """The time metrics of one run, from set-up and per-request seconds."""
    tail, _ = tail_latency(per_request)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": sum(per_request), "unit": "s"},
        "lat_p50_ms": {"value": 1000 * statistics.median(per_request), "unit": "ms"},
        "lat_tail_ms": {"value": 1000 * tail, "unit": "ms"},
    }


def summary(workload, seed, nreqs, passes, tally, metrics, tail_pct):
    lines = [f"workload {workload}, seed {seed}: {nreqs} requests per pass, {passes} passes"]
    attempted = tally.attempted
    lines.append(f"  fail_frac    {tally.failed / attempted:.4f} ratio ({tally.failed} of {attempted})")
    for name, m in metrics.items():
        note = f"  (p{tail_pct:.1f} of {nreqs} requests)" if name == "lat_tail_ms" else ""
        lines.append(f"  {name:<12} {m['value']:.6g} {m['unit']}{note}")
    for reason, count in sorted(tally.reasons.items()):
        lines.append(f"  failed x{count}: {reason}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="jordan-strata benchmark")
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "jordan_strata" / "__init__.py").is_file():
        return _die(f"no jordan_strata package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.setup_child:
        print("%.9f %.9f" % scaled_setup(args.setup_child))
        return 0
    if args.self_test:
        return self_test()
    if args.workload is None:
        return _die("--workload is required")

    spec = wl.WORKLOADS[args.workload]
    inputs = wl.load_inputs()
    golden = json.loads((wl.DATA_DIR / "golden.json").read_text())[wl.pool_name(args.workload)]
    reqs = wl.request_list(args.workload, args.seed, inputs)
    seeded = deterministic(args.workload, args.seed, inputs)
    wl.write_inputs(reqs, inputs, ROOT)
    runner.install_alarm()
    tally = Tally()

    if args.trace:
        # Cold builds are traced in set-up, the per-layer metrics in one
        # traced pass.  Then untraced and traced passes alternate under the
        # host-speed probes, at least OVERHEAD_PAIRS times and until
        # --seconds have passed; the overhead is the median over the pairs
        # of the traced minus the untraced pass, in reference seconds.
        cold = tracing.Tracer()
        timed_setup(args.workload, cold.install)
        cold.uninstall()
        tracer = traced_pass(reqs, spec.budget_s, golden, tally)
        tracer.cold = cold.cold
        speed = HostSpeed()
        speed.start()
        pairs = 0
        t0 = time.perf_counter()
        while pairs < OVERHEAD_PAIRS or time.perf_counter() - t0 < args.seconds:
            run_pass(reqs, spec.budget_s, golden, tally)
            traced_pass(reqs, spec.budget_s, golden, tally)
            pairs += 1
        speed.stop()
        # Pass i of the run is entry i of every request's list of spans.
        ref = [
            sum(speed.measure(*runs[i])[1] for runs in tally.by_request.values())
            for i in range(1, 2 * pairs + 1)
        ]
        untraced, traced = ref[0::2], ref[1::2]
        values = tracer.metrics(first_request=0)
        values["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced, traced))
        tracer.write(ROOT / wl.WORK_DIR / f"spans-{args.workload}.tsv")
        metrics = {n: {"value": values[n], "unit": u} for n, u in tracing.metric_names()}
        print(
            f"workload {args.workload}, seed {args.seed}: {values['trace.spans']} spans in the "
            f"traced pass; {pairs} pairs of passes, median untraced "
            f"{statistics.median(untraced):.3f} s, traced {statistics.median(traced):.3f} s, "
            f"overhead {values['trace.overhead_s']:.3f} s (reference seconds)"
        )
    else:
        setups = [scaled_setup(args.workload)]
        setups += child_setups(args.workload, wl.SETUP_REPEATS - 1)
        speed = HostSpeed()
        speed.start()
        passes = []
        t0 = time.perf_counter()
        # At least MIN_PASSES passes; then another while it should end
        # within --seconds.
        while len(passes) < MIN_PASSES or (
            time.perf_counter() - t0 + statistics.mean(passes) <= args.seconds
        ):
            passes.append(run_pass(reqs, spec.budget_s, golden, tally))
        speed.stop()
        # One latency per request of the list: the median over the passes
        # of its time, in reference seconds and in raw seconds.
        times = [[speed.measure(*span) for span in runs] for runs in tally.by_request.values()]
        per_request = [statistics.median(r for _, r in runs) for runs in times]
        raw_request = [statistics.median(r for r, _ in runs) for runs in times]
        _, tail_pct = tail_latency(per_request)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = latency_metrics(statistics.median(s for _, s in setups), per_request)
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        raw = latency_metrics(statistics.median(r for r, _ in setups), raw_request)
        print(summary(args.workload, args.seed, len(reqs), len(passes), tally, metrics, tail_pct))
        scales = speed.scales()
        print(f"  host speed scale median {statistics.median(scales):.4f}, "
              f"range {min(scales):.4f}-{max(scales):.4f} over {len(scales)} probes")
        print("raw seconds (unscaled): " + json.dumps(raw))

    result = {
        "correct": seeded and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
