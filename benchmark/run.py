"""Benchmark of the superqubit kernel.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One process, no threads of its own, a closed loop:
each op starts when the previous one has returned.

--trace 0  times whole rounds of ops for S seconds and prints the end-to-end
           metrics: setup_s, ops_per_s, peak_rss_mb.
--trace 1  runs a fixed number of rounds twice, untraced and then traced,
           and prints the per-layer metrics, including the difference of
           the two wall times (trace.overhead_s).
--quick    one round with one op of each kind; the benchmark's own test.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details (check tallies, per-round output
digests, spans) go to benchmark/out/.  Exit code 0 when every check holds,
1 when one fails, 2 on a usage error or a missing source tree.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("chsh_search", "chsh_exact", "graded_identities")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("peak_rss_mb", "MB"))

# per-layer metric -> (unit, source); sources:
#   ("span", name, "calls" | "self_s")   aggregated trace of one wrapped name
#   ("extra", key)                        measured by this script
PER_LAYER = {
    **{f"setup.import.{m}_s": ("s", ("span", f"setup.import.{m}", "self_s"))
       for m in ("grassmann", "supermatrix", "uosp", "superstate", "chsh", "cli")},
    "cli.state_wall_s": ("s", ("extra", "cli_state_wall_s")),
    "chsh.fast_tables.calls": ("count", ("span", "chsh.fast_tables", "calls")),
    "chsh.fast_tables.self_s": ("s", ("span", "chsh.fast_tables", "self_s")),
    "chsh.fast_tables.us_per_call": ("us", ("extra", "fast_tables_us_per_call")),
    "chsh.minimize.calls": ("count", ("span", "chsh.minimize", "calls")),
    "chsh.minimize.self_s": ("s", ("span", "chsh.minimize", "self_s")),
    "chsh.nm_iterations": ("count", ("extra", "nm_iterations")),
    "chsh.evals_per_restart": ("count", ("extra", "evals_per_restart")),
    "chsh.outcome_probs.self_s": ("s", ("span", "chsh.outcome_probs", "self_s")),
    **{f"{name}.self_s": ("s", ("span", name, "self_s")) for name in (
        "superstate.upsilon", "superstate.apply_local", "superstate.measure_real",
        "superstate.transition_real", "superstate.norm_supernumber",
        "uosp.s_matrix", "uosp.u_matrix")},
    "supermatrix.matmul.calls": ("count", ("span", "supermatrix.matmul", "calls")),
    "supermatrix.matmul.self_s": ("s", ("span", "supermatrix.matmul", "self_s")),
    "supermatrix.grade_adjoint.self_s": ("s", ("span", "supermatrix.grade_adjoint", "self_s")),
    "supermatrix.graded_kron.calls": ("count", ("span", "supermatrix.graded_kron", "calls")),
    "supermatrix.graded_kron.self_s": ("s", ("span", "supermatrix.graded_kron", "self_s")),
    **{f"grassmann.{m}.{k}": ("count" if k == "calls" else "s", ("span", f"grassmann.{m}", k))
       for m in ("mul", "hash", "modified_rogers") for k in ("calls", "self_s")},
    "grassmann.init.calls": ("count", ("span", "grassmann.init", "calls")),
    "trace.overhead_s": ("s", ("extra", "trace_overhead_s")),
}
# Machine speed on a shared host drifts by tens of percent within minutes.
# Program time in the timed phase is therefore scaled to a reference speed,
# measured with a fixed loop right after set-up and at every pause of the
# clock (after each round, and between the restarts of chsh_search): scaled
# time = measured time * REFERENCE_LOOP_S / measured loop time.  The raw
# figures go to the details file.
REFERENCE_LOOP_S = 2.6e-4  # median of reference_loop_s() on the machine of the README figures

# derived metrics that need a wrapped name
DEPENDS = {"fast_tables_us_per_call": "chsh.fast_tables", "evals_per_restart": "chsh.fast_tables"}


def process_age() -> float:
    """Seconds since this process started, from its start time in /proc."""
    with open("/proc/self/stat") as f:
        fields = f.read().rpartition(")")[2].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def reference_loop_s(budget_s: float = 0.004) -> float:
    """Median time of a fixed interpreter-bound loop that uses no program
    code (the product of two 48-term sparse complex polynomials on bit
    masks), repeated for about `budget_s` seconds."""
    poly = {m: complex(m, 1.0) for m in range(48)}
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < 5 or time.perf_counter() < end:
        t0 = time.perf_counter()
        out = {}
        for ma, ca in poly.items():
            for mb, cb in poly.items():
                if not ma & mb:
                    out[ma | mb] = out.get(ma | mb, 0j) + ca * cb
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true", help="one op of each kind, one round")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, default=repr).encode()).hexdigest()[:16]


class Clock:
    """Program time of a run.  Each tick pauses it to time the reference
    loop, and each stretch between ticks is scaled by the mean of the
    reference loop times measured around it."""

    def __init__(self, loop_s: float):
        self.loop_s = [loop_s]
        self.raw = self.scaled = 0.0
        self.steps = []  # (raw, scaled) seconds of each stretch
        self._t0 = time.perf_counter()

    def start(self):
        self._t0 = time.perf_counter()

    def tick(self):
        dt = time.perf_counter() - self._t0
        # a reference sample of a tenth of the stretch it scales
        self.loop_s.append(reference_loop_s(0.1 * dt))
        scaled = dt * 2 * REFERENCE_LOOP_S / (self.loop_s[-2] + self.loop_s[-1])
        self.steps.append((dt, scaled))
        self.raw += dt
        self.scaled += scaled
        self._t0 = time.perf_counter()


def measure(wl, seed, seconds, quick, checks, clock):
    """Closed loop of whole rounds until `seconds` have passed."""
    raw, scaled, digests = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        inputs = wl.make(seed, len(raw), quick)
        before = clock.raw, clock.scaled
        clock.start()
        outputs = wl.run(inputs, clock.tick)
        clock.tick()
        raw.append(clock.raw - before[0])
        scaled.append(clock.scaled - before[1])
        record, nfail = wl.check(inputs, outputs, checks)
        digests.append(digest(record))
        attempted += len(inputs)
        failed += nfail
        if quick or time.perf_counter() - start >= seconds:
            break
    # every round holds the same ops: the rate of the median round
    ops = len(inputs)
    return attempted, failed, ops / statistics.median(scaled), ops / statistics.median(raw), digests


def measure_traced(wl, tracer, seed, quick, checks):
    """The same rounds untraced, then traced; outputs must not change."""
    rounds = [wl.make(seed, r, quick) for r in range(1 if quick else wl.trace_rounds)]
    t0 = time.perf_counter()
    plain = [wl.run(x, tick=lambda: None) for x in rounds]
    untraced = time.perf_counter() - t0
    with tracer.installed():
        t0 = time.perf_counter()
        traced = [wl.run(x, tick=lambda: None) for x in rounds]
        traced_s = time.perf_counter() - t0
    attempted = failed = 0
    digests = []
    for x, a, b in zip(rounds, plain, traced):
        record, nfail = wl.check(x, b, checks)
        same = digest(wl.check(x, a, type(checks)())[0]) == digest(record)
        checks.expect("trace.outputs_unchanged", same, "traced outputs differ from untraced ones")
        digests.append(digest(record))
        attempted += len(x)
        failed += nfail
    extra = {"trace_overhead_s": traced_s - untraced, **wl.stats(rounds, traced)}
    return attempted, failed, extra, digests


def cli_state_wall_s(checks) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "superqubit.cli", "state", "0.3", "0.6283185307179586", "0.0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    checks.expect("cli.state_exit_0", proc.returncode == 0 and proc.stdout.strip() != "",
                  f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return wall


def layer_metrics(tracer, extra):
    stats = tracer.stats
    calls = stats.get("chsh.fast_tables", [0, 0.0])[0]
    extra["fast_tables_us_per_call"] = 1e6 * stats["chsh.fast_tables"][1] / calls if calls else 0.0
    restarts = extra.get("restarts", 0)
    extra["evals_per_restart"] = calls / restarts if restarts else 0.0
    metrics, absent = {}, []
    for name, (unit, source) in PER_LAYER.items():
        if source[0] == "span":
            span = source[1]
            if span in tracer.absent:
                absent.append(name)
                continue
            value = stats.get(span, [0, 0.0])[0 if source[2] == "calls" else 1]
        else:
            if DEPENDS.get(source[1]) in tracer.absent:
                absent.append(name)
                continue
            value = extra.get(source[1], 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "superqubit" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}/superqubit", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = Tracer() if args.trace else None

    # -- set-up: import, then one small call of the workload's entry point
    if tracer:
        with tracer.timing_imports():
            superqubit = importlib.import_module("superqubit")
            importlib.import_module("superqubit.cli")
    else:
        superqubit = importlib.import_module("superqubit")
    if Path(superqubit.__file__).resolve().parent != (SRC / "superqubit").resolve():
        print(f"error: imported {superqubit.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checks
    wl = WORKLOADS[args.workload]
    wl.warm_up()
    setup_s = process_age()

    checks = Checks()
    if tracer:
        attempted, failed, extra, digests = measure_traced(wl, tracer, args.seed, args.quick, checks)
        extra["cli_state_wall_s"] = cli_state_wall_s(checks)
        metrics, absent = layer_metrics(tracer, extra)
        raw = {}
    else:
        clock = Clock(reference_loop_s(0.1 * setup_s))
        attempted, failed, ops_per_s, raw_ops_per_s, digests = measure(
            wl, args.seed, args.seconds, args.quick, checks, clock)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "ops_per_s": ops_per_s, "peak_rss_mb": peak_rss_mb}
        raw = {"ops_per_s": raw_ops_per_s,
               "reference_loop_s": statistics.median(clock.loop_s), "steps": clock.steps[:40]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        absent = []

    for line in checks.errors:
        print(f"check failed: {line}", file=sys.stderr)
    for name in absent:
        print(f"absent: {name} (its traced name no longer exists)", file=sys.stderr)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "quick": args.quick,
        "checks": checks.counts, "op_outcomes": checks.ops, "round_digests": digests,
        "absent": absent, "metrics": metrics, "raw": raw,
    }
    if tracer:
        details["spans"] = {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(tracer.stats.items())}
        details["edges"] = [[parent, child, n] for (parent, child), n in sorted(tracer.edges.items())]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    result = {"correct": checks.ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
