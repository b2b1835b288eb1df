"""frobkit benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload finite|rational|commutator|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a frobkit checkout; the program is imported from its
`src/`. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are the per-layer ones, from a traced
run and a counting run made after an untraced run of the same inputs.
Per-slice figures go to standard error. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import oracle as O

MIN_OPS = 100        # so that p90 has ten samples beyond it
SETUP_FIRST = 10     # fresh interpreters before the first round, then one after each round
COUNT_ROUNDS = 1     # rounds in the counting run (counts repeat exactly for a seed)
REF_EVERY = 0.1      # seconds of operation time between two timings of the reference
REF_SECONDS = 0.002  # reported times are scaled to a machine where the reference takes this
NEAR = 0.07          # report_slices: how close to p50 or p90 an operation counts as near
REF_CHILD = "import argparse, dataclasses, fractions, json, random, typing"
REF_CHILD_SECONDS = 0.05  # likewise for a fresh interpreter running REF_CHILD

# Per-layer metrics: (name, unit). `_s` metrics are self time per operation
# of the traced run; `.calls`, `.ops`, `.cells` and `matrices_enumerated`
# are totals over the counting run.
SELF_FUNCS = (
    "fields.GF", "matrix.charpoly", "matrix.charpoly_berkowitz", "matrix.matmul",
    "matrix.solve_linear", "matrix.inverse", "matrix.minimal_polynomial", "poly.factor",
    "rankone.update_report", "canonical.frobenius_form", "canonical.transpose_conjugator",
    "canonical.smith_invariant_factors", "canonical.elementary_divisor_form",
    "canonical.ad_matrix", "canonical.centralizer_dimension", "triples.commutator_range",
    "triples.equivalence_report", "census.orbit_stats", "verify.run_verify", "cli.main",
)
SELF_MODULES = ("matrix", "poly", "rankone", "canonical", "triples", "formats")
CALLS = (
    "matrix.charpoly", "matrix.charpoly_berkowitz", "matrix.matmul", "matrix.solve_linear",
    "matrix.inverse", "matrix.minimal_polynomial", "poly.divmod", "poly.gcd",
    "poly.factor", "rankone.moments", "canonical.frobenius_form",
    "canonical.transpose_conjugator", "canonical.smith_invariant_factors",
    "canonical.elementary_divisor_form", "canonical.ad_matrix",
    "canonical.centralizer_dimension", "triples.commutator_range", "census.orbit_stats",
    "formats.dumps_canonical",
)
CALL_KEYS = {"poly.gcd": "poly.poly_gcd"}  # metric name -> wrapped function
COUNTS = ("fields.prime.ops", "fields.ext_table.ops", "fields.ext_poly.ops",
          "fields.rational.ops", "matrix.solve_linear.cells", "census.matrices_enumerated")


def per_layer_units() -> dict:
    units = {f"{m}.self_s": "s" for m in SELF_MODULES}
    units.update({f"{f}.self_s": "s" for f in SELF_FUNCS})
    units.update({"cli.interpreter_s": "s", "cli.import_s": "s"})
    units.update({f"{c}.calls": "count" for c in CALLS})
    units["formats.parse.calls"] = "count"
    units.update({c: "count" for c in COUNTS})
    units["canonical.frobenius_form.per_op"] = "calls/op"
    units["trace.overhead_pct"] = "%"
    return units


class Speed:
    """The machine's speed now, from timing a fixed piece of the benchmark's own
    arithmetic (GF(5), GF(25) and Q), which no change to frobkit can move.

    On a shared host the same work can take 1.8 times longer from one minute to
    the next. Every operation time is multiplied by REF_SECONDS over the mean of
    the reference timings taken just before and just after it, so reported
    times are what the operation would take at one fixed machine speed."""

    ref_seconds = REF_SECONDS

    def __init__(self):
        r = random.Random(0)
        self.f5, self.q = O.ModP(5), O.Rationals()
        self.f25 = O.ModPoly(5, O.least_irreducible(5, 2))
        self.a5 = [[r.randrange(5) for _ in range(6)] for _ in range(6)]
        self.a25 = [[r.randrange(25) for _ in range(6)] for _ in range(6)]
        self.aq = [[self.q.random(r) for _ in range(4)] for _ in range(4)]
        self.measure()  # fills the GF(25) product memo
        self.last = self.measure()

    def measure(self) -> float:
        t0 = perf_counter()
        O.charpoly(self.f5, self.a5)
        O.inverse(self.f25, O.matmul(self.f25, self.a25, self.a25))
        O.charpoly(self.q, self.aq)
        return perf_counter() - t0

    def refresh(self) -> None:
        self.last = self.measure()

    def factor(self) -> float:
        """Scale for the operations timed since the previous call."""
        now = self.measure()
        f = 2 * self.ref_seconds / (self.last + now)
        self.last = now
        return f


class ChildSpeed(Speed):
    """The machine's speed at starting interpreters, from timing a fresh one that
    imports only standard modules (REF_CHILD). Set-up times and the `cli`
    workload's commands are mostly interpreter start-up and import, which this
    reference tracks far better than in-process arithmetic does."""

    ref_seconds = REF_CHILD_SECONDS

    def __init__(self):
        self.cmd = [sys.executable, "-c", REF_CHILD]
        self.last = self.measure()

    def measure(self) -> float:
        t0 = perf_counter()
        subprocess.run(self.cmd, stdout=subprocess.DEVNULL, check=True)
        return perf_counter() - t0


class Result:
    def __init__(self):
        self.lat: list = []        # scaled times of the operations that did not raise
        self.wall = 0.0            # unscaled operation time, failed operations included
        self.attempted = 0
        self.failed = 0
        self.failures: list = []   # operations that raised
        self.errors: list = []     # outputs that failed their check
        self.by_slice: dict = {}

    @property
    def busy(self) -> float:
        return sum(self.lat)

    def ops_per_s(self) -> float:
        return len(self.lat) / self.busy

    def add(self, pending: list, factor: float) -> None:
        for sl, dt, ok in pending:
            self.wall += dt
            if ok:
                self.lat.append(dt * factor)
                self.by_slice.setdefault(sl, []).append(dt * factor)
        pending.clear()


def timed_run(wl, seed: int, seconds: float, rounds: int | None = None, op=None,
              after_round=None) -> Result:
    """Whole rounds until `seconds` of operation wall time and MIN_OPS operations
    (or exactly `rounds` rounds). Only the operations are timed; each round's
    outputs are checked after the round, so the memory held for checking does
    not grow with the length of the run. An operation that raises is counted
    as failed and left out of the latencies."""
    rng = random.Random(seed)
    check_rng = random.Random(f"check-{seed}")
    run = op or wl.run
    res = Result()
    speed = ChildSpeed() if wl.spawns else Speed()
    done = 0
    while (done < rounds) if rounds is not None else (res.wall < seconds or res.attempted < MIN_OPS):
        outs, pending, since = [], [], 0.0
        for task in wl.round(rng):
            t0 = perf_counter()
            try:
                out, ok = run(task), True
            except Exception as exc:  # a failed operation is counted, not fatal
                out, ok = exc, False
            dt = perf_counter() - t0
            pending.append((task.slice, dt, ok))
            since += dt
            if since >= REF_EVERY:
                res.add(pending, speed.factor())
                since = 0.0
            outs.append((task, out, ok))
        res.add(pending, speed.factor())
        res.attempted += len(outs)
        for task, out, ok in outs:
            if not ok:
                res.failed += 1
                res.failures.append(f"{task.slice}: operation failed: {out!r}")
                continue
            try:
                wl.check(task, out, check_rng)
            except Exception as exc:  # CheckFailed, or output the check cannot read
                res.errors.append(f"{task.slice}: {exc}")
        if after_round is not None:
            after_round()
        done += 1
    return res


class SetupTimer:
    """Times fresh interpreters doing the workload's set-up, each scaled by the
    reference interpreters started just before and after it; samples spread
    over the run, and setup_s is their median."""

    def __init__(self, wl, root: str, env: dict):
        if wl.setup_code is None:
            self.cmd = [sys.executable, "-m", "frobkit", "--version"]
        else:
            self.cmd = [sys.executable, "-c", wl.setup_code]
        self.root, self.env = root, env
        self.speed = ChildSpeed()
        self.times: list = []

    def sample(self, count: int = 1) -> None:
        self.speed.refresh()
        for _ in range(count):
            t0 = perf_counter()
            subprocess.run(self.cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                           check=True)
            self.times.append((perf_counter() - t0) * self.speed.factor())


def kind(slice_: str) -> str:
    """A slice without its input kind: random and planted inputs of one field and
    size are one kind of operation."""
    for suffix in (" random", " planted", " member"):
        slice_ = slice_.removesuffix(suffix)
    return slice_


def report_slices(name: str, res: Result) -> None:
    """Per slice: operations, share of the time, median. Then, for p50 and p90,
    which kinds of operation hold the operations within NEAR of it."""
    busy = res.busy
    lat = sorted(res.lat)
    p50, p90 = statistics.median(lat), statistics.quantiles(lat, n=10)[8]
    print(f"# {name}: {len(lat)} ops, {res.wall:.2f} s wall, {busy:.2f} s scaled", file=sys.stderr)
    for sl, ts in res.by_slice.items():
        print(f"#   {sl:28s} n={len(ts):5d} share={100 * sum(ts) / busy:5.1f}% "
              f"median={1000 * statistics.median(ts):9.3f} ms", file=sys.stderr)
    for label, q in (("p50", p50), ("p90", p90)):
        near: dict = {}
        for sl, ts in res.by_slice.items():
            hits = sum(1 for t in ts if abs(t - q) <= NEAR * q)
            if hits:
                near[kind(sl)] = near.get(kind(sl), 0) + hits
        total = sum(near.values())
        shares = ", ".join(f"{k} {100 * c / total:.0f}%"
                           for k, c in sorted(near.items(), key=lambda kc: -kc[1])[:4])
        print(f"# {label} = {1000 * q:.3f} ms; within {NEAR:.0%} of it: {shares}", file=sys.stderr)


def end_to_end(res: Result, setup_s: float, cli: bool) -> dict:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    return {
        "ops_per_s": {"value": res.ops_per_s(), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(res.lat), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * statistics.quantiles(res.lat, n=10)[8], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": usage.ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(spans, counts, traced: Result, counted: Result, base: Result) -> dict:
    selfs = spans.self_times()
    ops = traced.attempted
    values = {}
    for m in SELF_MODULES:
        values[f"{m}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(m + ".")) / ops
    for f in SELF_FUNCS:
        values[f"{f}.self_s"] = selfs.get(f, 0.0) / ops
    values["cli.interpreter_s"] = selfs.get("cli.interpreter", 0.0) / ops
    values["cli.import_s"] = selfs.get("cli.import", 0.0) / ops
    c = counts.c
    for name in CALLS:
        values[f"{name}.calls"] = c[CALL_KEYS.get(name, name) + ".calls"]
    values["formats.parse.calls"] = sum(v for k, v in c.items()
                                        if k.startswith("formats.parse_") and k.endswith(".calls"))
    for name in COUNTS:
        values[name] = c[name]
    values["canonical.frobenius_form.per_op"] = c["canonical.frobenius_form.calls"] / counted.attempted
    values["trace.overhead_pct"] = 100 * (base.ops_per_s() / traced.ops_per_s() - 1)
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "frobkit", "__init__.py")):
        print("error: run from the root of a frobkit checkout (no src/frobkit here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # children inherit the CPU, so the reference and the work share one
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.make(args.workload, root, out_dir)
    is_cli = args.workload == "cli"

    if args.trace == 0:
        setup = SetupTimer(wl, root, dict(os.environ, PYTHONPATH=src))
        setup.sample(SETUP_FIRST)
        wl.build()
        res = timed_run(wl, args.seed, args.seconds, after_round=setup.sample)
        metrics = end_to_end(res, statistics.median(setup.times), is_cli)
        report_slices(args.workload, res)
        runs = [res]
    else:
        wl.build()
        base = timed_run(wl, args.seed, args.seconds)
        spans = tracing.Spans()
        undo = tracing.install(spans.wrapper)
        wl.recorder = spans
        traced = timed_run(wl, args.seed, args.seconds, op=spans.wrapper("op", wl.run))
        tracing.restore(undo)
        counts = tracing.Counts()
        undo = counts.install()
        wl.recorder = counts
        counted = timed_run(wl, args.seed, 0, rounds=COUNT_ROUNDS)
        tracing.restore(undo)
        wl.recorder = None
        spans.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv"))
        with open(os.path.join(out_dir, f"counts-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(counts.dump(), fh, sort_keys=True, indent=1)
        metrics = per_layer(spans, counts, traced, counted, base)
        report_slices(args.workload + " (traced)", traced)
        runs = [base, traced, counted]

    errors = [e for r in runs for e in r.failures + r.errors]
    for e in errors[:20]:
        print("# " + e, file=sys.stderr)
    print(json.dumps({
        "correct": not any(r.errors for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
