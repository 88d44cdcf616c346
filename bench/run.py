"""capcomp benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gate_roundtrip --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's own `src/` tree.  With
`--trace 0` the workload runs untraced for `--seconds` seconds and the last
line of standard output is a JSON object whose metrics are the end-to-end
metrics of BENCHMARK.json.  With `--trace 1` a fixed number of operations
runs once untraced and once under span tracing; the metrics are then the
per-layer ones, and the spans are written to `.bench_out/`.  All times are
host wall-clock times; simulated instruction and switch counts are exact
counts.  See bench/README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 25          # setup_s is the median of at least this many set-ups
WARMUP_OPS = 3           # untimed operations before every timed stretch
MAX_ERRORS = 50          # error messages kept per run

# Every run reports every end-to-end metric.  A metric whose operation is not
# the run's own workload comes from companion operations of that workload,
# run in blocks between blocks of the run's own operations so that they see
# the same host phases: every BLOCK_S of own operations is followed by
# COMPANION_SHARE * BLOCK_S of companion operations, split evenly between the
# companions.  Whole blocks keep one workload's operations from disturbing
# the latencies of another's.  COMPANION_METRICS names what a workload's
# companion operations measure; OWN_METRICS what a run's own operations
# measure, so gate_roundtrip runs take retired_ips from their own trips and
# need no comp_loop companion.
BLOCK_S = 0.5
COMPANION_SHARE = 0.75
COMPANION_METRICS = {
    "gate_roundtrip": ("roundtrips_per_s", "roundtrip_p50_us", "roundtrip_p90_us"),
    "comp_loop": ("retired_ips",),
    "verify_fuzz": ("fuzz_seq_per_s",),
    "cost_model": ("scenario_evals_per_s", "micro_p50_ms"),
}
OWN_METRICS = {**COMPANION_METRICS,
               "gate_roundtrip": COMPANION_METRICS["gate_roundtrip"] + ("retired_ips",)}
# Operations per traced run (the same count runs untraced first).
TRACE_OPS = {"gate_roundtrip": 150, "comp_loop": 150, "verify_fuzz": 2, "cost_model": 4 * 25}
LATENCY_KINDS = ("setup", "trip", "micro")    # kinds whose percentiles are reported

# Host speed on shared machines drifts by up to 2x within seconds, which
# moves every timing by more than any bound worth having.  Each timed
# operation is therefore preceded by a fixed reference probe, and reported
# times are normalized to the probe's nominal time: t * PROBE_NOMINAL_S /
# probe, with the probe time taken as the median of the last PROBE_WINDOW
# probes of the run, whichever workload's operations they preceded.  The raw
# (unnormalized) time totals are printed on the `raw` line before the result.
PROBE_NOMINAL_S = 2.3e-4
PROBE_WINDOW = 3


@dataclass(frozen=True, slots=True)
class _Cell:
    a: int
    b: int
    c: int


def reference_probe(n: int = 100) -> float:
    """Seconds taken by a fixed pure-Python workload shaped like the
    simulator's own (frozen slotted dataclasses, `replace`, dict lookups)."""
    t0 = time.perf_counter()
    cells = {i: _Cell(i, i + 1, i + 2) for i in range(16)}
    acc = 0
    for i in range(n):
        c = replace(cells[i & 15], a=cells[i & 15].a + 1)
        acc += c.a + c.b
        cells[i & 15] = _Cell(c.a & 255, c.b, c.c)
    return time.perf_counter() - t0


class KindTally:
    """Sums for one kind of operation, in normalized time; `raw_seconds` is
    the unnormalized total, kept only to audit the probe."""

    def __init__(self, keep_latency: bool):
        self.ops = self.units = self.retired = 0
        self.seconds = self.raw_seconds = 0.0
        self.latency = array("d") if keep_latency else None

    def add(self, seconds: float, scale: float, retired: int, units: int) -> None:
        self.ops += 1
        self.units += units
        self.retired += retired
        self.seconds += seconds * scale
        self.raw_seconds += seconds
        if self.latency is not None:
            self.latency.append(seconds * scale)


class Tally:
    """The operations of one workload in one run, summed as they run.  No
    per-operation objects are kept: their memory would show in peak_rss_mb
    and grow with the program's speed."""

    def __init__(self, w, probes: deque[float]) -> None:
        self.w = w
        self.kinds: dict[str, KindTally] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._probes = probes            # shared by every tally of the run
        self._next = 0
        self.timed = 0

    def add(self, kind: str, seconds: float, probe: float, retired: int = 0,
            units: int = 1, errors=()) -> None:
        self.attempted += 1
        self._probes.append(probe)
        if errors:
            self.fail(errors)
            return
        scale = PROBE_NOMINAL_S / statistics.median(self._probes)
        if kind not in self.kinds:
            self.kinds[kind] = KindTally(kind in LATENCY_KINDS)
        self.kinds[kind].add(seconds, scale, retired, units)

    def fail(self, errors) -> None:
        self.failed += 1
        self.errors.extend(errors[:MAX_ERRORS - len(self.errors)])

    def warm(self) -> None:
        """Untimed operations, checked like the rest."""
        for _ in range(WARMUP_OPS):
            s = self.w.op(self._next)
            self._next += 1
            self.attempted += 1
            if s.errors:
                self.fail(s.errors)

    def step(self, probe=reference_probe) -> None:
        """One probed, timed and checked operation."""
        probe_s = probe()
        s = self.w.op(self._next)
        self._next += 1
        self.timed += 1
        self.add(s.kind, s.seconds, probe_s, s.retired, s.units, s.errors)

    def step_setup(self) -> None:
        """One probed and timed fresh set-up of the workload."""
        probe_s = reference_probe()
        t0 = time.perf_counter()
        self.w.setup()
        seconds = time.perf_counter() - t0
        self.timed += 1
        self.add("setup", seconds, probe_s)

    def finish(self) -> None:
        """A wrong end state counts as one more failed operation."""
        final = self.w.final_errors() if hasattr(self.w, "final_errors") else []
        if final:
            self.fail(final)

    def metrics(self) -> dict[str, float]:
        """End-to-end metrics of the operation kinds in this tally."""
        k, out = self.kinds, {}
        for kind in ("trip", "loop"):     # the interpreter-bound kinds
            if kind in k:
                out["retired_ips"] = k[kind].retired / k[kind].seconds
        if "trip" in k:
            lat = sorted(k["trip"].latency)
            out["roundtrips_per_s"] = k["trip"].ops / k["trip"].seconds
            out["roundtrip_p50_us"] = statistics.median(lat) * 1e6
            out["roundtrip_p90_us"] = statistics.quantiles(lat, n=10)[8] * 1e6
        if "fuzz" in k:
            out["fuzz_seq_per_s"] = k["fuzz"].units / k["fuzz"].seconds
        if "eval" in k:
            out["scenario_evals_per_s"] = k["eval"].ops / k["eval"].seconds
        if "micro" in k:
            out["micro_p50_ms"] = statistics.median(k["micro"].latency) * 1e3
        if "setup" in k:
            out["setup_s"] = statistics.median(k["setup"].latency)
        return out

    def raw_totals(self) -> dict[str, dict[str, float]]:
        return {kind: {"ops": t.ops, "raw_s": t.raw_seconds, "normalized_s": t.seconds}
                for kind, t in self.kinds.items()}


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _import_program():
    """Import capcomp from this checkout's src/, never from anywhere else."""
    if not (SRC / "capcomp" / "__init__.py").is_file():
        raise ImportError(f"no capcomp package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import capcomp
    if Path(capcomp.__file__).resolve().parent != (SRC / "capcomp").resolve():
        raise ImportError(f"capcomp imported from {capcomp.__file__}, not {SRC}")
    import workloads
    return workloads


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def _make(workloads, name: str, seed: int):
    w = workloads.WORKLOADS[name](seed)
    w.setup()
    if hasattr(w, "prepare_checks"):
        w.prepare_checks()
    return w


def run_window(setup: Tally, own: Tally, companions: list[Tally], seconds: float) -> None:
    """Run `own` for `seconds` in blocks, each followed by companion blocks;
    every round of blocks starts with one timed set-up, so set-ups see the
    same host phases as the operations."""
    for t in (own, *companions):
        t.warm()
    deadline = time.perf_counter() + seconds
    blocks = [(own, BLOCK_S)]
    blocks += [(c, COMPANION_SHARE * BLOCK_S / len(companions)) for c in companions]
    while time.perf_counter() < deadline:
        setup.step_setup()
        for t, length in blocks:
            end = min(time.perf_counter() + length, deadline)
            while time.perf_counter() < end:
                t.step()
    # A host stall can use up the whole window before a companion's first
    # block; every tally still gets the operations its metrics need.
    for t in (own, *companions):
        while t.timed < getattr(t.w, "MIN_OPS", 1):
            t.step()
    while setup.timed < SETUP_REPS:
        setup.step_setup()
    for t in (own, *companions):
        t.finish()


def run_untraced(workloads, name: str, seed: int, seconds: float):
    """Returns (metrics, raw time totals, tallies)."""
    probes = deque(maxlen=PROBE_WINDOW)
    others = [o for o, keys in COMPANION_METRICS.items()
              if o != name and not set(keys) <= set(OWN_METRICS[name])]
    companions = [Tally(_make(workloads, o, seed), probes) for o in others]
    # The companions' images leave the collector's view, so they add no scan
    # cost to the run's own set-ups and operations; what the run's own
    # workload builds stays in view, as it does for a user.
    gc.collect()
    gc.freeze()
    # Set-ups are timed on a second instance, so they leave the state the
    # run's operations build on (and check at the end) alone.
    setup = Tally(workloads.WORKLOADS[name](seed), probes)
    own = Tally(_make(workloads, name, seed), probes)
    run_window(setup, own, companions, seconds)
    m = setup.metrics()
    om = own.metrics()
    m.update({key: om[key] for key in OWN_METRICS[name] if key in om})
    for other, tally in zip(others, companions):
        cm = tally.metrics()
        m.update({key: cm[key] for key in COMPANION_METRICS[other] if key in cm})
    m["peak_rss_mb"] = _peak_rss_mb()
    raw = {name: {**setup.raw_totals(), **own.raw_totals()}}
    raw.update((other, tally.raw_totals()) for other, tally in zip(others, companions))
    return m, raw, [setup, own, *companions]


def run_traced(workloads, name: str, seed: int, out_dir: Path):
    """Returns (metrics, tallies)."""
    import tracing
    count = TRACE_OPS[name]
    walls, sims, tallies = [], [], []
    tracer = tracing.Tracer()
    for traced in (False, True):
        w = workloads.WORKLOADS[name](seed)
        tally = Tally(w, deque(maxlen=PROBE_WINDOW))
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            w.setup()
            if hasattr(w, "prepare_checks"):
                w.prepare_checks()     # benchmark-side reference, no capcomp calls
            tally.warm()
            for _ in range(count):
                tally.step(probe=lambda: PROBE_NOMINAL_S)   # no probe cost in the wall time
            tally.finish()
            walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        tallies.append(tally)
        sims.append(w.sim())
    if sims[0] != sims[1]:
        tallies[1].fail([f"simulated counts drifted between the untraced and traced "
                         f"pass: {sims[0]} != {sims[1]}"])
    sim = sims[1]
    metrics = {}
    for cls in workloads.WORKLOADS.values():      # every sim.* key, zero if not run here
        metrics.update(dict.fromkeys(cls(seed).sim(), 0))
    metrics.update(sim)
    metrics.update(tracer.layer_metrics())
    failed = sum(t.failed for t in tallies)
    attempted = sum(t.attempted for t in tallies)
    metrics["runtime.call_compartment.failed"] = failed if name == "gate_roundtrip" else 0
    fuzz = sim.get("sim.fuzz.sequences", 0)
    faults = sum(v for k, v in sim.items() if k.startswith("sim.fuzz.faults."))
    metrics["runtime.fuzz.fault_ratio"] = faults / fuzz if fuzz else 0.0
    metrics["runtime.fuzz.retired_per_seq"] = sim["sim.fuzz.retired"] / fuzz if fuzz else 0.0
    metrics["runtime.fuzz.switches"] = sim.get("sim.fuzz.switches", 0)
    metrics["trace.ops"] = count
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    metrics["error_rate"] = failed / attempted
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.json")
    if tracer.missing:
        print(f"bench: entry points not found, not traced: {tracer.missing}", file=sys.stderr)
    return metrics, tallies


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        workloads = _import_program()
    except ImportError as e:
        return _fail(f"cannot import the program: {e}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(f"host python={platform.python_version()} nproc={os.cpu_count()} "
          f"rev={_git_rev()} workload={args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        metrics, tallies = run_traced(workloads, args.workload, args.seed, ROOT / ".bench_out")
    else:
        metrics, raw, tallies = run_untraced(workloads, args.workload, args.seed, args.seconds)
        print("raw " + json.dumps(raw))
    errors = [e for t in tallies for e in t.errors]
    for e in errors[:MAX_ERRORS]:
        print(f"bench: check failed: {e}", file=sys.stderr)
    extra = sorted(set(metrics) - set(units))
    if extra:
        return _fail(f"metrics not in BENCHMARK.json: {extra}")
    failed = sum(t.failed for t in tallies)
    absent = sorted(set(units) - set(metrics))
    if absent:
        # Every operation that would have measured them failed; report 0.
        print(f"bench: not measured: {absent}", file=sys.stderr)
        metrics.update(dict.fromkeys(absent, 0.0))
        failed += 1
    result = {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
