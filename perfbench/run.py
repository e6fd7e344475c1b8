"""Benchmark of the pairrules verification engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  With `--trace 0` it runs the workload for S
seconds of operations and prints the end-to-end metrics.  Operation times
are reported over the mean time of a fixed reference kernel sampled every
20 ms through the run (unit "ref"), because the machine's speed drifts; the
wall-clock
figures are printed on the lines before the result.  With `--trace 1` it
runs the workload's fixed traced operation list once untraced and once under
`tracer.Tracer` and prints the per-layer metrics.  Every output is checked by
`oracles`.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run artefacts (input files, samples,
spans) go to `.bench_out/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: the workloads are single-caller, and a thread pool would
# only add scheduling noise on a small machine.  Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_SAMPLES = 3
# Wall-clock period of the reference-kernel samples taken during a run, and
# the fewest samples inside an operation for it to be divided by their mean
# rather than by the mean of the whole run.
REFERENCE_INTERVAL = 0.02
REFERENCE_MIN_SAMPLES = 10

# A fresh interpreter's set-up: import the CLI, build the inputs, warm up.
SETUP_PROBE = (
    "import sys; import pairrules.cli, workloads; "
    "workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3])"
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pairrules.cli; print(time.perf_counter() - t)"
)

CELLS = ("C2-projection", "C3-identity", "C3-swap", "C1-identity", "C1-conjugation")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


@dataclass(frozen=True)
class _Pair:
    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("non-finite pair")


def _product(a: _Pair, b: _Pair) -> _Pair:
    return _Pair(a.c1 * b.c1 - a.c2 * b.c2, a.c1 * b.c2 + a.c2 * b.c1)


def reference_s() -> float:
    """Time of a fixed pure-Python kernel shaped like the program's hot loops.

    Frozen-dataclass pairs with a finiteness check, bilinear float products
    and a power, as in `Pair`, `bilinear_mul` and `h_eval`; it never calls
    the program, so program changes cannot move it.  Sampled through a run,
    it loses the same share of the CPU as the operations do when the host
    time-slices the machine, so operation time over mean reference time
    stays steady where wall time does not.  About 1.4 ms on a quiet
    2.0 GHz Xeon.
    """
    rng = random.Random(1)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(400):
        a = _Pair(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        b = _Pair(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        c = _product(_product(a, b), a)
        acc += math.sqrt(c.c1 * c.c1 + c.c2 * c.c2) ** 1.5
    return time.perf_counter() - start


def machine_facts() -> dict:
    import numpy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed), str(workdir)],
            env=child_env(), check=True, capture_output=True, timeout=170,
        )
        out.append(time.perf_counter() - start)
    return out


def import_seconds() -> tuple[float, float]:
    """Wall time of `import pairrules.cli` and sympy's share, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
        env=child_env(), check=True, capture_output=True, text=True, timeout=170,
    )
    sympy_us = 0
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "sympy":
            sympy_us = int(fields[1])
    return float(proc.stdout.split()[-1]), sympy_us / 1e6


class ReferenceSampler:
    """Runs `reference_s` from a SIGALRM handler every REFERENCE_INTERVAL seconds.

    The handler runs between bytecodes, also in the middle of an operation,
    so the samples cover the run evenly in time however long the operations
    are.  `samples` holds (start, seconds) per kernel run; `total` is the
    kernel time so far, for subtracting from the operation it interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.total = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        t = reference_s()
        self.samples.append((start, t))
        self.total += t

    def mean(self) -> float:
        return statistics.fmean(t for _, t in self.samples)

    def divisor(self, start: float, end: float) -> float:
        """What an operation over [start, end] is divided by.

        An operation holding REFERENCE_MIN_SAMPLES samples or more has lost
        CPU to the host like they did, so their mean is its divisor.  A
        shorter one is divided by the mean of the whole run: a handful of
        samples, each either fast or slow, would add more noise than they
        remove.
        """
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_right(self.samples, (end, math.inf))
        if hi - lo < REFERENCE_MIN_SAMPLES:
            return self.mean()
        return statistics.fmean(t for _, t in self.samples[lo:hi])

    def __enter__(self) -> "ReferenceSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL, REFERENCE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def run_ops(w, seconds: float | None = None, indices=None):
    """Closed loop: operations back to back until `seconds` of them, or over `indices`.

    The reference sampler runs throughout; kernel time spent inside an
    operation is taken out of that operation's time.  Returns (kind,
    seconds, seconds in ref) per operation, (index, problems) per failed
    one, and the sampler.  Checking happens outside the timed region.
    """
    samples, spans, failures = [], [], []
    busy, n = 0.0, 0
    with ReferenceSampler() as ref:
        while (busy < seconds) if indices is None else (n < len(indices)):
            i = n if indices is None else indices[n]
            inside = ref.total
            start = time.perf_counter()
            try:
                out = w.op(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            end = time.perf_counter()
            dt = end - start - (ref.total - inside)
            busy += dt
            n += 1
            samples.append((w.kind(i), dt))
            spans.append((start, end))
            problems = [f"{type(out).__name__}: {out}"] if isinstance(out, Exception) else w.check(i, out)
            if problems:
                failures.append((i, problems))
    samples = [(k, dt, dt / ref.divisor(*span)) for (k, dt), span in zip(samples, spans)]
    return samples, failures, ref


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def say(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} {value:.6g} {unit}" + (f" ({note})" if note else ""))


def report_workload_metrics(name: str, samples, busy: float, ref: float) -> None:
    """Wall-clock figures, by name and unit, on their own lines."""
    times = [dt for _, dt, _ in samples]
    say("latency_ms", statistics.median(times) * 1e3, "ms", f"median of {len(times)}")
    say("p10_ms", percentile(times, 10) * 1e3, "ms")
    say("ops_per_s", len(times) / busy, "1/s")
    say("reference_ms", ref * 1e3, "ms", "mean reference-kernel time")
    if name == "classify_mix":
        a = [dt for k, dt, _ in samples if k == "assoc"]
        r = [dt for k, dt, _ in samples if k == "reject"]
        p99 = percentile(a, 99)
        say("classify_per_s", len(samples) / busy, "1/s", f"{len(samples)} gamma vectors")
        say("classify_assoc_ms", statistics.median(a) * 1e3, "ms", f"median of {len(a)}")
        say("classify_assoc_p99_ms", p99 * 1e3, "ms", f"p99 of {len(a)}, {sum(x > p99 for x in a)} beyond")
        say("classify_reject_us", statistics.median(r) * 1e6, "us", f"median of {len(r)}")
    else:
        say(f"{name}_s", statistics.median(times), "s", f"median of {len(times)}")


def probe_counts(w) -> dict[str, int]:
    """Run the classify_mix known-defect probes once, untimed; failures per probe."""
    if not hasattr(w, "probe_failures"):
        return {"large_magnitude": 0, "regraded_c2": 0}
    failures = w.probe_failures()
    for probe, lines in failures.items():
        print(f"probe {probe}: {len(lines)} of {len(w.probes[probe])} inputs fail (known defect)")
        for line in lines[:2]:
            print(f"  {line[:200]}")
    return {probe: len(lines) for probe, lines in failures.items()}


def layer_metrics(tracer, n: int, probes: dict, imports, untraced, traced, ref: float) -> dict:
    cnt, tot = tracer.counts, tracer.totals
    self_t = tracer.self_times()

    def ratio(a, b):
        return a / b if b else 0.0

    def busy(*names):
        return sum(tracer.busy(x) for x in names) / n

    m = {
        "reciprocity.implication_residual_calls": cnt["reciprocity.implication_residual"] / n,
        "reciprocity.implication_residual_s": busy("reciprocity.implication_residual"),
        "reciprocity.grid_points": tot["grid_points"] / n,
        "reciprocity.grid_hit_ratio": ratio(tot["grid_hits"], tot["grid_points"]),
        "reciprocity.polish_calls": cnt["reciprocity._polish"] / n,
        "reciprocity.polish_steps": tot["polish_steps"] / n,
        "reciprocity.polish_s": busy("reciprocity._polish"),
        "reciprocity.solve_reciprocity_s": busy("reciprocity.solve_reciprocity"),
    }
    for cell in CELLS:
        m[f"reciprocity.eliminate_s.{cell}"] = tot[f"eliminate_s.{cell}"] / n
    m.update({
        "born.h_eval_calls": cnt["born.h_eval"] / n,
        "pairs.bilinear_mul_calls": cnt["pairs.bilinear_mul"] / n,
        "pairs.complex_mul_calls": cnt["pairs.complex_mul"] / n,
        "associativity.is_associative_s": busy("associativity.is_associative"),
        "associativity.assoc_residual_calls": cnt["associativity.assoc_residual"] / n,
        "associativity.twelve_equations_calls": cnt["associativity.twelve_equations"] / n,
        "associativity.overflow_failures": probes["large_magnitude"],
        "regrading.reduce_to_standard_s": busy("regrading.reduce_to_standard"),
        "regrading.transform_gamma_calls": cnt["regrading.transform_gamma"] / n,
        "regrading.inadmissible_frac": ratio(tot["inadmissible"], cnt["regrading.reduce_to_standard"]),
        "regrading.mu_rounding_failures": probes["regraded_c2"],
        "sequences.paths": tot["paths"] / n,
        "sequences.amplitude_s": busy("sequences.amplitude"),
        "sequences.normalization_check_s": busy("sequences.normalization_check"),
        "sequences.amplitude_per_sequence": ratio(tot["sequence_amplitudes"], tot["sequences"]),
        "sequences.parse_s": busy("sequences.setup_from_json", "sequences.sequences_from_json"),
        "cli.main_self_s": self_t.get("cli.main", 0.0) / n,
        "cli.import_s": imports[0],
        "cli.import_sympy_s": imports[1],
    })
    from tracer import LAYERS

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_t.items() if k.startswith(layer + ".")) / n
    m.update({
        "trace.overhead_latency_ms": (statistics.median(traced) - statistics.median(untraced)) * 1e3,
        "trace.overhead_p10_ms": (percentile(traced, 10) - percentile(untraced, 10)) * 1e3,
        "machine.reference_ms": ref * 1e3,
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pairrules" / "cli.py").is_file():
        print(f"error: no pairrules sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    setups = [] if args.trace else setup_seconds(args.workload, args.seed, workdir / "probe")
    w = workloads.make(args.workload, args.seed, str(workdir / "inputs"))
    print("machine " + json.dumps(machine_facts(), sort_keys=True))

    if args.trace == 0:
        samples, failures, ref = run_ops(w, seconds=args.seconds)
        (workdir / "samples.json").write_text(
            json.dumps({"setup_s": setups, "reference": ref.samples, "ops": samples})
        )
        times = [dt for _, dt, _ in samples]
        norm = [x for _, _, x in samples]
        metrics = {
            "latency_ref": statistics.median(norm),
            "p10_ref": percentile(norm, 10),
            "mean_ref": statistics.fmean(norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        say("setup_s", metrics["setup_s"], "s", f"median of {len(setups)}: {[round(x, 3) for x in setups]}")
        say("peak_rss_mb", metrics["peak_rss_mb"], "MB")
        report_workload_metrics(args.workload, samples, sum(times), ref.mean())
        say("fail_frac", len(failures) / len(samples), "1", f"{len(failures)} of {len(samples)}")
        probe_counts(w)
    else:
        from tracer import Tracer

        imports = import_seconds()
        untraced, failures, ref = run_ops(w, indices=w.trace_ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_failures, traced_ref = run_ops(w, indices=w.trace_ops)
        finally:
            tracer.uninstall()
        failures += traced_failures
        samples = untraced + traced
        tracer.write(str(workdir / "spans.json"))
        metrics = layer_metrics(
            tracer, len(w.trace_ops), probe_counts(w), imports,
            [dt for _, dt, _ in untraced], [dt for _, dt, _ in traced],
            statistics.fmean(t for _, t in ref.samples + traced_ref.samples),
        )
        print(
            f"trace: per-layer values are per {w.unit} ({len(w.trace_ops)} traced); "
            f"{len(tracer.spans)} spans written to {workdir / 'spans.json'}"
        )

    for i, problems in failures[:5]:
        print(f"FAILED op {i}: {problems[0][:300]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
