"""The ccsym benchmark: one workload, one seed, one process, one client.

Run from the root of a ccsym checkout:

    python3 bench/run.py --workload square --seed 1 --seconds 20 --trace 0

Ops run in a closed loop on a single thread: each op starts only after the
previous one has returned and been checked against its exact expected value.
The op phase lasts ``--seconds`` and at least MIN_OPS ops.  With ``--trace 0``
the run prints the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it records spans and probes and prints the per-layer metrics instead.  Every
metric is printed with its unit; the last line is one JSON object.  An op
that raises or returns a wrong value fails the run: ``correct`` is false and
the exit code is 1.  The full record (environment, result digest, errors)
goes to bench/results/.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl
from tracing import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: ops every run completes at least: p90 then has ten samples beyond it, and
#: the digest and the exact counts cover exactly these first ops.
MIN_OPS = 100
#: fresh-interpreter set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 9
#: timings per depth-sweep point; the reported value is their median.
SWEEP_REPEATS = 3

#: fixed depth-sweep inputs <1 - a t^-d, u0 t prod_{k<=d/8} (1 - b_k t^k)>, with
#: b_k cycling through three units: (label, ring, depths, raw a, raw u0,
#: raw units), raw as in workloads.
SWEEP = (
    ("F3e4", wl.fpe(3, 4), (10, 20, 40, 80), (0, 1, 0, 0), (2, 0, 0, 0),
     ((1, 1, 0, 0), (2, 0, 0, 0), (2, 1, 0, 0))),
    ("Qe2", wl.qe(2), (10, 20, 40), (0, 1), (2, 0), ((1, 1), (-1, 0), (2, 1))),
    ("Z81", wl.zpm(3, 4), (10, 20, 40), (3,), (2,), ((4,), (80,), (5,))),
)

NULL = NullTracer()


def import_ccsym():
    """Import ccsym from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "ccsym"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no ccsym sources at {package}; run from a ccsym checkout")
    sys.path.insert(0, str(package.parent))
    import ccsym

    if Path(ccsym.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported ccsym from {ccsym.__file__}, not {package}")
    return ccsym


def set_up(name: str, seed: int):
    """Import ccsym, parse the workload's rings and build the first MIN_OPS ops."""
    cc = import_ccsym()
    workload = wl.WORKLOADS[name]()
    rings = {spec.text: cc.parse_ring(spec.text) for spec in workload.specs}
    stream = wl.InputStream(workload, seed)
    prefix = [stream.next(cc, rings) for _ in range(MIN_OPS)]
    return cc, workload, rings, stream, prefix


def setup_seconds(name: str, seed: int) -> float:
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_once.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


# -- environment -------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _nproc() -> int:
    """CPUs this process may run on, from /proc/self/status."""
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Cpus_allowed_list:"):
            count = 0
            for part in line.split(":", 1)[1].strip().split(","):
                lo, _, hi = part.partition("-")
                count += int(hi or lo) - int(lo) + 1
            return count
    return 0


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    load1 = float((_read("/proc/loadavg").split() or ["nan"])[0])
    nproc = _nproc()
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ccsym").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": model,
        "load1_at_start": load1,
        "overloaded_at_start": load1 > nproc,
        "commit": _commit(),
        "source_sha256": sources.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return math.nan


# -- the op loop -------------------------------------------------------------


class Run:
    """Per-op results of one op phase, in op order.

    Its memory grows by 8 bytes per verified op (``latencies``), so that
    peak_rss_mb hardly follows the number of ops a run completes.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.seconds = 0.0
        self.latencies = array.array("d")
        self.attempts = 0
        self.fits: dict[str, Fit] = defaultdict(Fit)

    def fail(self, idx: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"op {idx}: {message}")

    def record(self, op, text: str) -> None:
        if op.idx < MIN_OPS:
            self.digest.update(text.encode() + b"\n")


def op_loop(cc, prefix, stream, rings, seconds, body) -> Run:
    """Run ``body(op, run)`` on successive ops for ``seconds`` and MIN_OPS ops."""
    run = Run()
    start = time.perf_counter()
    while run.attempted < MIN_OPS or time.perf_counter() - start < seconds:
        idx = run.attempted
        op = prefix[idx] if idx < len(prefix) else stream.next(cc, rings)
        run.attempted += 1
        try:
            body(op, run)
        except Exception as exc:  # any failure of an op is counted, never fatal
            run.fail(idx, f"{type(exc).__name__}: {exc}")
            run.record(op, f"error|{type(exc).__name__}")
    run.seconds = time.perf_counter() - start
    return run


def timed_body(cc, workload):
    def body(op, run):
        t0 = time.perf_counter()
        out = workload.run(cc, op, NULL)
        elapsed = time.perf_counter() - t0
        ok = workload.check(cc, op, out)
        text = workload.result_text(op, out)
        run.record(op, text)
        if not ok:
            run.wrong += 1
            run.fail(op.idx, f"wrong result {text}")
            return
        run.latencies.append(elapsed)
        run.attempts += out.attempts
        run.fits[op.group].add(math.log(op.depth), math.log(elapsed))

    return body


class Fit:
    """Running sums for a least-squares line through (x, y) points."""

    def __init__(self):
        self.n = self.sx = self.sy = self.sxx = self.sxy = 0.0

    def add(self, x: float, y: float) -> None:
        self.n += 1
        self.sx += x
        self.sy += y
        self.sxx += x * x
        self.sxy += x * y

    def slope(self) -> float | None:
        sxx = self.sxx - self.sx * self.sx / self.n
        if sxx <= 1e-12:
            return None
        return (self.sxy - self.sx * self.sy / self.n) / sxx


def end_to_end(run: Run, setup_s: float) -> dict:
    """The end-to-end metrics, over every verified op of the op phase."""
    lat = run.latencies
    if len(lat) < 10:
        raise SystemExit("error: too few ops succeeded to measure latency")
    # log latency on log depth, fitted per group (ring, or kind and ring on
    # laws) and then averaged
    slopes = [s for s in (fit.slope() for fit in run.fits.values()) if s is not None]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / run.seconds,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        # the floor 1/MIN_OPS (the resolution of the shortest run) keeps the
        # ratio from reading 0, so that a relative regression bound on it is
        # defined, without tying it to how many ops the run managed
        "fail_ratio": run.failed / run.attempted + 1 / MIN_OPS,
        "attempts_per_op": run.attempts / len(lat),
        "peak_rss_mb": peak_rss_mb(),
        "depth_slope": statistics.fmean(slopes),
    }


def traced(cc, workload, prefix, stream, rings, seconds):
    """Per-layer figures: spans around each call, probes, counts and the sweep.

    Each op also runs once untraced, in alternating order, so that the
    tracing overhead is measured on the same inputs.
    """
    tr = Tracer()
    ok_ops: dict[int, float] = {}
    counts: dict[str, list] = defaultdict(list)

    def body(op, run):
        tr.op = op.idx
        for with_spans in ((False, True) if op.idx % 2 == 0 else (True, False)):
            if with_spans:
                with tr.span("op"):
                    out = workload.run(cc, op, tr)
            else:
                t0 = time.perf_counter()
                workload.run(cc, op, NULL)
                untraced_ms = (time.perf_counter() - t0) * 1e3
        with tr.span("oracle"):
            ok = workload.check(cc, op, out)
        text = workload.result_text(op, out)
        if not ok:
            run.record(op, text)
            run.wrong += 1
            run.fail(op.idx, f"wrong result {text}")
            return
        op_counts = workload.probe(cc, op, out, tr)
        run.record(op, text)
        ok_ops[op.idx] = untraced_ms
        if op.idx < MIN_OPS:
            for name, value in op_counts.items():
                counts[name].append(value)

    run = op_loop(cc, prefix, stream, rings, seconds, body)
    by_name: dict[str, list] = defaultdict(list)
    for values in tr.per_op_totals(ok_ops).values():
        for name, value in values.items():
            by_name[name].append(value)
    traced_ms = sum(s.ms for s in tr.spans if s is not None and s.name == "op" and s.op in ok_ops)
    metrics = {name: statistics.median(values) for name, values in by_name.items()}
    metrics.update({name: statistics.fmean(values) for name, values in counts.items()})
    metrics["trace.overhead_ratio"] = traced_ms / sum(ok_ops.values())
    metrics.update(sweep(cc, rings))
    return run, metrics, tr


def sweep(cc, rings) -> dict:
    """Median contou_carrere time per fixed depth-sweep point, oracle-checked."""
    out = {}
    deep = wl.DeepPole()
    for label, spec, depths, a, u0, bs in SWEEP:
        rings.setdefault(spec.text, cc.parse_ring(spec.text))
        for d in depths:
            factors = tuple((k, bs[k % len(bs)]) for k in range(1, d // 8 + 1))
            draw = (spec, d, (a, u0, 1, factors))
            _, _, _, ring, data = deep.build(cc, rings, draw)
            times = []
            for _ in range(SWEEP_REPEATS):
                t0 = time.perf_counter()
                value = cc.contou_carrere(data["f"], data["g"])
                times.append(time.perf_counter() - t0)
            if value != wl.closed_form(ring, d, data["a"], data["factors"]):
                raise RuntimeError(f"depth sweep {label} d={d}: wrong value")
            out[f"sweep.cc_ms.{label}.d{d}"] = statistics.median(times) * 1e3
    return out


# -- output ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment(args)
    import_ccsym()  # fail before timing anything when the sources are missing
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else math.nan
    cc, workload, rings, stream, prefix = set_up(args.workload, args.seed)

    tr = None
    if args.trace:
        run, measured, tr = traced(cc, workload, prefix, stream, rings, args.seconds)
    else:
        run = op_loop(cc, prefix, stream, rings, args.seconds, timed_body(cc, workload))
        measured = end_to_end(run, setup_s)

    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    record = {
        "env": env,
        "digest_sha256": run.digest.hexdigest(),
        "digest_ops": MIN_OPS,
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong,
        "errors": run.errors,
        "metrics": metrics,
        "unreported": {k: v for k, v in measured.items() if k not in metrics},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tr is not None:
        tr.write(RESULTS / f"{stem}-spans.jsonl")

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"ops: {run.attempted} attempted, {run.failed} failed ({run.wrong} wrong)")
    print(f"digest of the first {MIN_OPS} results: sha256:{run.digest.hexdigest()}")
    print(f"env: {json.dumps(env)}")
    for line in run.errors[:5]:
        print(f"failure: {line}")
    # an op that raises is as wrong as one that returns a wrong value: either
    # fails the run, whatever fail_ratio reads
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    if run.failed:
        print(f"error: {run.failed} ops of {args.workload} failed: {run.errors[:3]}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
