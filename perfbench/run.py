"""prulab benchmark: four workloads, end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload collide-n10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20      # every workload, one process each

One workload runs a closed loop of identical units for ``--seconds``
seconds (or exactly ``--units`` units), checks every unit's outputs
outside the timed calls, applies the acceptance criterion's aggregate
gate, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a JSON report with the gate values, the unit count, the tail
percentile and the run's provenance.  The exit code is 0 when every check
and gate passed, 1 when one failed (the result still printed), and 2 when
the benchmark could not run at all (nothing printed), for instance when
the checkout has no ``src/prulab``.

End-to-end times are given at reference speed.  A shared host runs this
process up to about 1.9x slower for seconds to minutes at a time, and code
that uses the same resource slows by close to the same factor.  So a fixed
reference kernel is timed before every unit (and around every set-up
process), and each measured time is scaled by the kernel's ``REF_S`` over
the kernel time beside it.  ``spec.json`` names, per workload, the kernel
that matches where its units spend their time.  The unscaled times are in
the report line.

Workload definitions and the map from layer metrics to the end-to-end
metrics they should move are in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller sets a count: on a host of few cores a
# second thread's speed depends on what else runs there, which the
# single-threaded reference kernel cannot track.  Set before numpy loads;
# set-up processes inherit it, and the report records it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from layertrace import UNIT, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("collide-n10", "clifford-support", "tomography-d4", "nets-cover")
#: fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
#: time each reference kernel is taken to need at reference speed (fixed
#: values near its time on a 2-vCPU 2.1 GHz Xeon VM whose host is quiet)
REF_S = {"cpu": 0.004, "memory": 0.0025}
END_TO_END = (("units_per_s", "1/s"), ("unit_s_p50", "s"), ("unit_s_tail", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES, help="one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0, help="timed loop length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--units", type=int, help="run exactly this many units instead of --seconds")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0 or (args.units is not None and args.units < 1):
        p.error("--seconds and --units must be positive")
    return args


def _import_prulab():
    """Import prulab from this checkout's src/, never from site-packages."""
    if not (SRC / "prulab" / "__init__.py").is_file():
        raise BenchError(f"no prulab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prulab

    if Path(prulab.__file__).resolve().parent != (SRC / "prulab").resolve():
        raise BenchError(f"imported prulab from {prulab.__file__}, not from {SRC}")
    import workloads

    return workloads


class Reference:
    """A fixed kernel whose time probes the host's current speed.

    ``cpu`` updates a dict in pure Python and multiplies 8x8 numpy matrices,
    as interpreter-bound units do; ``memory`` makes 12 in-place passes over
    a 4 MB array, larger than a core's L2 cache, as units whose time goes to
    passes over large arrays do.
    """

    def __init__(self, kind: str):
        import numpy as np

        self.kind = kind
        self._np = np
        self._small = np.full((8, 8), 0.125)  # its powers stay 0.125 everywhere
        self._big = np.ones(1 << 19) if kind == "memory" else None

    def time_s(self) -> float:
        t0 = time.perf_counter()
        if self._big is None:
            counts = {}
            for i in range(20_000):
                counts[i % 977] = counts.get(i % 977, 0) + i
            m = self._small
            for _ in range(750):
                m = m @ self._small
        else:
            for _ in range(12):
                self._np.multiply(self._big, 1.0, out=self._big)
        return time.perf_counter() - t0

    def scale(self, seconds: float, ref_s: float) -> float:
        """``seconds`` measured beside a kernel time ``ref_s``, at reference speed."""
        return seconds * REF_S[self.kind] / ref_s


def _time_setup(args, ref: Reference) -> tuple[float, float]:
    """Wall time from launching a fresh process to its first unit being due,
    and the mean reference kernel time measured just before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    ref_before = statistics.median(ref.time_s() for _ in range(3))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("setup process timed out") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"setup process failed with exit code {proc.returncode}")
    ref_after = statistics.median(ref.time_s() for _ in range(3))
    return elapsed, (ref_before + ref_after) / 2


def _openblas_runtime():
    """Runtime OpenBLAS config and thread count, when numpy bundles OpenBLAS."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    out = {}
    for key, symbols, restype in (("threads", ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
                                  ("config", ("scipy_openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p)):
        for sym in symbols:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], restype
                value = fn()
                out[key] = value.decode() if isinstance(value, bytes) else value
                break
    return out


def _provenance(seed: int) -> dict:
    from importlib.metadata import version

    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = got.stdout.strip() or None
    src = hashlib.sha1()
    for f in sorted((SRC / "prulab").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha1": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": _openblas_runtime()},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _run_loop(wl, args, ref: Reference, tracer=None):
    """Closed loop of units. Returns per-unit latencies, the reference
    kernel time around each of them, traced flags, check records and
    failure messages; traced runs trace odd units."""
    lat, unit_refs, traced_flags, records, failures = [], [], [], [], []
    t_start = time.perf_counter()
    i = 0
    ref_before = ref.time_s()
    while (i < args.units) if args.units is not None else (i == 0 or time.perf_counter() - t_start < args.seconds):
        inp = wl.inputs(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = tracer.run_unit(i, wl.unit, inp) if traced else wl.unit(inp)
        except Exception as exc:  # a unit that raises counts as failed, the run goes on
            out, err = None, f"unit {i}: {type(exc).__name__}: {exc}"
        else:
            err = None
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        ref_after = ref.time_s()
        if err is None:
            lat.append(t1 - t0)
            unit_refs.append((ref_before + ref_after) / 2)
            traced_flags.append(traced)
            ok, record = wl.check(out)
            records.append(record)
            if not ok:
                failures.append(f"unit {i}: invariant broken")
        else:
            failures.append(err)
        ref_before = ref_after
        i += 1
    return lat, unit_refs, traced_flags, records, failures, i


def _timings(lat, setup):
    """units_per_s, unit_s_p50, unit_s_tail and setup_s of the given unit
    latencies and set-up times, and the tail's index among the units.

    The tail is the highest percentile up to the 90th with at least 10
    units beyond it: higher ones rest on the few units that a burst of
    host contention shorter than a unit happened to hit."""
    ordered = sorted(lat)
    tail_at = max(min((len(ordered) - 1) * 9 // 10, len(ordered) - 11), 0)
    return {"units_per_s": len(lat) / sum(lat), "unit_s_p50": statistics.median(lat),
            "unit_s_tail": ordered[tail_at], "setup_s": statistics.median(setup)}, tail_at


def _end_to_end(lat, unit_refs, unit_ref, setup_samples, setup_ref):
    """End-to-end metrics at reference speed; the report info holds the
    same timings unscaled."""
    scaled, tail_at = _timings([unit_ref.scale(x, r) for x, r in zip(lat, unit_refs)],
                               [setup_ref.scale(x, r) for x, r in setup_samples])
    raw, _ = _timings(lat, [x for x, _ in setup_samples])
    scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return scaled, {"units": len(lat), "tail_percentile": 100.0 * tail_at / max(len(lat) - 1, 1),
                    "unscaled": raw, "ref_s": {"kind": unit_ref.kind, "min": min(unit_refs),
                                               "median": statistics.median(unit_refs), "max": max(unit_refs)},
                    "setup_samples_s": [x for x, _ in setup_samples],
                    "setup_ref_s": [r for _, r in setup_samples]}


def _per_layer(tracer, wl, lat, traced_flags):
    stats = tracer.per_unit()
    units = [u for u in stats if u != "setup"]
    mismatches = []
    for u in units:
        for names, expected in wl.expected_counts.items():
            got = sum(stats[u].get(n, 0) for n in names)
            if got != expected:
                mismatches.append(f"unit {u}: {' + '.join(names)} = {got}, expected {expected}")
    setup = stats.get("setup", {})
    on = [x for x, t in zip(lat, traced_flags) if t]
    off = [x for x, t in zip(lat, traced_flags) if not t]
    values = {}
    for name, _ in layer_metrics():
        if name.startswith("setup."):
            values[name] = setup.get(name[len("setup."):], 0.0)
        elif not name.startswith("trace."):
            values[name] = sum(stats[u].get(name, 0.0) for u in units) / max(len(units), 1)
    unit_self = sum(stats[u][f"{UNIT}.self_s"] for u in units)
    unit_dur = sum(stats[u][f"{UNIT}.dur_s"] for u in units)
    values["trace.overhead_frac"] = (statistics.fmean(on) / statistics.fmean(off) - 1.0) if on and off else 0.0
    values["trace.unattributed_frac"] = unit_self / unit_dur if unit_dur else 0.0
    return values, mismatches, len(units)


def run_one(args) -> int:
    workloads = _import_prulab()
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl = cls(args.seed)
        wl.unit(wl.inputs(workloads.WARMUP))
        print("ready", flush=True)
        return 0
    tracer = None
    setup_ref = Reference("cpu")
    unit_ref = Reference(workloads.SPEC[args.workload]["reference"])
    if args.trace:
        setup_samples = []
        tracer = Tracer(extra_modules=[workloads])
        tracer.unit = "setup"
        tracer.install()
        try:
            wl = cls(args.seed)
        finally:
            tracer.uninstall()
    else:
        setup_samples = [_time_setup(args, setup_ref) for _ in range(SETUP_REPEATS)]
        wl = cls(args.seed)
    wl.unit(wl.inputs(workloads.WARMUP))

    lat, unit_refs, traced_flags, records, failures, attempted = _run_loop(wl, args, unit_ref, tracer)
    if not lat:
        raise BenchError(f"no unit completed; first failure: {failures[0]}")
    gate_ok, gate = wl.gate(records)
    report = {"workload": args.workload, "attempted": attempted, "failed": len(failures),
              "failures": failures[:10], "gate_ok": gate_ok, "gate": gate,
              "checks_sha1": hashlib.sha1(json.dumps(records).encode()).hexdigest()}
    correct = gate_ok and not failures
    if tracer is None:
        metrics, info = _end_to_end(lat, unit_refs, unit_ref, setup_samples, setup_ref)
        units = dict(END_TO_END)
        report.update(info)
    else:
        metrics, mismatches, traced = _per_layer(tracer, wl, lat, traced_flags)
        units = dict(layer_metrics())
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        report.update({"units": len(lat), "traced_units": traced, "count_mismatches": mismatches[:10],
                       "spans_file": str(spans_path.relative_to(ROOT))})
        correct = correct and not mismatches
    report["provenance"] = _provenance(args.seed)

    print(f"{args.workload}: seed {args.seed}, gate {'PASS' if gate_ok else 'FAIL'} {json.dumps(gate)}")
    print(f"  fail_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted} units)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    if "unscaled" in report:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items())
              + f"; {unit_ref.kind} reference kernel median {report['ref_s']['median']:.6g} s"
              + f" (REF_S {REF_S[unit_ref.kind]} s)")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and echo each one's metrics."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.units is not None:
            cmd += ["--units", str(args.units)]
        got = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60, check=False)
        sys.stderr.write(got.stderr)
        lines = got.stdout.strip().splitlines()
        if got.returncode == 2 or not lines:
            raise BenchError(f"{name} did not run (exit code {got.returncode})")
        print("\n".join(lines[:-2]), flush=True)
        results[name] = json.loads(lines[-1])
        status = max(status, got.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
