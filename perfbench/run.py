"""Benchmark runner for the blanchfield package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
A single process runs one job at a time in a closed loop (``cli-cold``
runs one subprocess at a time).  With ``--trace 0`` the run measures the
end-to-end metrics for S seconds and checks every output; with
``--trace 1`` it runs one cycle of the workload untraced and then traced,
and reports the per-layer metrics.  The last stdout line is the JSON
result; the full run record goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up is timed this many times per run, at moments spread evenly over
# the timed run and between jobs, so its median sees the host in the same
# states as the jobs do; setup_s is that median.  The samples' own time is
# left out of the timed wall time.
SETUP_SAMPLES = {"pairing-high-genus": 9, "verify-low-genus": 9, "cli-cold": 200}

# Tail percentile per workload, fixed so that a faster program is compared
# at the same percentile: one that leaves at least ten samples beyond it at
# the job count a 35 s run reaches on the 2-core reference host
# (pairing-high-genus ~37 jobs, verify-low-genus ~64, cli-cold ~124), placed
# where the slot-weighted quantile falls inside a block of slots of similar
# cost.  Each run records the samples beyond the percentile.
TAIL_PCT = {"pairing-high-genus": 60, "verify-low-genus": 75, "cli-cold": 85}

CHECK_NAMES = {
    "check_well_defined": "well-definedness", "check_sesquilinear": "sesquilinearity",
    "check_hermitian": "hermitian", "check_nonsingular": "nonsingularity",
    "check_consistency": "consistency", "check_mk": "mk-form",
    "check_kearton": "kearton-ill-defined",
    "check_fibred_specialization": "fibred-specialization",
    "check_dual_sesquilinear": "dual-sesquilinearity",
}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> None:
    if not (ROOT / "src" / "blanchfield" / "__init__.py").is_file():
        fail(f"no package source under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # numpy's OpenBLAS starts a thread pool when it is imported, and every
    # interpreter that imports the package (set-up probes, CLI children,
    # this runner) then slows whenever the other core is busy.  One job at
    # a time with no threads: children inherit this before any import.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


# --- statistics -----------------------------------------------------------

def weighted_quantile(samples: list[tuple[float, float]], q: float) -> float:
    """Quantile of (value, weight) pairs, interpolating linearly between
    the midpoints of the samples' weight intervals, so the result moves
    continuously with the samples even where q falls between two slots."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    points, acc = [], 0.0
    for value, weight in ordered:
        points.append(((acc + weight / 2) / total, value))
        acc += weight
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]


def job_stats(times: list[float], slots: list[int], nslots: int, pct: int) -> dict:
    """Median and tail with every slot of the cycle weighted equally, so a
    run cut in the middle of a cycle keeps the stated mix."""
    by_slot = [0] * nslots
    for s in slots:
        by_slot[s] += 1
    weighted = [(t, 1.0 / by_slot[s]) for t, s in zip(times, slots)]
    tail = weighted_quantile(weighted, pct / 100)
    return {"p50": weighted_quantile(weighted, 0.5), "tail": tail,
            "tail_pct": pct, "beyond_tail": sum(1 for t in times if t > tail),
            "n": len(times)}


# --- machine and set-up -----------------------------------------------------

def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    try:
        from importlib.metadata import version
        sympy_version = version("sympy")
    except Exception:
        sympy_version = None
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy_version,
            "platform": platform.platform()}


def setup_sample(workload: str, seed: int) -> float:
    """One set-up.  For cli-cold, whose jobs pay the import themselves,
    generating and writing the entry files in this process; otherwise a
    fresh interpreter that imports the package, generates the entry texts
    and says ready."""
    if workload == "cli-cold":
        import workloads
        t0 = time.perf_counter()
        tmp = Path(tempfile.mkdtemp(dir=OUT))
        workloads.build_jobs(workload, seed, tmp)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(tmp)
        return elapsed
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        fail("set-up probe failed")
    return elapsed


def setup_probe(workload: str, seed: int) -> None:
    """Runs after main() has imported the package, which is part of set-up."""
    import workloads
    workloads.build_jobs(workload, seed)
    print("ready", flush=True)


# --- the untraced, timed run -------------------------------------------------

def job_runner(workload: str):
    import workloads
    if workload == "cli-cold":
        env = workloads.cli_env(ROOT)
        return lambda job: workloads.run_cli(job, ROOT, env)
    return {"pairing-high-genus": workloads.run_pairing,
            "verify-low-genus": workloads.run_verify}[workload]


def timed_run(args) -> dict:
    import workloads
    slots = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        jobs = workloads.build_jobs(args.workload, args.seed, workdir)
        return _timed(args, jobs, slots)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(args, jobs, slots) -> dict:
    import workloads
    workloads.prepare(args.workload, jobs)
    run = job_runner(args.workload)
    warm, pool = jobs[0], jobs[1:]
    run(warm)
    if args.workload == "cli-cold":
        for job in pool:  # expected stdout, computed in-process and untimed
            job.extra["expected"] = workloads.expected_cli_stdout(job)

    pick = random.Random(f"{args.seed}:oracle-sample")
    frac = workloads.ORACLE_SAMPLE[args.workload]
    times, slot_ids, records, kept, failures, setup = [], [], [], [], [], []
    setup_every = args.seconds / SETUP_SAMPLES[args.workload]
    start = time.perf_counter()
    next_setup, setup_spent = start, 0.0
    # completed jobs, wall time and set-up sampling time at the end of each
    # whole cycle, for jobs_per_s at the workload's stated mix
    cycle_ok, cycle_end, cycle_setup, ok = 0, start, 0.0, 0
    i = 0
    # at least one whole cycle, so every slot has a sample
    while i < len(slots) or time.perf_counter() - setup_spent < start + args.seconds:
        if time.perf_counter() >= next_setup:
            t0 = time.perf_counter()
            setup.append(setup_sample(args.workload, args.seed))
            setup_spent += time.perf_counter() - t0
            next_setup = t0 + setup_every
        job = pool[i % len(pool)]
        t0 = time.perf_counter()
        try:
            out, error = run(job), None
        except Exception as exc:  # a failed job is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        problems = [error] if error else workloads.quick_check(args.workload, job, out)
        if problems:
            failures.append({"job": i, "slot": job.slot, "problems": problems})
        else:
            ok += 1
            times.append(elapsed)
            slot_ids.append(i % len(slots))
            if i < len(slots) or pick.random() < frac:
                kept.append((i, job, out if args.workload == "cli-cold" else None))
        records.append(dict(job.props(), index=i, seconds=elapsed, ok=not problems))
        i += 1
        if i % len(slots) == 0:
            cycle_ok, cycle_end, cycle_setup = ok, time.perf_counter(), setup_spent
    wall = time.perf_counter() - start
    if args.workload == "cli-cold":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    t_oracle = time.perf_counter()
    for idx, job, out in kept:
        problems = workloads.oracle_check(args.workload, job, out)
        if problems:
            failures.append({"job": idx, "slot": job.slot, "problems": problems})
            records[idx]["ok"] = False
    pins = workloads.paper_pins()
    oracle_s = time.perf_counter() - t_oracle

    attempted = i + 1  # the jobs plus the paper pins, counted as one check
    failed = len({f["job"] for f in failures}) + (1 if pins else 0)
    stats = job_stats(times, slot_ids, len(slots), TAIL_PCT[args.workload])
    metrics = {
        "job_p50_s": (stats["p50"], "s"),
        "job_tail_s": (stats["tail"], "s"),
        "jobs_per_s": (cycle_ok / (cycle_end - start - cycle_setup), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": 0, "machine": machine_info(), "wall_s": wall, "oracle_s": oracle_s,
        "whole_cycles": i // len(slots),
        "whole_cycles_s": cycle_end - start - cycle_setup,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "oracle_checked_jobs": len(kept), "paper_pin_failures": pins,
        "failures": failures, "setup_samples_s": setup,
        "percentiles": {"job_p50_s": {"pct": 50, "samples": stats["n"]},
                        "job_tail_s": {"pct": stats["tail_pct"], "samples": stats["n"],
                                       "samples_beyond": stats["beyond_tail"]}},
        "pool_jobs": len(pool), "pool_wrapped": i > len(pool), "jobs": records,
    }
    return finish(args, metrics, record, correct=not failed,
                  attempted=attempted, failed=failed)


# --- the traced run ---------------------------------------------------------

def traced_run(args) -> dict:
    import spans
    import workloads
    slots = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        jobs = workloads.build_jobs(args.workload, args.seed, workdir)
        workloads.prepare(args.workload, jobs)
        run = job_runner(args.workload)
        run(jobs[0])
        cycle = jobs[1:1 + len(slots)]
        if args.workload == "cli-cold":
            for job in cycle:
                job.extra["expected"] = workloads.expected_cli_stdout(job)
        plain, failures = [], []
        for job in cycle:
            t0 = time.perf_counter()
            out = run(job)
            plain.append(time.perf_counter() - t0)
            problems = workloads.quick_check(args.workload, job, out)
            if problems:
                failures.append({"slot": job.slot, "problems": problems})

        tracer = spans.Tracer()
        tracer.keep_results = {"pairing.from_seifert", "pairing.from_fibred",
                               "verify.kearton_witness"}
        traced = []
        command_s = []
        if args.workload == "cli-cold":
            env = workloads.cli_env(ROOT)
            for n, job in enumerate(cycle):
                dump = workdir / f"trace-{n}.json"
                env["PERFBENCH_TRACE_OUT"] = str(dump)
                t0 = time.perf_counter()
                code, _, err = workloads.run_cli(job, ROOT, env,
                                                 [str(HERE / "cli_child.py")])
                traced.append(time.perf_counter() - t0)
                if code != 0:
                    fail(f"traced CLI job {job.slot} exited {code}: {err[-500:]}")
                doc = json.loads(dump.read_text())
                tracer.merge(doc)
                command_s.append(doc["command_s"])
        else:
            tracer.install()
            try:
                for job in cycle:
                    tracer.enter("bench.job")
                    run(job)
                    traced.append(tracer.leave())
            finally:
                tracer.uninstall()
        bench_cli = measure_cli_startup(workloads.cli_env(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = layer_metrics(tracer, len(cycle), sum(traced), command_s, bench_cli)
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write_spans(span_file)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "machine": machine_info(), "traced_jobs": len(cycle),
        "untraced_job_s": plain, "traced_job_s": traced,
        "jobs": [j.props() for j in cycle], "spans_file": str(span_file.relative_to(ROOT)),
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
        "raised": tracer.raised, "construct_s_by_genus": construct_by_genus(tracer),
        "cli_startup": bench_cli, "failures": failures,
    }
    return finish(args, metrics, record, correct=not failures, attempted=len(cycle),
                  failed=len(failures))


def construct_by_genus(tracer) -> dict:
    """Median from_seifert span per genus, for the sanity check against
    the baseline table in ROADMAP.md."""
    out: dict[int, list[float]] = {}
    for pairing, seconds in tracer.results.get("pairing.from_seifert", []):
        out.setdefault(pairing.size // 2, []).append(seconds)
    return {g: statistics.median(v) for g, v in sorted(out.items())}


def measure_cli_startup(env: dict, repeats: int = 3) -> dict:
    """Interpreter start, package import and numpy's share of it."""
    def wall(cmd):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True)
        return time.perf_counter() - t0

    bare = [wall([sys.executable, "-c", "pass"]) for _ in range(repeats)]
    imp = [wall([sys.executable, "-c", "import blanchfield.cli"]) for _ in range(repeats)]
    numpy_s = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import blanchfield.cli"], cwd=ROOT, env=env,
                              check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_s.append(int(parts[1]) / 1e6)
    return {"interpreter_s": statistics.median(bare),
            "import_s": statistics.median(imp) - statistics.median(bare),
            "numpy_import_s": statistics.median(numpy_s) if numpy_s else 0.0}


def layer_metrics(tr, jobs: int, traced_s: float, command_s: list[float],
                  startup: dict) -> dict:
    """Per-job means of the per-layer counters and times."""
    def per(x):
        return x / jobs

    m = {}
    for fn in ("divmod_frac", "gcd_poly", "mul"):
        m[f"polyops.{fn}.calls"] = (per(tr.calls(f"polyops.{fn}")), "count")
        m[f"polyops.{fn}.self_s"] = (per(tr.self_time(f"polyops.{fn}")), "s")
    m["ratfunc.construct.calls"] = (per(tr.calls("ratfunc.RationalFunction.__init__")), "count")
    m["laurent.ops"] = (per(tr.layer_calls("laurent", {"laurent.LaurentPoly.parse"})), "count")
    m["qmod.canonical_class.calls"] = (per(tr.calls("qmod.QModLambda.from_ratfunc")), "count")
    m["qmod.canonical_class.self_s"] = (per(tr.self_time("qmod.QModLambda.from_ratfunc")), "s")
    for fn in ("inverse", "solve", "det"):
        m[f"matrix.{fn}.calls"] = (per(tr.calls(f"matrix.Matrix.{fn}")), "count")
        m[f"matrix.{fn}.s"] = (per(tr.inclusive(f"matrix.Matrix.{fn}")), "s")
    construct = ("pairing.from_seifert", "pairing.from_fibred", "pairing.from_dual_surface")
    values = ("pairing.PresentedPairing.value", "pairing.DualSurfaceEvaluator.value")
    m["pairing.construct_s"] = (per(tr.inclusive(*construct)), "s")
    m["pairing.value.calls"] = (per(tr.calls(*values)), "count")
    m["pairing.value_s"] = (per(tr.inclusive(*values)), "s")
    m["pairing.element_equal_s"] = (per(tr.inclusive("pairing.PresentedPairing.element_equal")), "s")
    degree, bits = pairing_sizes([p for p, _ in tr.results.get("pairing.from_seifert", [])
                                  + tr.results.get("pairing.from_fibred", [])])
    m["pairing.denom_degree"] = (degree, "degree")
    m["pairing.numer_max_bits"] = (bits, "bits")
    m["mkform.mk_matrix_s"] = (per(tr.inclusive("mkform.mk_matrix")), "s")
    m["mkform.symplectic_normalize_s"] = (per(tr.inclusive("mkform.symplectic_normalize")), "s")
    m["invariants.alexander_s"] = (per(tr.inclusive("invariants.alexander_polynomial")), "s")
    sig = ("invariants.levine_tristram_signature", "invariants.mk_signature")
    sig_calls = tr.calls(*sig)
    indeterminate = sum(tr.raised.get(f"{n}:IndeterminateSignatureError", 0) for n in sig)
    m["invariants.signature.calls"] = (per(sig_calls), "count")
    m["invariants.signature_s"] = (per(tr.inclusive(*sig)), "s")
    m["invariants.indeterminate_frac"] = (indeterminate / sig_calls if sig_calls else 0.0,
                                          "fraction")
    for fn, check in CHECK_NAMES.items():
        m[f"verify.{check}_s"] = (per(tr.inclusive(f"verify.{fn}")), "s")
    witnesses = [w for w, _ in tr.results.get("verify.kearton_witness", [])]
    m["verify.kearton.value_calls"] = (per(tr.calls("pairing.kearton_value")), "count")
    m["verify.kearton.witness_ratio"] = (
        sum(w is not None for w in witnesses) / len(witnesses) if witnesses else 0.0,
        "fraction")
    m["catalog.load_entry_s"] = (per(tr.inclusive("catalog.load_entry")), "s")
    m["cli.interpreter_s"] = (startup["interpreter_s"], "s")
    m["cli.import_s"] = (startup["import_s"], "s")
    m["cli.numpy_import_s"] = (startup["numpy_import_s"], "s")
    m["cli.command_s"] = (statistics.median(command_s) if command_s else 0.0, "s")
    for layer, self_s in tr.layer_self().items():
        m[f"{layer}.self_s"] = (per(self_s), "s")
    covered = sum(s for layer, s in tr.layer_self().items() if layer != "bench")
    m["trace.cover_frac"] = (covered / traced_s if traced_s else 0.0, "fraction")
    return m


def pairing_sizes(pairings) -> tuple[float, float]:
    """Mean denominator degree span and mean largest numerator bit length
    of the constructed pairing matrices."""
    degrees, bits = [], []
    for p in pairings:
        if p.size == 0:
            continue
        entries = [e for row in p.pairing_matrix.entries for e in row]
        degrees.append(max(len(e.den) - 1 for e in entries))
        bits.append(max((abs(c).bit_length() for e in entries for c in e.num), default=0))
    if not degrees:
        return 0.0, 0.0
    return statistics.mean(degrees), statistics.mean(bits)


# --- output -----------------------------------------------------------------

def finish(args, metrics: dict, record: dict, correct: bool, attempted: int,
           failed: int) -> dict:
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    path = OUT / f"record-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"record: {path.relative_to(ROOT)}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    bootstrap()
    try:
        import blanchfield  # noqa: F401
        import workloads
    except ImportError as exc:
        fail(f"cannot import the package: {exc}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    OUT.mkdir(exist_ok=True)
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
