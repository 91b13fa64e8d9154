"""Benchmark of the spinring kernel: one workload per run, answers checked.

    python3 bench/run.py --workload gb-families --seed 7 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src``.  One client runs one job at a time in a closed loop until
the jobs have used ``--seconds`` of scaled time (see below).  Set-up runs several times and
reports its median.  ``--trace 1`` adds spans around every call the benchmark
makes into the library and reports per-layer self times and counts over one
unit of work: the last set-up, the first pass through the job pool and a
fixed reference pass of interpreter, import, verify and CLI probes.

A shared machine's speed can drift by tens of percent within seconds.  A
speed probe, a fixed product of two small rational polynomials written
without the library, runs just before each set-up and each job, outside the
timed region.  Each time is scaled by ``PROBE_REFERENCE_S`` over the probe
time just before it, and ``--seconds`` counts scaled job time, so a run does
the same work however fast the machine is at the moment, up to a cap of
``WALL_CAP`` times ``--seconds`` of measured job time.  The measured
values are printed beside the scaled ones and kept in the result file.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the end-to-end metrics (untraced)
or the per-layer metrics (traced) are the ones named in BENCHMARK.json.
Results and spans are also written under ``bench_out/``.  ``--record``
stores this run's answer digests as the reference for its workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / "bench_out"
SETUPS = 5
WALL_CAP = 1.75


def load_library() -> None:
    """Import spinring from this checkout's src, or exit with an error."""
    src = ROOT / "src"
    if not (src / "spinring" / "__init__.py").is_file():
        sys.exit(f"run.py: no spinring sources under {src}")
    sys.path.insert(0, str(src))
    import spinring

    if Path(spinring.__file__).resolve().parent != src / "spinring":
        sys.exit(f"run.py: spinring was imported from {spinring.__file__}, not from {src}")


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def pool_rate(latencies: list[float], pool: int) -> float:
    """Jobs per second at the pool's own mix: one over the summed mean time of
    each pool job that ran, so a part-done last pass does not tilt the mix."""
    runs: dict[int, list[float]] = {}
    for i, t in enumerate(latencies):
        runs.setdefault(i % pool, []).append(t)
    return len(runs) / sum(statistics.mean(times) for times in runs.values())


# a fixed sparse product of rational polynomials, written without the library
PROBE_TERMS = {(i, j, k): Fraction(i - 2 * j + 1, k + 2) for i in range(3) for j in range(3) for k in range(3)}
# the probe's median time on the machine the benchmark was defined on
PROBE_REFERENCE_S = 0.0025


def probe() -> float:
    """Time the fixed product once, with the cyclic collector off so the
    library's heap cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        product: dict = {}
        for e1, c1 in PROBE_TERMS.items():
            for e2, c2 in PROBE_TERMS.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                product[key] = product.get(key, 0) + c1 * c2
        sorted(product, key=lambda e: (sum(e), e))
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store the answer digests as the reference")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_library()
    from tracing import Tracer
    from workloads import WORKLOADS, child_env, clear_caches, digest, import_seconds, reference_pass

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = child_env(str(ROOT))
    tracer = Tracer(bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, env, str(ROOT))
    probe()  # warm-up, not used
    # the speed factor in force for each traced job id, for scaling span times
    speed: dict = {}

    # set-up: a fresh interpreter's import plus this process's input generation
    setups = []
    for rep in range(SETUPS):
        speed["setup"] = PROBE_REFERENCE_S / probe()
        clear_caches()
        imported = import_seconds(env, str(ROOT))
        start = time.perf_counter()
        workload.setup(tracer if rep == SETUPS - 1 else Tracer(False))
        setups.append((imported + time.perf_counter() - start, speed["setup"]))

    # the set-up's objects stay alive for the whole run; freezing them keeps
    # the collector from rescanning them during every job
    gc.collect()
    gc.freeze()
    references = json.loads(REFERENCE.read_text()).get(args.workload, {}) if REFERENCE.is_file() else {}
    pool = workload.pool
    latencies: list[tuple[float, float]] = []  # (measured, speed factor)
    keys: list[str] = []
    seen: dict[str, str] = {}
    problems: dict[str, list[str]] = {}
    bad_jobs: set[int] = set()
    probes: list[float] = []  # probes[i] runs just before job i
    busy = 0.0
    wall = 0.0
    # the wall-time cap bounds a run's length when the machine is very slow
    while (busy < args.seconds and wall < WALL_CAP * args.seconds) or (
        (args.trace or args.record) and len(latencies) < len(pool)
    ):
        i = len(latencies)
        job = pool[i % len(pool)]
        gc.collect()  # the previous job's garbage is not this job's cost
        probes.append(probe())
        speed[i] = PROBE_REFERENCE_S / probes[i]
        tracer.job = i
        start = time.perf_counter()
        try:
            output = workload.run(job, tracer)
        except Exception as exc:  # a failed job is counted, and the run goes on
            output = exc
        elapsed = time.perf_counter() - start
        latencies.append((elapsed, speed[i]))
        keys.append(job.key)
        busy += elapsed * speed[i]
        wall += elapsed
        # outside the timed region: answer checks and the traced in-process
        # replay; outputs are not kept, so the heap does not grow with the run
        if isinstance(output, Exception):
            bad_jobs.add(i)
            problems.setdefault(job.key, []).append(f"raised {type(output).__name__}: {output}")
        else:
            answer = digest(workload.answer(job, output))
            if job.key not in seen:
                seen[job.key] = answer
                found = workload.check(job, output)
                if found:
                    problems.setdefault(job.key, []).extend(found)
            elif seen[job.key] != answer:
                bad_jobs.add(i)
                problems.setdefault(job.key, []).append("answer differs between repeats")
            if not args.record and references.get(job.key, answer) != answer:
                bad_jobs.add(i)
                problems.setdefault(job.key, []).append("answer differs from the recorded reference")
        if args.trace and i < len(pool):
            workload.shadow(job, tracer)
        del output

    # scale each job by the median of the probes before it, just before it and
    # just after it, so one slow probe does not distort a job
    probes.append(probe())
    for i, (elapsed, _) in enumerate(latencies):
        speed[i] = PROBE_REFERENCE_S / statistics.median(probes[max(i - 1, 0) : i + 2])
        latencies[i] = (elapsed, speed[i])

    failed = sum(1 for i, key in enumerate(keys) if i in bad_jobs or key in problems)

    medians = {}
    if args.trace:
        speed["reference"] = PROBE_REFERENCE_S / probe()
        medians = {name: value * speed["reference"] for name, value in reference_pass(tracer, env, str(ROOT)).items()}

    n = len(latencies)
    rss_mb = workload.peak_rss_kb() / 1024

    def summary(scale: bool) -> dict[str, float]:
        set_up = [t * factor if scale else t for t, factor in setups]
        jobs = [t * factor if scale else t for t, factor in latencies]
        return {
            "setup_s": statistics.median(set_up),
            "jobs_per_s": pool_rate(jobs, len(pool)),
            "job_p50_ms": statistics.median(jobs) * 1e3,
            "job_tail_ms": tail(jobs)[0] * 1e3,
            "peak_rss_mb": rss_mb,
        }

    end_to_end = summary(scale=True)
    measured = summary(scale=False)
    tail_rank = tail([t for t, _ in latencies])[1]
    unit = {"setup", "reference", *range(len(pool))}
    self_s, calls = tracer.self_times(unit, speed)
    per_layer = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in medians:
            per_layer[name] = medians[name]
        elif name.endswith("_s"):
            per_layer[name] = self_s.get(name[:-2], 0.0)
        elif name.endswith("_calls"):
            per_layer[name] = calls.get(name[: -len("_calls")], 0)
        else:
            per_layer[name] = tracer.counted(name, unit)

    distinct = [key for key in dict.fromkeys(keys[: len(pool)]) if key in seen]
    workload_digest = digest("\n".join(f"{key} {seen[key]}" for key in sorted(distinct)))
    environment = {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  " + "  ".join(f"{k} {v}" for k, v in environment.items()))
    speeds = [factor for _, factor in latencies]
    print(f"closed loop, one client, one job at a time; pool of {len(pool)} jobs, {n} run in {busy:.3f} s of scaled job time")
    print(
        f"speed factor median {statistics.median(speeds):.4f} (range {min(speeds):.3f} to {max(speeds):.3f}): "
        f"each time is scaled to a machine where the speed probe takes {PROBE_REFERENCE_S * 1e3:g} ms"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    notes = {
        "setup_s": f"median of {SETUPS} set-ups",
        "job_p50_ms": f"n={n}",
        "job_tail_ms": f"p{tail_rank:.2f}, n={n}, {min(10, n - 1)} samples beyond it",
    }
    for name, value in end_to_end.items():
        print(f"{name:<12} {value:.6g} {units[name]}   measured {measured[name]:.6g}   {notes.get(name, '')}")
    print(f"failed_frac  {failed / n:.6f}   {failed} of {n} jobs failed")
    print(f"digest       {workload_digest}   over {len(distinct)} distinct jobs of the first pass")
    for key, found in sorted(problems.items()):
        print(f"FAILED {key}: {'; '.join(found)}")
    if args.trace:
        total = sum(self_s.values())
        print("self time per layer over one unit (last set-up, first pass, reference pass):")
        for name in sorted(self_s, key=self_s.get, reverse=True):
            print(f"  {name:<22} {self_s[name]:10.4f} s  {100 * self_s[name] / total:5.1f} %  {calls[name]} calls")
        for name, value in per_layer.items():
            print(f"  {name:<28} {value}")
        print("no wait metrics: every layer runs on one thread, one job at a time, so no layer waits on another")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment,
        "end_to_end": end_to_end,
        "measured_end_to_end": measured,
        "job_tail_percentile": tail_rank,
        "failed_frac": failed / n,
        "per_layer": per_layer if args.trace else {},
        "digest": workload_digest,
        "jobs": [{"key": key, "measured_s": t, "speed": factor} for key, (t, factor) in zip(keys, latencies)],
        "setups": [{"measured_s": t, "speed": factor} for t, factor in setups],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    if args.record:
        if problems:
            sys.exit("run.py: not recording a reference from a run with failures")
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        recorded[args.workload] = dict(sorted(seen.items()))
        REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
