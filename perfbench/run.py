"""The repository benchmark: profile → artifact → views → advice, timed.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload lulesh-cold --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process.  ``--trace 1`` alternates untraced jobs with jobs traced
through span wrappers and reports per-layer self time, the tracing
overhead, a Chrome trace (``.perfbench/trace-*.json``) and a layer table.

Other modes::

    python3 perfbench/run.py diff OLD.json NEW.json   # rank layers by self-time change
    python3 perfbench/run.py refs                      # regenerate references.json

Result files go to ``.perfbench/`` under the checkout root.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: End-to-end metrics: name → unit (reported with tracing off).
END_TO_END = {
    "setup_s": "s",
    "profile_s": "s",
    "replay_s": "s",
    "advise_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name → unit (reported by the traced run).
PER_LAYER = {
    "compile.s": "s",
    "compile.ir_instrs": "count",
    "analyze.s": "s",
    "analyze.cache_hit_ratio": "ratio",
    "advise.s": "s",
    "advise.findings": "count",
    "collect.s": "s",
    "collect.instrs": "count",
    "collect.minstr_per_s": "Minstr/s",
    "collect.samples": "count",
    "postmortem.s": "s",
    "postmortem.ksamples_per_s": "ksamples/s",
    "postmortem.instances": "count",
    "attribute.s": "s",
    "aggregate.s": "s",
    "artifact.write_s": "s",
    "artifact.read_s": "s",
    "artifact.bytes": "bytes",
    "render.s": "s",
    "adaptive.controller_share": "ratio",
    "adaptive.rounds": "count",
    "adaptive.sample_fraction": "ratio",
    "driver.s": "s",
    "trace.overhead": "ratio",
}

#: Layers whose self time per job is reported as ``<layer>.s``.
TIMED_LAYERS = ("compile", "analyze", "advise", "collect", "postmortem", "attribute",
                "aggregate", "render", "driver")

#: Seconds of ``--seconds`` that buy one whole sweep cycle (about one
#: cycle's length on a 2-CPU x86-64 host with Python 3.11).
SWEEP_CYCLE_SECONDS = 7.0

#: Fresh processes timed for ``setup_s`` besides the run's own set-up.
SETUP_REPS = 5


def _use_checkout() -> None:
    """Puts the checkout's ``src`` and root on the import path; fails
    when the checkout holds no ``repro`` package."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro package under {SRC}; run from a checkout")
    sys.path[:0] = [SRC, ROOT]


def git_commit(root: str = ROOT) -> "str | None":
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def run_metadata(seed: int) -> dict:
    from repro.bench.harness import available_cpus

    return {
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "machine": platform.machine(),
        "seed": seed,
    }


def tail_percentile(values: list[float]) -> "tuple[int, float] | None":
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return q, sorted(values)[max(0, math.ceil(q / 100 * n) - 1)]


# -- one workload ----------------------------------------------------------------


class Bench:
    """One workload's run: set-up, the timed closed loop, the check."""

    def __init__(self, workload: str, seed: int, scale: str = "full", refs=None) -> None:
        from perfbench import refs as refs_mod
        from perfbench.workloads import job_stream, sweep_cycle

        self.workload, self.seed, self.scale = workload, seed, scale
        self.refs = refs if refs is not None else refs_mod.load_references()
        self.jobs = job_stream(workload, seed, scale, runnable=self.runnable)
        self.cycle = sweep_cycle(scale, runnable=self.runnable) if workload == "sweep" else 0

    def runnable(self, job) -> bool:
        """Sweep cells whose oracle run succeeded; the others are the
        known failures, checked after the timed phase."""
        ref = self.refs.get(job.key)
        return ref is not None and not ref.get("error")

    def warm_up(self, workdir: str) -> None:
        from perfbench.jobrun import run_job
        from perfbench.workloads import warmup_job

        run_job(warmup_job(), workdir)

    def timed(self, seconds: float, workdir: str, trace: bool, min_jobs: int = 1) -> dict:
        """Closed loop: one caller, each job starts when the last ends.

        One-program workloads run jobs until ``seconds`` have passed.
        The sweep runs a fixed number of whole draw cycles instead, one
        per :data:`SWEEP_CYCLE_SECONDS` of ``seconds``: its first cycle
        compiles and analyzes every module cold and later ones hit the
        caches, so a time limit would change the mix of cold and warm
        jobs whenever the program gets faster or slower.  At least
        ``min_jobs`` run either way; with ``trace`` every second job is
        traced."""
        from perfbench.jobrun import mismatches, run_job
        from perfbench.spans import Tracer

        tracer = Tracer() if trace else None
        rows, failures = [], []
        busy = {"untraced": 0.0, "traced": 0.0}
        deadline = time.perf_counter() + seconds
        budget = self.cycle * round(seconds / SWEEP_CYCLE_SECONDS)

        def more(n: int) -> bool:
            if n < min_jobs:
                return True
            return n < budget if self.cycle else time.perf_counter() < deadline

        n = 0
        while more(n):
            job = next(self.jobs)
            traced = trace and n % 2 == 1
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.job = n
                    tracer.install()
                    try:
                        out = run_job(job, workdir, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    out = run_job(job, workdir)
                problems = mismatches(job, out, self.refs)
            except Exception as exc:  # a job boundary: record, keep going
                out = None
                problems = [f"raised {type(exc).__name__}: {str(exc).splitlines()[0]}"]
                traceback.print_exc(file=sys.stderr)
            busy["traced" if traced else "untraced"] += time.perf_counter() - t0
            if problems:
                failures.append({"job": job.key, "index": n, "reasons": problems})
            elif out is not None:
                rows.append({"job": job.key, "index": n, "traced": traced,
                             "profile_s": out.profile_s, "replay_s": out.replay_s,
                             "advise_s": out.advise_s, "counts": out.counts})
            n += 1
        return {"attempted": n, "rows": rows, "failures": failures, "busy": busy,
                "tracer": tracer}

    def known_failures(self, workdir: str) -> list[dict]:
        """Runs the sweep's known failures once each, after the timed phase.

        Two kinds: cells the oracle itself fails on (kept out of the
        timed draw, since a timed job must be able to pass), and the
        :func:`~perfbench.workloads.history_probes`, whose advice depends
        on earlier profiles of the same module.  Both are named in every
        sweep result until they are fixed.
        """
        from perfbench.jobrun import advice_after_history, run_job
        from perfbench.workloads import history_probes, sweep_cells

        if self.workload != "sweep":
            return []
        seen, out = set(), []
        for job in sweep_cells(self.scale):
            if self.runnable(job) or job.cell in seen:
                continue
            seen.add(job.cell)
            try:
                run_job(job, workdir)
                status = "runs now; regenerate the references"
            except Exception as exc:  # the expected outcome for these cells
                status = f"{type(exc).__name__}: {str(exc).splitlines()[0]}"
            out.append({"job": job.cell, "result": status})
        for job, earlier in history_probes():
            after, fresh = advice_after_history(job, earlier)
            status = ("advice differs from a fresh module's" if after != fresh else "passes now")
            out.append({"job": f"{job.key} after sizes {earlier}", "result": status})
        return out


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_REPS`` fresh processes, each timed from
    its start to the point its first timed job would begin."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(loop: dict, setups: list[float], rss_mb: float, mix: bool = False) -> dict:
    """End-to-end metrics over the untraced jobs.

    Phase times are the median over jobs; for a ``mix`` of unlike
    programs (the sweep, whose job times span 50x) the geometric mean,
    which weighs each program's time by ratio, where the median would
    jump from one program to the next as noise reorders them.
    """
    rows = [r for r in loop["rows"] if not r["traced"]]
    n = len(rows)
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s",
                           "note": f"median of {len(setups)} set-ups"}}
    summary, name = ((statistics.geometric_mean, "geometric mean") if mix
                     else (statistics.median, "median"))
    for key in ("profile_s", "replay_s", "advise_s"):
        values = [r[key] for r in rows]
        entry = {"value": summary(values) if values else 0.0, "unit": "s",
                 "note": f"{name} of {n} jobs"}
        tail = tail_percentile(values)
        if tail is not None:
            entry["note"] += f", p{tail[0]} {tail[1]:.6g}"
        metrics[key] = entry
    busy = loop["busy"]["untraced"]
    metrics["jobs_per_s"] = {"value": n / busy if busy else 0.0, "unit": "1/s",
                             "note": f"{n} verified jobs in {busy:.2f} s"}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB", "note": "max resident set"}
    return metrics


def per_layer(loop: dict, refs: dict) -> "tuple[dict, dict]":
    """Per-layer metrics and the layer self-time table of a traced run."""
    tracer = loop["tracer"]
    traced = [r for r in loop["rows"] if r["traced"]]
    n = max(1, len(traced))
    layers = tracer.layer_self_times()
    total = sum(layers.values()) or 1.0
    table = {name: {"self_s_per_job": t / n, "share": t / total}
             for name, t in sorted(layers.items(), key=lambda kv: -kv[1])}

    def layer_s(name: str) -> float:
        return layers.get(name, 0.0) / n

    def mean(key: str) -> float:
        return sum(r["counts"][key] for r in traced) / n

    m = {f"{name}.s": layer_s(name) for name in TIMED_LAYERS}
    m["artifact.write_s"] = layer_s("artifact.write")
    m["artifact.read_s"] = layer_s("artifact.read")
    for metric, key in (("compile.ir_instrs", "ir_instrs"), ("advise.findings", "findings"),
                        ("collect.instrs", "instrs"), ("collect.samples", "samples"),
                        ("postmortem.instances", "instances"), ("artifact.bytes", "bytes"),
                        ("adaptive.rounds", "rounds")):
        m[metric] = mean(key)
    lookups = tracer.counters.get("analyze.lookups", 0.0)
    m["analyze.cache_hit_ratio"] = tracer.counters.get("analyze.hits", 0.0) / lookups if lookups else 0.0
    collect_s = layers.get("collect", 0.0)
    m["collect.minstr_per_s"] = mean("instrs") * n / collect_s / 1e6 if collect_s else 0.0
    pm_s = layers.get("postmortem", 0.0)
    m["postmortem.ksamples_per_s"] = mean("samples") * n / pm_s / 1e3 if pm_s else 0.0
    profile_total = sum(r["profile_s"] for r in traced)
    m["adaptive.controller_share"] = layers.get("adaptive", 0.0) / profile_total if profile_total else 0.0
    fractions = []
    for r in traced:
        full = refs.get(r["job"], {}).get("full_samples")
        fractions.append(r["counts"]["samples"] / full if full else 1.0)
    m["adaptive.sample_fraction"] = statistics.mean(fractions) if fractions else 1.0
    m["trace.overhead"] = trace_overhead(loop["rows"])
    return {k: {"value": m[k], "unit": PER_LAYER[k]} for k in PER_LAYER}, table


def trace_overhead(rows: list[dict]) -> float:
    """Traced over untraced ``profile_s``, minus 1.

    Compares like with like: only repeats of a job (its first run in the
    process is the cold one in the sweep), median per job key, then the
    geometric mean over keys seen both traced and untraced.
    """
    seen: set[str] = set()
    times: dict[str, dict[bool, list[float]]] = {}
    for r in rows:
        if r["job"] in seen:
            times.setdefault(r["job"], {True: [], False: []})[r["traced"]].append(r["profile_s"])
        seen.add(r["job"])
    ratios = [statistics.median(t[True]) / statistics.median(t[False])
              for t in times.values() if t[True] and t[False]]
    return statistics.geometric_mean(ratios) - 1 if ratios else 0.0


def run_workload(args) -> dict:
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} (want {'|'.join(WORKLOADS)}|all)")
    os.makedirs(args.out, exist_ok=True)
    bench = Bench(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        bench.warm_up(workdir)
        own_setup = time.perf_counter() - _T0
        if args.setup_only:
            return {"setup_s": own_setup}
        loop = bench.timed(args.seconds, workdir, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        known = bench.known_failures(workdir)
    setups = [own_setup] + setup_seconds(args.workload, args.seed)
    result = build_result(bench, loop, args.seconds, args.trace, setups, rss_mb, known)
    if args.trace:
        trace_path = os.path.join(args.out, f"trace-{args.workload}-s{args.seed}.json")
        loop["tracer"].write_chrome_trace(trace_path)
        result["chrome_trace"] = os.path.relpath(trace_path, ROOT)
    return result


def build_result(bench: Bench, loop: dict, seconds: float, trace: int, setups: list[float],
                 rss_mb: float, known: list[dict]) -> dict:
    failed = len(loop["failures"])
    result = {
        "workload": bench.workload,
        "seconds": seconds,
        "trace": trace,
        "scale": bench.scale,
        "meta": run_metadata(bench.seed),
        "jobs": {
            "attempted": loop["attempted"],
            "verified": len(loop["rows"]),
            "failed": failed,
            "traced": sum(1 for r in loop["rows"] if r["traced"]),
            "known_failures_run": len(known),
        },
        "failures": loop["failures"],
        "known_failures": known,
        "fail_rate": {
            "value": (failed + len(known)) / (loop["attempted"] + len(known)),
            "unit": "ratio",
            "note": "failed jobs, timed and known, over jobs attempted",
        },
        "setup_samples_s": setups,
        "metrics": end_to_end(loop, setups, rss_mb, mix=bench.workload == "sweep"),
        "job_rows": [{k: v for k, v in r.items() if k != "counts"} for r in loop["rows"]],
    }
    if trace:
        result["per_layer"], result["layers"] = per_layer(loop, bench.refs)
    return result


# -- printing --------------------------------------------------------------------


def print_report(result: dict) -> None:
    jobs = result["jobs"]
    print(f"perfbench {result['workload']} (seed {result['meta']['seed']}, "
          f"{result['seconds']} s, trace {result['trace']}): {jobs['attempted']} jobs, "
          f"{jobs['verified']} verified, {jobs['failed']} failed; "
          f"{result['meta']['available_cpus']} CPUs, Python {result['meta']['python']}, "
          f"commit {(result['meta']['git_commit'] or 'unknown')[:12]}")
    for name, m in result["metrics"].items():
        print(f"  {name:<14} {m['value']:>12.6g} {m['unit']:<6}  ({m['note']})")
    fr = result["fail_rate"]
    print(f"  {'fail_rate':<14} {fr['value']:>12.6g} {fr['unit']:<6}  ({fr['note']})")
    for f in result["failures"]:
        print(f"  FAILED {f['job']} (job {f['index']}): {'; '.join(f['reasons'])}")
    for k in result["known_failures"]:
        print(f"  KNOWN FAILURE {k['job']}: {k['result']}")
    if "per_layer" in result:
        print("  per-layer (traced jobs):")
        for name, m in result["per_layer"].items():
            print(f"    {name:<26} {m['value']:>12.6g} {m['unit']}")
        print("  layer self time per traced job:")
        for name, row in result["layers"].items():
            print(f"    {name:<16} {row['self_s_per_job']:>10.4f} s  {100 * row['share']:5.1f}%")
        print(f"  chrome trace: {result['chrome_trace']}")


def result_line(result: dict) -> str:
    jobs = result["jobs"]
    section, names = ((result["per_layer"], PER_LAYER) if result["trace"]
                      else (result["metrics"], END_TO_END))
    return json.dumps({
        "correct": jobs["failed"] == 0,
        "attempted": jobs["attempted"],
        "failed": jobs["failed"],
        "metrics": {k: {"value": section[k]["value"], "unit": unit} for k, unit in names.items()},
    })


def save(result: dict, out: str, name: str) -> str:
    path = os.path.join(out, name)
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return path


# -- all workloads ---------------------------------------------------------------


def run_all(args) -> int:
    from perfbench.workloads import WORKLOADS

    combined = {"workloads": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            sys.exit(f"perfbench: {workload} exited {proc.returncode}")
        print("\n".join(proc.stdout.splitlines()[:-1]))
        with open(os.path.join(args.out, f"{workload}-s{args.seed}-t{args.trace}.json")) as f:
            combined["workloads"][workload] = json.load(f)
    path = save(combined, args.out, f"all-s{args.seed}-t{args.trace}.json")
    print(f"[combined result written to {os.path.relpath(path, ROOT)}]")
    lines = {w: json.loads(result_line(r)) for w, r in combined["workloads"].items()}
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{w}.{k}": v for w, line in lines.items() for k, v in line["metrics"].items()},
    }))
    return 0


# -- diff ------------------------------------------------------------------------


def _by_workload(doc: dict) -> dict:
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def diff(old_path: str, new_path: str) -> int:
    """Ranks layers by the change in self time per job, per workload."""
    with open(old_path) as f:
        old = _by_workload(json.load(f))
    with open(new_path) as f:
        new = _by_workload(json.load(f))
    common = [w for w in old if w in new and "layers" in old[w] and "layers" in new[w]]
    if not common:
        sys.exit("perfbench diff: no workload has a traced (--trace 1) result in both files")
    for w in common:
        a, b = old[w]["layers"], new[w]["layers"]
        rows = []
        for layer in sorted(set(a) | set(b)):
            before = a.get(layer, {}).get("self_s_per_job", 0.0)
            after = b.get(layer, {}).get("self_s_per_job", 0.0)
            rows.append((after - before, layer, before, after))
        rows.sort(key=lambda r: -abs(r[0]))
        print(f"{w}: layer self time per job, ranked by change")
        print(f"  {'layer':<16} {'old s':>10} {'new s':>10} {'change s':>10} {'change':>8}")
        for delta, layer, before, after in rows:
            rel = f"{100 * delta / before:+7.1f}%" if before else "     new"
            print(f"  {layer:<16} {before:>10.4f} {after:>10.4f} {delta:>+10.4f} {rel:>8}")
        for key in ("profile_s", "replay_s"):
            ma, mb = old[w]["metrics"][key]["value"], new[w]["metrics"][key]["value"]
            rel = f" ({100 * (mb - ma) / ma:+.1f}%)" if ma else ""
            print(f"  {key}: {ma:.4f} -> {mb:.4f} s{rel}")
    return 0


# -- entry -----------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _use_checkout()
    if argv[:1] == ["diff"]:
        if len(argv) != 3:
            sys.exit("usage: run.py diff OLD.json NEW.json")
        return diff(argv[1], argv[2])
    if argv[:1] == ["refs"]:
        from perfbench import refs

        os.makedirs(OUT_DIR, exist_ok=True)
        return refs.regenerate(OUT_DIR)

    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="lulesh-cold|sweep|dense-sampling|adaptive|all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=OUT_DIR, help="directory for result files")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    print_report(result)
    path = save(result, args.out, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    print(f"[result written to {os.path.relpath(path, ROOT)}]")
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
