"""The benchmark's workloads: which jobs each one runs, drawn from a seed.

A job is one ``repro-profile profile -o X.cbp`` + ``repro-profile view``
(+ ``repro-advise --profile``) round on one program.  ``cold`` jobs
compile afresh every time, as one CLI invocation does; the sweep keeps
the profiler's compile and analysis caches across jobs, as a harness
sweep in one process does.

``scale="tiny"`` shrinks every program for the benchmark's own tests;
the timed workloads use ``scale="full"``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count

WORKLOADS = ("lulesh-cold", "sweep", "dense-sampling", "adaptive")

#: The CLI's defaults (``repro-profile profile``).
THREADS = 12
DEFAULT_THRESHOLD = 20011
#: Sweep jobs run at reduced sizes; a denser threshold than the CLI
#: default keeps tens to hundreds of samples per job.
SWEEP_THRESHOLD = 4999

#: Family → variants, in the names ``repro-advise --benchmark`` uses.
SWEEP_VARIANTS: dict[str, tuple[str, ...]] = {
    "minimd": ("original", "optimized"),
    "clomp": ("original", "optimized"),
    "lulesh": ("original", "optimized", "cenn", "vg"),
    "spmv": ("original", "optimized", "dense"),
    "mttkrp": ("original", "optimized"),
}

#: Family → the reduced problem sizes a sweep job draws from.  The two
#: sizes of a family are shapes of about the same work (instructions
#: executed within ~15 %), so the seed changes shapes, not the load.
SWEEP_CONFIGS: dict[str, dict[str, tuple[dict, ...]]] = {
    "full": {
        "minimd": ({"numBins": 4, "perBin": 4, "steps": 2}, {"numBins": 8, "perBin": 4, "steps": 1}),
        "clomp": ({"numParts": 4, "zonesPerPart": 12, "timesteps": 1},
                  {"numParts": 8, "zonesPerPart": 6, "timesteps": 1}),
        "lulesh": ({"edgeElems": 2, "maxSteps": 3}, {"edgeElems": 3, "maxSteps": 1}),
        "spmv": ({"n": 16, "iters": 2}, {"n": 32, "iters": 1}),
        "mttkrp": ({"n": 16, "m": 16, "iters": 2}, {"n": 32, "m": 16, "iters": 1}),
    },
    "tiny": {
        "minimd": ({"numBins": 2, "perBin": 2, "steps": 1},),
        "clomp": ({"numParts": 2, "zonesPerPart": 4, "timesteps": 1},),
        "lulesh": ({"edgeElems": 2, "maxSteps": 1},),
        "spmv": ({"n": 8, "iters": 1},),
        "mttkrp": ({"n": 8, "m": 8, "iters": 1},),
    },
}


@dataclass(frozen=True)
class Job:
    """One profiling job; ``key`` names its reference."""

    key: str
    family: str
    variant: str
    config: dict = field(hash=False)
    fast: bool = False
    threshold: int = DEFAULT_THRESHOLD
    #: ``AdaptiveConfig(ci_width=...)`` when set; plain collection when None.
    ci_width: "float | None" = None
    #: Compile afresh (no cache carried in from earlier jobs).
    cold: bool = True

    @property
    def filename(self) -> str:
        return f"{self.family}.chpl"

    @property
    def cell(self) -> str:
        """The key without its size: one (family, variant, mode) of the sweep."""
        return self.key.rsplit(":", 1)[0]

    @property
    def plain_key(self) -> str:
        """The reference key of this job's plain (non ``--fast``) build."""
        return self.key.replace(":fast:", ":plain:")

    def source(self) -> str:
        return program_source(self.family, self.variant)


def program_source(family: str, variant: str) -> str:
    """Source text of one benchmark program variant (the same programs
    ``repro-advise --benchmark family:variant`` analyzes)."""
    from repro.bench.programs import clomp, lulesh, minimd, mttkrp, spmv

    if family in ("minimd", "clomp"):
        prog = minimd if family == "minimd" else clomp
        return prog.build_source(optimized=(variant == "optimized"))
    if family == "lulesh":
        return lulesh.build_source({
            "original": lulesh.ORIGINAL,
            "optimized": lulesh.BEST_CASE,
            "cenn": lulesh.CENN_ONLY,
            "vg": lulesh.VG_ONLY,
        }[variant])
    prog = spmv if family == "spmv" else mttkrp
    return prog.build_source(variant)


def single_job(workload: str, scale: str = "full") -> Job:
    """The one program a single-program workload profiles over and over."""
    tiny = scale == "tiny"
    if workload == "lulesh-cold":
        config = {"edgeElems": 2, "maxSteps": 1} if tiny else {"edgeElems": 4, "maxSteps": 2}
        return Job(f"lulesh-cold:{scale}", "lulesh", "original", config)
    if workload == "dense-sampling":
        config = {"numBins": 4, "perBin": 4, "steps": 1} if tiny else {
            "numBins": 10, "perBin": 6, "steps": 3, "neighborEvery": 1}
        return Job(f"dense-sampling:{scale}", "minimd", "original", config, threshold=199)
    if workload == "adaptive":
        config = {"numBins": 6, "perBin": 4, "steps": 3} if tiny else {
            "numBins": 10, "perBin": 6, "steps": 9, "neighborEvery": 1}
        return Job(f"adaptive:{scale}", "minimd", "original", config,
                   threshold=97 if tiny else 997, ci_width=0.025)
    raise ValueError(f"{workload!r} is not a single-program workload")


def sweep_cells(scale: str = "full") -> list[Job]:
    """Every (family, variant, config, plain or --fast) sweep job."""
    jobs = []
    for family, variants in SWEEP_VARIANTS.items():
        for variant in variants:
            for fast in (False, True):
                for c, config in enumerate(SWEEP_CONFIGS[scale][family]):
                    mode = "fast" if fast else "plain"
                    jobs.append(Job(
                        f"sweep:{scale}:{family}:{variant}:{mode}:c{c}",
                        family, variant, dict(config), fast=fast,
                        threshold=SWEEP_THRESHOLD, cold=False,
                    ))
    return jobs


def reference_jobs(scale: str = "full") -> list[Job]:
    """Every job any workload can run at this scale."""
    singles = [single_job(w, scale) for w in WORKLOADS if w != "sweep"]
    return singles + sweep_cells(scale)


def sweep_draw(seed: int, cells: list[Job]):
    """Endless seeded draw over the sweep cells.

    The seed deals the problem sizes out over each family's (variant,
    mode) cells, in turn, so every seed profiles each size about equally
    often; each cycle then visits every cell once, in a seeded order.  A
    module is profiled at one size only: see :func:`history_probes` for
    why mixing sizes on one module is checked apart.
    """
    rng = random.Random(seed)
    groups: dict[str, list[Job]] = {}
    for job in cells:
        groups.setdefault(job.cell, []).append(job)
    names = sorted(groups)
    chosen: dict[str, Job] = {}
    for family in SWEEP_VARIANTS:
        dealt = [name for name in names if groups[name][0].family == family]
        rng.shuffle(dealt)
        for i, name in enumerate(dealt):
            chosen[name] = groups[name][i % len(groups[name])]
    for _ in count():
        rng.shuffle(names)
        for name in names:
            yield chosen[name]


def history_probes() -> list[tuple[Job, list[dict]]]:
    """Known reproductions of advice that depends on earlier profiles of
    the same module, as (job, configs profiled first on that module).

    Attribution memoizes alias-reached globals into the cached
    ``DataFlow.var_meta`` (``FunctionBlameInfo.meta``), which the advisor
    then names.  Every sweep run checks these after the timed phase.
    """
    probes = []
    for fast in (False, True):
        job = Job(f"history:minimd:original:{'fast' if fast else 'plain'}", "minimd",
                  "original", {"numBins": 6, "perBin": 4, "steps": 1}, fast=fast,
                  threshold=SWEEP_THRESHOLD)
        probes.append((job, [{"numBins": 4, "perBin": 4, "steps": 2}]))
    return probes


def job_stream(workload: str, seed: int, scale: str = "full", runnable=None):
    """The endless job sequence a workload runs.

    ``runnable(job) -> bool`` filters the sweep cells (the caller drops
    cells whose reference records that even the oracle fails).
    """
    if workload != "sweep":
        job = single_job(workload, scale)
        while True:
            yield job
    cells = [j for j in sweep_cells(scale) if runnable is None or runnable(j)]
    yield from sweep_draw(seed, cells)


def sweep_cycle(scale: str = "full", runnable=None) -> int:
    """Jobs in one cycle of the sweep's draw."""
    return len({j.cell for j in sweep_cells(scale) if runnable is None or runnable(j)})


def warmup_job() -> Job:
    """A small job every workload runs once before timing, so lazy imports
    and first-call costs land in set-up, not in the first timed job."""
    return Job("warmup", "minimd", "optimized", {"numBins": 2, "perBin": 2, "steps": 1},
               threshold=997)
