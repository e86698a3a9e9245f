"""Seeded inputs and job lists for the benchmark workloads.

Everything the program sees is made here from the workload seed: state
files, flow configs and the argv of every job.  Randomness comes from
numpy's counter-based Philox generator, so one seed gives the same files
and argv on every machine.  The structure of a workload (job classes,
dimensions, ranks, tick targets) is fixed; the seed varies only the
contents, so the cost of a pass stays comparable across seeds.

Each job carries the reference values the independent check needs; they
are computed here, once, with the benchmark's own numpy code.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

import oracle

WORKLOADS = ("spectral", "scan", "ticks")

# spectral: (d_A = d_B, rank of the joint); rank None means full rank.
BIPARTITE_SPECS = ((2, None), (2, 1), (4, None), (4, 4), (8, None), (8, 16))
# spectral: cq states as (branch dim, branch ranks); a rank-1 branch is pure.
CQ_SPECS = ((8, (8, 8, 8, 8)), (4, (4, 1)))
STATE_INSTANCES = 4
TROTTER_NS = (2, 4, 8)
RANK_DEFICIENT_EPS = "1e-3"

# scan: (dims, jobs) per job class; every job sweeps SCAN_TRIALS trials
# per dimension, one random state and one eigenpair superposition.  The
# classes fall into cost tiers (2 | 3 and 4 | 8, 2,3,4 and 16) of 20, 50
# and 30 jobs, so the median and the 90th percentile land mid-tier, not on
# a tier edge where the seed would decide which tier they read.  No job
# sweeps 8 and 16 together: at ~50 ms it would cut the passes a run makes.
SCAN_CLASSES = (
    ("2", 20),
    ("3", 25),
    ("4", 25),
    ("8", 15),
    ("2,3,4", 10),
    ("16", 5),
)
SCAN_TRIALS = 2

# ticks: TICKS_BLOCKS blocks of the same 15 job classes; target tick
# counts of the flow jobs per output format.  Of the 105 jobs, 56 take a
# few ms, 21 are gaussian, 21 are CSV flows and 7 JSON flows, so the
# median lands inside the first tier and the 90th percentile inside the
# CSV flows, not on a tier edge.
TICKS_BLOCKS = 7
FLOW_CSV_TICKS = (10_000, 10_000, 10_000)
FLOW_JSON_TICKS = (10_000,)
# ticks: the few-ms job classes the median lands among run this many times
# per pass, so their means rest on more samples at little cost.
CHEAP_CLASSES = ("flow-ratio", "flow-dilation", "lorentz", "simultaneity")
CHEAP_PER_PASS = 3
GAUSSIAN_GRIDS = (("csv", 1024), ("csv", 1024), ("json", 512))


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output must satisfy."""

    label: str
    argv: tuple
    expect: dict = field(default_factory=dict, compare=False)
    per_pass: int = 1  # times the job runs in each pass of the closed loop


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent Philox stream per (seed, stream); platform-stable."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _density(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    k = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = k @ k.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _matrix_obj(m: np.ndarray) -> dict:
    flat = np.asarray(m, dtype=np.complex128).reshape(-1)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def _write_json(path: str, obj) -> None:
    # Same layout the library's own state writer produces.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _probabilities(n: int, rng: np.random.Generator) -> list:
    p = rng.uniform(0.2, 1.0, size=n)
    return [float(x) for x in p / p.sum()]


def _write_cq(path, d, ranks, rng) -> dict:
    probs = _probabilities(len(ranks), rng)
    mats = [_density(d, r, rng) for r in ranks]
    _write_json(
        path,
        {
            "kind": "cq",
            "branches": [{"p": p, "matrix": _matrix_obj(m)} for p, m in zip(probs, mats)],
        },
    )
    mixture = sum(p * m for p, m in zip(probs, mats))
    return {
        "dim": d * len(ranks),
        "branch": oracle.branch_entropy(probs, mats),
        "mixture": oracle.von_neumann(mixture),
    }


def _spectral_jobs(seed: int, workdir: str) -> list:
    rng = rng_for(seed, 1)
    states = []
    for inst in range(STATE_INSTANCES):
        for da, rank in BIPARTITE_SPECS:
            d = da * da
            tag = f"{da}x{da}/{'full' if rank is None else 'rank' + str(rank)}"
            rho = _density(d, rank or d, rng)
            path = os.path.join(workdir, f"bipartite-{da}-{rank or d}-{inst}.json")
            _write_json(
                path,
                {"kind": "bipartite", "dimA": da, "dimB": da, "matrix": _matrix_obj(rho)},
            )
            ref = {"dim": d, "conditional": oracle.conditional_entropy(rho, da, da)}
            states.append((tag, path, ref, rank is not None))
        for d, ranks in CQ_SPECS:
            tag = f"cq{len(ranks)}x{d}/{'full' if min(ranks) == d else 'mixed'}"
            path = os.path.join(workdir, f"cq-{d}-{len(ranks)}-{inst}.json")
            ref = _write_cq(path, d, ranks, rng)
            ref["conditional"] = ref["branch"]
            states.append((tag, path, ref, min(ranks) < d))

    jobs = []
    for tag, path, ref, deficient in states:
        jobs.append(Job(f"conditional/{tag}/json", ("conditional", "--state", path), ref))
        jobs.append(
            Job(
                f"conditional/{tag}/csv",
                ("conditional", "--state", path, "--format", "csv"),
                ref,
            )
        )
        jobs.append(
            Job(f"entropy/{tag}/csv", ("entropy", "--conditional", "--state", path), ref)
        )
        n = str(TROTTER_NS[int(rng.integers(len(TROTTER_NS)))])
        argv = ("conditional", "--state", path, "--trotter-n", n)
        if deficient:
            argv += ("--eps", RANK_DEFICIENT_EPS)
        jobs.append(Job(f"conditional-trotter/{tag}/json", argv, ref))
    return jobs


def _scan_jobs(seed: int) -> list:
    rng = rng_for(seed, 2)
    jobs = []
    for dims, count in SCAN_CLASSES:
        option = "--dims" if "," in dims else "--dim"
        for i in range(count):
            fmt = "json" if i % 2 == 0 else "csv"
            job_seed = str(int(rng.integers(0, 2**31)))
            argv = ("mlcheck", option, dims, "--trials", str(SCAN_TRIALS), "--seed", job_seed)
            expect = {
                "dims": [int(d) for d in dims.split(",")],
                "trials": SCAN_TRIALS,
                "seed": int(job_seed),
            }
            jobs.append(Job(f"mlcheck/{dims}/{fmt}", argv + ("--format", fmt), expect))
    return jobs


def _flow_config(path: str, target_ticks: int, rng: np.random.Generator) -> dict:
    """Systems with seeded entropies and a horizon sized for target_ticks.

    The horizon keeps every per-system count horizon*4kTS/h away from an
    integer, where the count would hinge on the last bit of a product.
    """
    n = int(rng.integers(2, 6))
    systems = [
        {"id": f"sys{j}-{int(rng.integers(16**6)):06x}", "entropyNats": float(s)}
        for j, s in enumerate(rng.uniform(0.3, 2.0, size=n))
    ]
    temperature = float(rng.uniform(0.5, 2.0))
    rates = [4.0 * temperature * s["entropyNats"] for s in systems]
    horizon = target_ticks / sum(rates)
    while any(abs(r * horizon - round(r * horizon)) < 1e-6 for r in rates):
        horizon *= 1.0 + 1e-5
    _write_json(path, {"systems": systems, "T": temperature, "horizon": horizon})
    return {"systems": systems, "T": temperature, "horizon": horizon}


def _ticks_jobs(seed: int, workdir: str) -> list:
    rng = rng_for(seed, 3)
    jobs = []
    for block in range(TICKS_BLOCKS):
        jobs += _ticks_block(rng, os.path.join(workdir, f"block{block}-"))
    return jobs


def _ticks_block(rng: np.random.Generator, prefix: str) -> list:
    jobs = []
    flows = [("csv", t) for t in FLOW_CSV_TICKS] + [("json", t) for t in FLOW_JSON_TICKS]
    configs = []
    for i, (fmt, target) in enumerate(flows):
        path = f"{prefix}flow-{i}.json"
        cfg = _flow_config(path, target, rng)
        configs.append((path, cfg))
        jobs.append(
            Job(f"flow/{target // 1000}k/{fmt}", ("flow", "--config", path, "--format", fmt), cfg)
        )
    for i, fmt in enumerate(("json", "csv")):
        path, cfg = configs[i]
        a, b = (s["id"] for s in cfg["systems"][:2])
        expect = dict(cfg, ratio_ids=[a, b])
        jobs.append(
            Job(
                f"flow-ratio/{fmt}",
                ("flow", "--config", path, "--ratio", a, b, "--format", fmt),
                expect,
            )
        )
        cq_path = f"{prefix}dilation-cq-{i}.json"
        ref = _write_cq(cq_path, 4, (4, 4), rng)
        jobs.append(
            Job(
                f"flow-dilation/{fmt}",
                ("flow", "--config", path, "--dilation", cq_path, "--format", fmt),
                dict(cfg, **ref),
            )
        )
    for fmt, grid in GAUSSIAN_GRIDS:
        sk, sx = (f"{x:.6g}" for x in rng.uniform(0.2, 5.0, size=2))
        argv = ("gaussian", "--grid", str(grid), "--sigma-k0", sk, "--sigma-x0", sx)
        jobs.append(
            Job(
                f"gaussian/{grid}/{fmt}",
                argv + ("--format", fmt),
                {"grid": grid, "sigma_k0": float(sk), "sigma_x0": float(sx)},
            )
        )
    for fmt in ("json", "csv"):
        v = f"{rng.uniform(-0.95, 0.95):.6g}"
        jobs.append(
            Job(f"lorentz/{fmt}", ("lorentz", "--v", v, "--format", fmt), {"v": float(v)})
        )
    th1, th2, vmax = (f"{x:.6g}" for x in rng.uniform(0.1, 10.0, size=3))
    jobs.append(
        Job(
            "simultaneity/theta/csv",
            ("simultaneity", "--theta1", th1, "--theta2", th2, "--vmax", vmax),
            {"theta1": float(th1), "theta2": float(th2), "vmax": float(vmax)},
        )
    )
    s1, t1, s2, t2, ent = (f"{x:.6g}" for x in rng.uniform(0.1, 3.0, size=5))
    jobs.append(
        Job(
            "simultaneity/entropy/json",
            ("simultaneity", "--s1", s1, "--t1", t1, "--s2", s2, "--t2", t2,
             "--entropy", ent, "--format", "json"),
            {
                "theta1": 4.0 * float(s1) * float(t1),
                "theta2": 4.0 * float(s2) * float(t2),
                "vmax": 4.0 * float(ent),
            },
        )
    )
    return [
        replace(job, per_pass=CHEAP_PER_PASS) if job.label.split("/")[0] in CHEAP_CLASSES else job
        for job in jobs
    ]


def build_jobs(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files into workdir; return its job list.

    The list is one pass of the closed loop, shuffled by the seed.
    """
    if workload == "spectral":
        jobs = _spectral_jobs(seed, workdir)
    elif workload == "scan":
        jobs = _scan_jobs(seed)
    elif workload == "ticks":
        jobs = _ticks_jobs(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng_for(seed, 0).permutation(len(jobs))
    return [jobs[i] for i in order]


def first_per_label(jobs, n: int) -> list:
    """The first n jobs of each job class, in list order."""
    seen: dict[str, int] = {}
    kept = []
    for job in jobs:
        if seen.get(job.label, 0) < n:
            seen[job.label] = seen.get(job.label, 0) + 1
            kept.append(job)
    return kept
