"""iselab benchmark: cold-process workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact_tables --seed 1 --seconds 10 --trace 0

Workloads: exact_tables, mc_profile, limit_numerics, or "all" for the three
in turn.  Every pass of a workload's job sequence runs in a fresh,
single-threaded interpreter (perfbench/jobs.py), so every cache starts cold,
as it does for a command-line user.  Passes repeat until --seconds have gone
by.  Each end-to-end metric is the median over the run's passes; timings are
in reference seconds (see jobs.HostClock), setup_s included.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes, adds the direct probes and every README example, and
prints the per-layer metrics; spans go to perfbench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the reason behind each workload and metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOBS = HERE / "jobs.py"
OUT = HERE / "out"

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5  # import timings per run, from every worker plus import-only ones
LIGHT_PASSES = 3  # processes that run the other workloads' stages at light size

# (name, argv, workload, known exit) for every README command-line example
# but `verify --level full`, which takes a minute and whose Monte Carlo
# criteria mc_profile covers.  The one known nonzero exit counts as a failed
# operation; any other nonzero exit makes the run incorrect.
README_EXAMPLES = [
    ("moments-exact", ["moments-exact", "--family", "binary", "--lambda", "2", "--n", "2,64,1024"], "exact_tables", 2),
    ("grand-moments", ["grand-moments", "--kind", "ise", "--lambda", "2", "--lambda", "1,1,2"], "exact_tables", 0),
    ("profile", ["profile", "--family", "binary", "--n", "4096", "--samples", "200", "--seed", "1"], "mc_profile", 0),
    ("dyck-moments", ["dyck-moments", "--n", "2048", "--lambda", "1", "--samples", "5000"], "mc_profile", 0),
    ("mgf", ["mgf", "--x", "0.5", "--a", "0:2:9"], "limit_numerics", 0),
    ("mean-density", ["mean-density", "--grid=-3:3:25"], "limit_numerics", 0),
    ("fourier-bound", ["fourier-bound", "--family", "binary", "--n", "10,20,40"], "limit_numerics", 0),
]

STAGE_ORDER = ("verify_quick", "tables", "large_trees", "small_draws", "dyck",
               "mgf", "density", "float_moments", "fourier")
WORKLOADS = {
    "exact_tables": ("verify_quick", "tables"),
    "mc_profile": ("large_trees", "small_draws", "dyck"),
    "limit_numerics": ("mgf", "density", "float_moments", "fourier"),
}

# name -> (unit, better, stage or None, reading of one pass)
END_TO_END = {
    "setup_s": ("s", "lower", None, None),
    "wall_s": ("ref_s", "lower", None, lambda r: r["wall_s"]),
    "peak_rss_mb": ("MB", "lower", None, lambda r: r["peak_rss_mb"]),
    "success_ratio": ("ratio", "higher", None, None),
    "verify_quick_s": ("ref_s", "lower", "verify_quick", lambda st: st["s"]),
    "table_s": ("ref_s", "lower", "tables", lambda st: st["s"]),
    "large_trees_per_s": ("1/ref_s", "higher", "large_trees", lambda st: len(st["per_tree"]) / sum(st["per_tree"])),
    "small_draws_per_s": ("1/ref_s", "higher", "small_draws", lambda st: st["draws"] / st["s"]),
    "mgf_points_per_s": ("1/ref_s", "higher", "mgf", lambda st: len(st["per_point"]) / sum(st["per_point"])),
    "fourier_s": ("ref_s", "lower", "fourier", lambda st: st["s"]),
    "float_moment_s": ("ref_s", "lower", "float_moments", lambda st: st["s"]),
}
# Per-operation latencies behind the throughput metrics, for the percentile.
LATENCY_SAMPLES = {
    "large_trees_per_s": ("large_trees", "per_tree"),
    "small_draws_per_s": ("small_draws", "per_block"),
    "mgf_points_per_s": ("mgf", "per_point"),
}

LAYERS = ("series", "genfun", "grandmoments", "numerics", "sampler", "trees", "verify", "cli")
# Per-layer metric -> (unit, better, how, span or stage key).  "median" is the
# median duration of one call; "sum" is the time per job sequence.
SPAN_METRICS = {
    "series.powerseries_mul_s": ("median", "series.powerseries_mul"),
    "series.powerseries_div_s": ("median", "series.powerseries_div"),
    "series.floatseries_div_s": ("median", "series.floatseries_div"),
    "series.bivariate_div_s": ("median", "series.bivariate_div"),
    "genfun.exact_moment.first_s": ("sum", "genfun.exact_moment.first"),
    "genfun.exact_moment.repeat_s": ("sum", "genfun.exact_moment.repeat"),
    "genfun.float_moment.s": ("sum", "genfun.float_moment"),
    "genfun.lemma_L3_ratio.first_s": ("sum", "genfun.lemma_L3_ratio.first"),
    "genfun.lemma_L3_ratio.point_s": ("median", "genfun.lemma_L3_ratio.point"),
    "grandmoments.c_lambda.s": ("sum", "grandmoments.c_lambda"),
    "trees.vertical_profile.s": ("median", "trees.vertical_profile"),
    "trees.shape_key.s": ("median", "trees.shape_key"),
    "sampler.sample_binary.s": ("median", "sampler.sample_binary"),
    "sampler.sample_plane_pm1.s": ("median", "sampler.sample_plane_pm1"),
    "sampler.sample_plane_0pm1.s": ("median", "sampler.sample_plane_0pm1"),
    "sampler.sample_tree.small_s": ("median", "sampler.sample_tree.small"),
    "sampler.sample_dyck_path.s": ("median", "sampler.sample_dyck_path"),
    "sampler.rescaled_density.s": ("median", "sampler.rescaled_density"),
    "numerics.mgf_L.s": ("median", "numerics.mgf_L"),
    "numerics.contour_point.s": ("median", "numerics.contour_point"),
    "numerics.mean_density_quadrature.s": ("median", "numerics.mean_density_quadrature"),
    "numerics.mean_density_series.s": ("median", "numerics.mean_density_series"),
}
for _fam in ("binary", "complete", "plane_pm1", "plane_0pm1"):
    SPAN_METRICS[f"trees.oracle_power_product_totals.{_fam}.s"] = (
        "sum", f"trees.oracle_power_product_totals.{_fam}")
for _name, *_ in README_EXAMPLES:
    SPAN_METRICS[f"cli.main.{_name}.s"] = ("sum", f"cli.main.{_name}")


def per_layer_spec() -> dict:
    """Per-layer metric name -> (unit, better), in report order."""
    spec = {name: ("ref_s", "lower") for name in SPAN_METRICS}
    spec["series.max_coeff_bits"] = ("bits", "lower")
    for cid in (1, 2, 5, 7):
        spec[f"verify.criterion_{cid}.s"] = ("s", "lower")  # CriterionResult.elapsed
    spec["numerics.tolerance_errors"] = ("count", "lower")
    spec["numerics.density_max_abs_gap"] = ("1", "lower")
    spec["numerics.density_max_rel_gap"] = ("1", "lower")
    for name, *_ in README_EXAMPLES:
        spec[f"cli.main.{name}.exit"] = ("code", "lower")
    for layer in LAYERS:
        spec[f"layer.{layer}.self_s"] = ("ref_s", "lower")
        spec[f"layer.{layer}.calls"] = ("count", "lower")
    spec["trace.overhead_s"] = ("ref_s", "lower")
    return spec


# ---------------------------------------------------------------- workers


class Run:
    """Workers, counts and failures of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.imports: list[float] = []  # reference seconds
        self.raw_imports: list[float] = []
        self.spans: list[list] = []
        self.raw: dict = {}  # per-pass readings, kept in the result file
        self._n = 0

    def worker(self, spec: dict) -> dict | None:
        """Run jobs.py on spec in a fresh interpreter and wait for it."""
        self._n += 1
        path = OUT / f"worker-{os.getpid()}-{self._n}.json"
        spec = dict(spec, seed=self.seed, result_path=str(path))
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        timeout = max(5.0, RUN_BUDGET_S - (time.monotonic() - self.t0))
        try:
            proc = subprocess.run([sys.executable, str(JOBS), json.dumps(spec)], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=timeout)
            ok = proc.returncode == 0 and path.exists()
            detail = proc.stderr.strip().splitlines()[-1:] if not ok else []
        except subprocess.TimeoutExpired:
            ok, detail = False, [f"timed out after {timeout:.0f} s"]
        if not ok:
            self.attempted += 1
            self.failed += 1
            self.correct = False
            self.problems.append(f"worker {spec.get('run_id')} failed: {' '.join(detail)}")
            path.unlink(missing_ok=True)
            return None
        result = json.loads(path.read_text())
        path.unlink()
        self.imports.append(result["import_s"])
        self.raw_imports.append(result["raw_import_s"])
        self.attempted += result["ops"]
        self.failed += result["failed"]
        self.spans.extend(result.pop("spans"))
        if result["exceptions"] or result["gate_failures"]:
            self.correct = False
        for kind in ("exceptions", "gate_failures", "nonzero_exits"):
            self.problems.extend(f"{spec.get('run_id')}: {m}" for m in result[kind])
        return result

    def gate(self, label: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.problems.append(f"gate {label}: {detail}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[Run, dict, dict]:
    run = Run(workload, seed, trace)
    own = WORKLOADS[workload]
    passes, traced = [], []
    start = time.monotonic()
    for pass_no in itertools.count():
        is_traced = trace and pass_no % 2 == 0
        result = run.worker({"run_id": f"pass-{pass_no}", "pass_no": pass_no,
                             "stages": [[s, "full"] for s in own], "trace": is_traced})
        if result is None:
            break
        (traced if is_traced else passes).append(result)
        done = time.monotonic() - start >= seconds and passes and (traced or not trace)
        if done or time.monotonic() - run.t0 > RUN_BUDGET_S / 2:
            break
    if not passes and not traced:
        raise SystemExit("iselab: the first pass failed; no result\n" + "\n".join(run.problems))

    # The other workloads' stages keep every stage metric defined on this
    # workload, in processes of their own so that this workload's wall_s and
    # peak_rss_mb do not see them, at light size.  A traced run verifies at
    # full size, so that every verify.criterion_* span exists.
    others = []
    if "verify_quick" not in own:
        others.append(run.worker({"run_id": "verify", "trace": trace,
                                  "stages": [["verify_quick", "full" if trace else "light"]]}))
    light = [[s, "light"] for s in STAGE_ORDER if s not in own and s != "verify_quick"]
    for i in range(1 if trace else LIGHT_PASSES):
        others.append(run.worker({"run_id": f"light-{i}", "pass_no": 1000 + i, "stages": light,
                                  "trace": trace}))
    others = [r for r in others if r is not None]

    examples = [(n, a, known) for n, a, w, known in README_EXAMPLES if trace or w == workload]
    cli_result = run.worker({"run_id": "cli", "cli": examples, "trace": trace})
    if trace:
        for probe, arg in [("series", None), ("contour", None), ("oracle", None)]:
            run.worker({"run_id": f"probe-{probe}", "probes": [[probe, arg]], "trace": True})
        for k in (12, 13, 14, 15, 16):
            run.worker({"run_id": f"probe-c_lambda-{k}", "probes": [["c_lambda", k]], "trace": True})
    while len(run.imports) < SETUP_SAMPLES:
        if run.worker({"run_id": "setup"}) is None:
            break

    pooled_gates(run, passes + traced, others)
    if trace:
        metrics = per_layer_metrics(run, traced, passes, others, cli_result)
    else:
        metrics = end_to_end_metrics(run, passes, others)
    info = {"passes": len(passes), "traced_passes": len(traced), "other_passes": len(others)}
    run.raw = {"passes": [{k: r[k] for k in ("wall_s", "raw_wall_s", "speed", "stages")} for r in passes],
               "others": [{k: r[k] for k in ("speed", "stages")} for r in others],
               "imports": run.imports, "raw_imports": run.raw_imports}
    return run, metrics, info


# ---------------------------------------------------------------- gates


def pooled_gates(run: Run, own: list[dict], others: list[dict]) -> None:
    """Statistical checks over the draws of the run, pooled across passes.

    The density check takes the workload's own passes only: the light draws
    of the other workloads, 12 trees per family, are too few for a 3 stderr
    test that seldom fails by chance (see README.md).
    """
    moments, refs = [], []
    for r in own:
        if "large_trees" in r["stages"]:
            moments += r["stages"]["large_trees"]["abs_moments"]
            if r["stages"]["large_trees"]["ref_abs_moment"] is not None:
                refs.append(r["stages"]["large_trees"]["ref_abs_moment"])
    dyck = [0, 0.0, 0.0]
    counts: dict[str, list[int]] = {}
    for r in own + others:
        st = r["stages"]
        if "dyck" in st:
            for i, key in enumerate(("k", "s1", "s2")):
                dyck[i] += st["dyck"][key]
        for fam, c in st.get("small_draws", {}).get("counts", {}).items():
            counts[fam] = [a + b for a, b in zip(counts.get(fam, [0] * len(c)), c)]
    if moments and refs:
        # Mean over trees of the first absolute moment of the Monte Carlo
        # density against that of the quadrature density: 3 stderr + 5%.
        ref = refs[0]
        mean = statistics.fmean(moments)
        se = statistics.stdev(moments) / math.sqrt(len(moments)) if len(moments) > 1 else math.inf
        run.gate("MC density vs quadrature", abs(mean - ref) <= 3 * se + 0.05 * ref,
                 f"first absolute moment {mean:.5f} vs {ref:.5f} (se {se:.5f}, {len(moments)} trees)")
    if dyck[0] > 1:
        k, s1, s2 = dyck
        mean = s1 / k
        se = math.sqrt(max(s2 / k - mean * mean, 0.0) * k / (k - 1) / k)
        limit = math.sqrt(math.pi / 8.0)  # excursion area, criterion 4
        run.gate("Dyck area vs excursion limit", abs(mean - limit) <= 3 * se + 0.05 * limit,
                 f"{mean:.5f} vs {limit:.5f} (se {se:.5f}, {k} paths)")
    for fam, c in counts.items():
        total, classes = sum(c), len(c)
        expected = total / classes
        chi2 = sum((o - expected) ** 2 for o in c) / expected
        df = classes - 1
        # Criterion 10 allows 4 sigma over 100k draws of one frozen seed; a
        # benchmark seed changes every run, so allow 10 sigma.
        limit = df + 10.0 * math.sqrt(2.0 * df)
        run.gate(f"shape uniformity {fam}", chi2 <= limit and min(c) > 0,
                 f"chi2 {chi2:.2f} <= {limit:.2f} over {total} draws")


# ---------------------------------------------------------------- metrics


def _percentile_note(samples: list[float]) -> str:
    """Sample count, median and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if not samples:
        return "n=0"
    s = sorted(samples)
    note = f"n={n} median={statistics.median(s):.6g}"
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1 - pct / 100) >= 10:
            return note + f" p{pct:g}={s[min(n - 1, math.ceil(pct / 100 * n) - 1)]:.6g}"
    return note


def end_to_end_metrics(run: Run, passes: list[dict], others: list[dict]) -> dict:
    """Each metric is the median of its per-pass values (per process for setup_s)."""
    own = WORKLOADS[run.workload]
    metrics = {}
    for name, (unit, _better, stage, reading) in END_TO_END.items():
        if name == "setup_s":
            samples, per = run.imports, "process"
        elif name == "success_ratio":
            samples, per = [(run.attempted - run.failed) / max(run.attempted, 1)], "run"
        elif stage is None:
            samples, per = [reading(r) for r in passes], "pass"
        else:
            source = passes if stage in own else others
            samples, per = [reading(r["stages"][stage]) for r in source if stage in r["stages"]], "pass"
        note = f"per {per}: {_percentile_note(samples)}"
        if name in LATENCY_SAMPLES:
            st_name, key = LATENCY_SAMPLES[name]
            source = passes if st_name in own else others
            lat = [x for r in source for x in r["stages"].get(st_name, {}).get(key, [])]
            note += f"; per operation ({key}): {_percentile_note(lat)}"
        metrics[name] = {"value": statistics.median(samples) if samples else math.nan,
                         "unit": unit, "note": note}
    return metrics


def _layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer_metrics(run: Run, traced: list[dict], untraced: list[dict],
                      others: list[dict], cli: dict | None) -> dict:
    by_name: dict[str, list] = {}
    for s in run.spans:
        by_name.setdefault(s[3], []).append(s)

    def per_sequence(values_by_run: dict[str, float]) -> float:
        """Median over traced passes plus the once-per-run workers."""
        in_passes = [v for r, v in values_by_run.items() if r.startswith("pass-")]
        rest = sum(v for r, v in values_by_run.items() if not r.startswith("pass-"))
        return (statistics.median(in_passes) if in_passes else 0.0) + rest

    values: dict[str, float] = {}
    for metric, (how, span) in SPAN_METRICS.items():
        spans = by_name.get(span, [])
        if how == "median":
            values[metric] = statistics.median(s[6] for s in spans) if spans else math.nan
        else:
            sums: dict[str, float] = {}
            for s in spans:
                sums[s[0]] = sums.get(s[0], 0.0) + s[6]
            values[metric] = per_sequence(sums) if sums else math.nan

    stage_runs = traced + others
    bits = [r["stages"]["tables"]["max_coeff_bits"] for r in stage_runs
            if "max_coeff_bits" in r["stages"].get("tables", {})]
    values["series.max_coeff_bits"] = max(bits) if bits else math.nan
    for cid in (1, 2, 5, 7):
        v = [r["stages"]["verify_quick"]["criteria"].get(str(cid)) for r in stage_runs
             if "verify_quick" in r["stages"]]
        v = [x for x in v if x is not None]
        values[f"verify.criterion_{cid}.s"] = statistics.median(v) if v else math.nan
    values["numerics.tolerance_errors"] = sum(r["tolerance_errors"] for r in stage_runs)
    for key in ("max_abs_gap", "max_rel_gap"):
        v = [r["stages"]["density"][key] for r in stage_runs if "density" in r["stages"]]
        values[f"numerics.density_{key}"] = max(v) if v else math.nan
    exits = (cli or {}).get("stages", {}).get("cli", {}).get("exits", {})
    for name, *_ in README_EXAMPLES:
        code = exits.get(name)
        values[f"cli.main.{name}.exit"] = code if code is not None else math.nan

    # Self time: a span's duration minus the part its child spans cover.
    child_time: dict[tuple, float] = {}
    for s in run.spans:
        if s[2] >= 0:
            child_time[(s[0], s[2])] = child_time.get((s[0], s[2]), 0.0) + s[6]
    for layer in LAYERS:
        self_s: dict[str, float] = {}
        calls: dict[str, float] = {}
        for s in run.spans:
            if _layer_of(s[3]) == layer:
                self_s[s[0]] = self_s.get(s[0], 0.0) + s[6] - child_time.get((s[0], s[1]), 0.0)
                calls[s[0]] = calls.get(s[0], 0) + 1
        values[f"layer.{layer}.self_s"] = per_sequence(self_s)
        values[f"layer.{layer}.calls"] = per_sequence(calls)

    traced_wall = [r["wall_s"] for r in traced]
    untraced_wall = [r["wall_s"] for r in untraced]
    values["trace.overhead_s"] = (statistics.median(traced_wall) - statistics.median(untraced_wall)
                                  if traced_wall and untraced_wall else math.nan)
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in per_layer_spec().items()}


# ---------------------------------------------------------------- output


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "loadavg": os.getloadavg(), "seed": seed}


def report(workload: str, run: Run, metrics: dict, info: dict, env: dict) -> None:
    print(f"== {workload} seed={run.seed} trace={int(run.trace)} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print("   env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"   {name:44s} {m['value']:.6g} {m['unit']}  {m.get('note', '')}".rstrip())
    print(f"   attempted={run.attempted} failed={run.failed} correct={run.correct}")
    for problem in run.problems[:30]:
        print(f"   ! {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iselab" / "__init__.py").is_file():
        print(f"iselab sources not found under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, final = True, 0, 0, {}
    for workload in names:
        env = environment(args.seed)
        run, metrics, info = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, run, metrics, info, env)
        tag = f"{workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"result-{tag}.json").write_text(json.dumps(
            {"workload": workload, "env": env, **info, "attempted": run.attempted,
             "failed": run.failed, "correct": run.correct, "problems": run.problems,
             "metrics": metrics, "raw": run.raw}, indent=1))
        if args.trace:
            with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
                for s in run.spans:
                    fh.write(json.dumps(s) + "\n")
        correct &= run.correct
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}/" if len(names) > 1 else ""
        for name, m in metrics.items():
            final[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
