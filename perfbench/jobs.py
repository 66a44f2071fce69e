"""Worker process of the iselab benchmark: one cold interpreter, one job list.

run.py starts this file once per pass with a JSON spec as its only
argument.  The worker times `import iselab`, runs the listed stages in
order, reads its peak RSS, then checks the outputs (gates) outside the
timed region and writes one JSON result to the path named in the spec.

Every call the benchmark makes into a package module sits inside
``tracer.span("<module>.<name>")``.  With tracing off the span is a shared
no-op context, so untraced passes pay one method call per operation.
The import and stage times are converted to reference seconds by HostClock.

``python3 perfbench/jobs.py record`` rewrites reference.json from the code
in ../src.  Run it only on a commit whose outputs are trusted: the exact
table and float_moment gates compare against that file.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import io
import json
import math
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# ---------------------------------------------------------------- stage sizes
# "full" is a workload's own stress; "light" is the small version that keeps
# a stage metric defined on the workloads that do not stress that stage.

VERIFY_LIGHT = (2, 5, 7)  # the quick criteria but 1, whose enumeration takes most of the time

TABLES = {
    "full": [
        ("binary", (2,), (2, 8, 64, 512)),
        ("binary", (4,), (2, 8, 64, 512)),
        ("binary", (2, 2), (2, 8, 64, 512)),
        ("plane_pm1", (2,), (2, 6, 64, 256)),
        ("plane_pm1", (4,), (2, 6, 64, 256)),
        ("plane_0pm1", (2,), (2, 6, 64, 256)),
        ("plane_0pm1", (4,), (2, 6, 64, 256)),
        ("complete", (2,), (3, 9, 65, 511)),
        ("complete", (4,), (3, 9, 65, 511)),
        ("complete", (2, 2), (3, 9, 65, 511)),
    ],
    "light": [
        ("binary", (2,), (2, 8, 64, 128)),
        ("binary", (4,), (2, 8, 64, 128)),
        ("plane_pm1", (2,), (2, 6, 64)),
        ("plane_0pm1", (2,), (2, 6, 64)),
        ("complete", (2,), (3, 9, 65, 255)),
    ],
}
# Cells at or below these sizes are also checked against full enumeration.
ORACLE_MAX_SIZE = {"binary": 8, "complete": 9, "plane_pm1": 6, "plane_0pm1": 6}

LARGE_TREES = {"full": 5, "light": 4}  # draws per family per pass
LARGE_N = 65536
LARGE_FAMILIES = ("binary", "plane_pm1", "plane_0pm1")
DENSITY_STEP = 0.5
DENSITY_GRID = tuple(-3.0 + DENSITY_STEP * i for i in range(13))

SMALL_DRAWS = {"full": 6000, "light": 4000}  # draws per case per pass
SMALL_CASES = (("binary", 4), ("plane_pm1", 3))
SMALL_BLOCK = 100

DYCK_PATHS = {"full": 500, "light": 200}
DYCK_N = 2048

MGF_X = {"full": (0.0, 0.5, 1.0, 2.0), "light": (0.5, 1.0)}
MGF_A_FRACTIONS = {  # of the branch radius 4/sqrt(3)
    "full": (-0.98, -0.9, -0.6, -0.3, 0.3, 0.6, 0.8, 0.9, 0.95, 0.98),
    "light": (-0.9, -0.6, -0.3, 0.3, 0.6, 0.8, 0.9, 0.98),
}
MGF_ZERO_STEP = 1e-3  # of the branch radius: the step of the a -> 0 gate
DENSITY_POINTS = {"full": 97, "light": 25}
DENSITY_MAX_ARG = 6.0  # mean_density_series refuses larger |lambda|

FLOAT_MOMENTS = {
    "full": [((2,), (4096, 8192, 16384)), ((4,), (4096, 8192, 16384))],
    "light": [((2,), (4096, 8192, 16384))],
}
FLOAT_EXACT_N = 64  # both engines run here, so they must agree to 1e-12

FOURIER_N = {"full": (10, 20, 40, 60), "light": (10, 20, 40)}
FOURIER_GRID = 200


# ---------------------------------------------------------------- host speed


class HostClock:
    """Converts wall time on a host of varying speed into reference time.

    Other tenants of a shared host slow this process by up to a factor two,
    in episodes of a few seconds.  A daemon thread times a fixed pure-Python
    probe loop every PERIOD_S; the loop keeps its integer below 256, so it
    allocates nothing and its time depends on the host alone.  An interval
    of wall time counts, in reference seconds, as its length times
    REFERENCE_PROBE_S over the probe time measured around it: the time the
    work would have taken with the probe at its reference speed.
    """

    PROBE_STEPS = (None,) * 10_000
    PERIOD_S = 0.05
    REFERENCE_PROBE_S = 7.0e-4  # typical probe time on the 2-vCPU Xeon host it was tuned on
    SMOOTHING = 5  # median over this many neighbouring probes

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._bounds: list[float] = []
        self._factors: list[float] = []

    def __enter__(self):
        self.samples.append(self._probe())
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        self.samples.append(self._probe())
        half = self.SMOOTHING // 2
        probes = [d for _, d in self.samples]
        self._factors = [
            self.REFERENCE_PROBE_S / statistics.median(probes[max(0, i - half): i + half + 1])
            for i in range(len(probes))
        ]
        mids = [t for t, _ in self.samples]
        self._bounds = [(a + b) / 2 for a, b in zip(mids, mids[1:])]

    def _run(self):
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append(self._probe())

    def _probe(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        x = 0
        for _ in self.PROBE_STEPS:
            x = (x * 7 + 3) & 255
        t1 = time.perf_counter()
        return (t0 + t1) / 2, t1 - t0

    def ref(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]."""
        i = bisect.bisect_right(self._bounds, t0)
        j = bisect.bisect_right(self._bounds, t1)
        if i == j:
            return (t1 - t0) * self._factors[i]
        total = (self._bounds[i] - t0) * self._factors[i]
        for k in range(i + 1, j):
            total += (self._bounds[k] - self._bounds[k - 1]) * self._factors[k]
        return total + (t1 - self._bounds[j - 1]) * self._factors[j]

    def summary(self) -> dict:
        probes = sorted(d for _, d in self.samples)
        return {"probes": len(probes), "median_probe_s": statistics.median(probes),
                "fastest_probe_s": probes[0], "slowest_probe_s": probes[-1]}


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory span recorder; run.py writes the spans out at the end.

    A span is [run_id, span_id, parent_id, name, start, end] with times
    from time.perf_counter() in this process; parent_id -1 marks a root.
    main() appends the span's length in reference seconds.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        return self._span(name) if self.enabled else self._null

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self.run_id, sid, parent, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[5] = time.perf_counter()


class Pass:
    """Operation counts, gate failures and stage outputs of one worker."""

    def __init__(self, tracer: Tracer, tolerance_error: type):
        self.tr = tracer
        self.tolerance_error = tolerance_error
        self.ops = 0
        self.failed = 0
        self.tolerance_errors = 0
        self.exceptions: list[str] = []
        self.nonzero_exits: list[str] = []
        self.gate_failures: list[str] = []
        self.gates: list = []  # deferred checks, run after the timed stages
        self.stages: dict[str, dict] = {}

    def op(self, label: str, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        self.ops += 1
        try:
            return fn(*args)
        except Exception as exc:  # operation boundary: record and go on
            self.failed += 1
            if isinstance(exc, self.tolerance_error):
                self.tolerance_errors += 1
            self.exceptions.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def gate(self, label: str, ok: bool, detail: str = "") -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            self.gate_failures.append(f"{label} {detail}".strip())


def _jitter(rng, values, half_width, lo, hi):
    """values + U(-half_width, half_width), clipped to [lo, hi]."""
    return [min(hi, max(lo, v + rng.uniform(-half_width, half_width))) for v in values]


def _numerics_rng(seed: int, pass_no: int, stream: int):
    import numpy as np

    key = np.array([seed, 9_000_000 + 10 * pass_no + stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _key(fam_name: str, lam: tuple, n: int) -> str:
    return f"{fam_name}|{','.join(map(str, lam))}|{n}"


# ---------------------------------------------------------------- stages


def stage_verify_quick(p: Pass, iselab, size, seed, pass_no):
    """verify --level quick; the light size leaves out criterion 1's enumeration."""
    from iselab import verify

    with p.tr.span("verify.run"):
        if size == "full":
            results = p.op("verify quick", iselab.run_verification, "quick") or []
        else:
            results = [p.op(f"verify criterion {cid}", getattr(verify, f"criterion_{cid}"))
                       for cid in VERIFY_LIGHT]
    results = [r for r in results if r is not None]
    for r in results:
        p.gate(f"verify criterion {r.cid}", r.passed, r.detail)
    return {"criteria": {str(r.cid): r.elapsed for r in results}}


def stage_tables(p: Pass, iselab, size, seed, pass_no):
    """Exact moment tables: sizes ascending per request, fixed request order."""
    requests = [
        (fam_name, lam, n) for fam_name, lam, sizes in TABLES[size] for n in sizes
    ]
    cells, again = {}, {}
    for fam_name, lam, n in requests:
        with p.tr.span("genfun.exact_moment.first"):
            cells[(fam_name, lam, n)] = p.op(
                f"exact {fam_name} {lam} {n}", iselab.exact_moment, iselab.get_family(fam_name), lam, n
            )
    # Reading the table again hits the engine's per-partition memo.
    for fam_name, lam, n in requests:
        with p.tr.span("genfun.exact_moment.repeat"):
            again[(fam_name, lam, n)] = p.op(
                f"exact repeat {fam_name} {lam} {n}", iselab.exact_moment, iselab.get_family(fam_name), lam, n
            )
    p.gates.append(lambda: _gate_tables(p, iselab, cells, again, size))
    return {}


def _gate_tables(p: Pass, iselab, cells, again, size):
    ref = json.loads(REFERENCE.read_text())["exact"]
    for (fam_name, lam, n), em in cells.items():
        if em is None:
            continue
        key = _key(fam_name, lam, n)
        p.gate(f"exact repeat {key}", again[(fam_name, lam, n)] == em)
        p.gate(f"exact reference {key}", str(em.exact) == ref.get(key), str(em.exact)[:40])
        fam = iselab.get_family(fam_name)
        if n <= ORACLE_MAX_SIZE[fam_name]:
            with p.tr.span("trees.oracle_moment"):
                oracle = iselab.oracle_moment(fam, lam, n)
            p.gate(f"exact oracle {key}", em.exact == oracle, f"{em.exact} != {oracle}")
        fm = iselab.float_moment(fam, lam, n)
        rel = abs(fm - em.normalized) / abs(em.normalized)
        p.gate(f"exact vs float {key}", rel <= 1e-12, f"rel {rel:.2e}")
    if p.tr.enabled:
        bits = 0
        for fam_name, lam, sizes in TABLES[size]:
            fam = iselab.get_family(fam_name)
            s = iselab.power_product_series(fam, lam, fam.series_index(max(sizes)))
            for c in s.coeffs:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        p.stages["tables"]["max_coeff_bits"] = bits


def stage_large_trees(p: Pass, iselab, size, seed, pass_no):
    """n = 65536 draws, each followed by its profile and the density grid."""
    refs = []
    for x in DENSITY_GRID:
        with p.tr.span("numerics.mean_density_quadrature"):
            refs.append(p.op(f"quadrature {x}", iselab.mean_density_quadrature, x))
    draws = {
        "binary": ("sampler.sample_binary", lambda s: iselab.sample_binary(LARGE_N, s)),
        "plane_pm1": (
            "sampler.sample_plane_pm1",
            lambda s: iselab.sample_plane(LARGE_N, iselab.PLANE_PM1, s),
        ),
        "plane_0pm1": (
            "sampler.sample_plane_0pm1",
            lambda s: iselab.sample_plane(LARGE_N, iselab.PLANE_0PM1, s),
        ),
    }
    per_tree, abs_moments, kept = [], [], {}
    for i in range(LARGE_TREES[size]):
        for f_idx, fam_name in enumerate(LARGE_FAMILIES):
            fam = iselab.get_family(fam_name)
            span_name, draw = draws[fam_name]
            spec = iselab.SeedSpec(seed, pass_no * 1_000_000 + f_idx * 100_000 + i)
            t0 = time.perf_counter()
            with p.tr.span(span_name):
                tree = p.op(f"draw {fam_name}", draw, spec)
            if tree is None:
                continue
            with p.tr.span("trees.vertical_profile"):
                prof = p.op("vertical_profile", iselab.vertical_profile, tree)
            dens = []
            for x in DENSITY_GRID:
                with p.tr.span("sampler.rescaled_density"):
                    dens.append(p.op("rescaled_density", iselab.rescaled_density, prof, fam, x))
            per_tree.append((t0, time.perf_counter()))
            kept.setdefault(fam_name, tree)
            if None not in dens:
                abs_moments.append(_abs_moment(dens))
    p.gates.append(lambda: _gate_trees(p, kept))
    ref = None if None in refs else _abs_moment(refs)
    return {"per_tree": per_tree, "abs_moments": abs_moments, "ref_abs_moment": ref}


def _abs_moment(density):
    """First absolute moment of a density on DENSITY_GRID, by the grid sum.

    Unlike the density's mass, which rescaled_density fixes at 1, it scales
    with the labels: a 30% error in label scale moves it by 30%.
    """
    return DENSITY_STEP * sum(abs(x) * f for x, f in zip(DENSITY_GRID, density))


def _gate_trees(p: Pass, kept):
    for fam_name, tree in kept.items():
        try:
            tree.validate()
            ok, detail = tree.size == LARGE_N, f"size {tree.size}"
        except ValueError as exc:
            ok, detail = False, str(exc)
        p.gate(f"tree invariants {fam_name}", ok, detail)


def stage_small_draws(p: Pass, iselab, size, seed, pass_no):
    """Many tiny draws keyed by shape: per-call overhead dominates."""
    hists, per_block = {}, []
    for c_idx, (fam_name, n) in enumerate(SMALL_CASES):
        fam = iselab.get_family(fam_name)
        rng = iselab.SeedSpec(seed, pass_no * 1_000_000 + 500_000 + c_idx).generator()
        hist: dict = {}
        t0 = time.perf_counter()
        for i in range(1, SMALL_DRAWS[size] + 1):
            with p.tr.span("sampler.sample_tree.small"):
                tree = p.op("small draw", iselab.sample_tree, fam, n, rng)
            with p.tr.span("trees.shape_key"):
                key = p.op("shape_key", iselab.shape_key, tree)
            hist[key] = hist.get(key, 0) + 1
            if i % SMALL_BLOCK == 0:  # one latency sample per block of draws
                t1 = time.perf_counter()
                per_block.append((t0, t1))
                t0 = t1
        hists[fam_name] = hist
    p.gates.append(lambda: _gate_shapes(p, iselab, hists))
    return {"draws": SMALL_DRAWS[size] * len(SMALL_CASES), "per_block": per_block}


def _gate_shapes(p: Pass, iselab, hists):
    """Every drawn key is a real shape; counts over all shapes go to run.py."""
    counts = {}
    for fam_name, n in SMALL_CASES:
        shapes = sorted({iselab.shape_key(t) for t in iselab.enumerate_trees(iselab.get_family(fam_name), n)})
        unknown = set(hists[fam_name]) - set(shapes)
        p.gate(f"small shapes {fam_name}", not unknown, f"{len(unknown)} unknown keys")
        counts[fam_name] = [hists[fam_name].get(s, 0) for s in shapes]
    p.stages["small_draws"]["counts"] = counts


def stage_dyck(p: Pass, iselab, size, seed, pass_no):
    s1 = s2 = 0.0
    k = 0
    for i in range(DYCK_PATHS[size]):
        spec = iselab.SeedSpec(seed, pass_no * 1_000_000 + 700_000 + i)
        with p.tr.span("sampler.sample_dyck_path"):
            path = p.op("dyck path", iselab.sample_dyck_path, DYCK_N, spec)
        if path is None:
            continue
        with p.tr.span("sampler.dyck_moment"):
            v = p.op("dyck moment", iselab.dyck_moment, path, (1,))
        if v is not None:
            s1, s2, k = s1 + v, s2 + v * v, k + 1
    return {"k": k, "s1": s1, "s2": s2}


def stage_mgf(p: Pass, iselab, size, seed, pass_no):
    """mgf_L on an a-grid toward the branch radius 4/sqrt(3), at several x."""
    rng = _numerics_rng(seed, pass_no, 1)
    radius = iselab.MGF_A_RADIUS
    xs = [x + rng.uniform(0.0, 0.05) for x in MGF_X[size]]
    a_vals = _jitter(rng, [f * radius for f in MGF_A_FRACTIONS[size]], 0.01 * radius,
                     -0.985 * radius, 0.985 * radius)
    values, per_point = {}, []
    for x in xs:
        for a in a_vals:
            t0 = time.perf_counter()
            with p.tr.span("numerics.mgf_L"):
                values[(x, a)] = p.op(f"mgf_L({x:.3f}, {a:.3f})", iselab.mgf_L, x, a)
            per_point.append((t0, time.perf_counter()))
    p.gates.append(lambda: _gate_mgf(p, iselab, xs, a_vals, values))
    return {"per_point": per_point}


def _gate_mgf(p: Pass, iselab, xs, a_vals, values):
    # mgf_L returns the literal 1 at a = 0, so L(x, 0) = 1 is checked as a
    # limit: at a = +-h the central differences must give L -> 1 and the
    # slope dL/da(x, 0) = c q(c x), c = 2^(1/4) (criterion 6's scaling),
    # with q the quadrature mean density.  Both errors are O(h^2) ~ 1e-6.
    h = MGF_ZERO_STEP * iselab.MGF_A_RADIUS
    c = 2.0**0.25
    for x in xs:
        up, down = iselab.mgf_L(x, h), iselab.mgf_L(x, -h)
        mid = (up + down) / 2.0 - 1.0
        p.gate(f"L({x:.3f}, a) -> 1 as a -> 0", abs(mid) <= 1e-5, f"(L(h) + L(-h))/2 - 1 = {mid:.2e}")
        want = c * iselab.mean_density_quadrature(c * x)
        rel = abs((up - down) / (2.0 * h) / want - 1.0)
        p.gate(f"dL/da({x:.3f}, 0) = mean density", rel <= 1e-5, f"rel {rel:.2e}")
        pts = sorted([(0.0, 1.0)] + [(a, values[(x, a)]) for a in a_vals])
        if any(v is None for _, v in pts):
            continue
        positive = all(v > 0 and math.isfinite(v) for _, v in pts)
        p.gate(f"mgf_L positive x={x:.3f}", positive)
        if not positive:
            continue
        # An MGF is log-convex in a: slopes of log L must not decrease.
        logs = [(a, math.log(v)) for a, v in pts]
        slopes = [(l2 - l1) / (a2 - a1) for (a1, l1), (a2, l2) in zip(logs, logs[1:])]
        drop = min(s2 - s1 for s1, s2 in zip(slopes, slopes[1:]))
        p.gate(f"mgf_L log-convex x={x:.3f}", drop >= -1e-7, f"slope drop {drop:.2e}")


def stage_density(p: Pass, iselab, size, seed, pass_no):
    """Mean density by quadrature and by series over the whole |lambda| <= 6."""
    rng = _numerics_rng(seed, pass_no, 2)
    count = DENSITY_POINTS[size]
    step = 2 * DENSITY_MAX_ARG / (count - 1)
    grid = _jitter(rng, [-DENSITY_MAX_ARG + step * i for i in range(count)], 0.4 * step,
                   -DENSITY_MAX_ARG, DENSITY_MAX_ARG)
    pairs = []
    for x in grid:
        with p.tr.span("numerics.mean_density_quadrature"):
            q = p.op(f"quadrature {x:.4f}", iselab.mean_density_quadrature, x)
        with p.tr.span("numerics.mean_density_series"):
            s = p.op(f"series {x:.4f}", iselab.mean_density_series, x)
        pairs.append((x, q, s))
    p.gates.append(lambda: _gate_density(p, pairs))
    return {}


def _gate_density(p: Pass, pairs):
    abs_gap = rel_gap = 0.0
    for x, q, s in pairs:
        if q is None or s is None:
            continue
        gap = abs(q - s)
        abs_gap, rel_gap = max(abs_gap, gap), max(rel_gap, gap / abs(q))
        p.gate(f"density quadrature vs series {x:.4f}", gap <= 1e-8, f"gap {gap:.2e}")
    p.stages["density"].update(max_abs_gap=abs_gap, max_rel_gap=rel_gap)


def stage_float_moments(p: Pass, iselab, size, seed, pass_no):
    values = {}
    for lam, sizes in FLOAT_MOMENTS[size]:
        for n in sizes:
            with p.tr.span("genfun.float_moment"):
                values[(lam, n)] = p.op(
                    f"float_moment {lam} {n}", iselab.float_moment, iselab.BINARY, lam, n
                )
    p.gates.append(lambda: _gate_float(p, iselab, values))
    return {}


def _gate_float(p: Pass, iselab, values):
    ref = json.loads(REFERENCE.read_text())["float"]
    for (lam, n), v in values.items():
        if v is None:
            continue
        want = ref.get(_key("binary", lam, n))
        rel = abs(v - want) / abs(want) if want else math.inf
        p.gate(f"float_moment reference {lam} {n}", rel <= 1e-12, f"rel {rel:.2e}")
    for lam in sorted({lam for lam, _ in values}):
        ex = iselab.exact_moment(iselab.BINARY, lam, FLOAT_EXACT_N).normalized
        fl = iselab.float_moment(iselab.BINARY, lam, FLOAT_EXACT_N)
        p.gate(f"float vs exact {lam} n={FLOAT_EXACT_N}", abs(fl - ex) <= 1e-12 * abs(ex))


def stage_fourier(p: Pass, iselab, size, seed, pass_no):
    """lemma_L3_ratio on criterion 9's 200-point u-grid, n ascending."""
    rng = _numerics_rng(seed, pass_no, 3)
    step = 3.0 / (FOURIER_GRID - 1)
    grid = [0.0] + _jitter(rng, [step * i for i in range(1, FOURIER_GRID)], 0.4 * step, 0.0, 3.0)
    maxima, at_zero = {}, {}
    for n in FOURIER_N[size]:
        vals = []
        for j, u in enumerate(grid):
            # The first call at each n builds the pair-correlation series.
            with p.tr.span("genfun.lemma_L3_ratio." + ("first" if j == 0 else "point")):
                vals.append(p.op(f"lemma_L3_ratio n={n} u={u:.4f}", iselab.lemma_L3_ratio,
                                 iselab.BINARY, n, u))
        if None not in vals:
            maxima[n], at_zero[n] = max(vals), vals[0]
    p.gates.append(lambda: _gate_fourier(p, size, maxima, at_zero))
    return {}


def _gate_fourier(p: Pass, size, maxima, at_zero):
    base = maxima.get(FOURIER_N[size][0])
    for n, m in maxima.items():
        p.gate(f"lemma ratio at u=0 n={n}", abs(at_zero[n] - 1.0) <= 1e-12, repr(at_zero[n]))
        bounded = base is not None and math.isfinite(m) and m <= 1.5 * base
        p.gate(f"lemma ratio bounded n={n}", bounded, f"{m:.4f} vs 1.5 * {base}")


STAGES = {
    "verify_quick": stage_verify_quick,
    "tables": stage_tables,
    "large_trees": stage_large_trees,
    "small_draws": stage_small_draws,
    "dyck": stage_dyck,
    "mgf": stage_mgf,
    "density": stage_density,
    "float_moments": stage_float_moments,
    "fourier": stage_fourier,
}


# ---------------------------------------------------------------- probes
# Direct calls made only in traced runs.  run.py gives each probe that needs
# cold caches its own process, so no probe adds to an end-to-end metric.


def probe_series(p: Pass, iselab, arg):
    import numpy as np
    from iselab import series

    order = 512
    a = iselab.f_series(iselab.BINARY, order)
    b = series.sqrt_one_minus(4, order)
    with p.tr.span("series.powerseries_mul"):
        prod = p.op("PowerSeries mul", lambda: a * b)
    with p.tr.span("series.powerseries_div"):
        quot = p.op("PowerSeries div", lambda: prod / b)
    p.gate("PowerSeries (a*b)/b == a", quot == a)

    # Catalan(n)/4^n over sqrt(1 - tau): the division the float engine makes.
    order = 16384
    k = np.arange(order, dtype=np.float64)
    fa = series.FloatSeries(np.cumprod(np.concatenate([[1.0], (4 * k + 2) / (4 * (k + 2))])))
    fb = series.FloatSeries(np.cumprod(np.concatenate([[1.0], (k - 0.5) / (k + 1)])))
    with p.tr.span("series.floatseries_div"):
        fq = p.op("FloatSeries div", lambda: fa / fb)
    err = float(np.max(np.abs((fq * fb).coeffs - fa.coeffs))) if fq is not None else math.inf
    p.gate("FloatSeries (a/b)*b == a", err <= 1e-9, f"max error {err:.2e}")

    # The binary pair-correlation quotient that genfun builds at order 60.
    order = 60
    one = iselab.PowerSeries.one(order)
    cat = iselab.f_series(iselab.BINARY, order) - one
    f0 = one + cat
    biv = iselab.BivariateSeries.from_power_series
    s_poly = iselab.LaurentPoly([1, 0, 1], lo=-1)
    num = biv(cat * f0 * (one + 2 * cat - cat * cat) / (one - cat))
    den1 = biv(f0) - biv(cat) * s_poly
    den = den1 * den1
    with p.tr.span("series.bivariate_div"):
        bq = p.op("BivariateSeries div", lambda: num / den)
    p.gate("BivariateSeries (a/b)*b == a", bq is not None and bq * den == num)


def probe_contour(p: Pass, iselab, arg):
    for i in range(41):
        t = -4.0 + 0.2 * i
        for a in (0.5, 1.5, 2.2):
            with p.tr.span("numerics.contour_point"):
                pt = p.op(f"contour_point({t:.1f}, {a})", iselab.contour_point, t, a)
            if pt is not None:
                p.gate(f"contour point finite {t:.1f} {a}", math.isfinite(abs(pt.A_value)))


def probe_c_lambda(p: Pass, iselab, k):
    with p.tr.span("grandmoments.c_lambda"):
        value = p.op(f"c_lambda((1,)*{k})", iselab.c_lambda, (1,) * k)
    want = 0 if k % 2 else iselab.a_coeff(k // 2)
    p.gate(f"c_lambda((1,)*{k})", value == want, str(value))


def probe_oracle(p: Pass, iselab, arg):
    """The enumeration half of verify criterion 1, one span per family."""
    lams = tuple(iselab.positive_partitions(6, 3))
    for fam in iselab.FAMILIES.values():
        sizes = fam.sizes_upto(8)
        with p.tr.span(f"trees.oracle_power_product_totals.{fam.name}"):
            out = [p.op(f"oracle {fam.name} {n}", iselab.oracle_power_product_totals, fam, n, lams)
                   for n in sizes]
        for n, res in zip(sizes, out):
            if res is not None:
                p.gate(f"oracle count {fam.name} {n}", res[1] == fam.count(n))


PROBES = {
    "series": probe_series,
    "contour": probe_contour,
    "c_lambda": probe_c_lambda,
    "oracle": probe_oracle,
}


# ---------------------------------------------------------------- README CLI


def _check_example(iselab, name, text):
    """(ok, detail) for the data section of one README example."""
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    col = {c: i for i, c in enumerate(rows[0])}
    rows = rows[1:]

    def f(row, column):
        return float(row[col[column]])

    if name == "moments-exact":
        return len(rows) == 3, f"{len(rows)} rows"
    if name == "grand-moments":
        want = [str(iselab.c_lambda(lam)) for lam in ((2,), (1, 1, 2))]
        return [r[col["exact"]] for r in rows] == want, str(rows)
    if name == "profile":
        off = [r for r in rows if abs(f(r, "mean_g") - f(r, "mean_density"))
               > 3 * f(r, "stderr") + 0.05 * f(r, "mean_density")]
        return len(rows) == 9 and not off, f"{len(off)} points off"
    if name == "mgf":
        # Each printed L against a direct call; a = 0 is the literal 1.
        off = [r for r in rows if f(r, "L") != iselab.mgf_L(0.5, f(r, "a"))]
        return len(rows) == 9 and not off, f"{len(off)} rows differ from mgf_L: {off[:2]}"
    if name == "mean-density":
        return len(rows) == 25 and all(f(r, "gap") <= 1e-8 for r in rows), "gap"
    if name == "fourier-bound":
        m = [f(r, "max_ratio") for r in rows]
        return len(m) == 3 and all(math.isfinite(v) and v <= 1.5 * m[0] for v in m), str(m)
    if name == "dyck-moments":
        gap = abs(f(rows[0], "mean") - f(rows[0], "limit"))
        return gap <= 3 * f(rows[0], "stderr") + 0.05 * f(rows[0], "limit"), f"gap {gap:.4f}"
    return False, "no check for this example"


def run_cli(p: Pass, iselab, examples):
    """README examples through iselab.cli.main; exit codes and outputs checked."""
    from iselab import cli

    exits = {}
    for name, argv, known_exit in examples:
        out, err = io.StringIO(), io.StringIO()
        with p.tr.span(f"cli.main.{name}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = p.op(f"cli {name}", cli.main, argv)
        exits[name] = code
        if code is None:
            continue  # raised: already counted by p.op
        if code != 0:
            # Every nonzero exit is a failed operation.  Only the known one
            # leaves the run correct; any other is a regression.
            p.failed += 1
            p.nonzero_exits.append(f"iselab {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
            if code != known_exit:
                p.gate_failures.append(f"cli {name}: unexpected exit {code}")
            continue
        try:
            ok, detail = _check_example(iselab, name, out.getvalue())
        except (KeyError, ValueError, IndexError) as exc:
            ok, detail = False, f"unparsable output: {exc}"
        p.gate(f"cli {name} output", ok, detail)
    return {"exits": exits}


# ---------------------------------------------------------------- entry


# Stage outputs holding (start, end) intervals, converted to reference time.
INTERVAL_KEYS = ("per_tree", "per_block", "per_point")


def main(spec: dict) -> dict:
    with HostClock() as clock:
        t0 = time.perf_counter()
        import iselab

        import_interval = (t0, time.perf_counter())
        tracer = Tracer(spec.get("run_id", "pass"), bool(spec.get("trace")))
        p = Pass(tracer, iselab.ToleranceError)
        seed, pass_no = spec.get("seed", 0), spec.get("pass_no", 0)
        intervals = {}
        for name, size in spec.get("stages", []):
            s0 = time.perf_counter()
            with tracer.span(f"bench.{name}"):
                p.stages[name] = STAGES[name](p, iselab, size, seed, pass_no)
            intervals[name] = (s0, time.perf_counter())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name, arg in spec.get("probes", []):
            PROBES[name](p, iselab, arg)
        if spec.get("cli"):
            p.stages["cli"] = run_cli(p, iselab, spec["cli"])
    for check in p.gates:
        try:
            check()
        except Exception as exc:  # a gate that cannot run is a failed gate
            p.gate("gate error", False, f"{type(exc).__name__}: {exc}")

    for name, (s0, s1) in intervals.items():
        out = p.stages[name]
        out["s"], out["raw_s"] = clock.ref(s0, s1), s1 - s0
        for key in INTERVAL_KEYS:
            if key in out:
                out[key] = [clock.ref(a, b) for a, b in out[key]]
    for span in tracer.spans:
        span.append(clock.ref(span[4], span[5]))
    return {
        "import_s": clock.ref(*import_interval),
        "raw_import_s": import_interval[1] - import_interval[0],
        "wall_s": sum(clock.ref(*iv) for iv in intervals.values()),
        "raw_wall_s": sum(b - a for a, b in intervals.values()),
        "speed": clock.summary(),
        "peak_rss_mb": peak_rss_mb,
        "ops": p.ops,
        "failed": p.failed,
        "tolerance_errors": p.tolerance_errors,
        "exceptions": p.exceptions[:20],
        "nonzero_exits": p.nonzero_exits[:20],
        "gate_failures": p.gate_failures[:20],
        "stages": p.stages,
        "spans": tracer.spans,
    }


def record_reference() -> None:
    """Write reference.json from the current code (trusted commits only)."""
    import iselab

    exact, floats = {}, {}
    for size in ("full", "light"):
        for fam_name, lam, sizes in TABLES[size]:
            for n in sizes:
                em = iselab.exact_moment(iselab.get_family(fam_name), lam, n)
                exact[_key(fam_name, lam, n)] = str(em.exact)
        for lam, sizes in FLOAT_MOMENTS[size]:
            for n in sizes:
                floats[_key("binary", lam, n)] = iselab.float_moment(iselab.BINARY, lam, n)
    doc = {"exact": exact, "float": floats}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["record"]:
        record_reference()
    else:
        job = json.loads(sys.argv[1])
        Path(job["result_path"]).write_text(json.dumps(main(job)))
