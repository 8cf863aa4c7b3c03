"""The benchmark's seeded workloads: inputs, operations and their checks.

``make_inputs`` draws every input from the seed alone and returns plain
JSON data, so one seed always gives byte-identical inputs.  ``build_ops``
turns the inputs into a fixed list of operations on the public heatseries
API.  Each operation is timed on its own; its check runs later, outside the
timed region, against a route in ``checks`` that shares no code with the
operation.  ``warm=True`` builds the same list at toy sizes for the set-up
pass, which touches every code path (and every lazy import) the workload
uses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("grid-gauss", "oracle-quad", "point-signedlog")

#: Checked point values agree with their cross-check to this fraction of
#: the sum of the magnitudes of their degree blocks.  SignedLog terms carry
#: log magnitudes below 250 here, whose rounding is under 250 eps ~ 6e-14
#: relative per term.
POINT_REL = 1e-12

#: The decomposition identity holds to this absolute residual (as in the CLI).
RESIDUAL_MAX = 1e-8

#: Eigen expansion and scaled truncation agree to this (as the CLI asserts).
EIGEN_MAX = 1e-10


@dataclass
class Op:
    """One timed call.  ``run`` is timed; ``collect`` turns its return value
    into the result that ``check`` judges later, returning (problems,
    self-check violations).  An exception whose class is ``known_defect``
    is counted as that documented defect, not as a failure."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], int]]
    collect: Callable[[object], object] = lambda value: value
    known_defect: str | None = None


def _extent(t: float, t0: float) -> float:
    """Half-width of the grid: covers the truncations (16 sqrt t, as the
    package's default grid) and keeps the solution, which spreads as t + t0,
    below 1e-18 of its peak at the edge."""
    return max(16.0 * math.sqrt(t) + 4.0 * math.sqrt(t0), 13.0 * math.sqrt(t + t0))


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of one workload, drawn from the seed alone."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    t0 = rng.uniform(0.8, 1.25)
    amplitude = rng.uniform(0.5, 2.0)
    inputs = {"workload": workload, "seed": seed, "t0": t0, "amplitude": amplitude}
    if workload == "grid-gauss":
        sweeps = []
        for dim, kmax, points, lo, hi in (
            (2, 120, 801, 1.5, 2.5),  # the ROADMAP stress case
            (2, 60, 801, 0.45, 0.6),  # t < t0: divergent, fills the lb column
            (1, 120, 4001, 1.5, 2.5),
        ):
            sweeps.append({
                "dim": dim, "kmax": kmax, "points": points, "t": t0 * rng.uniform(lo, hi),
                "nodes": [[rng.randrange(points) for _ in range(dim)] for _ in range(3)],
            })
        inputs["sweeps"] = sweeps
    elif workload == "oracle-quad":
        inputs["radial"] = {"t": t0 * rng.uniform(1.5, 2.5), "kmax": 40, "points": 41}
        inputs["indicator"] = {
            "t": rng.uniform(1.5, 2.5), "half_width": rng.uniform(0.8, 1.2),
            "kmax": 40, "points": 801,
        }
        inputs["defect"] = {"kmax": 40}  # Radial exp(-r), dim 2
        inputs["decomposition"] = {
            "widths": [w * rng.uniform(0.9, 1.1) for w in (0.5, 1.0, 2.0)],
            "alphas": [1, 2, 3, 4, 5], "ks": [0, 1, 2, 3, 4],
        }
    else:
        t = t0 * rng.uniform(1.5, 2.5)
        inputs["divergence"] = {"t": t0 * rng.uniform(0.45, 0.6), "kmax": 60}
        inputs["eigen"] = {"t": t0 * rng.uniform(1.5, 2.5), "kmax": 30}
        inputs["moments"] = {"dim": 3, "kmax": 40}
        inputs["evolve"] = {"s": t0 * rng.uniform(0.3, 1.0), "kmax": 40}
        inputs["points"] = {"t": t, "d2": [], "d3": [], "k2": 60, "k3": 40}
        for key, count, dim in (("d2", 16, 2), ("d3", 8, 3)):
            for _ in range(count):
                direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
                norm = math.sqrt(math.fsum(c * c for c in direction))
                radius = rng.uniform(0.0, 4.0 * math.sqrt(t))
                inputs["points"][key].append([radius * c / norm for c in direction])
    return inputs


def build_ops(hs, cli, inputs: dict, out_dir: Path, counters: dict, warm: bool = False) -> list[Op]:
    """The workload's operation list.  ``counters`` receives per-repetition
    counts that only the benchmark can see (bytes the CLI wrote)."""
    builder = {
        "grid-gauss": _grid_gauss,
        "oracle-quad": _oracle_quad,
        "point-signedlog": _point_signedlog,
    }[inputs["workload"]]
    return builder(hs, cli, inputs, Path(out_dir), counters, warm)


# ---------------------------------------------------------------------------
# grid-gauss


def _grid_gauss(hs, cli, inputs, out_dir, counters, warm):
    import checks

    ops = []
    t0, amp = inputs["t0"], inputs["amplitude"]
    for sweep in inputs["sweeps"]:
        dim, t = sweep["dim"], sweep["t"]
        kmax = 4 if warm else sweep["kmax"]
        points = (41 if dim == 2 else 81) if warm else sweep["points"]
        extent = _extent(t, t0)
        nodes = [tuple(min(i, points - 1) for i in node) for node in sweep["nodes"]]

        def run(dim=dim, t=t, kmax=kmax, points=points, extent=extent):
            u0 = hs.Gaussian(amplitude=amp, width=t0, dim=dim)
            table = hs.build_moment_table(u0, kmax + 1)
            grid = hs.GridSpec(dim=dim, extent=extent, points=points)
            return hs.error_curve(u0, table, dim, t, kmax, grid)

        def check(curve, dim=dim, t=t, kmax=kmax, points=points, extent=extent, nodes=nodes):
            import numpy as np

            axes = [np.linspace(-extent, extent, points) for _ in range(dim)]
            table = hs.build_moment_table(hs.Gaussian(amplitude=amp, width=t0, dim=dim), kmax)
            node_values = []
            for index in nodes:
                x = tuple(float(axes[axis][i]) for axis, i in enumerate(index))
                result = hs.eval_uk(table, hs.ApproxConfig(dim=dim, k=kmax, t=t), x)
                node_values.append((index, _cumulative(result.terms, kmax)))
            return checks.check_error_curve(
                curve, kmax,
                lambda alpha: checks.gaussian_log_moment(alpha, amp, t0),
                dim, t, axes, checks.gaussian_solution(amp, t0, axes, t),
                origin_lb=t < t0, node_values=node_values,
            )

        label = f"error-curve-d{dim}-k{kmax}-{'below' if t < t0 else 'above'}"
        ops.append(Op(label, run, check))
    return ops


def _cumulative(partials, kmax: int) -> dict[int, float]:
    """u_k for every k <= kmax from per-degree contributions."""
    by_degree = dict(partials)
    values, running = {}, []
    for k in range(kmax + 1):
        if k in by_degree:
            running.append(by_degree[k])
        values[k] = math.fsum(running)
    return values


# ---------------------------------------------------------------------------
# oracle-quad


def _oracle_quad(hs, cli, inputs, out_dir, counters, warm):
    import checks

    t0, amp = inputs["t0"], inputs["amplitude"]
    ops = []

    # Radial datum with a Gaussian profile: one half-line quadrature per grid node
    rad = inputs["radial"]
    r_t, r_k, r_n = rad["t"], (2 if warm else rad["kmax"]), (5 if warm else rad["points"])
    r_ext = _extent(r_t, t0)

    def radial_run():
        u0 = hs.Radial(profile=lambda r: amp * math.exp(-r * r / (4.0 * t0)), dim=2)
        table = hs.build_moment_table(u0, r_k + 1)
        return table, hs.error_curve(u0, table, 2, r_t, r_k, hs.GridSpec(dim=2, extent=r_ext, points=r_n))

    def radial_check(result):
        import numpy as np

        table, curve = result
        problems = _table_problems(table, lambda a: checks.gaussian_log_moment(a, amp, t0))
        axes = [np.linspace(-r_ext, r_ext, r_n)] * 2
        reference = checks.gaussian_solution(amp, t0, axes, r_t)
        more, violations = checks.check_error_curve(
            curve, r_k, lambda a: checks.gaussian_log_moment(a, amp, t0), 2, r_t, axes,
            reference, extra_floor=checks.QUAD_REL * float(reference.max()),
        )
        return problems + more, violations

    ops.append(Op(f"radial-gauss-curve-k{r_k}-{r_n}sq", radial_run, radial_check))

    # indicator of [-h, h]: one line quadrature per grid node, split at the jumps
    ind = inputs["indicator"]
    i_t, h = ind["t"], ind["half_width"]
    i_k, i_n = (2 if warm else ind["kmax"]), (11 if warm else ind["points"])
    i_ext = h + 16.0 * math.sqrt(i_t)

    def indicator_run():
        u0 = hs.Generic1D(func=lambda x: amp if -h <= x <= h else 0.0, breakpoints=(-h, h))
        table = hs.build_moment_table(u0, i_k + 1)
        return table, hs.error_curve(u0, table, 1, i_t, i_k, hs.GridSpec(dim=1, extent=i_ext, points=i_n))

    def indicator_check(result):
        import numpy as np

        table, curve = result
        problems = []
        for a in table.indices():
            n = a.components[0]
            m = table.entries[a]
            exact = checks.indicator_log_moment(n, amp, h)
            value = m.sign * math.exp(m.logmag) if m.sign else 0.0
            target = math.exp(exact) if exact is not None else 0.0
            scale = 2.0 * amp * h ** (n + 1) / (n + 1)  # ||x^n u0||_1
            if not abs(value - target) <= checks.QUAD_REL * scale:
                problems.append(f"moment {n}: {value!r}, closed form {target!r}")
        axes = [np.linspace(-i_ext, i_ext, i_n)]
        reference = checks.indicator_solution(amp, h, axes[0], i_t)
        more, violations = checks.check_error_curve(
            curve, i_k, lambda a: checks.indicator_log_moment(a[0], amp, h), 1, i_t, axes,
            reference, extra_floor=checks.QUAD_REL * amp,
        )
        return problems + more, violations

    ops.append(Op(f"indicator-curve-k{i_k}-{i_n}", indicator_run, indicator_check))

    # known defect: the shell-decay test refuses r^33 e^{-r}, which peaks
    # beyond the first shells although it is integrable
    d_k = 4 if warm else inputs["defect"]["kmax"]
    ops.append(Op(
        f"radial-exp-moments-k{d_k}",
        lambda: hs.build_moment_table(hs.Radial(profile=lambda r: math.exp(-r), dim=2), d_k),
        lambda table: (_table_problems(table, checks.radial_exp_log_moment), 0),
        known_defect="IntegrabilityError",
    ))

    # the decomposition suite: L1 bounds and pairing residuals
    dec = inputs["decomposition"]
    widths = dec["widths"][:1] if warm else dec["widths"]
    alphas = dec["alphas"][:1] if warm else dec["alphas"]
    ks = dec["ks"][:1] if warm else dec["ks"]
    tests = (
        ("gauss", hs.gaussian_test_function(1.0)),
        ("polygauss", hs.poly_gaussian_test_function((1.0, 0.0, 1.0), 1.0)),
    )
    for w in widths:
        f = hs.Gaussian(amplitude=amp, width=w, dim=1)
        for alpha in alphas:
            # ||F_a||_1 <= ||x^a f||_1 / a!, the abs moment in closed form
            bound = math.exp(
                math.log(amp) + 0.5 * (alpha + 1) * math.log(4.0 * w)
                + math.lgamma((alpha + 1) / 2.0) - math.lgamma(alpha + 1.0)
            )

            def l1_check(value, bound=bound):
                ok = math.isfinite(value) and 0.0 < value <= bound * checks.ASSERT_SLACK
                return ([] if ok else [f"L1 norm {value!r} outside (0, {bound!r}]"]), 0

            ops.append(Op(
                f"l1-w{w:.3f}-a{alpha}",
                lambda f=f, alpha=alpha: hs.remainder_l1_norm(f, alpha), l1_check,
            ))
        for label, phi in tests:
            for k in ks:
                ops.append(Op(
                    f"residual-w{w:.3f}-{label}-k{k}",
                    lambda f=f, k=k, phi=phi: hs.decomposition_residual(f, k, phi),
                    _residual_check,
                ))
    return ops


def _residual_check(value):
    ok = math.isfinite(value) and 0.0 <= value <= RESIDUAL_MAX
    return ([] if ok else [f"residual {value!r} above {RESIDUAL_MAX}"]), 0


def _table_problems(table, log_moment, limit: int = 5) -> list[str]:
    """Every entry of a moment table against a closed form."""
    import checks

    problems = []
    for a in table.indices():
        if a not in table.entries:
            problems.append(f"moment {a.components} missing")
        else:
            m = table.entries[a]
            issue = checks.log_moment_mismatch(m.sign, m.logmag, log_moment(a.components))
            if issue:
                problems.append(f"moment {a.components}: {issue}")
        if len(problems) >= limit:
            break
    return problems


# ---------------------------------------------------------------------------
# point-signedlog


def _point_signedlog(hs, cli, inputs, out_dir, counters, warm):
    import checks

    t0, amp = inputs["t0"], inputs["amplitude"]
    common = ["--t0", repr(t0), "--amplitude", repr(amp)]
    ops = []

    def cli_op(name, argv, outputs, check):
        paths = [out_dir / o for o in outputs]

        def collect(code):
            texts = [p.read_text() for p in paths]
            counters["cli.bytes_written"] += sum(len(t.encode()) for t in texts)
            return code, texts

        def run():
            return cli.main(argv + ["--out", str(paths[0])])

        ops.append(Op(name, run, check, collect=collect))

    div = inputs["divergence"]
    d_k, d_t = (4 if warm else div["kmax"]), div["t"]

    def divergence_check(result):
        code, (text,) = result
        if code != 0:
            return [f"exit code {code}"], 0
        problems = []
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        expected = _origin_series(amp, t0, d_t, d_k)
        for k_txt, uk0, abs_uk0, lb in (row[:4] for row in rows):
            k, uk0, abs_uk0 = int(k_txt), float(uk0), float(abs_uk0)
            value, magnitude = expected[k]
            if not abs(uk0 - value) <= POINT_REL * magnitude:
                problems.append(f"k={k}: u_k(0) {uk0!r}, closed-form series {value!r}")
            if abs_uk0 != abs(uk0):
                problems.append(f"k={k}: abs_uk0 {abs_uk0!r} is not |{uk0!r}|")
            if lb and not float(lb) <= abs_uk0 * checks.ASSERT_SLACK:
                problems.append(f"k={k}: |u_k(0)| {abs_uk0!r} below the certified bound {lb}")
        if [int(r[0]) for r in rows] != list(range(0, d_k + 1, 2)):
            problems.append("divergence table does not list every even k")
        return problems, 0

    cli_op(f"cli-divergence-d2-k{d_k}",
           ["divergence", "--dim", "2", "--t", repr(d_t), "--kmax", str(d_k)] + common,
           ["divergence.csv"], divergence_check)

    eig = inputs["eigen"]
    e_k, e_t = (2 if warm else eig["kmax"]), eig["t"]

    def eigen_check(result):
        import numpy as np

        code, (text, validity) = result
        if code != 0:
            return [f"exit code {code}"], 0
        problems = []
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        for k_txt, worst in (row[:2] for row in rows):
            if not float(worst) <= EIGEN_MAX:
                problems.append(f"k={k_txt}: eigen vs scaled u_k discrepancy {worst}")
        if [int(r[0]) for r in rows] != list(range(0, e_k + 1, 2)):
            problems.append("eigen table does not list every even k")
        for line in validity.strip().splitlines()[1:]:
            t_txt, finite = line.split(",")[:2]
            if (finite == "true") != (float(t_txt) > t0):
                problems.append(f"validity verdict {finite} at t={t_txt}")
        # The discrepancy column and the verdicts above are the program's own
        # comparison.  The eigen side is checked here on its own: the
        # expansion at the CLI's nodes (z on the first axis, tau = ln t) must
        # equal t^{d/2} u_k built from closed-form moments.
        z_axis = [0.5 * i for i in range(-6, 7)]
        axes = [np.array([2.0 * math.sqrt(e_t) * z for z in z_axis]), np.zeros(1)]
        half_power = e_t  # t^{d/2} in dim 2
        coeffs = hs.eigen_coeffs(hs.Gaussian(amp, t0, 2), 0.0, e_k)
        sweep = checks.series_sweep(
            lambda a: checks.gaussian_log_moment(a, amp, t0), 2, e_k, e_t, axes,
            checks.gaussian_solution(amp, t0, axes, e_t),
        )
        for k, field, floor in sweep:
            if k % 2:
                continue
            for i, z in enumerate(z_axis):
                value = hs.eval_expansion(coeffs, hs.SimilarityPoint(z=(z, 0.0), tau=math.log(e_t)), k)
                expected = half_power * float(field[i, 0])
                if not abs(value - expected) <= EIGEN_MAX + half_power * floor:
                    problems.append(f"k={k}, z={z}: expansion {value!r}, t^(d/2) u_k {expected!r}")
        return problems, 0

    cli_op(f"cli-eigen-compare-d2-k{e_k}",
           ["eigen-compare", "--dim", "2", "--t", repr(e_t), "--kmax", str(e_k)] + common,
           ["eigen.csv", "eigen-validity.csv"], eigen_check)

    mom = inputs["moments"]
    m_k, m_dim = (2 if warm else mom["kmax"]), mom["dim"]
    cli_op(f"cli-moments-d{m_dim}-k{m_k}",
           ["moments", "--dim", str(m_dim), "--kmax", str(m_k), "--format", "json"] + common,
           ["moments.json"],
           lambda result: ([] if result[0] == 0 else [f"exit code {result[0]}"], 0))

    def table_check(table, dim, kmax, log_moment):
        problems = []
        if (table.dim, table.k_max) != (dim, kmax):
            problems.append(f"table is dim {table.dim} kmax {table.k_max}")
        return problems + _table_problems(table, log_moment), 0

    moments_path = out_dir / "moments.json"
    ops.append(Op(
        f"from-json-d{m_dim}-k{m_k}",
        lambda: hs.MomentTable.from_json(moments_path.read_text()),
        lambda table: table_check(table, m_dim, m_k, lambda a: checks.gaussian_log_moment(a, amp, t0)),
    ))

    ev = inputs["evolve"]
    v_k, v_s = (2 if warm else ev["kmax"]), ev["s"]
    ops.append(Op(
        f"moments-at-time-d2-k{v_k}",
        lambda: hs.moments_at_time(hs.build_moment_table(hs.Gaussian(amp, t0, 2), v_k), v_s),
        lambda table: table_check(
            table, 2, v_k, lambda a: checks.evolved_gaussian_log_moment(a, amp, t0, v_s)),
    ))

    pts = inputs["points"]
    p_t = pts["t"]
    tables = {}
    for dim, key, kmax in ((2, "d2", pts["k2"]), (3, "d3", pts["k3"])):
        kmax = 2 if warm else kmax
        points = pts[key][:1] if warm else pts[key]

        def build(dim=dim, kmax=kmax):
            tables[dim] = hs.build_moment_table(hs.Gaussian(amp, t0, dim), kmax)
            return tables[dim]

        ops.append(Op(
            f"table-d{dim}-k{kmax}", build,
            lambda table, dim=dim, kmax=kmax: table_check(
                table, dim, kmax, lambda a: checks.gaussian_log_moment(a, amp, t0)),
        ))
        for i, x in enumerate(points):
            def point(dim=dim, kmax=kmax, x=tuple(x)):
                cfg = hs.ApproxConfig(dim=dim, k=kmax, t=p_t)
                radius = math.sqrt(math.fsum(c * c for c in x))
                return hs.eval_uk(tables[dim], cfg, x), hs.eval_uk_radial_origin(tables[dim], cfg, radius)

            ops.append(Op(f"point-d{dim}-k{kmax}-{i}", point, _point_check))
    return ops


def _point_check(result):
    approx, radial = result
    magnitude = math.fsum(abs(c) for _, c in approx.terms)
    tol = POINT_REL * max(magnitude, abs(approx.value))
    problems = []
    if not abs(approx.value - radial) <= tol:
        problems.append(f"eval_uk {approx.value!r}, Laguerre route {radial!r}")
    if not abs(approx.value - math.fsum(c for _, c in approx.terms)) <= tol:
        problems.append("degree blocks do not add up to the value")
    return problems, 0


def _origin_series(amp, t0, t, kmax):
    """u_k(0, t) in dim 2 for the Gaussian datum from closed-form moments and
    H_a(0) = (-1)^{a/2} a! / (a/2)!: {k: (value, sum of |terms|)}."""
    import checks

    terms, out = [], {}
    for j in range(kmax + 1):
        for a in range(0, j + 1, 2):
            alpha = (a, j - a)
            logm = checks.gaussian_log_moment(alpha, amp, t0)
            if logm is None:
                continue
            log_term = (
                logm - math.log(math.pi) - 0.5 * (j + 2) * math.log(4.0 * t)
                - math.fsum(math.lgamma(c / 2 + 1.0) for c in alpha)
            )
            terms.append((-1.0) ** (j // 2) * math.exp(log_term))
        out[j] = (math.fsum(terms), math.fsum(abs(x) for x in terms))
    return out
