"""riplab command-line interface.

Every subcommand reads its parameters from flags and, optionally, an
INI-style ``key=value`` config file (flags win).  Runs are deterministic:
the same config and seed produce byte-identical output bodies; a timestamp
is added to the header only when --stamp is passed.  Results are written
atomically (temp file + rename) as CSV curves and/or JSON summaries, with
the fully resolved configuration echoed into every output.

--validate-only runs a command up to the point where its experiment starts,
and writes nothing: option types, choices and lower bounds, then the
command's own build phase (each runner is a generator whose first yield ends
it).  Only the enumeration capacity is checked inside an experiment, so a
config that validates can still fail there, with exit 3.

Every run first sets numpy's bundled OpenBLAS to one thread
(numerics.pin_blas_threads).

Exit codes: 0 success, 2 invalid configuration, 3 capacity exceeded (an
enumeration past its cap, or an allocation the machine refuses), 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .group_ops import (
    gaussian_ensemble,
    gaussian_ensembles,
    group_side,
    isotropy_defect,
    rosenthal_deviation,
    sample_ensembles,
)
from .infdim import (
    differentiate,
    from_bumps,
    grid_lq_norm,
    make_block_instrument,
    quadrature_moduli,
    rip_experiment,
    standard_bump,
    support_fraction,
    truncation_level,
)
from .instruments import (
    Instrument,
    make_decaying_window,
    make_flat,
    make_scaled_identity,
    make_schatten_decay,
)
from .numerics import CapacityError, NumericalError, SeededRng, pin_blas_threads
from .rip import (
    calibrate_mrip_distortion,
    classify_separation,
    distance_bound_check,
    empirical_rip,
    exact_rip_canonical,
    gaussian_width,
    gordon_m,
    mrip_check,
    Separated,
    separation_constants,
    table1_counts,
)
from .sparsity import Canonical, LqCap, optimize_sparsity_parameter, sample_sparse

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_NUMERICAL = 4

# gordon builds draw d's ensemble from root stream 1 + d and its supports from
# root stream _GORDON_SUPPORT_ROOT + d, so more draws would share a stream.
_GORDON_SUPPORT_ROOT = 100000


# -- option schema -----------------------------------------------------------


@dataclass(frozen=True)
class Opt:
    name: str
    kind: str  # int | float | str | bool | int_list
    default: object = None
    required: bool = False
    choices: tuple = ()
    above: float | None = None  # the value, or every int_list entry, must exceed it
    help: str = ""


_COMMON = (
    Opt("seed", "int", default=0, above=-1, help="master RNG seed"),
    Opt("out", "str", default=None, help="output path prefix (default riplab_<command>)"),
    Opt("config", "str", default=None, help="INI-style key=value file; flags override"),
    Opt("stamp", "bool", default=False, help="add a timestamp header to outputs"),
    Opt("validate-only", "bool", default=False, help="check the configuration and exit"),
)

_ETA_OPTS = (
    Opt("eta", "str", default="flat",
        choices=("flat", "decaying", "scaled-identity", "schatten-decay"),
        help="instrument family"),
    Opt("N", "int", default=None, above=0, help="vector dimension"),
    Opt("n", "int", default=None, above=0, help="matrix side (matrix instruments)"),
    Opt("Neta", "int", default=None, above=0, help="window length for decaying instruments"),
    Opt("alpha", "float", default=None, help="decay exponent in (0, 1/2)"),
)

_ENSEMBLE_OPTS = _ETA_OPTS + (
    Opt("ensemble", "str", default="shiftmod",
        choices=("shiftmod", "signshift", "doubleqft", "gaussian")),
    Opt("sign", "str", default="none", choices=("none", "random", "absorbed")),
    Opt("k", "int", required=True, above=0),
)

# The Gaussian sketch and q-cap model of mrip, distance and weakdiff.
_SKETCH_OPTS = (
    Opt("N", "int", required=True, above=0),
    Opt("m", "int", required=True, above=0),
    Opt("q", "float", default=1.0),
    Opt("s", "float", required=True),
    Opt("trials", "int", default=50, above=0, help="ascent starts per dyadic level between the closed-form end levels"),
    Opt("ascent", "int", default=50, above=-1),
)

SCHEMAS: dict[str, tuple] = {
    "sp-opt": _ETA_OPTS + (
        Opt("r", "float", required=True, above=0, help="model cardinality parameter"),
    ),
    "isotropy": _ETA_OPTS + (
        Opt("variant", "str", default=None,
            choices=("shiftmod", "doubleqft", "signshift"),
            help="group (defaults to shiftmod for vectors, doubleqft for matrices)"),
    ),
    "rip-exact": _ENSEMBLE_OPTS + (
        Opt("m", "int", required=True, above=0),
    ),
    "rip-scan": _ENSEMBLE_OPTS + (
        Opt("m", "int_list", required=True, above=0, help="comma-separated row counts"),
        Opt("trials", "int", default=200, above=0),
        Opt("seeds", "int", default=1, above=0, help="number of consecutive seeds"),
    ),
    "mrip": _SKETCH_OPTS + (
        Opt("delta", "float", required=True, above=0),
        Opt("extra-factor", "bool", default=False,
            help="use the looser definitional threshold"),
    ),
    "distance": _SKETCH_OPTS + (
        Opt("pairs", "int", default=100, above=0),
    ),
    "weakdiff": _SKETCH_OPTS + (
        Opt("pairs", "int", default=100, above=0),
        Opt("alpha", "float", default=None, help="custom separation threshold factor"),
    ),
    "gordon": (
        Opt("N", "int", required=True, above=0),
        Opt("k", "int", required=True, above=0),
        Opt("delta", "float", default=0.5, above=0),
        Opt("zeta", "float", default=0.1),
        Opt("width-trials", "int", default=None, above=1,
            help="unused: the width is a quadrature; accepted until the benchmark "
                 "requests stop passing it"),
        Opt("draws", "int", default=100, above=0),
        Opt("trials", "int", default=200, above=0, help="defect trials per draw"),
    ),
    "rosenthal": (
        Opt("N", "int", required=True, above=0),
        Opt("d", "int", required=True, above=0),
        Opt("M", "int_list", required=True, above=0),
        Opt("trials", "int", default=50, above=0),
        Opt("variant", "str", default="shiftmod",
            choices=("shiftmod", "signshift", "doubleqft")),
    ),
    "table1": (
        Opt("s", "int", required=True, above=0),
        Opt("n", "int", required=True, above=0),
        Opt("d", "int", required=True, above=0),
    ),
    "infdim-scan": (
        Opt("N", "int", required=True, above=0),
        Opt("L", "int", required=True, above=0),
        Opt("mode", "str", default="both",
            choices=("deterministic", "rademacher", "both")),
        Opt("gamma", "float", required=True, help="bump support measure (1/T)"),
        Opt("rho", "float", default=None, help="nominal smoothness label for the report"),
        Opt("m", "int_list", required=True, above=0),
        Opt("trials", "int", default=20, above=0),
    ),
    "bump-check": (
        Opt("configs", "int", default=20, above=0),
        Opt("tol", "float", default=1e-6, above=0),
    ),
    "truncation": (
        Opt("q", "float", required=True),
        Opt("s", "float", required=True),
        Opt("delta", "float", required=True),
        Opt("C2", "float", required=True),
    ),
}


def _coerce(opt: Opt, raw: str | None):
    """Parse one flag or config-file value, a string either way."""
    if raw is None:
        return None
    raw = raw.strip()
    try:
        if opt.kind == "int":
            return int(raw)
        if opt.kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"must be a finite number; got {raw}")
            return value
        if opt.kind == "bool":
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if opt.kind == "int_list":
            parts = [part for part in raw.split(",") if part.strip()]
            if not parts:
                raise ValueError("needs at least one value")
            return [int(part) for part in parts]
        return raw
    except ValueError as exc:
        raise ValueError(f"{opt.name}: {exc}") from None


def parse_config_file(path: str) -> dict:
    """Read key=value lines; '#' or ';' starts a comment, blanks are skipped."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith(";"):
                continue
            if line.startswith("[") and line.endswith("]"):
                continue  # tolerate INI section headers
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


@dataclass
class ExperimentConfig:
    command: str
    params: dict = field(default_factory=dict)


def resolve_config(command: str, cli_values: dict) -> tuple:
    """Merge defaults <- config file <- CLI flags.  Returns (config, diagnostics)."""
    schema = {o.name.replace("-", "_"): o for o in SCHEMAS[command] + _COMMON}
    diagnostics: list[str] = []

    file_values: dict = {}
    config_path = cli_values.get("config")
    if config_path:
        try:
            file_values = parse_config_file(config_path)
        except OSError as exc:
            return None, [f"cannot read config file: {exc}"]
        except ValueError as exc:
            return None, [str(exc)]
        for key in file_values:
            if key not in schema:
                diagnostics.append(f"unknown config key: {key}")

    params = {}
    for key, opt in schema.items():
        raw = cli_values.get(key)
        if raw is None and key in file_values:
            raw = file_values[key]
        try:
            value = _coerce(opt, raw)
        except ValueError as exc:
            diagnostics.append(str(exc))
            continue
        if value is None:
            value = opt.default
        if value is None and opt.required:
            diagnostics.append(f"missing required key {opt.name}")
            continue
        if opt.choices and value is not None and value not in opt.choices:
            diagnostics.append(
                f"{opt.name}: must be one of {', '.join(map(str, opt.choices))}; got {value}"
            )
            continue
        if opt.above is not None and value is not None:
            low = [v for v in (value if isinstance(value, list) else [value]) if v <= opt.above]
            if low:
                diagnostics.append(f"{opt.name}: must exceed {opt.above}; got {low[0]}")
                continue
        params[key] = value
    return ExperimentConfig(command, params), diagnostics


# -- execution helpers --------------------------------------------------------


_ETA_NEEDS = {"flat": ("N",), "decaying": ("N", "Neta", "alpha"),
              "scaled-identity": ("n",), "schatten-decay": ("n",)}


def _build_instrument(p: dict, rng: SeededRng) -> Instrument:
    eta = p["eta"]
    for name in _ETA_NEEDS[eta]:
        if p[name] is None:
            raise ValueError(f"--{name} is required for the {eta} instrument")
    if eta == "flat":
        return make_flat(p["N"])
    if eta == "decaying":
        return make_decaying_window(p["N"], p["Neta"], p["alpha"])
    if eta == "scaled-identity":
        return make_scaled_identity(p["n"])
    return make_schatten_decay(p["n"], p["alpha"] if p["alpha"] is not None else 0.25, rng)


def _build_ensembles(p: dict, m_list: list, rng: SeededRng):
    """The config's ensembles for every m of m_list, in order, from one draw
    at max(m_list); see ``sample_ensembles``."""
    if p["ensemble"] == "gaussian":
        # Gaussian rows never read --eta: the dimension is N, else n^2.
        if not (p["N"] or p["n"]):
            raise ValueError("--N or --n is required for the gaussian ensemble")
        if p["sign"] != "none":
            raise ValueError(f"the gaussian ensemble takes no signs; got --sign {p['sign']}")
        dim = p["N"] or p["n"] ** 2
        ensembles = gaussian_ensembles(dim, m_list, rng)
    else:
        inst = _build_instrument(p, rng)
        dim = inst.ambient_dim
        ensembles = sample_ensembles(inst, p["ensemble"], m_list, p["sign"], rng)
    Canonical(p["k"]).check_ambient(dim)
    return ensembles


def _sketch_model(p: dict) -> LqCap:
    """The q-cap model of mrip, distance and weakdiff, once s is known to lie
    in [1, s_max] for the sketch dimension N."""
    model = LqCap(p["q"], p["s"])
    model.check_ambient(p["N"])
    return model


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


@dataclass
class RunResult:
    """Raw report values; CSV rows are dicts whose keys name the columns."""

    csv_rows: list | None = None
    json_doc: dict | None = None
    summary: str = ""


# -- subcommand bodies ---------------------------------------------------------
#
# Each runner is a generator that yields twice.  The first yield ends its build
# phase: the objects it makes before its experiment starts, whose own range
# checks judge the config, and its cross-field rules.  --validate-only stops
# there.  The second yield is the RunResult.


def _run_sp_opt(p: dict) -> Iterator[RunResult | None]:
    inst = _build_instrument(p, SeededRng(p["seed"]))
    yield
    opt = optimize_sparsity_parameter(inst, p["r"])
    doc = {**asdict(opt), "eta": inst.kind, "r": p["r"]}
    yield RunResult(None, doc, f"q_opt={_fmt(opt.q_opt)} value={_fmt(opt.value)} "
                               f"gain={_fmt(opt.gain)}")


def _run_isotropy(p: dict) -> Iterator[RunResult | None]:
    inst = _build_instrument(p, SeededRng(p["seed"]))
    variant = p["variant"] or ("doubleqft" if inst.is_matrix else "shiftmod")
    group_side(variant, inst.ambient_dim, inst.is_matrix)
    yield
    defect = isotropy_defect(inst, variant)
    doc = {"defect": defect, "eta": inst.kind, "variant": variant}
    yield RunResult(None, doc, f"defect={_fmt(defect)}")


def _run_rip_exact(p: dict) -> Iterator[RunResult | None]:
    ens = next(_build_ensembles(p, [p["m"]], SeededRng(p["seed"])))
    yield
    report = exact_rip_canonical(ens, p["k"])
    doc = {"delta_hat": report.delta_hat, "method": "exact_enumeration",
           "model": report.model, "m": report.m}
    yield RunResult(None, doc, f"delta_hat={_fmt(report.delta_hat)}")


def _run_rip_scan(p: dict) -> Iterator[RunResult | None]:
    _build_ensembles(p, [1], SeededRng(p["seed"]))
    yield
    # Each seed builds its instrument and draws its rows once: the ensemble
    # of every m is a prefix of that draw.  Rows go by m in list order, then
    # by seed.
    seeds = [p["seed"] + offset for offset in range(p["seeds"])]
    deltas = [[empirical_rip(ens, Canonical(p["k"]), p["trials"],
                             rng=SeededRng(seed, 1)).delta_hat
               for ens in _build_ensembles(p, p["m"], SeededRng(seed))]
              for seed in seeds]
    rows = [{"m": m, "delta_hat": seed_deltas[j], "model": f"canonical_k{p['k']}", "seed": seed}
            for j, m in enumerate(p["m"]) for seed, seed_deltas in zip(seeds, deltas)]
    yield RunResult(rows, None, f"{len(rows)} rows")


def _run_mrip(p: dict) -> Iterator[RunResult | None]:
    _sketch_model(p)
    yield
    ens = gaussian_ensemble(p["N"], p["m"], SeededRng(p["seed"]))
    all_pass, levels = mrip_check(
        ens, p["q"], p["s"], p["delta"], p["trials"], p["ascent"],
        SeededRng(p["seed"], 1), extra_level_factor=p["extra_factor"],
    )
    doc = {"all_pass": all_pass, "delta": p["delta"], "q": p["q"], "s": p["s"],
           "levels": levels}
    yield RunResult(levels, doc, f"all_pass={all_pass}")


def _calibrated_pairs(p: dict, model: LqCap):
    """The Gaussian sketch of distance and weakdiff, its calibrated distortion,
    and the ``pairs`` random pairs (x, y) of ``model``: pair i is rows 2i and
    2i + 1 of one sample_sparse block from the pair RNG, so fewer pairs are
    a prefix of more."""
    ens = gaussian_ensemble(p["N"], p["m"], SeededRng(p["seed"]))
    delta, _ = calibrate_mrip_distortion(
        ens, p["q"], p["s"], p["trials"], p["ascent"], SeededRng(p["seed"], 1)
    )
    block = sample_sparse(model, p["N"], 2 * p["pairs"], SeededRng(p["seed"], 2))
    return ens, delta, zip(block[0::2], block[1::2])


def _run_distance(p: dict) -> Iterator[RunResult | None]:
    model = _sketch_model(p)
    yield
    ens, delta, pairs = _calibrated_pairs(p, model)
    rows = []
    for i, (x, y) in enumerate(pairs):
        res = distance_bound_check(ens, x, y, p["s"], delta, p["q"])
        rows.append({"pair": i, **{k: res[k] for k in ("observed", "bound", "passed")}})
    violations = sum(not row["passed"] for row in rows)
    doc = {"delta_calibrated": delta, "pairs": p["pairs"], "violations": violations,
           "pass_rate": 1.0 - violations / p["pairs"]}
    yield RunResult(rows, doc, f"violations={violations}/{p['pairs']} delta={_fmt(delta)}")


def _run_weakdiff(p: dict) -> Iterator[RunResult | None]:
    model = _sketch_model(p)
    if p["alpha"] is not None:
        separation_constants(p["alpha"])
    yield
    ens, delta, pairs = _calibrated_pairs(p, model)
    rows = []
    for i, (x, y) in enumerate(pairs):
        verdict = classify_separation(ens, x, y, delta, alpha=p["alpha"])
        true_sq = float(np.linalg.norm(x - y) ** 2)
        # Every cell is a squared distance; a close verdict has no lower bound.
        sep = isinstance(verdict, Separated)
        lower, upper = (verdict.lower, verdict.upper) if sep else (None, verdict.radius**2)
        ok = lower <= true_sq <= upper if sep else true_sq <= upper
        rows.append({"pair": i, "verdict": "separated" if sep else "close",
                     "lower": lower, "upper": upper, "true_sq": true_sq, "ok": bool(ok)})
    counts = {v: sum(row["verdict"] == v for row in rows) for v in ("separated", "close")}
    violations = sum(not row["ok"] for row in rows)
    doc = {"delta_calibrated": delta, "pairs": p["pairs"], "violations": violations,
           **counts}
    yield RunResult(rows, doc,
                    f"separated={counts['separated']} close={counts['close']} "
                    f"violations={violations}")


def _run_gordon(p: dict) -> Iterator[RunResult | None]:
    gordon_m(0.0, p["delta"], p["zeta"])
    # gaussian_width makes this check too, but only inside the experiment.
    Canonical(p["k"]).check_ambient(p["N"])
    if p["draws"] >= _GORDON_SUPPORT_ROOT:
        raise ValueError(f"draws cannot exceed {_GORDON_SUPPORT_ROOT - 1}")
    yield
    width = gaussian_width(Canonical(p["k"]), p["N"])
    m = gordon_m(width["mean"], p["delta"], p["zeta"])
    hits = 0
    for draw in range(p["draws"]):
        ens = gaussian_ensemble(p["N"], m, SeededRng(p["seed"], 1 + draw))
        rep = empirical_rip(ens, Canonical(p["k"]), p["trials"],
                            rng=SeededRng(p["seed"], _GORDON_SUPPORT_ROOT + draw))
        hits += 1 if rep.delta_hat <= p["delta"] else 0
    doc = {"width_mean": width["mean"], "width_error": width["error"],
           "predicted_m": m, "draws": p["draws"], "achieving": hits,
           "fraction": hits / p["draws"]}
    yield RunResult(None, doc, f"m={m} achieving={hits}/{p['draws']}")


def _run_rosenthal(p: dict) -> Iterator[RunResult | None]:
    n, d = p["N"], p["d"]
    group_side(p["variant"], n)
    # The compression u is built by index, d rows of N columns.
    if d > n:
        raise ValueError("d cannot exceed N")
    yield
    u = np.zeros((d, n), dtype=complex)
    u[np.arange(d), np.arange(d)] = math.sqrt(n / d)
    records = rosenthal_deviation(u, p["variant"], p["M"], p["trials"],
                                  SeededRng(p["seed"]))
    rows = [{k: r[k] for k in ("M", "median", "mean")} for r in records]
    medians = [r["median"] for r in records]
    # The log-log slope needs two distinct M values and positive medians;
    # otherwise it is written as null (JSON has no NaN) and the summary says why.
    slope, summary = None, "slope=null (one M value, no log-log fit)"
    if min(medians) <= 0.0:
        summary = "slope=null (a median deviation is 0, no log-log fit)"
    elif len({r["M"] for r in records}) > 1:
        logm = np.log([r["M"] for r in records])
        slope = float(np.polyfit(logm, np.log(medians), 1)[0])
        summary = f"slope={_fmt(slope)}"
    yield RunResult(rows, {"slope": slope, "records": rows}, summary)


def _run_table1(p: dict) -> Iterator[RunResult | None]:
    yield
    counts = table1_counts(p["s"], p["n"], p["d"])
    doc = dict(counts)
    doc["ratio_group_over_gauss"] = counts["group"] / counts["gauss"]
    doc["ratio_sign_over_gauss"] = counts["group_sign"] / counts["gauss"]
    yield RunResult(None, doc,
                    f"gauss={counts['gauss']} group={counts['group']} "
                    f"group_sign={counts['group_sign']}")


def _run_infdim_scan(p: dict) -> Iterator[RunResult | None]:
    n_cut, block_len = p["N"], p["L"]
    modes = ("deterministic", "rademacher") if p["mode"] == "both" else (p["mode"],)
    insts = [make_block_instrument(n_cut, block_len, mode, SeededRng(p["seed"], 9999))
             for mode in modes]
    if not 0 < p["gamma"] < 0.5:
        raise ValueError(f"gamma must lie in (0, 1/2); got {p['gamma']}")
    yield
    # One bump at centre 0 on the carrier band 4N, the least rip_experiment
    # accepts: a bump's centre only shifts the uniform translates.
    bump = from_bumps(1.0 / p["gamma"], [0.0], [1.0], 4 * n_cut)
    # Every (mode, m) cell shares the trial streams of one root, so one grid
    # call draws each trial's translates once.
    grid = rip_experiment(bump, insts, p["m"], p["trials"], SeededRng(p["seed"]))
    rows = []
    for mode, inst, scheme_devs in zip(modes, insts, grid.deviations):
        for m, devs in zip(p["m"], scheme_devs):
            for trial, dev in enumerate(devs.tolist()):
                rows.append({
                    "scheme": mode,
                    "N": n_cut,
                    "L": block_len,
                    "d": inst.n_blocks,
                    "gamma": p["gamma"],
                    # Without --rho the label cell stays empty, like weakdiff's lower bound.
                    "rho": p["rho"],
                    "m": m,
                    "trial": trial,
                    "deviation": dev,
                })
    yield RunResult(rows, None, f"{len(rows)} rows")


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _bump_quad_norm(power_of_profile, p_exp: float) -> float:
    x = np.linspace(-0.5, 0.5, 1 << 15)
    y = power_of_profile(x) ** p_exp
    return float(_trapezoid(y, x) ** (1.0 / p_exp))


def _run_bump_check(p: dict) -> Iterator[RunResult | None]:
    yield

    def dbump(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 0.5
        xi = x[inside]
        with np.errstate(over="ignore"):
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - 4.0 * xi**2)) * (
                -8.0 * xi / (1.0 - 4.0 * xi**2) ** 2
            )
        return out

    ref_lp = {pp: _bump_quad_norm(standard_bump, pp) for pp in (1.0, 2.0, 4.0)}
    ref_dl2 = _bump_quad_norm(lambda x: np.abs(dbump(x)), 2.0)

    rows = []
    for cfg, stream in enumerate(SeededRng(p["seed"]).streams(range(p["configs"]))):
        t_scale = float(stream.generator.choice([8.0, 16.0, 32.0]))
        count = int(stream.generator.choice([1, 2, 4]))
        centers = []
        guard = 0
        while len(centers) < count:
            guard += 1
            if guard > 10000:
                raise NumericalError("could not place bump centers")
            c = float(stream.uniform())
            if all(min(abs(c - o) % 1, 1 - abs(c - o) % 1) > 1.2 / t_scale
                   for o in centers):
                centers.append(c)
        amps = stream.complex_normal(count)
        nbig = int(128 * t_scale)
        f = from_bumps(t_scale, centers, amps, nbig)

        moduli = quadrature_moduli(f)
        support = support_fraction(moduli)
        support_ok = support <= count / t_scale * (1 + 1e-6) + 1.0 / moduli.size

        got = {pp: grid_lq_norm(moduli, pp) for pp in (1.0, 2.0, 4.0)}
        rel_lp = 0.0
        for pp in (1.0, 2.0, 4.0):
            closed = ref_lp[pp] * t_scale ** (1 - 1 / pp) * (
                float(np.sum(np.abs(amps) ** pp)) ** (1 / pp))
            rel_lp = max(rel_lp, abs(got[pp] - closed) / closed)

        deriv = 2 * math.pi * differentiate(f).l2_norm()
        closed_d = ref_dl2 / ref_lp[2.0] * t_scale * got[2.0]
        rel_d = abs(deriv - closed_d) / closed_d

        ok = support_ok and rel_lp <= p["tol"] and rel_d <= p["tol"]
        rows.append({
            "config": cfg, "T": t_scale, "bumps": count,
            "support": support, "rel_lp": rel_lp,
            "rel_deriv": rel_d, "ok": bool(ok),
        })
    all_ok = all(row["ok"] for row in rows)
    worst = max(max(row["rel_lp"], row["rel_deriv"]) for row in rows)
    doc = {"configs": p["configs"], "max_rel_error": worst, "all_pass": all_ok}
    yield RunResult(rows, doc, f"all_pass={all_ok} max_rel={_fmt(worst)}")


def _run_truncation(p: dict) -> Iterator[RunResult | None]:
    l0 = truncation_level(p["q"], p["s"], p["delta"], p["C2"])
    yield
    q_dual = p["q"] / (p["q"] - 1.0)
    guaranteed = 2.0 * p["C2"] * p["s"] * 2.0 ** (-2.0 * l0 / q_dual)
    doc = {"l0": l0, "guaranteed_tail": guaranteed, "delta": p["delta"],
           "meets_half_delta": guaranteed <= p["delta"]}
    yield RunResult(None, doc, f"l0={l0}")


_RUNNERS = {
    "sp-opt": _run_sp_opt,
    "isotropy": _run_isotropy,
    "rip-exact": _run_rip_exact,
    "rip-scan": _run_rip_scan,
    "mrip": _run_mrip,
    "distance": _run_distance,
    "weakdiff": _run_weakdiff,
    "gordon": _run_gordon,
    "rosenthal": _run_rosenthal,
    "table1": _run_table1,
    "infdim-scan": _run_infdim_scan,
    "bump-check": _run_bump_check,
    "truncation": _run_truncation,
}


# -- output -------------------------------------------------------------------


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".riplab_tmp_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_outputs(config: ExperimentConfig, result: RunResult, out_prefix: str,
                  stamp: bool) -> list[str]:
    """Write ``result`` as ``<out_prefix>.csv`` and/or ``.json``.  This is the
    one place a report is rendered: every CSV cell goes through _fmt, the
    columns are the first row's keys (a row with another key raises), and the
    resolved configuration, ``command`` first, is echoed into both formats.
    Both are rendered before either file is written."""
    texts = {}
    echo = {"command": config.command}
    for key in sorted(config.params.keys() - {"out", "config", "stamp", "validate_only"}):
        value = config.params[key]
        if value is not None:
            echo[key] = ",".join(map(str, value)) if isinstance(value, list) else _fmt(value)
    if result.csv_rows is not None:
        buf = io.StringIO()
        buf.writelines(f"# {key}={value}\n" for key, value in echo.items())
        if stamp:
            buf.write(f"# timestamp={time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
        writer = csv.DictWriter(buf, fieldnames=list(result.csv_rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({k: _fmt(v) for k, v in row.items()} for row in result.csv_rows)
        texts[".csv"] = buf.getvalue()
    if result.json_doc is not None:
        doc = {"config": echo, "result": result.json_doc}
        if stamp:
            doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        texts[".json"] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for suffix, text in texts.items():
        _atomic_write(f"{out_prefix}{suffix}", text)
    return [f"{out_prefix}{suffix}" for suffix in texts]


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riplab",
        description="Restricted-isometry experiments for structured random measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in SCHEMAS.items():
        sp = sub.add_parser(command)
        for opt in opts + _COMMON:
            if opt.kind == "bool":
                sp.add_argument(f"--{opt.name}", action="store_const", const="true",
                                default=None, help=opt.help)
            else:
                sp.add_argument(f"--{opt.name}", type=str, default=None, help=opt.help)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser for every run in a process: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    pin_blas_threads()
    args = _parser().parse_args(argv)
    cli_values = {k.replace("-", "_"): v for k, v in vars(args).items()
                  if k != "command"}
    config, diagnostics = resolve_config(args.command, cli_values)
    if diagnostics:
        for diag in diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run = _RUNNERS[args.command](config.params)
        next(run)  # the build phase
        if config.params["validate_only"]:
            print("configuration ok")
            return EXIT_OK
        result = next(run)
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_prefix = config.params.get("out") or f"riplab_{args.command.replace('-', '_')}"
    written = write_outputs(config, result, out_prefix, config.params.get("stamp", False))
    tail = f" -> {', '.join(written)}" if written else ""
    print(f"{args.command}: {result.summary}{tail}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
