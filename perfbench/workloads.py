"""Request lists of the benchmark workloads.

A workload is a fixed list of riplab CLI invocations made of two of the four
sweeps below. The benchmark seed only picks the ``--seed`` of each request, so
every seed does the same amount of work on different random inputs.
``smoke=True`` shrinks every request to a size that runs in well under a
second, for the benchmark's own tests.

The sweeps and the layer each one loads:

- canonical-rip: support enumeration and sampled supports; the per-support
  eigenvalue defect and per-trial RNG stream derivation dominate.
- multilevel: projected power ascent on a q-cap model; no eigvalsh and
  little RNG.
- orbit-average: Rosenthal conjugation and isotropy orbits; group_ops
  dominates.
- function-space: translation-average experiments and bump synthesis;
  infdim dominates.

They are paired so that each workload runs long enough per pass to give
steady medians on a small shared machine, while every optimisation the
roadmap plans is exercised by one workload and bypassed by the other:
``supports-and-functions`` carries the support kernel, the per-trial RNG and
infdim; ``ascent-and-orbits`` carries projected ascent and the group actions.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = {
    "supports-and-functions": ("canonical-rip", "function-space"),
    "ascent-and-orbits": ("multilevel", "orbit-average"),
}

# Requests of the committed golden digests are derived from this seed.
GOLDEN_SEED = 0

_DECAYING = ("--eta", "decaying", "--alpha", "0.25")


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``argv`` omits ``--out``, which the runner adds."""

    name: str
    argv: tuple

    @property
    def command(self) -> str:
        return self.argv[0]


def _canonical_rip(smoke: bool) -> list:
    n_exact = "16" if smoke else "32"
    scan = ("--m", "32,64", "--seeds", "1", "--trials", "20") if smoke else \
        ("--m", "32,64,128,256", "--seeds", "5")
    gordon = ("--draws", "2", "--width-trials", "200", "--trials", "20") if smoke else \
        ("--draws", "40",)
    return [
        ("rip-exact-shiftmod", ("rip-exact", *_DECAYING, "--N", n_exact, "--Neta", "16",
                                "--ensemble", "shiftmod", "--k", "4", "--m", "24")),
        ("rip-exact-gaussian", ("rip-exact", "--ensemble", "gaussian", "--N", n_exact,
                                "--k", "4", "--m", "24")),
        ("rip-scan-shiftmod", ("rip-scan", *_DECAYING, "--N", "256", "--Neta", "64",
                               "--k", "4", *scan)),
        ("rip-scan-signshift", ("rip-scan", *_DECAYING, "--N", "256", "--Neta", "64",
                                "--ensemble", "signshift", "--sign", "absorbed",
                                "--k", "8", *scan)),
        ("gordon", ("gordon", "--N", "64", "--k", "4", *gordon)),
    ]


def _multilevel(smoke: bool) -> list:
    base = ("--N", "64", "--m", "256", "--s", "2", "--q", "1")
    budget = ("--trials", "3", "--ascent", "5") if smoke else ()
    pairs = ("--pairs", "10" if smoke else "200")
    return [
        ("mrip", ("mrip", *base, "--delta", "0.3", *budget)),
        ("distance", ("distance", *base, *pairs, *budget)),
        ("weakdiff", ("weakdiff", *base, *pairs, *budget)),
    ]


def _orbit_average(smoke: bool) -> list:
    trials = "2" if smoke else None

    def rosenthal(variant, n, m_list, n_trials):
        return ("rosenthal", "--variant", variant, "--N", n, "--d", "4", "--M", m_list,
                "--trials", trials or n_trials)

    return [
        ("rosenthal-doubleqft", rosenthal("doubleqft", "16", "16,64", "20")),
        ("rosenthal-shiftmod", rosenthal("shiftmod", "32", "64,256,1024", "30")),
        ("rosenthal-signshift", rosenthal("signshift", "32", "64,256", "30")),
        ("isotropy-shiftmod", ("isotropy", *_DECAYING, "--N", "16", "--Neta", "8",
                               "--variant", "shiftmod")),
        ("isotropy-signshift", ("isotropy", *_DECAYING, "--N", "8", "--Neta", "4",
                                "--variant", "signshift")),
        ("isotropy-doubleqft", ("isotropy", "--eta", "schatten-decay", "--n", "4",
                                "--alpha", "0.25", "--variant", "doubleqft")),
        ("rip-scan-doubleqft", ("rip-scan", "--eta", "schatten-decay", "--n", "4",
                                "--alpha", "0.25", "--ensemble", "doubleqft", "--k", "4",
                                "--m", "16,32" if smoke else "16,32,64",
                                "--seeds", "1" if smoke else "2",
                                "--trials", "20" if smoke else "200")),
    ]


def _function_space(smoke: bool) -> list:
    scan = ("--gamma", "0.0625", "--rho", "2", "--m", "16,64" if smoke else "16,64,256,1024",
            "--trials", "3" if smoke else "60")
    return [
        ("infdim-scan-N64", ("infdim-scan", "--N", "64", "--L", "4", *scan)),
        ("infdim-scan-N128", ("infdim-scan", "--N", "128", "--L", "8", *scan)),
        ("bump-check", ("bump-check", "--configs", "3" if smoke else "40")),
    ]


SWEEPS = {
    "canonical-rip": _canonical_rip,
    "multilevel": _multilevel,
    "orbit-average": _orbit_average,
    "function-space": _function_space,
}


def requests(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's requests, request i seeded with ``1000 * seed + i``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    listed = [req for sweep in WORKLOADS[workload] for req in SWEEPS[sweep](smoke)]
    return [
        Request(name, (*argv, "--seed", str(1000 * seed + i)))
        for i, (name, argv) in enumerate(listed)
    ]
