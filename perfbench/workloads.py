"""Seeded inputs for the three benchmark workloads.

Each workload expands, for one seed, into a list of items. An item is one
scenario text written into its own directory (with any tabulated sample
file it needs) plus the facts its oracle checks against. The program only
ever sees those files.

Seeded parameters are drawn from small fixed ladders. That keeps the amount
of work the same for every seed, so runs with different seeds measure the
same cost, and it lets ``digests.json`` hold the reference manifest digest of
every item a seed can produce.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WORKLOADS = ("bundled", "numeric_slab", "schmidt_sweep")

# numeric_slab: slab thickness ladder [um] and the pulsed item's crystal.
SLAB_THICKNESS_UM = tuple(15.0 + k for k in range(11))
SLAB_PULSED_LENGTH_MM = 2.5
SLAB_POINTS_PER_PERIOD = 64
SLAB_BAND_MARGIN = 1.05

# schmidt_sweep: gamma = 2**(k/4), k = -4..4, log-uniform over [0.5, 2].
SWEEP_GAMMA_STEPS = tuple(range(-4, 5))
SWEEP_ITEMS = 4
SWEEP_LENGTH_MM = 5.0


def build(workload: str, seed: int, root: Path, work: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` under ``work``.

    Returns one dict per item, in run order: ``id`` (unique in the pass and
    equal for equal inputs), ``dir``, ``scenario`` (file name), ``kind``
    (which oracle applies) and the oracle's parameters.
    """
    rng = np.random.default_rng(seed)
    if workload == "bundled":
        items = _bundled(rng, root)
    elif workload == "numeric_slab":
        items = _numeric_slab(rng)
    elif workload == "schmidt_sweep":
        items = _schmidt_sweep(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _write(items, work)


def all_items(root: Path, work: Path) -> list[dict]:
    """Every distinct item any seed can produce, for regenerating digests."""
    items = _bundled(None, root)
    for d in SLAB_THICKNESS_UM:
        items += _slab_items(d)
    for k in SWEEP_GAMMA_STEPS:
        for kernel in ("gaussian", "exact"):
            items.append(_sweep_item(k, kernel))
    return _write(items, work)


def _write(items: list[dict], work: Path) -> list[dict]:
    for n, item in enumerate(items):
        item_dir = work / f"item{n:03d}"
        item_dir.mkdir(parents=True)
        (item_dir / "scenario.ini").write_text(item.pop("text"))
        for name, content in item.pop("files", {}).items():
            (item_dir / name).write_text(content)
        item["dir"] = str(item_dir)
        item["scenario"] = "scenario.ini"
    return items


# ---------------------------------------------------------------------------
# bundled: the nine shipped recipes, shuffled. This is the real traffic the
# README ships and it mixes every layer: build-dominated g1 scans, Schmidt on
# 2048^2, the 4096^2 JSA that sets peak memory, the closed-form OCT route and
# 512^2 JSI CSV writes.

def _bundled_texts(root: Path) -> list[tuple[str, str]]:
    paths = sorted((root / "scenarios").glob("*.ini"))
    if len(paths) != 9:
        raise FileNotFoundError(
            f"expected the nine bundled scenarios under {root / 'scenarios'}, "
            f"found {len(paths)}"
        )
    return [(p.stem, p.read_text()) for p in paths]


def _bundled(rng, root: Path) -> list[dict]:
    texts = _bundled_texts(root)
    order = range(len(texts)) if rng is None else rng.permutation(len(texts))
    return [
        {"id": f"bundled/{texts[i][0]}", "kind": "bundled",
         "name": texts[i][0], "text": texts[i][1]}
        for i in order
    ]


# ---------------------------------------------------------------------------
# numeric_slab: a tabulated glass slab through oct_scan. A tabulated sample can
# only take the numeric route, which is dominated by the direct delay sum in
# PairCorrelator.correlation (many delays), where bundled's g1 scans are
# dominated by building the correlator (few delays). biphoton does no work
# here. The pulsed item uses a 2.5 mm crystal rather than the 10 mm one so that
# a pass fits the benchmark's time budget; its cost per delay is the same.

def _slab_table(crystal, pump, sample, tau_max_fs: float) -> str:
    """CSV of r(w) over the whole PairCorrelator idler band.

    The band is |w_i| <= half_s + 8/T0 with half_s the correlator's signal
    half-span; the step gives SLAB_POINTS_PER_PERIOD points per reflectivity
    period at the thickest slab of the ladder, so table size does not depend
    on the seed.
    """
    from nlintsim.coherence import TAIL_SINC_ARG

    ridge = abs(1.0 - 2.0 * crystal.D_plus / crystal.D) / 2.0
    half_s = 2.0 * TAIL_SINC_ARG / crystal.dl + ridge * 8.0 / pump.t0_fs
    band = SLAB_BAND_MARGIN * (half_s + 8.0 / pump.t0_fs)
    step = 2.0 * np.pi / tau_max_fs / SLAB_POINTS_PER_PERIOD
    n = int(np.ceil(2.0 * band / step)) + 1
    omega = np.linspace(-band, band, n)
    r = sample.reflectivity(omega)
    rows = "\n".join(
        f"{w!r},{re!r},{im!r}"
        for w, re, im in zip(omega.tolist(), r.real.tolist(), r.imag.tolist())
    )
    return "omega_rad_fs,r_real,r_imag\n" + rows + "\n"


def _slab_items(d_um: float) -> list[dict]:
    from nlintsim import BilayerSample, PumpPulse, mgo_linbo3_crystal
    from nlintsim.oct_scan import default_scan_range

    def slab(crystal, d):
        return BilayerSample.from_fresnel(1.0, 1.5, 1.3, d, crystal.omega_i0)

    items = []
    for name, length, t0_fs in (
        ("pulsed", SLAB_PULSED_LENGTH_MM, 100.0),
        ("quasi_cw", 0.5, 1e5),
    ):
        crystal = mgo_linbo3_crystal(length)
        pump = PumpPulse(t0_fs)
        sample = slab(crystal, d_um)
        tau_max = slab(crystal, max(SLAB_THICKNESS_UM)).tau_fs
        scan = ""
        if name == "quasi_cw":
            # default_scan_range cannot know a tabulated sample's depth and
            # clips the buried peak (AnalysisError), so give the bilayer
            # default window explicitly, for the thickest slab of the ladder
            # so that the delay count is the same for every seed.
            lo, hi = map(float, default_scan_range(
                crystal, slab(crystal, max(SLAB_THICKNESS_UM))))
            scan = f"[scan]\ndelta_z_min_mm = {lo!r}\ndelta_z_max_mm = {hi!r}\n\n"
        text = (
            f"# Tabulated {d_um:g} um glass slab (air / n=1.5 / water), numeric route.\n"
            f"[crystal]\npreset = mgo_linbo3\nlength_mm = {length!r}\n\n"
            f"[pump]\nt0_fs = {t0_fs!r}\n\n"
            "[sample]\ntype = tabulated\nfile = slab.csv\n\n"
            f"{scan}"
            "[tasks]\nrun = oct_scan\n\n"
            "[output]\ndirectory = out\n"
        )
        items.append({
            "id": f"numeric_slab/{name}/d{d_um:g}um",
            "kind": "numeric_slab",
            "thickness_um": d_um,
            "text": text,
            "files": {"slab.csv": _slab_table(crystal, pump, sample, tau_max)},
        })
    return items


def _numeric_slab(rng) -> list[dict]:
    d = SLAB_THICKNESS_UM[int(rng.integers(len(SLAB_THICKNESS_UM)))]
    return _slab_items(d)


# ---------------------------------------------------------------------------
# schmidt_sweep: joint spectrum plus Schmidt analysis around the separable
# point. biphoton dominates (the SVD is ~90% of an item and the JSA is built
# four times per item); coherence does no work. Kernels alternate so both the
# Gaussian and the exact JSA are measured in every pass.

def _sweep_item(step: int, kernel: str) -> dict:
    from nlintsim import mgo_linbo3_crystal
    from nlintsim.optics_model import SINC_GAUSS_ALPHA

    gamma = 2.0 ** (step / 4.0)
    crystal = mgo_linbo3_crystal(SWEEP_LENGTH_MM)
    t0_fs = float(SINC_GAUSS_ALPHA * crystal.dl / (2.0 * np.sqrt(2.0) * gamma))
    text = (
        f"# Schmidt sweep point gamma = 2^({step}/4), {kernel} kernel.\n"
        f"[crystal]\npreset = mgo_linbo3\nlength_mm = {SWEEP_LENGTH_MM!r}\n\n"
        f"[pump]\nt0_fs = {t0_fs!r}\n\n"
        f"[grid]\npoints = 2048\nkernel = {kernel}\n\n"
        "[tasks]\nrun = joint_spectrum, schmidt\n\n"
        "[output]\ndirectory = out\njsi_stride = 4\n"
    )
    return {
        "id": f"schmidt_sweep/{kernel}/gamma=2^({step}/4)",
        "kind": "schmidt_sweep",
        "kernel": kernel,
        "text": text,
    }


def _schmidt_sweep(rng) -> list[dict]:
    steps = rng.choice(SWEEP_GAMMA_STEPS, size=SWEEP_ITEMS, replace=False)
    kernels = ("gaussian", "exact")
    return [_sweep_item(int(k), kernels[n % 2]) for n, k in enumerate(steps)]
