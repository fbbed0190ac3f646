"""The four benchmark workloads and the seeded config generator.

Each workload is one `pwsum` subcommand on one spectrum family at a fixed
size.  The seed only draws values that leave the amount of work unchanged
(spectrum heights and perturbations, test atoms, the compact-disk centre,
factorization sample points, the probe seed), so run times do not depend on
it.  A seed maps onto one of VARIANTS parameter draws per workload; every
draw has checked-in reference outputs (reference.json), and generating
those references runs every draw once, which is how the value ranges below
were checked to keep every workload feasible (universal contour selection
can otherwise exit 3).
"""

from __future__ import annotations

import random

VARIANTS = 8

# name -> (subcommand, the CSV it writes).  Why each is here: README.md.
WORKLOADS = {
    "converge-lattice": ("converge", "errors.csv"),
    "contours-kadec": ("weights", "weights.csv"),
    "factorize-line": ("factorize-check", "report.csv"),
    "diagnose-clustered": ("diagnose", "report.csv"),
}

# Fixed sizes: these set the work per run and do not depend on the seed.
_FIXED = {
    "converge-lattice": {
        "family": "shifted_integers",
        "count": "400",
        "scheme": "naive,projection",
        "schedule": "50,100,200,300,401",
        "grid.X": "40",
        "grid.h": "0.01",
        "K.radius": "3.0",
        "K.samples": "256",
    },
    "contours-kadec": {
        "family": "kadec_perturbed",
        "count": "100",
        "scheme": "universal",
    },
    "factorize-line": {
        "family": "kadec_perturbed",
        "count": "100",
        "outer.X": "150",
        "outer.h": "0.01",
    },
    "diagnose-clustered": {
        "family": "clustered_pairs",
        "count": "600",
        "diag.X": "40",
        "diag.h": "0.01",
    },
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _r(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _draw(workload: str, variant: int) -> dict:
    """Seed-dependent config values for one variant of a workload."""
    rng = random.Random(f"{workload}/{variant}")
    cfg = {"seed": str(rng.randrange(1, 10**6))}
    if workload == "converge-lattice":
        cfg["delta"] = _r(rng, 0.2, 0.5)
        atoms = []
        for _ in range(2):
            sign = rng.choice((-1, 1))
            atoms.append(
                f"{_r(rng, -5, 5)},{sign * rng.uniform(0.1, 0.5):.3f},"
                f"{_r(rng, 0.3, 1.0)},{_r(rng, -0.5, 0.5)}"
            )
        cfg["atoms"] = ";".join(atoms)
        cfg["K.center.re"] = _r(rng, -3, 3)
        cfg["K.center.im"] = _r(rng, -1, 1)
    elif workload == "contours-kadec":
        cfg["delta"] = _r(rng, 0.2, 0.5)
        cfg["eps"] = _r(rng, 0.05, 0.3)
    elif workload == "factorize-line":
        cfg["delta"] = _r(rng, 0.2, 0.5)
        cfg["eps"] = _r(rng, 0.05, 0.3)
        # one sample point in each half-plane plus one of either sign
        signs = (1, -1, rng.choice((-1, 1)))
        cfg["factorize.samples"] = ";".join(
            f"{_r(rng, -4, 4)},{s * rng.uniform(0.5, 2.0):.3f}" for s in signs
        )
    elif workload == "diagnose-clustered":
        cfg["delta"] = _r(rng, 0.8, 1.2)
        cfg["eps"] = _r(rng, 0.3, 0.7)
    else:
        raise KeyError(workload)
    return cfg


def config_text(workload: str, variant: int, output_dir: str) -> str:
    """The key=value config the CLI receives for one variant."""
    subcommand = WORKLOADS[workload][0]
    cfg = {"subcommand": subcommand, **_FIXED[workload], **_draw(workload, variant)}
    cfg["output.dir"] = output_dir
    return "".join(f"{k}={v}\n" for k, v in cfg.items())
