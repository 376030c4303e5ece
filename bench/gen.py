"""Seeded generator of UCR-shaped synthetic datasets for the benchmark.

Every class is a template built from a bump, a ramp and a step whose
positions, widths and signs are drawn per class; each instance scales
the template at random and adds a random walk and white noise.
The same ``seed`` always gives the same bytes.  Run it on its own to
write a workload's datasets::

    python3 bench/gen.py tall 7 /tmp/data
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

# name, train rows, test rows, series length, classes -- shapes follow
# the UCR 2018 archive (Dau et al. 2019): Coffee, Plane, the 400/1000 x 512
# shape named in the roadmap, CinCECGTorso and Mallat
MATRIX_SHAPES = {
    "tall": (
        ("coffee_like", 28, 28, 286, 2),
        ("plane_like", 105, 105, 144, 7),
        ("tall_512", 400, 1000, 512, 4),
    ),
    "wide": (
        ("cinc_like", 40, 1380, 1639, 4),
        ("mallat_like", 55, 2345, 1024, 8),
    ),
}

# every matrix workload sweeps these alphabet sizes, with m = n // RATIO
ALPHAS = range(3, 21)
RATIO = 4

# the stream workload: training rows, series length, classes
STREAM_SHAPE = (200, 256, 4)


def class_templates(rng: np.random.Generator, n: int, classes: int) -> np.ndarray:
    """One (n,) template per class: a bump, a ramp and a step."""
    t = np.linspace(0.0, 1.0, n)
    out = np.empty((classes, n))
    for c in range(classes):
        centre, width = rng.uniform(0.15, 0.85), rng.uniform(0.03, 0.12)
        bump = rng.uniform(1.0, 2.5) * np.exp(-0.5 * ((t - centre) / width) ** 2)
        ramp = rng.uniform(-2.0, 2.0) * (t - 0.5)
        step = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) * (t > rng.uniform(0.2, 0.8))
        out[c] = bump + ramp + step
    return out


def draw_series(rng: np.random.Generator, templates: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Instances of the given 0-based class labels, one row each."""
    rows, n = labels.size, templates.shape[1]
    scale = rng.uniform(0.8, 1.2, size=(rows, 1))
    walk = np.cumsum(rng.normal(0.0, 1.5 / np.sqrt(n), size=(rows, n)), axis=1)
    noise = rng.normal(0.0, 1.0, size=(rows, n))
    return scale * templates[labels] + walk + noise


def balanced_labels(rng: np.random.Generator, rows: int, classes: int) -> np.ndarray:
    """0-based labels covering every class as evenly as ``rows`` allows."""
    return rng.permutation(np.arange(rows) % classes)


def write_split(path: Path, labels: np.ndarray, series: np.ndarray) -> None:
    lines = [
        f"{label}," + ",".join(f"{v:.6f}" for v in values)
        for label, values in zip((labels + 1).tolist(), series.tolist())
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_matrix_workload(workload: str, seed: int, root: Path) -> list[tuple[str, int, int, int, int]]:
    """Write ``root/<name>/<name>_{TRAIN,TEST}.txt`` for every dataset of ``workload``."""
    shapes = MATRIX_SHAPES[workload]
    for index, (name, n_train, n_test, n, classes) in enumerate(shapes):
        rng = np.random.default_rng([seed, index])
        templates = class_templates(rng, n, classes)
        for split, rows in (("TRAIN", n_train), ("TEST", n_test)):
            labels = balanced_labels(rng, rows, classes)
            write_split(root / name / f"{name}_{split}.txt", labels, draw_series(rng, templates, labels))
    return list(shapes)


class StreamSource:
    """Training set and an endless, seeded supply of stream operation inputs.

    Operation ``i`` always gets the same inputs for a given seed, however
    the blocks are drawn.
    """

    BLOCK = 1024

    def __init__(self, seed: int):
        rows, n, classes = STREAM_SHAPE
        rng = np.random.default_rng([seed, 100])
        self.templates = class_templates(rng, n, classes)
        self.train_labels = balanced_labels(rng, rows, classes) + 1
        self.train_series = draw_series(rng, self.templates, self.train_labels - 1)
        self._seed = seed

    def block(self, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block ``index``: BLOCK query series and BLOCK z-normalized audit pairs."""
        rng = np.random.default_rng([self._seed, 200, index])
        classes = self.templates.shape[0]
        queries = draw_series(rng, self.templates, rng.integers(0, classes, self.BLOCK))
        pairs = draw_series(rng, self.templates, rng.integers(0, classes, 2 * self.BLOCK))
        pairs = (pairs - pairs.mean(axis=1, keepdims=True)) / pairs.std(axis=1, keepdims=True)
        return queries, pairs[: self.BLOCK], pairs[self.BLOCK :]


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in MATRIX_SHAPES:
        print(f"usage: gen.py {{{','.join(MATRIX_SHAPES)}}} SEED OUT_DIR", file=sys.stderr)
        return 2
    write_matrix_workload(argv[0], int(argv[1]), Path(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
