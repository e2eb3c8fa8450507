"""Parameter distributions and reproducible i.i.d. sampling.

A distribution is a finite mixture of independent per-parameter marginals
(uniform intervals or point masses), enough to express "the
parameters are jointly equal to some point with probability w, otherwise
uniform on a box".

Sampling is counter-based: draw i uses a Philox generator keyed by
(seed, i), so the batch is bit-reproducible and the points do not depend
on how the work is scheduled across workers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12


class DistError(ValueError):
    """Malformed distribution document."""


@dataclass(frozen=True)
class Marginal:
    kind: str  # "uniform" | "point"
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in ("uniform", "point"):
            raise DistError(f"unknown marginal kind {self.kind!r}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise DistError(f"marginal bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise DistError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class DistSpec:
    params: tuple[str, ...]
    weights: tuple[float, ...]
    components: tuple[tuple[Marginal, ...], ...]  # one marginal per param, per component

    def __post_init__(self):
        if not self.params:
            raise DistError("no parameters")
        if len(self.weights) != len(self.components):
            raise DistError("weights and components differ in length")
        if not all(w > 0 for w in self.weights):  # NaN fails it too
            raise DistError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise DistError(f"weights sum to {sum(self.weights)!r}, expected 1")
        for comp in self.components:
            if len(comp) != len(self.params):
                raise DistError("every component must cover every parameter")

    @property
    def dimension(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class SampleBatch:
    points: np.ndarray  # (N, dimension)

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _marginal_from_json(doc) -> Marginal:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise DistError(f"marginal must be {{'uniform': [lo, hi]}} or {{'point': v}}, got {doc!r}")
    [(kind, value)] = doc.items()
    if kind not in ("uniform", "point"):
        raise DistError(f"unknown marginal {doc!r}")
    try:
        lo, hi = (float(x) for x in value) if kind == "uniform" else (float(value),) * 2
    except (TypeError, ValueError) as e:
        raise DistError(f"marginal {doc!r}: {e}") from None
    return Marginal(kind, lo, hi)


def parse_dist(document: str) -> DistSpec:
    """Parse the JSON distribution format.

    Full form: {"mixture": [{"weight": w, "marginals": {name: marginal}}, ...]}.
    Shorthand for a single component: {"marginals": {name: marginal}} or just
    the marginals object itself.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise DistError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise DistError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DistError("distribution document must be a JSON object")

    if "mixture" in doc:
        if set(doc) != {"mixture"}:
            raise DistError("unexpected keys next to 'mixture'")
        entries = doc["mixture"]
    elif "marginals" in doc:
        if set(doc) != {"marginals"}:
            raise DistError("unexpected keys next to 'marginals'")
        entries = [{"weight": 1.0, "marginals": doc["marginals"]}]
    else:
        entries = [{"weight": 1.0, "marginals": doc}]

    if not isinstance(entries, list) or not entries:
        raise DistError(f"mixture must be a nonempty list, got {entries!r}")
    names = None
    weights = []
    components = []
    for entry in entries:
        if not (isinstance(entry, dict) and set(entry) == {"weight", "marginals"}
                and isinstance(entry["marginals"], dict)):
            raise DistError(f"mixture entries need a 'weight' and a 'marginals' object, got {entry!r}")
        if names is None:
            names = tuple(sorted(entry["marginals"]))
        if set(entry["marginals"]) != set(names):
            raise DistError(
                f"component covers {sorted(entry['marginals'])}, expected {sorted(names)}"
            )
        try:
            weights.append(float(entry["weight"]))
        except (TypeError, ValueError) as e:
            raise DistError(f"weight {entry['weight']!r}: {e}") from None
        components.append(tuple(_marginal_from_json(entry["marginals"][p]) for p in names))
    return DistSpec(params=tuple(names), weights=tuple(weights), components=tuple(components))


def load_dist(path) -> DistSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dist(fh.read())


def align_dist(dist: DistSpec, names: tuple[str, ...]) -> DistSpec:
    """Reorder the distribution's parameters to `names` (a model's order)."""
    if dist.params == names:
        return dist
    if set(dist.params) != set(names):
        raise ValueError(
            f"distribution covers {sorted(dist.params)}, model needs {sorted(names)}"
        )
    perm = [dist.params.index(p) for p in names]
    return DistSpec(
        params=tuple(names),
        weights=dist.weights,
        components=tuple(tuple(comp[j] for j in perm) for comp in dist.components),
    )


def _draw_one(dist: DistSpec, seed: int, index: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    u = gen.random()
    cum = 0.0
    comp = dist.components[-1]
    for w, c in zip(dist.weights, dist.components):
        cum += w
        if u < cum:
            comp = c
            break
    out = np.empty(dist.dimension)
    for j, marg in enumerate(comp):
        if marg.kind == "point":
            out[j] = marg.lo
        else:
            out[j] = marg.lo + (marg.hi - marg.lo) * gen.random()
    return out


def sample(dist: DistSpec, n: int, seed: int) -> SampleBatch:
    """Draw n i.i.d. points; point i depends only on (seed, i)."""
    if n < 1:
        raise ValueError("need at least one sample")
    points = np.stack([_draw_one(dist, seed, i) for i in range(n)])
    return SampleBatch(points=points)


def mean_point(dist: DistSpec) -> np.ndarray:
    """Mixture-weighted mean of the marginal means."""
    out = np.zeros(dist.dimension)
    for w, comp in zip(dist.weights, dist.components):
        out += w * np.array([m.mean for m in comp])
    return out


def support_vertices(dist: DistSpec) -> list[np.ndarray]:
    """Corner points of the support bounding box, lexicographic order.

    Degenerate axes (point masses, zero-width intervals) contribute a single
    coordinate, so k non-degenerate axes give 2**k vertices.
    """
    axes = []
    for j in range(dist.dimension):
        lo = min(c[j].lo for c in dist.components)
        hi = max(c[j].hi for c in dist.components)
        axes.append((lo,) if lo == hi else (lo, hi))
    return [np.array(v) for v in itertools.product(*axes)]
