"""Shipped example models and distributions (package data)."""

from __future__ import annotations

from importlib import resources

from .gridworld import builtin_env, generate
from .model import ParametricModel, parse_model
from .sampling import DistSpec, parse_dist

_MODEL_FILES = {
    "example": "example.model.json",
    "appendix-e": "appendix.model.json",
}
_DIST_FILES = {
    "example": "example.dist.json",
    "appendix-e": "appendix.dist.json",
    "grid": "grid.dist.json",
}


def _read(name: str) -> str:
    return resources.files("sprcause.data").joinpath(name).read_text(encoding="utf-8")


def builtin_model_names() -> list[str]:
    return sorted(_MODEL_FILES) + ["grid-a", "grid-b"]


def builtin_dist_names() -> list[str]:
    return sorted(_DIST_FILES)


def builtin_model(name: str) -> ParametricModel:
    if name in ("grid-a", "grid-b"):
        return generate(builtin_env(name[-1]))
    if name not in _MODEL_FILES:
        raise KeyError(f"unknown builtin model {name!r}")
    return parse_model(_read(_MODEL_FILES[name]))


def builtin_dist(name: str) -> DistSpec:
    if name not in _DIST_FILES:
        raise KeyError(f"unknown builtin distribution {name!r}")
    return parse_dist(_read(_DIST_FILES[name]))


def builtin_dist_text(name: str) -> str:
    return _read(_DIST_FILES[name])
