"""Layered dielectric stacks with embedded graphene sheets.

A stack is an ordered list of layers from top cladding to bottom cladding.
The first and last layer are semi-infinite (thickness None); interior
layers have finite thickness.  Graphene sheets sit on interfaces: interface
``i`` separates ``layers[i]`` from ``layers[i + 1]``.

The G / H1G / H2G presets describe a sheet on a low-index substrate, a
sheet on a high-index film over that substrate, and a sheet buried between
two high-index films.  Their permittivities and film thicknesses below are
configuration defaults, overridable per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .conductivity import GrapheneSheet
from .constants import _check_range

LIM_PERMITTIVITY = 3.8     # quartz-like low-index material
HIM_PERMITTIVITY = 11.9    # silicon-like high-index material
H1G_FILM_THICKNESS_M = 10e-6
H2G_FILM_THICKNESS_M = 5e-6

PRESET_NAMES = ("G", "H1G", "H2G")


@dataclass(frozen=True)
class DielectricLayer:
    """A lossless dielectric layer; thickness None marks a semi-infinite
    cladding."""

    relative_permittivity: float
    thickness_m: float | None = None

    def __post_init__(self):
        _check_range("relative_permittivity", self.relative_permittivity, 1.0,
                     ends="[)")
        if self.thickness_m is not None:
            _check_range("thickness_m", self.thickness_m, 0.0)

    @property
    def is_semi_infinite(self) -> bool:
        return self.thickness_m is None

    @property
    def refractive_index(self) -> float:
        return math.sqrt(self.relative_permittivity)


@dataclass(frozen=True)
class LayeredStack:
    layers: tuple[DielectricLayer, ...]
    sheets: Mapping[int, GrapheneSheet]

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if len(layers) < 2:
            raise ValueError("a stack needs at least two layers")
        if not layers[0].is_semi_infinite or not layers[-1].is_semi_infinite:
            raise ValueError("first and last layer must be semi-infinite claddings")
        for layer in layers[1:-1]:
            if layer.is_semi_infinite:
                raise ValueError("only the claddings may be semi-infinite")
        sheets = dict(self.sheets)
        if not sheets:
            raise ValueError("a stack needs at least one graphene sheet")
        for index in sheets:
            if not 0 <= index < len(layers) - 1:
                raise ValueError(f"sheet interface {index} outside 0..{len(layers) - 2}")
        object.__setattr__(self, "sheets", MappingProxyType(sheets))

    @property
    def max_cladding_index(self) -> float:
        return max(self.layers[0].refractive_index, self.layers[-1].refractive_index)

    @property
    def max_layer_index(self) -> float:
        return max(layer.refractive_index for layer in self.layers)

    @property
    def top_sheet_interface(self) -> int:
        return min(self.sheets)

    def with_chemical_potential(self, chemical_potential_ev: float) -> "LayeredStack":
        """Same geometry with every sheet retuned to the given chemical
        potential (relaxation time and temperature unchanged)."""
        sheets = {i: s.with_chemical_potential(chemical_potential_ev)
                  for i, s in self.sheets.items()}
        return LayeredStack(self.layers, sheets)

    def reversed(self) -> "LayeredStack":
        """Stack flipped top-to-bottom; the guided-mode problem is invariant
        under this flip."""
        n = len(self.layers)
        sheets = {n - 2 - i: s for i, s in self.sheets.items()}
        return LayeredStack(tuple(reversed(self.layers)), sheets)


def graphene_on_substrate(sheet: GrapheneSheet, substrate_permittivity: float,
                          superstrate_permittivity: float = 1.0) -> LayeredStack:
    """Single sheet between two half-spaces (superstrate above, substrate
    below)."""
    return LayeredStack(
        (DielectricLayer(superstrate_permittivity),
         DielectricLayer(substrate_permittivity)),
        {0: sheet},
    )


def free_standing_sheet(sheet: GrapheneSheet) -> LayeredStack:
    return graphene_on_substrate(sheet, 1.0, 1.0)


def preset_stack(name: str, sheet: GrapheneSheet, *,
                 lim_permittivity: float = LIM_PERMITTIVITY,
                 him_permittivity: float = HIM_PERMITTIVITY,
                 film_thickness_m: float | None = None) -> LayeredStack:
    """Build one of the named radiating-element stacks.

    G   : vacuum | sheet | LIM substrate
    H1G : vacuum | sheet | HIM film | LIM substrate
    H2G : vacuum | HIM film | sheet | HIM film | LIM substrate
    """
    vacuum = DielectricLayer(1.0)
    lim = DielectricLayer(lim_permittivity)
    if name == "G":
        return LayeredStack((vacuum, lim), {0: sheet})
    if name == "H1G":
        d = H1G_FILM_THICKNESS_M if film_thickness_m is None else film_thickness_m
        return LayeredStack((vacuum, DielectricLayer(him_permittivity, d), lim),
                            {0: sheet})
    if name == "H2G":
        d = H2G_FILM_THICKNESS_M if film_thickness_m is None else film_thickness_m
        film = DielectricLayer(him_permittivity, d)
        return LayeredStack((vacuum, film, film, lim), {1: sheet})
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
