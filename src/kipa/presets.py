"""Named parameter sets shipped with the toolkit.

"paper-device" is the fabricated three-stage amplifier (56-ohm resonator
with a 330-fF shunt, 80/30/180-ohm lines); "paper-env" the rippled source
impedance fitted to its measurement setup; "worked-synthesis" the textbook
synthesis inputs.
"""
from __future__ import annotations

import math

from .circuits import DesignSpec, EnvironmentModel
from .errors import InvalidParameter
from .material import KineticInductorModel
from .synthesis import GETSINGER_17DB, PrototypeCoefficients

TWO_PI = 2.0 * math.pi

# NbTiN nanowire scales fitted to the measured frequency-shift curve
NBTIN_NANOWIRE = KineticInductorModel(
    model_kind="quartic",
    l_k0=0.8e-9,
    l_geo=0.2e-9,
    i_star2=3.25e-3,
    i_star4=1.7e-3,
    i_c=1.15e-3,
)


def paper_device() -> DesignSpec:
    """The fabricated three-stage amplifier.

    Lines 80/30/180 ohms, quarter/half/quarter wave at the 7.9-GHz layout
    frequency; 330-fF shunt across the nanowire.  At the 0.57-mA default
    bias the resonator sits at 56 ohms / 8.61 GHz.
    """
    return DesignSpec(
        z_quarter=80.0,
        z_half=30.0,
        z_ki_quarter=180.0,
        c_shunt=330e-15,
        ki_model=NBTIN_NANOWIRE,
        f0=TWO_PI * 7.9e9,
    )


PAPER_DEVICE_BIAS = 0.57e-3           # A
PAPER_DEVICE_PUMP = TWO_PI * 16.9e9   # rad/s


def paper_env() -> EnvironmentModel:
    """Two-tone ripple fitted to the measured reflection baseline."""
    return EnvironmentModel(
        z0=50.0,
        terms=(
            (14.2, 10.5e-9 / TWO_PI, -0.7 * math.pi),
            (1.9, 121e-9 / TWO_PI, 0.0),
        ),
    )


def worked_synthesis() -> dict:
    """Inputs of the worked transformer-synthesis example."""
    return {
        "prototype": PrototypeCoefficients(*GETSINGER_17DB, epsilon=500.0 / 8000.0),
        "z_nr": 60.0,
        "z_ki": 180.0,
        "z0": 50.0,
    }


_DESIGN_PRESETS = {
    "paper-device": paper_device,
}

_ENV_PRESETS = {
    "paper-env": paper_env,
    "ideal": EnvironmentModel,
}


def _preset(table: dict, what: str, name: str):
    try:
        return table[name]()
    except KeyError:
        raise InvalidParameter(
            f"unknown {what} preset {name!r}; available: {sorted(table)}") from None


def design_preset(name: str) -> DesignSpec:
    return _preset(_DESIGN_PRESETS, "design", name)


def env_preset(name: str) -> EnvironmentModel:
    return _preset(_ENV_PRESETS, "environment", name)
