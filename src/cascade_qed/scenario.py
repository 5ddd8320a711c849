"""What a run may be: the scenario keys, the figure presets and the ceilings.

``ScenarioConfig`` is one scenario, checked as a whole when it is built, and
``list_presets`` gives the frozen parameter sets behind the published figure
panels.  The CLI's scenario flags, their help and the keys of a --config
file come from ``ScenarioConfig``'s fields, each declared by ``_key``.
A run over one of the ceilings below, or a closed-form curve whose phases
would overflow, is refused with ``ConfigError``: the grid and alpha^2
ceilings when the scenario is built, the basis-dependent ones
(``_preflight``) once its curve is truncated, and all before anything is
evolved.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

from .field_states import FieldSpec
from .system import Motion, SystemConfig

__all__ = ["ConfigError", "ScenarioConfig", "list_presets"]

# Ceilings on a run: output grid points per curve, substeps per evolve call
# and the photon cutoff of a numerically evolved curve.  A fig4b curve takes
# 2,000 points, 1,999 substeps and 70 photons; at these ceilings an evolve
# call would run for minutes to hours.
_MAX_OUTPUT_POINTS = 10**6
_MAX_SUBSTEPS = 10**7
_MAX_PHOTONS = 2 * 10**4

# accepted type -> (what a message asks for, how its flag parses); bool is
# never taken as a number
_KINDS = {
    numbers.Real: ("a number", dict(type=float)),
    numbers.Integral: ("an integer", dict(type=int)),
    str: ("a string", dict(type=str)),
    bool: ("true or false", dict(action="store_true")),
}


def _key(default, kind, help_text=None, commands=("run", "compare")):
    """A ``ScenarioConfig`` field: its default; its accepted type, or the
    tuple of accepted strings; its flag's help; and the subcommands that
    take it as a flag and in their --config file.  A field whose default is
    None may also be None."""
    return field(default=default, metadata={"kind": kind, "help": help_text,
                                            "commands": commands})


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def _output_path(out: str) -> Path:
    """``out`` as a path; ``ConfigError`` when it names no file (".", "/"),
    since the per-curve and per-engine file names are derived from its name."""
    path = Path(out)
    if not path.name:
        raise ConfigError(f"out must name a file, got {out!r}")
    return path


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: physics, grid, engine choice and output location.

    Checked when built, before anything is computed or written.
    ``ConfigError`` names the first fault in this order: a mistyped field, a
    number too large for a double, an unknown engine or motion, an ``out``
    that names no file, or a closed-form engine off resonance; a physical
    range, which ``FieldSpec`` and ``SystemConfig`` check as
    ``system_config`` builds them; a numerically evolved curve with alpha^2
    over ``_MAX_PHOTONS`` (about half its photon mass lies above alpha^2, so
    its cutoff would be over that ceiling too); a grid over
    ``_MAX_OUTPUT_POINTS`` points.  Real-valued fields are stored as floats.
    """

    alpha: float = _key(5.0, numbers.Real, "field amplitude (>= 0)")
    delta: float = _key(0.0, numbers.Real, "detuning in units of g")
    theta: float = _key(math.pi / 4.0, numbers.Real, "atomic superposition angle (rad)")
    r: float = _key(0.0, numbers.Real, "superposition constant (0, +1, -1, ...)")
    p: int = _key(1, numbers.Integral, "half-wavelength count of the mode")
    motion: str = _key("moving", tuple(m.value for m in Motion), "atomic motion model")
    tau_max: float = _key(8.0 * math.pi, numbers.Real, "end of the scaled-time grid")
    steps: int = _key(2000, numbers.Integral, "output grid size")
    dt: float | None = _key(None, numbers.Real, "integrator substep (scaled time)")
    engine: str = _key("numeric", ("analytic", "numeric", "both"), "computation route", ("run",))
    out: str | None = _key(None, str, "output CSV path", ("run",))
    emit_unwrapped: bool = _key(False, bool, "append unwrapped phase columns", ("run",))
    preset: str | None = _key(None, str, commands=())
    curve: str | None = _key(None, str, commands=())

    def __post_init__(self):
        for f in fields(self):
            kind = f.metadata["kind"]
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if isinstance(kind, tuple):
                if value not in kind:
                    raise ConfigError(f"{f.name} must be one of {kind}, got {value!r}")
            elif isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {_KINDS[kind][0]}, got {value!r}")
            elif kind is numbers.Real:
                try:  # a JSON integer can be of any size
                    object.__setattr__(self, f.name, float(value))
                except OverflowError:
                    raise ConfigError(f"{f.name} is too large for a double") from None
        if self.out is not None:
            _output_path(self.out)
        if self.engine != "numeric" and self.delta != 0.0:
            raise ConfigError(
                f"engine={self.engine} requires delta=0 (the closed form is resonant "
                f"only), got delta={self.delta!r}"
            )
        config = self.system_config()
        alpha = config.field.alpha
        if self.engine != "analytic" and alpha * alpha > _MAX_PHOTONS:
            raise ConfigError(
                f"alpha={alpha!r} puts the photon cutoff of a numerically evolved "
                f"curve over the ceiling of {_MAX_PHOTONS}; lower alpha or use "
                f"engine=analytic"
            )
        if config.n_steps > _MAX_OUTPUT_POINTS:
            raise ConfigError(
                f"run too large: {config.n_steps} output points exceed the ceiling "
                f"of {_MAX_OUTPUT_POINTS}; lower steps"
            )

    def system_config(self) -> SystemConfig:
        try:
            field = FieldSpec(alpha=self.alpha, r=self.r)
            return SystemConfig(
                field=field,
                delta=self.delta,
                theta=self.theta,
                p=self.p,
                motion=Motion(self.motion),
                tau_max=self.tau_max,
                n_steps=self.steps,
                dt_internal=self.dt,
            )
        except ValueError as exc:  # FieldSpecError among them
            raise ConfigError(str(exc)) from exc


def _preflight(scenario: ScenarioConfig, config: SystemConfig, n_max: int) -> None:
    """Refuse, with ``ConfigError``, the ceilings that need a curve's photon
    cutoff: a closed-form curve whose phases overflow, and a numerically
    evolved curve over ``_MAX_SUBSTEPS`` substeps or ``_MAX_PHOTONS``
    photons.  A batch's members share one grid and one cutoff, so a curve's
    substep count is its evolve call's.  The count is a float, so a step far
    below the grid spacing cannot overflow.  A sqrt(2 n_max + 5), with A the
    largest pulse area, bounds both the largest ladder phase A sqrt(2 n + 3)
    and |<V>_0| A.  A moving atom's A is at most 2 / p, so only a neglected
    motion's can overflow: its area is tau, so A is tau_max."""
    if scenario.engine != "numeric" and config.motion is Motion.NEGLECTED:
        area = config.tau_max
        if not math.isfinite(area * math.sqrt(2.0 * n_max + 5.0)):
            raise ConfigError(
                f"the closed-form phases overflow: a pulse area of {area:.3g} "
                f"times the ladder frequency sqrt(2 n_max + 5) at n_max = "
                f"{n_max} is not a finite double; lower tau_max"
            )
    if scenario.engine != "analytic":
        substeps = config.substeps(n_max) * (config.n_steps - 1)
        if not substeps <= _MAX_SUBSTEPS:
            raise ConfigError(
                f"run too large: {substeps:.3g} substeps exceed the ceiling of "
                f"{_MAX_SUBSTEPS:.3g}; raise dt or lower tau_max"
            )
        if n_max > _MAX_PHOTONS:
            raise ConfigError(
                f"run too large: a photon cutoff of {n_max} exceeds the ceiling of "
                f"{_MAX_PHOTONS} for a numerically evolved curve; lower alpha"
            )


# ---------------------------------------------------------------------------
# presets (frozen parameter sets behind the published figure panels)

_PI4 = math.pi / 4.0
_RESONANT = dict(alpha=5.0, delta=0.0, r=0.0, motion="moving",
                 tau_max=8.0 * math.pi, steps=2000)
_DETUNED = dict(alpha=5.0, delta=20.0, theta=_PI4, tau_max=25.0, steps=2000)

PRESETS: dict[str, tuple[tuple[str, dict], ...]] = {
    "fig1a": (("", dict(_RESONANT, theta=0.0, p=1)),),
    "fig1b": (("", dict(_RESONANT, theta=_PI4, p=1)),),
    "fig2a": (("", dict(_RESONANT, theta=0.0, p=2)),),
    "fig2b": (("", dict(_RESONANT, theta=_PI4, p=2)),),
    "fig3a": (
        ("theta0", dict(_RESONANT, theta=0.0, p=1)),
        ("theta-pi4", dict(_RESONANT, theta=_PI4, p=1)),
    ),
    "fig3b": (
        ("theta0", dict(_RESONANT, theta=0.0, p=2)),
        ("theta-pi4", dict(_RESONANT, theta=_PI4, p=2)),
    ),
    "fig4a": (
        ("r0", dict(_DETUNED, r=0.0, motion="neglected", p=1)),
        ("r1", dict(_DETUNED, r=1.0, motion="neglected", p=1)),
    ),
    "fig4b": (
        ("r0", dict(_DETUNED, r=0.0, motion="moving", p=1)),
        ("r1", dict(_DETUNED, r=1.0, motion="moving", p=1)),
    ),
    "fig4c": (
        ("r0", dict(_DETUNED, r=0.0, motion="moving", p=2)),
        ("r1", dict(_DETUNED, r=1.0, motion="moving", p=2)),
    ),
    "fig5a": (("", dict(_RESONANT, theta=0.0, p=1)),),
    "fig5b": (("", dict(_RESONANT, theta=_PI4, p=1)),),
}


def list_presets() -> dict[str, tuple[tuple[str, dict], ...]]:
    """Preset names and their frozen parameter sets."""
    return PRESETS
