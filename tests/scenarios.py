"""The paper's two runs as the suite builds them: from the built-in texts."""

from heolsim.scenario_cli import (
    BUILTIN_SCENARIOS,
    apply_override,
    build_scenario,
    parse_config_text,
)
from heolsim.sim_engine import ScenarioConfig


def builtin(name: str, **keys) -> ScenarioConfig:
    """The built-in scenario ``name`` with each config key of ``keys`` set
    as ``heolsim run --set key=value`` sets it, e.g.
    ``builtin("otter_circle", duration=10, **{"heol.T": 0.3})``."""
    raw = parse_config_text(BUILTIN_SCENARIOS[name])
    for key, value in keys.items():
        apply_override(raw, f"{key}={value}")
    return build_scenario(raw)[0]
