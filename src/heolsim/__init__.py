"""Guidance and control toolkit for underactuated surface vehicles.

Combines an exact feedforward derived from the flat outputs of the
decoupled-yaw vessel model with a model-free outer loop that estimates and
cancels unmodeled disturbances online, plus a heading autopilot, a
fixed-step simulation engine and a scenario CLI.  Library names are
imported from their modules, e.g. ``from heolsim.sim_engine import
run_scenario``.
"""

__version__ = "0.1.0"
