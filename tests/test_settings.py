"""The settable surface, pinned: a new setting shows up as a diff here.

Everything else (the node grid, the ray end, the tau cap and floor, the
Lemma 2.1 grid, the witness count) is a module constant; the README's
"Settings" paragraph says where each one lives.
"""

import dataclasses
import inspect
import json

from tauberlab import ContourPath, QuadratureConfig, SmoothedGrowth, SuiteConfig


def _fields(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def test_settable_values():
    assert _fields(SuiteConfig) == ["rate", "x_range", "checks", "quad_config"]
    assert _fields(QuadratureConfig) == ["abs_tol", "rel_tol"]
    assert _fields(ContourPath) == ["R0", "quad_config"]
    assert list(inspect.signature(SmoothedGrowth.__init__).parameters) == ["self", "target"]


def test_default_echo_bytes():
    # the report's config block prints the fixed constants as it printed
    # the settings they replace
    assert json.dumps(SuiteConfig().echo()) == (
        '{"rate": {"kind": "log"}, "x_range": [10.0, 60.0], "n_witnesses": 10, '
        '"checks": ["lemma21", "lemma22", "continuation", "residue", "witness_s", '
        '"witness_tau"], "quadrature": {"abs_tol": 1e-08, "rel_tol": 1e-10, '
        '"tail_cutoff": 100000.0}, "grid": {"lo": 1.0, "hi": 1000000.0, "points": 60, '
        '"scale": "log"}}'
    )
