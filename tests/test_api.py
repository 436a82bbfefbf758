"""The public surface, and the entry points the benchmark tracer wraps.

perfbench/spans.py wraps each layer's entry points by name and skips a
name that no longer exists without an error, so a rename would silently
drop that layer from the benchmark's per-layer numbers.  This test makes
such a rename fail here instead.
"""

import importlib
import inspect

import pairdeploy

MODULES = ("sampling", "scheme", "graphs", "theory", "montecarlo", "cli")

TRACED = {
    "sampling": ("sample_pairing_block",),
    "graphs": ("connected_at",),
    "montecarlo": ("run_sweep", "run_phased_detail", "run_keyring_census"),
    "theory": (
        "isolation_threshold",
        "maxring_critical_scale",
        "upper_tail_root",
        "tail_exponents",
        "isolation_prob_exact",
        "expected_isolated",
        "isolation_event_prob",
        "connectivity_union_bound",
        "connectivity_lower_bound_full",
        "maxring_tail_bound",
    ),
}


def test_public_names_and_traced_entry_points_resolve():
    missing = [name for name in pairdeploy.__all__ if not hasattr(pairdeploy, name)]
    for mod in MODULES:
        module = importlib.import_module(f"pairdeploy.{mod}")
        exported = getattr(module, "__all__", ())
        missing += [f"{mod}.{name}" for name in exported if not hasattr(module, name)]
    for mod, names in TRACED.items():
        module = importlib.import_module(f"pairdeploy.{mod}")
        for name in names:
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                missing.append(f"{mod}.{name}")
    assert missing == []
