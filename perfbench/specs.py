"""What every workload builds at set-up, and what ``setup_s`` times.

Set-up is importing the package and building the specs the point-query
stream uses: the ten catalog systems, one custom system loaded through
``from_definition``, and two numerically derived representations whose
construction runs the monotonicity sampling in ``transforms``.
"""

from __future__ import annotations

# A relation that is not in the catalog: no closed form exists for it in the
# package, so the gate checks it against ``reference.ricci_2d``.
CUSTOM_SYSTEM = {
    "id": "custom_mix",
    "coords": [{"name": "x"}, {"name": "y"}],
    "excluded_index": "x",
    "params": {"k": 1.5, "m": 0.5},
    "domain": ["x > 0", "y > 0"],
    "relation": "k*ln(x) + ln(y) + m*ln(x + 2*y)",
    "sample_box": [[0.5, 3.0], [0.5, 3.0]],
}


def build():
    """Import geothermo and build every spec a workload queries by name."""
    from geothermo import (catalog_ids, from_definition, get_system,
                           invert_representation, partial_legendre)
    import geothermo.analysis  # noqa: F401  (loaded here, not in a timed loop)
    import geothermo.cli  # noqa: F401

    specs = {sid: get_system(sid) for sid in catalog_ids()}
    specs["custom"] = from_definition(CUSTOM_SYSTEM)
    specs["inv_vdw_s"] = invert_representation(specs["vdw_s"], 0,
                                               solve="newton")
    specs["pl_vdw_u"] = partial_legendre(specs["vdw_u"], 0, solve="newton")
    return specs
