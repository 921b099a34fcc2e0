"""Catalog integrity and the SystemSpec container."""

import math

import pytest

from geothermo import dsl
from geothermo.errors import DomainViolation
from geothermo.systems import (PARTNERS, catalog, catalog_entry, catalog_ids,
                               closed_partner, domain_check, evaluate,
                               from_definition, get_system)

EXPECTED_IDS = ["ideal_s", "ideal_u", "ideal_F", "ideal_g", "vdw_s", "vdw_u",
                "vdw_F", "ising_f", "chap_s", "chap_u"]


def test_catalog_complete():
    assert catalog_ids() == EXPECTED_IDS
    for spec in catalog():
        assert spec.n == 2
        assert len(spec.sample_box) == spec.n
        # sample box must be in-domain
        center = [0.5 * (lo + hi) for lo, hi in spec.sample_box]
        assert domain_check(spec, center) == []


def test_ideal_s_values():
    spec = get_system("ideal_s")
    assert evaluate(spec, (1.0, 1.0)) == 0.0
    assert evaluate(spec, (math.e, 1.0)) == pytest.approx(1.5)


def test_vdw_s_value_and_domain():
    spec = get_system("vdw_s")
    expect = 1.5 * math.log(2.0 + 1.0 / 3.0) + math.log(2.0)
    assert evaluate(spec, (2.0, 3.0)) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(DomainViolation) as err:
        evaluate(spec, (2.0, 0.5))
    assert any("v > b" in v for v in err.value.violations)


def test_vdw_u_inverts_vdw_s():
    s_rep, u_rep = get_system("vdw_s"), get_system("vdw_u")
    for u, v in [(1.0, 2.0), (3.0, 4.5), (0.7, 1.8)]:
        s = evaluate(s_rep, (u, v))
        assert evaluate(u_rep, (s, v)) == pytest.approx(u, rel=1e-12)


def test_chap_log_of_sum_reading():
    spec = get_system("chap_s")   # alpha = beta = 1, s0 = C = 1
    assert evaluate(spec, (1.0, 1.0)) == pytest.approx(math.log(2.0))
    spec2 = get_system("chap_s", alpha=2.0)
    assert evaluate(spec2, (2.0, 1.0)) == pytest.approx(math.log(9.0))


def test_chap_u_inverts_chap_s():
    s_rep = get_system("chap_s", alpha=2.0, beta=1.0)
    u_rep = get_system("chap_u", alpha=2.0, beta=1.0)
    for u, v in [(1.5, 1.0), (2.0, 1.3)]:
        s = evaluate(s_rep, (u, v))
        assert evaluate(u_rep, (s, v)) == pytest.approx(u, rel=1e-12)


def test_param_override_recompiles():
    spec = get_system("vdw_s", a=2.0, b=0.5)
    assert spec.params == {"a": 2.0, "b": 0.5}
    expect = 1.5 * math.log(1.0 + 2.0 / 4.0) + math.log(3.5)
    assert evaluate(spec, (1.0, 4.0)) == pytest.approx(expect, rel=1e-14)


def test_param_override_parses_the_relation_once(monkeypatch):
    calls = []
    parse = dsl.parse_relation
    monkeypatch.setattr(dsl, "parse_relation",
                        lambda *a, **k: calls.append(a) or parse(*a, **k))
    get_system("vdw_s", a=2.0)
    assert len(calls) == 1


def test_param_override_unknown_name():
    with pytest.raises(KeyError):
        get_system("vdw_s", gamma=1.0)
    with pytest.raises(KeyError):
        get_system("nope")


def test_ising_spec_shape():
    spec = get_system("ising_f")
    assert spec.coord_names() == ("T", "H")
    assert all(c.role == "intensive" for c in spec.coords)
    assert spec.meta.get("already_total_legendre")
    # f(T, H) -> -H as T -> 0 (aligned ground state); check a small-T value
    assert evaluate(spec, (0.5, 1.0)) < -1.0


def test_catalog_entry_partners():
    entry = catalog_entry("vdw_u")
    assert entry.partners["inverse"] == ("vdw_s", 0)
    assert entry.partners["partial_legendre"][0] == "vdw_F"


def test_partner_links_join_catalog_systems_with_equal_defaults():
    # a closed-form partner inherits only the parameters the two share, so
    # closed-form invariance needs both ends to agree on every default
    for source, links in PARTNERS.items():
        targets = [links["inverse"][0],
                   *links.get("partial_legendre", {}).values()]
        if "total_legendre" in links:
            targets.append(links["total_legendre"])
        for target in targets:
            assert get_system(target).params == get_system(source).params


def test_closed_partner_carries_shared_parameters():
    spec = get_system("chap_s", alpha=2.0)
    partner = closed_partner(spec, "inverse", 0)
    assert partner.id == "chap_u"
    assert partner.params == spec.params
    assert closed_partner(spec, "inverse", 1) is None
    assert closed_partner(spec, "partial_legendre", 0) is None
    assert closed_partner(get_system("ideal_u"), "total_legendre").id \
        == "ideal_g"


def test_closed_partner_only_for_the_catalog_relation():
    doc = {"id": "vdw_s", "coords": [{"name": "u"}, {"name": "v"}],
           "excluded_index": "u", "relation": "u + 2*v",
           "params": {"a": 1.0, "b": 1.0}}
    assert closed_partner(from_definition(doc), "inverse", 0) is None
    # the catalog relation on other coordinates is not the catalog system
    doc["relation"] = get_system("vdw_s").meta["relation"]
    doc["coords"] = [{"name": "u"}, {"name": "v", "role": "intensive"}]
    assert closed_partner(from_definition(doc), "inverse", 0) is None


def test_from_definition():
    doc = {
        "id": "toy",
        "coords": [{"name": "x"}, {"name": "y", "role": "intensive"}],
        "potential_name": "phi",
        "excluded_index": "x",
        "params": {"k": 2.0},
        "domain": ["x > 0"],
        "relation": "k*ln(x) + y^2",
        "sample_box": [[0.5, 2.0], [0.5, 2.0]],
    }
    spec = from_definition(doc)
    assert spec.excluded_index == 0
    assert evaluate(spec, (1.0, 3.0)) == pytest.approx(9.0)
    with pytest.raises(DomainViolation):
        evaluate(spec, (-1.0, 1.0))


def test_from_definition_validation():
    base = {"id": "bad", "coords": [{"name": "x"}, {"name": "x"}],
            "excluded_index": "x", "relation": "x"}
    with pytest.raises(ValueError):
        from_definition(base)
    base = {"id": "bad", "coords": [{"name": "x"}, {"name": "y"}],
            "excluded_index": "z", "relation": "x + y"}
    with pytest.raises(ValueError):
        from_definition(base)


def test_domain_check_dimension_mismatch():
    with pytest.raises(ValueError):
        domain_check(get_system("ideal_s"), (1.0,))
