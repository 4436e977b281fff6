import itertools
from dataclasses import replace

import pytest

from ddcrit.criticality import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    _lowered,
    _minimum_sets,
    check_lemma45_profile,
    check_observation1,
    criticality_report,
)
from ddcrit.constructions import h_6t, h_r33, h_r33_triple
from ddcrit.domination import all_minimum_dds
from ddcrit.graphs import Graph, add_edge, components, is_connected, min_degree, to_graph6
from oracles import (
    per_augmentation_lemma45_profile,
    per_augmentation_minimum_sets,
    per_augmentation_observation1,
    per_edge_criticality_report,
)


def test_p4_is_critical_with_value_4():
    report = criticality_report(Graph.path(4))
    assert report.gamma2 == 4
    assert report.is_critical and not report.vacuous
    assert all(e.drop >= 1 for e in report.per_nonedge)


def test_complete_graph_is_vacuously_critical():
    report = criticality_report(Graph.complete(5))
    assert report.vacuous and report.is_critical
    assert report.per_nonedge == ()
    assert report.gamma2 == 2


def test_sharpness_example_is_critical():
    report = criticality_report(h_6t(3))
    assert report.is_critical and report.gamma2 == 4


def test_preconditions():
    with pytest.raises(ValueError):
        criticality_report(Graph.from_edges(2, []))  # isolated vertices
    with pytest.raises(ValueError):
        criticality_report(Graph.from_edges(4, [(0, 1), (2, 3)]))  # disconnected


def test_report_consistency(connected_small):
    sample = [g for g in connected_small if g.n == 5]
    for g in sample:
        if min_degree(g) < 1:
            continue
        report = criticality_report(g)
        assert all(e.drop >= 0 for e in report.per_nonedge)
        assert report.is_critical == (
            report.vacuous or min(e.drop for e in report.per_nonedge) >= 1
        )


def test_observation1_on_small_critical_graphs():
    for g in (Graph.path(4), h_r33(3), Graph.cycle(5)):
        report = criticality_report(g)
        if report.is_critical:
            assert check_observation1(g, report).ok


def test_observation1_drop2_clause_binds():
    # 6-vertex corpus graph whose augmentations can lower the number by two;
    # every minimum set of such an augmentation must contain both endpoints
    from ddcrit.graphs import from_graph6

    g = from_graph6("E@UW")
    report = criticality_report(g)
    drop2 = [e for e in report.per_nonedge if e.drop == 2]
    assert report.is_critical and drop2
    for u, v, after, _ in drop2:
        for dds in all_minimum_dds(add_edge(g, u, v)):
            assert len(dds) == after and u in dds and v in dds
    assert check_observation1(g, report).ok


def test_observation1_requires_critical_graph():
    c6 = Graph.cycle(6)
    assert not criticality_report(c6).is_critical
    with pytest.raises(ValueError):
        check_observation1(c6)


def test_lemma45_profile_on_family_graph():
    g = h_r33(3)
    cut = h_r33_triple(3)
    # components of the cut graph are the clique and the triangle
    comps = components(g, cut)
    assert sorted(len(c) for c in comps) == [3, 3]
    result = check_lemma45_profile(g, cut, 0, 3)
    assert result.status == PASS and result.mode == "two-large-components"


def test_lemma45_profile_many_components_mode():
    # the 3-leaf star is edge critical with value 4, and removing its center
    # leaves three components, so the single-endpoint profile applies
    star = Graph.star(3)
    report = criticality_report(star)
    assert report.is_critical and report.gamma2 == 4
    result = check_lemma45_profile(star, {0}, 1, 2, report)
    assert result.status == PASS and result.mode == "many-components"


def test_report_and_minimum_set_checks_share_one_walk():
    star = Graph.star(3)
    _lowered.cache_clear()
    report = criticality_report(star)
    assert check_observation1(star, report).ok
    for x, y in ((1, 2), (1, 3), (2, 3)):
        assert check_lemma45_profile(star, {0}, x, y, report).status == PASS
    info = _lowered.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_lemma45_profile_guard_case():
    # cutting the middle of a path leaves two singletons: neither hypothesis fits
    result = check_lemma45_profile(Graph.path(4), {1, 2}, 0, 3)
    assert result.status == NOT_APPLICABLE


def test_lemma45_profile_errors():
    g = h_r33(3)
    with pytest.raises(ValueError):
        check_lemma45_profile(g, {0, 1}, 2, 3)  # not a cutset
    with pytest.raises(ValueError):
        check_lemma45_profile(g, h_r33_triple(3), 0, 1)  # same component
    with pytest.raises(ValueError):
        check_lemma45_profile(Graph.cycle(6), {0, 3}, 1, 4)  # not 4-critical


def _lemma45_cases(connected_small):
    """(graph, cut, x, y, report) for every cutset of every 4-critical graph
    on at most 7 vertices, x and y the least vertices of two components."""
    for g in connected_small:
        if g.n > 7 or min_degree(g) < 1:
            continue
        report = criticality_report(g)
        if not (report.is_critical and report.gamma2 == 4):
            continue
        for size in range(1, g.n - 1):
            for cut in itertools.combinations(range(g.n), size):
                comps = components(g, frozenset(cut))
                if len(comps) < 2:
                    continue
                x = min(comps[0])
                for other in comps[1:]:
                    yield g, frozenset(cut), x, min(other), report


def test_lemma45_profile_universal_small(connected_small):
    # every cutset of a 4-critical graph fits one of the two profiles
    for g, cut, x, y, report in _lemma45_cases(connected_small):
        result = check_lemma45_profile(g, cut, x, y, report)
        assert result.status in (PASS, NOT_APPLICABLE)


def test_lemma45_profile_matches_per_augmentation_oracle(connected_small):
    cases = 0
    for g, cut, x, y, report in _lemma45_cases(connected_small):
        assert check_lemma45_profile(g, cut, x, y, report) == per_augmentation_lemma45_profile(g, cut, x, y, report)
        cases += 1
    assert cases > 0


# -- the one-pass walk against the per-edge solver ------------------------------


@pytest.fixture(scope="module")
def reports_upto_8(connected_upto_8):
    """(graph, report) for every connected graph on 2..8 vertices."""
    return [(g, criticality_report(g)) for g in connected_upto_8 if g.n > 1]


def test_per_nonedge_matches_per_edge_oracle(reports_upto_8):
    assert len(reports_upto_8) == 12112
    mismatches = [to_graph6(g) for g, report in reports_upto_8 if report != per_edge_criticality_report(g)]
    assert not mismatches


def test_walk_finds_every_minimum_set_of_each_augmentation(reports_upto_8):
    critical = [(g, report) for g, report in reports_upto_8 if report.is_critical]
    assert len(critical) == 224
    for g, report in critical:
        assert _minimum_sets(g, report) == per_augmentation_minimum_sets(g)


def test_observation1_matches_per_augmentation_oracle(reports_upto_8):
    for g, report in reports_upto_8:
        if not report.is_critical:
            continue
        assert check_observation1(g, report) == per_augmentation_observation1(g, report)
        # a report that claims every drop is two makes the drop-2 clause fail
        # on the first set missing an endpoint, so both must name the same one
        claimed = replace(report, per_nonedge=tuple(e._replace(drop=2) for e in report.per_nonedge))
        assert check_observation1(g, claimed) == per_augmentation_observation1(g, claimed)
