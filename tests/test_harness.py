
import pytest

from induniv.errors import ArgumentError, BudgetError
from induniv.graphs import Graph
from induniv.harness import (
    FamilySpec,
    canonical_key,
    enumerate_family,
    size_report,
    universality_sweep,
)
from oracles import atlas_bounded_degree_counts, oracle_class_count, oracle_labeled_family


# -- enumeration ------------------------------------------------------------------


def test_dedup_counts_match_atlas():
    atlas = atlas_bounded_degree_counts(3)
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_family(FamilySpec(n, 3))) == atlas[n]
    atlas2 = atlas_bounded_degree_counts(2)
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_family(FamilySpec(n, 2))) == atlas2[n]


def test_dedup_counts_match_networkx_matcher():
    for n, delta in ((4, 3), (5, 2)):
        ours = sum(1 for _ in enumerate_family(FamilySpec(n, delta)))
        labeled = oracle_labeled_family(n, delta)
        assert ours == oracle_class_count(labeled)


def test_dedup_representatives_not_isomorphic():
    reps = list(enumerate_family(FamilySpec(5, 3)))
    keys = {canonical_key(g) for g in reps}
    assert len(keys) == len(reps)


def test_canonical_key_invariant_under_relabeling():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    relabeled = Graph(5, [(3, 2), (2, 0), (0, 4), (4, 1), (1, 3)])
    assert canonical_key(g) == canonical_key(relabeled)


def test_enumeration_guards():
    with pytest.raises(BudgetError):
        list(enumerate_family(FamilySpec(9, 3)))
    with pytest.raises(ArgumentError):
        FamilySpec(0, 3)


# -- sweeps -----------------------------------------------------------------------


def test_sweep_delta_zero_trivial(desk_params2):
    report = universality_sweep(FamilySpec(4, 0), desk_params2)
    assert report.total == 1 and report.ok


def test_sweep_small_family(desk_params2):
    report = universality_sweep(FamilySpec(4, 2), desk_params2)
    assert report.total == 7
    assert report.ok


def test_sweep_rejects_oversized_delta(desk_params2):
    with pytest.raises(ArgumentError):
        universality_sweep(FamilySpec(4, 3), desk_params2)


def test_sweep_monotone_under_larger_shield_block(desk_params2):
    # replacing the shield expander with a strictly larger certified one
    # must not turn any success into failure
    pytest.importorskip("scipy")
    from induniv.gamma import DeskConfig, make_gamma_params

    big = make_gamma_params(2, 30, DeskConfig(rz_pq=(5, 61)))
    small_report = universality_sweep(FamilySpec(4, 2), desk_params2)
    big_report = universality_sweep(FamilySpec(4, 2), big)
    assert small_report.ok
    assert big_report.ok


# -- size report -------------------------------------------------------------------


def test_size_report_shape():
    report = size_report([2, 3], [100, 10_000, 1_000_000])
    assert len(report["rows"]) == 6
    for row in report["rows"]:
        assert row["ratio_log10"] == pytest.approx(
            row["count_log10"] - row["lower_bound_log10"])
    assert set(report["ratio_spread_log10"]) == {"2", "3"}


def test_size_report_ratio_is_stable():
    report = size_report([2], [10**k for k in range(2, 9)])
    assert report["ratio_spread_log10"]["2"] < 1.0


def test_size_report_guards():
    with pytest.raises(ArgumentError):
        size_report([2], [0])
    with pytest.raises(ArgumentError):
        size_report([1], [100])
