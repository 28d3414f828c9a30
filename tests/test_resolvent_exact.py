"""The resolvent difference against an exact rational oracle, at every beta."""

import pytest

import support as S
from lapcoarse.coarsen import coarsen
from lapcoarse.harness import resolvent_diff, sweep
from oracles import _identity, _product, _transposed, exact_resolvent, exact_resolvent_diff

MODES = ["undirected", "in", "out"]
EXACT_BETAS = [1e4, 1e6, 1e8, 1e10]


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


@pytest.mark.parametrize("mode", MODES)
def test_the_exact_oracle_meets_its_identities(mode):
    for graph, cs in S.exact_cases(mode, count=3):
        exact = exact_resolvent(graph, cs, mode, 1e6, -1.0 + 0.5j)
        assert is_zero(_product(exact.a, exact.right))
        assert is_zero(_product(_transposed(exact.left), exact.a))
        assert _product(exact.down, exact.right) == _identity(len(exact.down))
        assert _product(exact.resolvent, exact.shifted) == _identity(2 * graph.n)
        # the null space has one vector per reduced node
        assert len(exact.down) == coarsen(graph, cs, mode).size


@pytest.mark.parametrize("mode", MODES)
def test_resolvent_diffs_match_the_exact_oracle_at_every_beta(mode):
    for graph, cs in S.exact_cases(mode):
        result = coarsen(graph, cs, mode)
        for z in (-1.0, -1.0 + 0.5j):
            report = sweep(graph, cs, mode, EXACT_BETAS, z=z, result=result)
            for beta, diff in zip(EXACT_BETAS, report.diffs):
                want = exact_resolvent_diff(graph, cs, mode, beta, z)
                one = resolvent_diff(graph, cs, mode, beta, z, result=result)
                for got in (diff, one):
                    assert abs(got - want) <= S.TOL_EXACT * want, (graph.nodes, z, beta, got, want)
