"""Tests for the MIP placement formulations and their variants."""

import gc
import weakref

import pytest

from repro.optim.errors import InfeasibleError, NoIncumbentError, SolverError
from repro.passive import (
    PPMProblem,
    expected_gain,
    solve_arc_path_ilp,
    solve_budget_limited,
    solve_greedy,
    solve_ilp,
    solve_incremental,
    solve_max_coverage,
)
from repro.topology import paper_pop
from repro.topology.pop import link_key
from repro.traffic import generate_traffic_matrix


class TestCompactILP:
    def test_figure3_optimum_is_two_devices(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        result = solve_ilp(problem)
        assert result.num_devices == 2
        assert set(result.monitored_links) == {link_key("u1", "u3"), link_key("u2", "u4")}
        assert result.meets_target

    def test_coverage_constraint_is_respected(self, small_traffic):
        for coverage in (0.75, 0.9, 1.0):
            problem = PPMProblem(small_traffic, coverage=coverage)
            result = solve_ilp(problem)
            assert result.coverage >= coverage - 1e-9

    def test_monotone_in_coverage(self, small_traffic):
        counts = [
            solve_ilp(PPMProblem(small_traffic, coverage=k)).num_devices
            for k in (0.75, 0.85, 0.95, 1.0)
        ]
        assert counts == sorted(counts)

    def test_agrees_with_arc_path_formulation(self, figure3_matrix, small_traffic):
        for matrix, coverage in ((figure3_matrix, 1.0), (small_traffic, 0.85)):
            problem = PPMProblem(matrix, coverage=coverage)
            compact = solve_ilp(problem)
            arc_path = solve_arc_path_ilp(problem)
            assert compact.num_devices == arc_path.num_devices

    def test_backends_agree(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        assert (
            solve_ilp(problem, backend="scipy").num_devices
            == solve_ilp(problem, backend="branch-and-bound").num_devices
        )

    @pytest.mark.parametrize(
        "option", ["pricing", "decomposition", "check", "cuts", "max_cut_rounds", "gap_tol"]
    )
    def test_retired_solver_options_are_unknown(self, figure3_matrix, option):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        with pytest.raises(SolverError, match="does not recognize"):
            solve_ilp(problem, backend="branch-and-bound", **{option: "auto"})

    def test_never_worse_than_greedy(self, small_traffic):
        problem = PPMProblem(small_traffic, coverage=0.95)
        assert solve_ilp(problem).num_devices <= solve_greedy(problem).num_devices


    def test_limit_without_incumbent_raises_a_typed_error(self):
        # The deadline expires before branch and bound finds any point: the
        # wrapper's value read must name the status, not die on a bare
        # KeyError for the first variable.
        matrix = generate_traffic_matrix(paper_pop("pop10", seed=0), seed=0)
        problem = PPMProblem(matrix, coverage=0.9)
        with pytest.raises(NoIncumbentError, match="time_limit"):
            solve_ilp(problem, backend="branch-and-bound", time_limit=1e-9)


class TestIncrementalPlacement:
    def test_fixed_links_are_kept(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        fixed = [link_key("u1", "u2")]
        result = solve_incremental(problem, existing_links=fixed)
        assert link_key("u1", "u2") in result.monitored_links
        assert result.meets_target
        # The forced suboptimal device can only make the total larger or equal.
        assert result.num_devices >= solve_ilp(problem).num_devices

    def test_new_device_count_excludes_fixed(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        fixed = [link_key("u1", "u2")]
        result = solve_incremental(problem, existing_links=fixed)
        assert result.num_new_devices == result.num_devices - 1

    def test_unknown_fixed_link_rejected(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        with pytest.raises(ValueError):
            solve_ilp(problem, fixed_links=[("ghost", "link")])


class TestBudgetVariants:
    def test_budget_limited_respects_cap(self, small_traffic):
        problem = PPMProblem(small_traffic, coverage=0.8)
        unconstrained = solve_ilp(problem)
        result = solve_budget_limited(problem, max_devices=unconstrained.num_devices)
        assert result.num_devices <= unconstrained.num_devices
        assert result.meets_target

    def test_budget_too_small_raises(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        with pytest.raises(InfeasibleError):
            solve_budget_limited(problem, max_devices=1)

    def test_budget_below_fixed_devices_raises(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        with pytest.raises(InfeasibleError):
            solve_ilp(problem, fixed_links=[("u1", "u2"), ("u1", "u3")], max_devices=1)

    def test_max_coverage_with_budget(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        one = solve_max_coverage(problem, max_devices=1)
        two = solve_max_coverage(problem, max_devices=2)
        assert one.num_devices <= 1
        assert one.coverage == pytest.approx(4 / 6)  # the load-4 link
        assert two.coverage == pytest.approx(1.0)

    def test_max_coverage_zero_budget(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        result = solve_max_coverage(problem, max_devices=0)
        assert result.num_devices == 0
        assert result.coverage == 0.0

    def test_max_coverage_invalid_budget(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        with pytest.raises(ValueError):
            solve_max_coverage(problem, max_devices=-1)
        with pytest.raises(ValueError):
            solve_max_coverage(problem, max_devices=0, fixed_links=[("u1", "u2")])


class TestExpectedGain:
    def test_gain_is_nonnegative_and_consistent(self, small_traffic):
        problem = PPMProblem(small_traffic, coverage=1.0)
        existing = problem.candidate_links[:2]
        report = expected_gain(problem, existing, new_devices=2)
        assert report["gain"] >= -1e-9
        assert report["coverage_after"] == pytest.approx(
            report["coverage_before"] + report["gain"]
        )
        assert report["devices_after"] <= report["devices_before"] + 2

    def test_zero_new_devices_gain_is_zero(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        existing = [link_key("u1", "u2")]
        report = expected_gain(problem, existing, new_devices=0)
        assert report["gain"] == pytest.approx(0.0, abs=1e-9)

    def test_negative_new_devices_rejected(self, figure3_matrix):
        problem = PPMProblem(figure3_matrix, coverage=1.0)
        with pytest.raises(ValueError):
            expected_gain(problem, [], new_devices=-1)


class TestPPMSessionCache:
    """The per-problem session cache behind solve_ilp / solve_incremental."""

    def test_repeated_incremental_solves_share_one_session(self, small_traffic):
        from repro.passive import ilp as ilp_module

        problem = PPMProblem(small_traffic, coverage=0.9)
        base = solve_ilp(problem)
        solve_incremental(problem, base.monitored_links[:1])
        solve_incremental(problem, base.monitored_links[:2])
        sessions = [
            entry[1]
            for per_problem in [ilp_module._ppm_sessions[problem]]
            for entry in per_problem.values()
        ]
        assert len(sessions) == 1  # one lowered model served every variant
        assert sessions[0].solves == 3

    def test_cached_session_dies_with_its_problem(self, small_traffic):
        # The cache is weak in its problem, so the cached session must not
        # hold the problem strongly, or every solve_ilp problem (and its
        # lowered model) lives for the rest of the process.
        problem = PPMProblem(small_traffic, coverage=0.9)
        solve_ilp(problem)
        alive = weakref.ref(problem)
        del problem
        gc.collect()
        assert alive() is None  # and with it the cache entry

    def test_mutated_problem_invalidates_cached_session(self, small_traffic):
        # PPMProblem is mutable; a changed coverage target must not be
        # served a stale cached lowering (regression test).
        problem = PPMProblem(small_traffic, coverage=0.4)
        low = solve_ilp(problem)
        problem.coverage = 0.95
        high = solve_ilp(problem)
        assert high.num_devices > low.num_devices
        assert high.coverage >= 0.95 - 1e-9


class TestPPMSessionBuild:
    """The session build reads each traffic's links and volume once and shares them."""

    @staticmethod
    def _problem(matrix):
        links = matrix.links
        return PPMProblem(matrix, coverage=0.9, candidate_links=links[: 2 * len(links) // 3])

    def test_build_reads_each_traffics_links_once(self, small_traffic, monkeypatch):
        from repro.passive.ilp import PPMSession
        from repro.traffic.demands import Traffic

        problem = self._problem(small_traffic)
        reads = [0]
        links = Traffic.links

        def counted(traffic):
            reads[0] += 1
            return links.fget(traffic)

        monkeypatch.setattr(Traffic, "links", property(counted))
        PPMSession(problem, backend="simplex")
        assert reads[0] == len(problem.traffic)

    def test_build_reads_each_traffics_volume_once(self, small_traffic, monkeypatch):
        # Traffic.volume re-sums the routes on every read: the coverage row,
        # its right-hand side and the colgen hints share one read per traffic
        # and lower the same numbers as reading each afresh.
        from repro.passive.ilp import PPMSession
        from repro.traffic.demands import Traffic

        problem = self._problem(small_traffic)
        expected_rhs = -problem.required_volume
        expected_coeffs = [-t.volume for t in problem.traffic]
        reads = [0]
        volume = Traffic.volume

        def counted(traffic):
            reads[0] += 1
            return volume.fget(traffic)

        monkeypatch.setattr(Traffic, "volume", property(counted))
        session = PPMSession(problem, backend="simplex")
        assert reads[0] == len(problem.traffic)
        form = session._session.form
        row = form.row_map["coverage"][1]
        assert form.b_ub[row] == expected_rhs
        n_links = len(problem.candidate_links)
        coeffs = [form.A_ub.get(row, n_links + j) for j in range(len(problem.traffic))]
        assert coeffs == expected_coeffs

    def test_column_universe_follows_the_traffic_links(self, small_traffic):
        from repro.passive.ilp import _crossing_links, lp2_column_universe

        problem = self._problem(small_traffic)
        candidates = set(problem.candidate_links)
        volumes = [t.volume for t in problem.traffic]
        columns = list(lp2_column_universe(problem, _crossing_links(problem), volumes))
        n_links = len(problem.candidate_links)
        assert len(columns) == n_links + len(problem.traffic)
        for link, col in zip(problem.candidate_links, columns[:n_links]):
            crossing = tuple(t.traffic_id for t in problem.traffic if link in t.links)
            assert col.crossing == crossing
            assert col.volume == pytest.approx(sum(problem.traffic[t].volume for t in crossing))
        for traffic, col in zip(problem.traffic, columns[n_links:]):
            assert col.crossing == tuple(l for l in traffic.links if l in candidates)
            assert col.volume == traffic.volume
