import numpy as np
import pytest

from finecert.cycle import (
    MembraneLayout,
    chamber_distribution,
    component_state,
    component_states,
    cycle_config,
    delta_w,
    haar_random_basis,
    scan_bases,
    singleton_arguments,
    work_extraction_w1,
    work_retrieval_w2,
)
from finecert.bounds import mub_pair_bound
from finecert.numerics import binary_entropy, hermitian_eig, projector, shannon_entropy, von_neumann_entropy


def xlogx(v: float) -> float:
    return 0.0 if v <= 0.0 else v * np.log2(v)


def outcome_probabilities(basis, comps):
    return np.array(
        [[float(np.real(e.conj() @ rho @ e)) for e in basis] for rho in comps]
    )


def w1_nine_term_oracle(priors, basis, comps):
    """Independent bookkeeping oracle for d=3 with the default layout:
    the explicit nine-term chamber expression, written out term by term."""
    p = priors
    prob = outcome_probabilities(basis, comps)
    out = p @ prob
    total = -sum(xlogx(v) for v in p) - sum(xlogx(v) for v in out)
    total += xlogx(p[1] * prob[1][0] + p[2] * prob[2][0])
    total += xlogx(p[1] * prob[1][1] + p[2] * prob[2][1])
    total += xlogx(p[0] * prob[0][2] + p[1] * prob[1][2])
    total += xlogx(p[0] * prob[0][0])
    total += xlogx(p[0] * prob[0][1])
    total += xlogx(p[2] * prob[2][2])
    return total


# ---------------------------------------------------------------- components


def test_component_state_entropy_d3():
    rho = component_state(3, 0)
    expected = binary_entropy(0.5 + 0.5 / np.sqrt(3.0))
    assert abs(von_neumann_entropy(rho) - expected) <= 1e-12
    lam = hermitian_eig(rho).values
    np.testing.assert_allclose(
        lam,
        [0.0, 0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)],
        atol=1e-12,
    )


def test_component_states_trace_and_mixture():
    for d in (2, 3, 5, 7, 11, 13):
        comps = component_states(d)
        for rho in comps:
            assert abs(float(np.trace(rho).real) - 1.0) <= 1e-14
        avg = sum(comps) / d
        assert float(np.max(np.abs(avg - np.eye(d) / d))) <= 1e-12


def test_component_state_rejects_bad_index():
    with pytest.raises(ValueError, match="index"):
        component_state(3, 3)
    with pytest.raises(ValueError, match="prime"):
        component_state(4, 0)
    with pytest.raises(ValueError, match=r"component index 2\.7 is not an integer"):
        component_state(5, 2.7)
    assert component_state(5, np.int64(2)).tobytes() == component_states(5)[2].tobytes()


# ---------------------------------------------------------------- layouts


def test_paper_preset_matches_d3_grouping():
    layout = MembraneLayout.paper_preset(3)
    assert layout.groups == (((1, 2), (0,)), ((1, 2), (0,)), ((0, 1), (2,)))
    assert layout.singletons == (0, 0, 2)


def test_symmetric_preset():
    layout = MembraneLayout.symmetric_preset(3)
    assert layout.singletons == (0, 1, 2)
    assert layout.groups[1] == ((0, 2), (1,))


def test_layout_validation():
    bad = MembraneLayout(name="bad", groups=(((0,), (0, 1)), ((0, 1, 2),), ((0, 1, 2),)))
    with pytest.raises(ValueError, match="partition"):
        cycle_config(3, layout=bad)


# ---------------------------------------------------------------- chambers


def test_chamber_distribution_paper_preset_uniform():
    cfg = cycle_config(3)
    chambers = chamber_distribution(cfg, component_states(3))
    assert len(chambers) == 6
    weights = {(j, g): w for j, g, w in chambers}
    assert abs(weights[(0, (1, 2))] - 1.0 / 9.0) <= 1e-12
    assert abs(weights[(0, (0,))] - 2.0 / 9.0) <= 1e-12
    assert abs(weights[(1, (1, 2))] - 5.0 / 18.0) <= 1e-12
    assert abs(weights[(1, (0,))] - 1.0 / 18.0) <= 1e-12
    assert abs(weights[(2, (0, 1))] - 1.0 / 9.0) <= 1e-12
    assert abs(weights[(2, (2,))] - 2.0 / 9.0) <= 1e-12
    # each outcome carries total weight 1/3 for uniform priors
    for j in range(3):
        total = sum(w for (jj, _), w in weights.items() if jj == j)
        assert abs(total - 1.0 / 3.0) <= 1e-12


def test_chamber_distribution_finest_layout():
    cfg = cycle_config(3, layout=MembraneLayout.finest(3))
    comps = component_states(3)
    prob = outcome_probabilities(cfg.basis, comps)
    chambers = chamber_distribution(cfg, comps)
    assert len(chambers) == 9
    for j, group, w in chambers:
        (i,) = group
        assert abs(w - prob[i][j] / 3.0) <= 1e-12


def test_chamber_distribution_merged_layout():
    cfg = cycle_config(3, layout=MembraneLayout.merged(3))
    chambers = chamber_distribution(cfg, component_states(3))
    assert len(chambers) == 3
    for _, _, w in chambers:
        assert abs(w - 1.0 / 3.0) <= 1e-12


def test_chamber_weights_sum_to_one_on_random_bases():
    rng = np.random.default_rng(61)
    comps = component_states(5)
    for layout in (MembraneLayout.paper_preset(5), MembraneLayout.symmetric_preset(5), MembraneLayout.finest(5)):
        for _ in range(20):
            cfg = cycle_config(5, basis=haar_random_basis(5, rng), layout=layout)
            total = sum(w for _, _, w in chamber_distribution(cfg, comps))
            assert abs(total - 1.0) <= 1e-9


# ---------------------------------------------------------------- work terms


def test_w1_matches_nine_term_oracle():
    rng = np.random.default_rng(71)
    comps = component_states(3)
    for _ in range(100):
        priors = rng.random(3)
        priors /= priors.sum()
        basis = haar_random_basis(3, rng)
        cfg = cycle_config(3, priors=priors, basis=basis)
        direct = w1_nine_term_oracle(priors, basis, comps)
        assert abs(work_extraction_w1(cfg, comps) - direct) <= 1e-10


def test_w1_identical_components_merged_layout():
    rho = component_state(3, 0)
    comps = [rho, rho, rho]
    priors = np.array([0.5, 0.3, 0.2])
    rng = np.random.default_rng(77)
    cfg = cycle_config(3, priors=priors, basis=haar_random_basis(3, rng), layout=MembraneLayout.merged(3))
    assert abs(work_extraction_w1(cfg, comps) - shannon_entropy(priors)) <= 1e-12


def test_w2_closed_form_uniform():
    for d in (3, 5):
        cfg = cycle_config(d)
        expected = np.log2(d) - binary_entropy(0.5 + 0.5 / np.sqrt(d))
        assert abs(work_retrieval_w2(cfg, component_states(d)) - expected) <= 1e-10


def test_w2_pure_components():
    comps = [projector(v) for v in np.eye(3)]
    priors = np.array([0.5, 0.25, 0.25])
    cfg = cycle_config(3, priors=priors)
    # S(average) with zero component entropies
    assert abs(work_retrieval_w2(cfg, comps) - shannon_entropy(priors)) <= 1e-12


# ---------------------------------------------------------------- delta W


def test_delta_w_computational_basis_d3():
    report = delta_w(cycle_config(3))
    np.testing.assert_allclose(
        report.singleton_args, [2.0 / 3.0, 1.0 / 6.0, 2.0 / 3.0], atol=1e-12
    )
    assert report.delta_w < 0.0
    assert report.consistency_residual <= 1e-10
    expected = binary_entropy(report.zeta) - (
        binary_entropy(2.0 / 3.0) * 2.0 + binary_entropy(1.0 / 6.0)
    ) / 3.0
    assert abs(report.hb_form_delta_w - expected) <= 1e-12
    assert not report.in_window  # 1/6 < 1 - zeta


def test_delta_w_symmetric_layout_computational_basis():
    report = delta_w(cycle_config(3, layout=MembraneLayout.symmetric_preset(3)))
    np.testing.assert_allclose(report.singleton_args, [2.0 / 3.0] * 3, atol=1e-12)
    expected = binary_entropy(report.zeta) - binary_entropy(2.0 / 3.0)
    assert abs(report.delta_w - expected) <= 1e-10
    assert report.delta_w < 0.0
    assert report.in_window


def test_delta_w_without_singletons_has_no_hb_form():
    report = delta_w(cycle_config(3, layout=MembraneLayout.finest(3)))
    assert report.singleton_args is None
    assert report.hb_form_delta_w is None
    assert report.consistency_residual is None


def test_delta_w_nonuniform_priors_raw_only():
    cfg = cycle_config(3, priors=[0.5, 0.3, 0.2])
    report = delta_w(cfg)
    assert report.hb_form_delta_w is None
    assert report.singleton_args is not None  # layout still designates them
    with pytest.raises(ValueError, match="uniform priors"):
        delta_w(cfg, counterfactual_zeta=0.9)


def test_delta_w_has_no_hb_form_for_components_it_was_not_derived_for():
    # certainty 1, not zeta: the computational projectors are no standard components
    cfg = cycle_config(3)
    diagonal = [np.diag(row).astype(complex) for row in np.eye(3)]
    report = delta_w(cfg, components=diagonal)
    assert report.delta_w == 0.0
    assert report.hb_form_delta_w is None and report.consistency_residual is None
    with pytest.raises(ValueError, match="^the binary-entropy form needs the standard components; "):
        delta_w(cfg, components=diagonal, counterfactual_zeta=0.9)
    standard = delta_w(cfg, components=component_states(3))
    assert standard.hb_form_delta_w is not None and standard.consistency_residual < 1e-12


def test_unnormalized_components_fail_the_one_distribution_check():
    cfg = cycle_config(3)
    doubled = [2 * c for c in component_states(3)]
    for evaluate in (chamber_distribution, work_extraction_w1):
        with pytest.raises(ValueError, match=r"^chamber weights sum to 1\.666666666667, not 1$"):
            evaluate(cfg, doubled)
    with pytest.raises(ValueError, match=r"^density matrix trace 2\.000000000000\+0\.000000000000j != 1$"):
        delta_w(cfg, doubled)


def test_counterfactual_modes():
    cfg = cycle_config(3)
    zeta = mub_pair_bound(3)
    at_true = delta_w(cfg, counterfactual_zeta=zeta)
    assert at_true.counterfactual
    assert at_true.counterfactual_delta_w == 0.0
    above = delta_w(cfg, counterfactual_zeta=zeta + 0.05)
    assert above.counterfactual_delta_w > 0.0
    expected = binary_entropy(zeta) - binary_entropy(zeta + 0.05)
    assert abs(above.counterfactual_delta_w - expected) <= 1e-12
    # the physical cycle on the same configuration stays non-positive
    assert above.delta_w < 0.0


def test_reports_give_zeta_as_a_python_float():
    assert type(mub_pair_bound(5)) is float
    assert type(delta_w(cycle_config(3)).as_dict()["zeta"]) is float
    assert type(scan_bases(3, 4, seed=1).as_dict()["zeta"]) is float


def _rotation_path(target: np.ndarray):
    """Rotations R(t) with R(0) = I and R(1) = target (real orthogonal,
    det +1), via the axis-angle form."""
    tr = float(np.trace(target))
    theta = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
    if theta < 1e-12:
        return lambda t: np.eye(3)
    k = (target - target.T) / (2.0 * np.sin(theta))

    def path(t: float) -> np.ndarray:
        a = theta * t
        return np.eye(3) + np.sin(a) * k + (1.0 - np.cos(a)) * (k @ k)

    return path


def test_delta_w_zero_edge_case_reachable():
    # The computational basis gives negative net work; reordering the first
    # component's eigenbasis (top, kernel, second) pushes one singleton
    # argument to zero, outside the monotone window, and the net work goes
    # positive. Bisecting along a rotation path between the two bases pins a
    # membrane basis whose cycle is work-neutral.
    comps = component_states(3)
    vec = hermitian_eig(comps[0]).vectors.real  # ascending: kernel, second, top
    b_pos = np.stack([vec[:, 2], vec[:, 0], vec[:, 1]])
    if np.linalg.det(b_pos) < 0.0:
        b_pos = b_pos * np.array([[1.0], [-1.0], [1.0]])  # phase flip, same physics

    def net_work(basis) -> float:
        return delta_w(cycle_config(3, basis=basis), comps).delta_w

    assert net_work(np.eye(3)) < 0.0
    assert net_work(b_pos) > 0.0

    path = _rotation_path(b_pos)
    lo, hi = 0.0, 1.0
    assert net_work(path(lo)) < 0.0 and net_work(path(hi)) > 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if net_work(path(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(net_work(path(0.5 * (lo + hi)))) <= 1e-9


# ---------------------------------------------------------------- scans


def test_scan_bases_deterministic():
    a = scan_bases(3, 25, seed=42, keep_samples=True)
    b = scan_bases(3, 25, seed=42, keep_samples=True)
    assert a == b
    c = scan_bases(3, 25, seed=43, keep_samples=True)
    assert c.per_sample_delta_w != a.per_sample_delta_w


def test_scan_bases_identity_and_window():
    report = scan_bases(3, 200, seed=7)
    assert report.max_consistency_residual <= 1e-9
    assert report.max_singleton_excess <= 1e-10
    if report.n_in_window:
        assert report.in_window_delta_w_max <= 1e-9
    assert report.n_in_window + len(report.outside_window_indices) == report.n_samples


def test_scan_bases_keep_samples():
    report = scan_bases(3, 10, seed=1, keep_samples=True)
    assert len(report.per_sample_delta_w) == 10
    assert report.delta_w_min == min(report.per_sample_delta_w)
    assert report.delta_w_max == max(report.per_sample_delta_w)
    assert sum(report.histogram_counts) == 10


def test_haar_random_basis_orthonormal():
    rng = np.random.default_rng(97)
    for d in (2, 3, 5, 7):
        basis = haar_random_basis(d, rng)
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(d), atol=1e-12)


def test_singleton_arguments_requires_designation():
    cfg = cycle_config(3, layout=MembraneLayout.finest(3))
    with pytest.raises(ValueError, match="singleton"):
        singleton_arguments(cfg, component_states(3))


@pytest.mark.parametrize(
    "components, message",
    [
        ([np.eye(4) / 4] * 3, r"component states must be 3x3, got shape \(4, 4\)"),
        ([np.eye(3) / 3] * 4, "need 3 component states, got 4"),
    ],
)
def test_work_retrieval_w2_checks_its_components(components, message):
    # as delta_w and work_extraction_w1 do: no W2 of the wrong size or count
    with pytest.raises(ValueError, match=message):
        work_retrieval_w2(cycle_config(3), components)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cycle_config(3, priors=[0.5, 0.5]), "need 3 priors, got 2"),
        (lambda: cycle_config(3, priors=[1.5, -0.25, -0.25]), "negative prior -2.500e-01"),
        (lambda: cycle_config(3, priors=[0.5, 0.25, 0.2]), "priors sum to 0.950000000000, not 1"),
        (lambda: cycle_config(3, basis=np.eye(2)), r"membrane basis must be 3x3, got \(2, 2\)"),
        (lambda: scan_bases(3, 0, 0), r"n_samples must be >= 1 \(got 0\)"),
    ],
    ids=["prior-count", "negative-prior", "prior-sum", "basis-shape", "no-samples"],
)
def test_configuration_and_scan_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_zeta_and_the_window_belong_to_the_standard_components():
    # the computational projectors have certainty 1: the pair bound is not theirs
    cfg = cycle_config(3)
    diagonal = [np.diag(row).astype(complex) for row in np.eye(3)]
    report = delta_w(cfg, components=diagonal)
    assert report.zeta is None and report.in_window is None
    assert report.singleton_args == (1.0, 0.0, 1.0)
    assert report.delta_w == 0.0
    assert report.as_dict()["zeta"] is None and report.as_dict()["in_window"] is None
    with pytest.raises(ValueError, match="^the binary-entropy form needs the standard components; "):
        delta_w(cfg, components=diagonal, counterfactual_zeta=0.9)
    standard = delta_w(cfg, components=component_states(3))
    assert standard.zeta == mub_pair_bound(3)
    assert standard.in_window is not None
    assert standard.as_dict() == delta_w(cfg).as_dict()
