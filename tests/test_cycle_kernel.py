"""The batched cycle kernel against plain per-sample re-derivations.

Every cycle evaluation (``delta_w`` and ``scan_bases``) runs through one
batched kernel. These tests re-derive each reported quantity sample by
sample with plain numpy, pin two scans to values recorded from the earlier
per-sample implementation and two more at d >= 13 to their exact reports,
and check that chunked scans match unchunked ones.
"""

import numpy as np
import pytest

from finecert import cycle, sampling
from finecert.bounds import measurement_ensemble
from finecert.cycle import (
    CycleConfig,
    MembraneLayout,
    component_states,
    cycle_config,
    delta_w,
    haar_random_basis,
    scan_bases,
)
from finecert.mub import mub_family, verify_mub
from finecert.numerics import MAX_DIM

TOL = 1e-12

LAYOUTS = ("paper_preset", "symmetric_preset", "finest", "merged")


def entropy(p) -> float:
    return float(-sum(x * np.log2(x) for x in p if x > 0.0))


def vn_entropy(rho) -> float:
    return entropy(np.linalg.eigvalsh(rho))


def reference_report(priors, basis, comps, layout, counterfactual_zeta=None) -> dict:
    """Every WorkReport field of one cycle, from the dense definitions."""
    d = len(priors)
    probs = np.array([[min(max(float(np.real(e.conj() @ rho @ e)), 0.0), 1.0) for e in basis] for rho in comps])
    chambers = [
        sum(priors[i] * probs[i, j] for i in group)
        for j, groups in enumerate(layout.groups)
        for group in groups
    ]
    w1 = entropy(priors) + entropy(priors @ probs) - entropy(chambers)
    rho_avg = sum(p * rho for p, rho in zip(priors, comps))
    w2 = vn_entropy(rho_avg) - sum(p * vn_entropy(rho) for p, rho in zip(priors, comps))
    zeta = 0.5 + 0.5 / np.sqrt(d)
    uniform = bool(np.allclose(priors, 1.0 / d, rtol=0.0, atol=1e-12))
    report = {
        "d": d,
        "w1": w1,
        "w2": w2,
        "delta_w": w1 - w2,
        "zeta": zeta,
        "layout": layout.name,
        "singleton_args": None,
        "hb_form_delta_w": None,
        "consistency_residual": None,
        "in_window": None,
        "counterfactual": counterfactual_zeta is not None,
        "counterfactual_zeta": counterfactual_zeta,
        "counterfactual_delta_w": None,
    }
    if layout.singletons is not None:
        s = [probs[single, j] for j, single in enumerate(layout.singletons)]
        report["singleton_args"] = s
        report["in_window"] = all(1.0 - zeta <= v <= zeta + 1e-10 for v in s)
        if uniform:
            hb = entropy([zeta, 1.0 - zeta]) - np.mean([entropy([v, 1.0 - v]) for v in s])
            report["hb_form_delta_w"] = hb
            report["consistency_residual"] = abs(w1 - w2 - hb)
    if counterfactual_zeta is not None:
        cf = counterfactual_zeta
        report["counterfactual_delta_w"] = entropy([zeta, 1.0 - zeta]) - entropy([cf, 1.0 - cf])
    return report


def assert_reports_match(got: dict, expected: dict):
    assert got.keys() == expected.keys()
    for key, want in expected.items():
        have = got[key]
        if want is None or isinstance(want, (bool, str, int)):
            assert have == want, key
        elif isinstance(want, list):
            np.testing.assert_allclose(have, want, rtol=0.0, atol=TOL, err_msg=key)
        else:
            assert abs(have - want) <= TOL, (key, have, want)


def reference_scan_basis(d, stream):
    """Haar basis from one spawned substream, drawn as the scan draws it."""
    rng = np.random.default_rng(stream)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r).copy()
    diag[diag == 0] = 1.0
    return (q * (diag / np.abs(diag))).T


# ---------------------------------------------------------------- single cycles


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("layout_name", LAYOUTS)
def test_delta_w_matches_plain_rederivation(d, layout_name):
    layout = getattr(MembraneLayout, layout_name)(d)
    comps = component_states(d)
    priors = np.full(d, 1.0 / d)
    rng = np.random.default_rng([d, len(layout_name)])
    for basis in [np.eye(d, dtype=complex)] + [haar_random_basis(d, rng) for _ in range(3)]:
        cfg = cycle_config(d, basis=basis, layout=layout)
        expected = reference_report(priors, basis, comps, layout)
        assert_reports_match(delta_w(cfg).as_dict(), expected)
        if layout.singletons is not None:
            cf = float(expected["zeta"]) + 0.05
            got = delta_w(cfg, counterfactual_zeta=cf).as_dict()
            assert_reports_match(got, reference_report(priors, basis, comps, layout, cf))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_delta_w_nonuniform_priors_matches_plain_rederivation(d):
    rng = np.random.default_rng(100 + d)
    priors = rng.random(d) + 0.1
    priors /= priors.sum()
    comps = component_states(d)
    for layout_name in LAYOUTS:
        layout = getattr(MembraneLayout, layout_name)(d)
        basis = haar_random_basis(d, rng)
        report = delta_w(cycle_config(d, priors=priors, basis=basis, layout=layout))
        assert_reports_match(report.as_dict(), reference_report(priors, basis, comps, layout))


# ---------------------------------------------------------------- scans


@pytest.mark.parametrize("d, n, seed", [(3, 40, 5), (5, 30, 2), (7, 12, 9)])
def test_scan_matches_per_sample_rederivation(d, n, seed):
    layout = MembraneLayout.paper_preset(d)
    comps = component_states(d)
    priors = np.full(d, 1.0 / d)
    scan = scan_bases(d, n, seed, keep_samples=True)
    refs = [
        reference_report(priors, reference_scan_basis(d, stream), comps, layout)
        for stream in np.random.SeedSequence(seed).spawn(n)
    ]
    np.testing.assert_allclose(scan.per_sample_delta_w, [r["delta_w"] for r in refs], rtol=0.0, atol=TOL)
    inside = [k for k, r in enumerate(refs) if r["in_window"]]
    assert scan.n_in_window == len(inside)
    assert scan.outside_window_indices == tuple(k for k in range(n) if k not in inside)
    residual = max(r["consistency_residual"] for r in refs)
    assert scan.max_consistency_residual <= max(residual, 1e-13)
    excess = max(max(r["singleton_args"]) - r["zeta"] for r in refs)
    assert abs(scan.max_singleton_excess - excess) <= TOL


def test_scan_golden_d3():
    # Recorded from the per-sample implementation the kernel replaced.
    report = scan_bases(3, 200, seed=7)
    assert report.histogram_counts == (
        11, 15, 19, 20, 22, 15, 18, 14, 12, 9, 11, 6, 2, 5, 6, 7, 1, 4, 0, 3,
    )
    assert report.n_in_window == 79
    assert report.outside_window_indices == (
        0, 1, 2, 3, 4, 5, 6, 8, 9, 13, 14, 15, 16, 19, 21, 22, 25, 28, 30, 31,
        36, 38, 39, 40, 41, 43, 44, 47, 48, 49, 50, 52, 55, 57, 58, 59, 60, 61,
        62, 64, 66, 68, 69, 72, 73, 75, 76, 77, 78, 79, 80, 81, 84, 85, 86, 88,
        91, 95, 96, 99, 100, 102, 103, 105, 108, 110, 114, 115, 116, 117, 118,
        121, 124, 125, 126, 127, 128, 129, 131, 134, 135, 136, 137, 138, 139,
        141, 142, 143, 145, 147, 149, 152, 153, 154, 157, 160, 162, 165, 166,
        167, 169, 170, 172, 174, 176, 177, 178, 180, 181, 182, 183, 184, 189,
        191, 192, 193, 194, 195, 196, 198, 199,
    )
    assert abs(report.delta_w_min - -0.23747946086222194) <= TOL
    assert abs(report.delta_w_max - 0.2416848340461819) <= TOL
    assert abs(report.delta_w_mean - -0.07588817784232357) <= TOL
    assert abs(report.max_singleton_excess - -0.01899099814689531) <= TOL
    assert abs(report.in_window_delta_w_max - -0.07850185259661413) <= TOL


def test_scan_golden_d31():
    # Recorded from the per-sample implementation the kernel replaced.
    report = scan_bases(31, 5, seed=1)
    assert report.histogram_counts == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1)
    assert report.n_in_window == 0
    assert report.in_window_delta_w_max is None
    assert report.outside_window_indices == (0, 1, 2, 3, 4)
    assert abs(report.delta_w_min - 0.7755549117232041) <= TOL
    assert abs(report.delta_w_max - 0.785704824622572) <= TOL
    assert abs(report.delta_w_mean - 0.7809713699201357) <= TOL
    assert abs(report.max_singleton_excess - -0.44160386036915855) <= TOL


#: The exact reports of two scans at d >= 13, where the binary-entropy sum's
#: bits depend on memory layout; recorded before the sampler left ``cycle``.
SCAN_BITS = {
    (31, 3, 1, True): {
        "d": 31, "seed": 1, "n_samples": 3, "layout": "paper", "zeta": 0.5898026510133875,
        "delta_w_min": 0.7763257492879916, "delta_w_max": 0.784976153997559,
        "delta_w_mean": 0.7811990377516352,
        "histogram": {
            "counts": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1],
            "edges": [
                0.7763257492879916, 0.7767582695234699, 0.7771907897589483, 0.7776233099944267,
                0.7780558302299051, 0.7784883504653834, 0.7789208707008618, 0.7793533909363402,
                0.7797859111718186, 0.780218431407297, 0.7806509516427753, 0.7810834718782537,
                0.781515992113732, 0.7819485123492105, 0.7823810325846888, 0.7828135528201672,
                0.7832460730556455, 0.7836785932911239, 0.7841111135266023, 0.7845436337620807,
                0.784976153997559,
            ],
        },
        "max_consistency_residual": 1.5210055437364645e-14,
        "max_singleton_excess": -0.4416038603691583,
        "n_in_window": 0, "in_window_delta_w_max": None, "outside_window_indices": [0, 1, 2],
        "per_sample_delta_w": [0.7763257492879916, 0.7822952099693552, 0.784976153997559],
    },
    (13, 3, 1, False): {
        "d": 13, "seed": 1, "n_samples": 3, "layout": "paper", "zeta": 0.6386750490563073,
        "delta_w_min": 0.5639203351698088, "delta_w_max": 0.6000057611190472,
        "delta_w_mean": 0.5786972046323772,
        "histogram": {
            "counts": [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            "edges": [
                0.5639203351698088, 0.5657246064672707, 0.5675288777647326, 0.5693331490621946,
                0.5711374203596564, 0.5729416916571184, 0.5747459629545804, 0.5765502342520422,
                0.5783545055495042, 0.580158776846966, 0.581963048144428, 0.58376731944189,
                0.5855715907393518, 0.5873758620368138, 0.5891801333342757, 0.5909844046317376,
                0.5927886759291996, 0.5945929472266615, 0.5963972185241234, 0.5982014898215853,
                0.6000057611190472,
            ],
        },
        "max_consistency_residual": 7.993605777301127e-15,
        "max_singleton_excess": -0.4887461099879445,
        "n_in_window": 0, "in_window_delta_w_max": None, "outside_window_indices": [0, 1, 2],
        "per_sample_delta_w": None,
    },
}


@pytest.mark.parametrize("d, n, seed, keep", sorted(SCAN_BITS))
def test_scan_report_bits_at_large_d(d, n, seed, keep):
    assert scan_bases(d, n, seed, keep_samples=keep).as_dict() == SCAN_BITS[(d, n, seed, keep)]


def test_scan_across_chunk_boundary_d31():
    n = cycle._chunk_samples(31) + 2
    scan = scan_bases(31, n, seed=3, keep_samples=True)
    singles = [
        delta_w(cycle_config(31, basis=reference_scan_basis(31, stream)))
        for stream in np.random.SeedSequence(3).spawn(n)
    ]
    np.testing.assert_allclose(scan.per_sample_delta_w, [r.delta_w for r in singles], rtol=0.0, atol=TOL)
    assert scan.outside_window_indices == tuple(k for k, r in enumerate(singles) if not r.in_window)
    assert sum(scan.histogram_counts) == n


def test_chunked_scan_matches_single_chunk(monkeypatch):
    whole = scan_bases(3, 200, seed=7, keep_samples=True)
    monkeypatch.setattr(cycle, "SCAN_CHUNK_BYTES", 16 * 3 * 3 * 7)  # 7 samples per chunk
    assert cycle._chunk_samples(3) == 7
    chunked = scan_bases(3, 200, seed=7, keep_samples=True)
    np.testing.assert_allclose(chunked.per_sample_delta_w, whole.per_sample_delta_w, rtol=0.0, atol=TOL)
    assert chunked.histogram_counts == whole.histogram_counts
    assert chunked.n_in_window == whole.n_in_window
    assert chunked.outside_window_indices == whole.outside_window_indices
    assert abs(chunked.in_window_delta_w_max - whole.in_window_delta_w_max) <= TOL


def test_merged_layout_scan_has_a_histogram():
    # The merged layout's net work does not depend on the basis, so the
    # samples differ only by roundoff; the histogram falls back to unit width.
    report = scan_bases(7, 150, seed=11, layout=MembraneLayout.merged(7))
    assert sum(report.histogram_counts) == 150
    assert report.delta_w_max - report.delta_w_min <= 1e-12
    assert abs(report.histogram_edges[-1] - report.histogram_edges[0] - 1.0) <= 1e-12


# ---------------------------------------------------------------- non-finite input


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cycle_config_rejects_non_finite_priors(bad):
    with pytest.raises(ValueError, match="NaN or Inf"):
        cycle_config(3, priors=[bad, 0.5, 0.5])


def test_cycle_config_rejects_non_finite_basis():
    basis = np.eye(3, dtype=complex)
    basis[1, 2] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="NaN or Inf"):
        cycle_config(3, basis=basis)


def test_kernel_checks_are_nan_safe():
    basis = np.eye(3, dtype=complex)
    basis[0, 0] = np.nan
    unchecked = CycleConfig(d=3, priors=np.full(3, 1.0 / 3.0), basis=basis, layout=MembraneLayout.paper_preset(3))
    with pytest.raises(ValueError, match="sum to nan"):
        delta_w(unchecked)
    comps = component_states(3)
    comps[1] = comps[1].copy()
    comps[1][0, 0] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        delta_w(cycle_config(3), comps)


def test_haar_orthonormality_check_is_nan_safe():
    class NanGenerator:
        def standard_normal(self, shape):
            return np.full(shape, np.nan)

    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not orthonormal"):
        haar_random_basis(3, NanGenerator())


def test_haar_random_basis_checks_d_first():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"d must be >= 1 \(got 0\)"):
        haar_random_basis(0, rng)
    with pytest.raises(ValueError, match=r"d must be >= 1 \(got -2\)"):
        haar_random_basis(-2, rng)
    with pytest.raises(ValueError, match=f"d={MAX_DIM + 1} exceeds the supported maximum {MAX_DIM}"):
        haar_random_basis(MAX_DIM + 1, rng)
    assert haar_random_basis(1, rng).shape == (1, 1)
    assert haar_random_basis(MAX_DIM, rng).shape == (MAX_DIM, MAX_DIM)


def test_measurement_ensemble_rejects_non_finite_input():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="non-finite weight"):
        measurement_ensemble([("a", np.nan, p), ("b", 1.0, q)])
    with pytest.raises(ValueError, match="NaN or Inf"):
        measurement_ensemble([("a", 0.5, p * np.nan), ("b", 0.5, q)])


def test_verify_mub_rejects_non_finite_tolerance():
    with pytest.raises(ValueError, match="finite"):
        verify_mub(mub_family(3), tol=np.nan)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("factory", LAYOUTS)
def test_scan_statistics_reduce_the_per_sample_cycles(monkeypatch, d, factory):
    n, seed = 30, 11
    monkeypatch.setattr(cycle, "SCAN_CHUNK_BYTES", 16 * d * d * 7)
    assert cycle._chunk_samples(d) == 7  # five chunks
    layout = getattr(MembraneLayout, factory)(d)
    report = scan_bases(d, n, seed, layout=None if factory == "paper_preset" else layout)
    singles = [
        delta_w(cycle_config(d, basis=haar_random_basis(d, np.random.default_rng(child)), layout=layout))
        for child in np.random.SeedSequence(seed).spawn(n)
    ]
    if layout.singletons is None:
        assert (report.n_in_window, report.in_window_delta_w_max, report.outside_window_indices) == (0, None, ())
        assert (report.max_singleton_excess, report.max_consistency_residual) == (0.0, 0.0)
        return
    inside = [r.delta_w for r in singles if r.in_window]
    assert report.n_in_window == len(inside)
    assert report.outside_window_indices == tuple(i for i, r in enumerate(singles) if not r.in_window)
    if inside:
        assert abs(report.in_window_delta_w_max - max(inside)) <= TOL
    else:
        assert report.in_window_delta_w_max is None
    assert abs(report.max_singleton_excess - max(max(r.singleton_args) - r.zeta for r in singles)) <= TOL
    assert abs(report.max_consistency_residual - max(r.consistency_residual for r in singles)) <= TOL


def test_only_a_callers_basis_is_checked(monkeypatch):
    calls = []
    check = cycle._check_orthonormal

    def spy(basis):
        calls.append(basis.shape)
        return check(basis)

    for module in (cycle, sampling):  # cycle_config's check and haar_random_basis's
        monkeypatch.setattr(module, "_check_orthonormal", spy)
    scan_bases(3, 40, 5)
    scan_bases(5, 40, 5, layout=MembraneLayout.symmetric_preset(5))
    cycle_config(3)
    assert calls == []
    basis = haar_random_basis(3, np.random.default_rng(1))
    assert calls == [(3, 3)]
    cycle_config(3, basis=basis)
    assert calls == [(3, 3), (3, 3)]
