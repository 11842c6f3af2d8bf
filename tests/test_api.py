import inspect

import stiefelmean


def test_every_exported_name_resolves():
    assert len(stiefelmean.__all__) == len(set(stiefelmean.__all__))
    for name in stiefelmean.__all__:
        assert getattr(stiefelmean, name) is not None


def test_removed_names_are_gone():
    # the pair is a three-member Enum with one name per member, the residual
    # field is reported by fixed_point_mean, fixed_point_mean is the one
    # averaging entry point, validate_point and frobenius_norm are
    # StiefelPoint(x) and np.linalg.norm, the composition functions
    # return a float, and run_experiment is the one experiment entry point,
    # so none of these has a replacement to export
    import dataclasses

    import stiefelmean.averaging
    import stiefelmean.experiments
    import stiefelmean.kernels
    import stiefelmean.manifold
    import stiefelmean.maps

    runners = ("run_discrepancy_stats", "run_convergence", "run_runtime_vs_n",
               "run_runtime_vs_p")
    for name in ("RetractionKind", "LiftingKind", "residual_vector_field",
                 "weighted_fixed_point_mean", "validate_point", "frobenius_norm",
                 "CompositionDiscrepancy", "POLAR_POLAR", "ORTHO_ORTHO",
                 "MIXED_POLAR_ORTHO", "KINDS") + runners:
        assert name not in stiefelmean.__all__
        assert not hasattr(stiefelmean, name)
    # each kind is one row of the experiments' table, which names its
    # runner; every spec runs all three pairs
    for name in ("KINDS",) + runners:
        assert not hasattr(stiefelmean.experiments, name)
    assert not hasattr(stiefelmean.experiments.RuntimeResult, "median_by_dim")
    fields = {f.name for f in dataclasses.fields(stiefelmean.ExperimentSpec)}
    assert "pairs" not in fields
    assert not hasattr(stiefelmean.maps, "RetractionKind")
    assert not hasattr(stiefelmean.maps, "LiftingKind")
    # both composition functions return a float; each pair has one name
    for name in ("CompositionDiscrepancy", "POLAR_POLAR", "ORTHO_ORTHO", "MIXED_POLAR_ORTHO"):
        assert not hasattr(stiefelmean.maps, name)
    assert not hasattr(stiefelmean.averaging, "residual_vector_field")
    assert not hasattr(stiefelmean.averaging, "weighted_fixed_point_mean")
    assert not hasattr(stiefelmean.averaging, "_Cloud")
    assert not hasattr(stiefelmean.manifold, "validate_point")
    assert not hasattr(stiefelmean.kernels, "frobenius_norm")


def test_fixed_tolerances_are_not_parameters():
    # these thresholds are module constants (DOMAIN_GUARD, EPS_SPD, TOL_ORTH,
    # ...); each check reads its constant when it runs
    removed = {
        "polar_lifting": {"guard"},
        "orthographic_lifting": {"guard"},
        "lift": {"guard"},
        "spd_inv_sqrt": {"eps_spd", "sym_tol"},
        "skew_expm": {"skew_tol"},
        "solve_lyapunov_sym": {"rel_tol"},
        "solve_ortho_retraction_eq": {"tol", "max_inner_iters"},
        "thin_qr_q_factor": {"rank_rtol"},
        "StiefelPoint": {"tol", "dims"},
        "TangentVector": {"tol"},
        "read_sample_set": {"tol"},
    }
    for name, params in removed.items():
        signature = inspect.signature(getattr(stiefelmean, name))
        assert not params & set(signature.parameters), name
