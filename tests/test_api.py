import inspect

import stiefelmean


def test_every_exported_name_resolves():
    assert len(stiefelmean.__all__) == len(set(stiefelmean.__all__))
    for name in stiefelmean.__all__:
        assert getattr(stiefelmean, name) is not None


def test_removed_names_are_gone():
    # the pair is a three-member Enum and the residual field is reported by
    # fixed_point_mean, so none of these has a replacement to export
    import stiefelmean.averaging
    import stiefelmean.maps

    for name in ("RetractionKind", "LiftingKind", "residual_vector_field"):
        assert name not in stiefelmean.__all__
        assert not hasattr(stiefelmean, name)
    assert not hasattr(stiefelmean.maps, "RetractionKind")
    assert not hasattr(stiefelmean.maps, "LiftingKind")
    assert not hasattr(stiefelmean.averaging, "residual_vector_field")


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
        "StiefelPoint": {"tol"},
        "TangentVector": {"tol"},
        "validate_point": {"tol"},
        "read_sample_set": {"tol"},
    }
    for name, params in removed.items():
        signature = inspect.signature(getattr(stiefelmean, name))
        assert not params & set(signature.parameters), name
