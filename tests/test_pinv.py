import numpy as np
import pytest

from projcorr import (
    CgEngine,
    CorrectionConfig,
    DenseOperator,
    Geometry,
    MaskOperator,
    MaskEngine,
    NoiseModel,
    ParameterError,
    SolverError,
    SpectralEngine,
    SvdEngine,
    UnsupportedConfigError,
    conjugate_gradient,
    exact_correction,
    make_engine,
    make_gaussian_blur,
    make_inpainting_mask,
    make_random_projection,
    regularized_correction,
)


def materialize_engine_pinv(engine):
    cols = np.zeros((engine.op.n, engine.op.m))
    e = np.zeros(engine.op.m)
    for j in range(engine.op.m):
        e[j] = 1.0
        cols[:, j] = engine.pinv_apply(e)
        e[j] = 0.0
    return cols


def _engine_zoo(rng, **cg):
    g = Geometry(8, 8, 1)
    dense = DenseOperator(rng.standard_normal((5, 9)))
    rank_deficient = DenseOperator(rng.standard_normal((6, 3)) @ rng.standard_normal((3, 9)))
    mask = make_inpainting_mask(g, 0.5, seed=13)
    blur = make_gaussian_blur(g, (1.2, 0.7), truncation=2.0)
    color_blur = make_gaussian_blur(Geometry(8, 8, 3), (1.2, 0.7), truncation=2.0)
    spi = make_random_projection(32, 8, seed=2)
    return [
        make_engine(dense, **cg),
        make_engine(rank_deficient, **cg),
        make_engine(mask, **cg),
        make_engine(blur, **cg),
        make_engine(color_blur, **cg),
        make_engine(spi, method="cg_minimum_norm", **cg),
    ]


@pytest.fixture
def engine_zoo(rng):
    """One engine of every method, each bound to its natural operator."""
    return _engine_zoo(rng)


class TestPinvApplyExamples:
    def test_mask_pinv_is_transpose(self):
        engine = make_engine(MaskOperator(2, [0]))
        assert isinstance(engine, MaskEngine)
        assert np.array_equal(engine.pinv_apply([4.0]), [4.0, 0.0])

    def test_identity_pinv(self):
        engine = make_engine(DenseOperator(np.eye(2)))
        assert np.allclose(engine.pinv_apply([1.0, 2.0]), [1.0, 2.0])

    def test_cg_matches_svd_full_row_rank(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(3, 5)
        svd = make_engine(op, method="svd_dense")
        cg = make_engine(op, method="cg_minimum_norm")
        for _ in range(20):
            y = rng.standard_normal(3)
            a = svd.pinv_apply(y)
            b = cg.pinv_apply(y)
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)

    def test_full_row_rank_residual(self, full_row_rank_factory, rng):
        op = full_row_rank_factory(4, 7)
        engine = make_engine(op)
        y = rng.standard_normal(4)
        x = engine.pinv_apply(y)
        assert np.linalg.norm(op.apply(x) - y) <= 1e-8 * (np.linalg.norm(y) + 1.0)


class TestProjectors:
    def test_mask_range_projector(self):
        engine = make_engine(MaskOperator(2, [0]))
        assert np.array_equal(engine.range_projector_apply([5.0, 7.0]), [5.0, 0.0])

    def test_mask_null_projector(self):
        engine = make_engine(MaskOperator(2, [0]))
        assert np.array_equal(engine.nullspace_projector_apply([5.0, 7.0]), [0.0, 7.0])

    def test_row_space_vector_is_fixed_point(self, rng):
        op = DenseOperator(rng.standard_normal((3, 6)))
        engine = make_engine(op)
        v = op.adjoint(rng.standard_normal(3))
        assert np.linalg.norm(engine.range_projector_apply(v) - v) <= 1e-9 * np.linalg.norm(v)
        assert np.linalg.norm(engine.nullspace_projector_apply(v)) <= 1e-9 * np.linalg.norm(v)

    def test_range_projector_matches_pinv_matrix_oracle(self, rng):
        a = rng.standard_normal((4, 7))
        engine = make_engine(DenseOperator(a))
        proj = np.linalg.pinv(a) @ a
        for _ in range(10):
            v = rng.standard_normal(7)
            assert np.linalg.norm(engine.range_projector_apply(v) - proj @ v) <= 1e-8

    def test_null_projector_annihilated(self, rng):
        a = rng.standard_normal((4, 7))
        op = DenseOperator(a)
        engine = make_engine(op)
        norm_a = np.linalg.norm(a, 2)
        for _ in range(100):
            v = rng.standard_normal(7)
            w = engine.nullspace_projector_apply(v)
            assert np.linalg.norm(op.apply(w)) <= 1e-8 * (norm_a * np.linalg.norm(v) + 1.0)

    def test_idempotence_and_complementarity(self, engine_zoo, rng):
        for engine in engine_zoo:
            for _ in range(5):
                v = rng.standard_normal(engine.op.n)
                pr = engine.range_projector_apply(v)
                pn = engine.nullspace_projector_apply(v)
                assert np.linalg.norm(engine.range_projector_apply(pr) - pr) <= 1e-9 * np.linalg.norm(v)
                assert np.linalg.norm(engine.nullspace_projector_apply(pn) - pn) <= 1e-9 * np.linalg.norm(v)
                assert np.linalg.norm(pr + pn - v) <= 1e-10 * (np.linalg.norm(v) + 1.0)


class TestMoorePenroseAxioms:
    def test_axioms_all_engine_kinds(self, engine_zoo):
        for engine in engine_zoo:
            a = engine.op.to_dense()
            p = materialize_engine_pinv(engine)
            norm_a = np.linalg.norm(a, 2)
            norm_p = np.linalg.norm(p, 2)
            assert np.linalg.norm(a @ p @ a - a, 2) <= 1e-8 * norm_a
            assert np.linalg.norm(p @ a @ p - p, 2) <= 1e-8 * norm_p
            ap = a @ p
            pa = p @ a
            assert np.linalg.norm(ap - ap.T, 2) <= 1e-8 * max(np.linalg.norm(ap, 2), 1.0)
            assert np.linalg.norm(pa - pa.T, 2) <= 1e-8 * max(np.linalg.norm(pa, 2), 1.0)

    def test_pinv_matrix_agrees_with_numpy(self, rng):
        a = rng.standard_normal((4, 6))
        engine = make_engine(DenseOperator(a))
        assert np.allclose(engine.pinv_matrix(), np.linalg.pinv(a), atol=1e-10)


class TestCrossMethodAgreement:
    def test_spectral_equals_svd_on_blur(self, rng):
        g = Geometry(16, 16, 1)
        op = make_gaussian_blur(g, (1.5, 0.8), truncation=2.0)
        spectral = make_engine(op, method="spectral_fft")
        svd = make_engine(op, method="svd_dense")
        for _ in range(5):
            y = rng.standard_normal(op.m)
            a = spectral.pinv_apply(y)
            b = svd.pinv_apply(y)
            assert np.linalg.norm(a - b) <= 1e-6 * max(np.linalg.norm(b), 1.0)

    def test_mask_analytic_equals_svd(self, rng):
        op = make_inpainting_mask(Geometry(8, 8, 1), 0.5, seed=21)
        analytic = make_engine(op, method="mask_analytic")
        svd = make_engine(op, method="svd_dense")
        y = rng.standard_normal(op.m)
        assert np.linalg.norm(analytic.pinv_apply(y) - svd.pinv_apply(y)) <= 1e-10

    def test_cg_equals_svd_on_spi(self, rng):
        op = make_random_projection(256, 64, seed=17)
        cg = make_engine(op, method="cg_minimum_norm")
        svd = make_engine(op, method="svd_dense")
        y = rng.standard_normal(64)
        a = cg.pinv_apply(y)
        b = svd.pinv_apply(y)
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


class TestTruncationAndErrors:
    def test_rcond_truncates_small_singular_values(self, rng):
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = np.array([2.0, 1.0, 1e-6, 1e-14])
        a = u @ np.diag(s) @ v[:4]
        engine = SvdEngine(DenseOperator(a), rcond=1e-10)
        assert engine.s.size == 3
        assert np.all(engine.s > engine.rcond * engine.s[0])

    def test_spectral_null_bins_inverse_zero(self):
        g = Geometry(16, 16, 1)
        op = make_gaussian_blur(g, (2.0, 2.0), truncation=2.0)
        engine = make_engine(op)
        assert np.all(engine.inverse[~engine.retained] == 0)
        mags = np.abs(op.transfer)
        assert np.all(mags[engine.retained] > engine.rcond * mags.max())

    def test_spectral_engine_with_genuine_null_direction(self, rng):
        # a two-tap box filter on an even-length circle has an exact zero at
        # the Nyquist frequency, so the alternating vector is a null direction
        from projcorr import CircularBlurOperator, exact_correction

        op = CircularBlurOperator(Geometry(1, 4, 1), [[0.5, 0.5]], origin=(0, 0))
        engine = make_engine(op)
        assert engine.retained.sum() == 3
        alternating = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.allclose(op.apply(alternating), 0.0, atol=1e-15)
        assert np.allclose(
            engine.nullspace_projector_apply(alternating), alternating, atol=1e-12
        )
        # the correction must preserve exactly that component of fhat
        x = rng.standard_normal(4)
        y = op.apply(x)
        fhat = rng.standard_normal(4)
        out = exact_correction(engine, y, fhat)
        want = (fhat @ alternating) / 4.0
        got = (out @ alternating) / 4.0
        assert got == pytest.approx(want, abs=1e-12)
        # and the measured component is better than fhat's
        assert np.linalg.norm(out - x) <= np.linalg.norm(fhat - x) + 1e-12

    def test_cg_nonconvergence_raises(self, rng):
        op = DenseOperator(rng.standard_normal((8, 12)))
        engine = CgEngine(op, cg_tol=1e-14, cg_max_iter=1)
        with pytest.raises(SolverError) as err:
            engine.pinv_apply(rng.standard_normal(8))
        assert err.value.residual > 0
        assert err.value.iterations == 1

    def test_cg_regularized_solve_on_rank_deficient_operator(self, rng):
        # A A^T is singular, but the shifted dual system A A^T + I / w is not
        op = DenseOperator(rng.standard_normal((6, 3)) @ rng.standard_normal((3, 9)))
        y = rng.standard_normal(6)
        fhat = rng.standard_normal(9)
        ref = SvdEngine(op).regularized_solve(y, fhat, 3.0)
        out = CgEngine(op, cg_tol=1e-13).regularized_solve(y, fhat, 3.0)
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_cg_dimension_mismatch(self, rng):
        engine = CgEngine(DenseOperator(rng.standard_normal((3, 5))))
        with pytest.raises(Exception):
            engine.pinv_apply([1.0, 2.0])

    def test_engine_method_mismatch_rejected(self, rng):
        dense = DenseOperator(rng.standard_normal((3, 5)))
        with pytest.raises(ParameterError):
            make_engine(dense, method="mask_analytic")
        with pytest.raises(ParameterError):
            make_engine(dense, method="spectral_fft")
        with pytest.raises(UnsupportedConfigError):
            make_engine(dense, method="nonsense")

    def test_auto_prefers_svd_for_overdetermined_projection(self):
        # m > n cannot happen for random projections by construction, but a
        # dense operator defaults to SVD regardless of shape
        op = DenseOperator(np.random.default_rng(0).standard_normal((6, 3)))
        assert make_engine(op).method == "svd_dense"


def test_engine_applies_are_thread_safe(engine_zoo, rng):
    # engines are immutable after construction; concurrent applies must give
    # the same results as sequential ones
    from concurrent.futures import ThreadPoolExecutor

    for engine in engine_zoo:
        vectors = [rng.standard_normal(engine.op.n) for _ in range(16)]
        expected = [engine.nullspace_projector_apply(v) for v in vectors]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(engine.nullspace_projector_apply, vectors))
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


def test_conjugate_gradient_solves_spd(rng):
    a = rng.standard_normal((6, 6))
    spd = a @ a.T + 6 * np.eye(6)
    b = rng.standard_normal(6)
    x = conjugate_gradient(lambda v: spd @ v, b, tol=1e-12, max_iter=100)
    assert np.linalg.norm(spd @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_conjugate_gradient_zero_rhs():
    x = conjugate_gradient(lambda v: v, np.zeros(4), tol=1e-12, max_iter=10)
    assert np.array_equal(x, np.zeros(4))


def _ill_conditioned_matvec():
    # a diagonal SPD operator of condition 1e6: each column's product is exact
    # in any block, so a block solve and its column solves differ only through
    # CG's bookkeeping
    eigenvalues = np.logspace(0, 6, 40)
    return lambda v: (eigenvalues * v.T).T


def test_lockstep_block_matches_column_solves(rng):
    # a zero column, an eigenvector (one iteration) and a random right-hand
    # side on a condition-1e6 system: each column must follow its own 1-D solve
    matvec = _ill_conditioned_matvec()
    b = np.stack([np.zeros(40), np.eye(40)[3], rng.standard_normal(40)], axis=1)
    block = conjugate_gradient(matvec, b, tol=1e-10, max_iter=2000)
    assert np.array_equal(block[:, 0], np.zeros(40))
    for j in range(3):
        column = conjugate_gradient(matvec, b[:, j], tol=1e-10, max_iter=2000)
        assert np.linalg.norm(block[:, j] - column) <= 1e-12 * np.linalg.norm(column)


def test_lockstep_block_error_reports_worst_column(rng):
    matvec = _ill_conditioned_matvec()
    b = np.stack([np.eye(40)[0], rng.standard_normal(40), rng.standard_normal(40)], axis=1)
    residuals = []
    for j in (1, 2):
        with pytest.raises(SolverError) as err:
            conjugate_gradient(matvec, b[:, j], tol=1e-12, max_iter=3)
        residuals.append(err.value.residual)
    with pytest.raises(SolverError) as err:
        conjugate_gradient(matvec, b, tol=1e-12, max_iter=3)
    assert err.value.iterations == 3
    assert err.value.residual == pytest.approx(max(residuals), rel=1e-12)
    assert "2 of 3 columns" in str(err.value)


def _record_calls(obj, name):
    """Wrap the callable ``obj.name`` so every argument it gets is recorded."""
    calls = []
    method = getattr(obj, name)

    def recorded(arg):
        calls.append(arg)
        return method(arg)

    setattr(obj, name, recorded)
    return calls


def test_cg_engine_block_runs_one_matvec_per_iteration(rng):
    # columns needing 1, ~20 and ~20 iterations: the block pays for its
    # slowest column, not for the sum over its columns
    u, _, vt = np.linalg.svd(rng.standard_normal((20, 50)), full_matrices=False)
    engine = CgEngine(DenseOperator((u * np.logspace(0, 2, 20)) @ vt))
    y = np.stack([u[:, 0], rng.standard_normal(20), rng.standard_normal(20)], axis=1)
    calls = _record_calls(engine, "_gram_apply")
    per_column = []
    for j in range(3):
        calls.clear()
        engine.pinv_apply(y[:, j])
        per_column.append(len(calls))
    calls.clear()
    engine.pinv_apply(y)
    assert per_column[0] == 1
    assert len(calls) <= max(per_column) < sum(per_column)
    assert calls[0].shape == (20, 3) and calls[-1].shape[1] < 3


def test_streamed_block_generates_rows_once_per_iteration(rng):
    op = make_random_projection(32, 8, seed=2, materialize_limit=0)
    engine = make_engine(op)
    rows = _record_calls(op, "_row")
    y = rng.standard_normal((op.m, 3))
    single = []
    for j in range(3):
        rows.clear()
        engine.pinv_apply(y[:, j:j + 1])
        single.append(len(rows))
    rows.clear()
    engine.pinv_apply(y)
    # one iteration is one apply and one adjoint, m rows each
    assert len(rows) <= max(single) + 2 * op.m


BLOCK_ENGINES = ["svd", "svd_rank_deficient", "mask", "blur", "blur_3ch", "cg", "cg_streamed"]


def _block_operations(rng, m):
    diagonal = rng.uniform(0.05, 0.2, m)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    noises = {
        "none": NoiseModel.none(),
        "isotropic": NoiseModel.isotropic(0.1),
        "diagonal": NoiseModel.diagonal(diagonal),
        "dense": NoiseModel.dense((q * diagonal) @ q.T),
    }
    ops = {
        "apply": ("x", lambda e, x: e.op.apply(x)),
        "adjoint": ("y", lambda e, y: e.op.adjoint(y)),
        "pinv_apply": ("y", lambda e, y: e.pinv_apply(y)),
        "range_projector_apply": ("x", lambda e, x: e.range_projector_apply(x)),
        "nullspace_projector_apply": ("x", lambda e, x: e.nullspace_projector_apply(x)),
        "regularized_solve": ("yx", lambda e, y, x: e.regularized_solve(y, x, 3.0)),
        "exact_correction": ("yx", exact_correction),
    }
    for name, noise in noises.items():
        config = CorrectionConfig(mode="regularized", lam=0.05, noise=noise)
        ops[f"regularized_correction[{name}]"] = (
            "yx", lambda e, y, x, config=config: regularized_correction(e, y, x, config)
        )
    return ops


@pytest.mark.parametrize("index", range(len(BLOCK_ENGINES)), ids=BLOCK_ENGINES)
def test_block_equals_column_stack(index, rng):
    # every layer maps an (n, N) block column by column; the mask and the
    # blur filter elementwise, so their blocks match bit for bit
    streamed = make_random_projection(32, 8, seed=2, materialize_limit=0)
    engines = _engine_zoo(rng, cg_tol=1e-13) + [make_engine(streamed, cg_tol=1e-13)]
    engine = engines[index]
    assert engine.op.materializable() != (BLOCK_ENGINES[index] == "cg_streamed")
    bitwise = isinstance(engine, (MaskEngine, SpectralEngine))
    blocks = {
        "x": rng.standard_normal((engine.op.n, 3)),
        "y": rng.standard_normal((engine.op.m, 3)),
    }
    for name, (args, operation) in _block_operations(rng, engine.op.m).items():
        inputs = [blocks[a] for a in args]
        block = operation(engine, *inputs)
        columns = [operation(engine, *(b[:, j] for b in inputs)) for j in range(3)]
        stacked = np.stack(columns, axis=1)
        assert block.shape == stacked.shape, name
        if bitwise:
            assert np.array_equal(block, stacked), name
        else:
            error = np.linalg.norm(block - stacked)
            assert error <= 1e-12 * np.linalg.norm(stacked), (name, error)


def test_single_column_block_keeps_its_shape(engine_zoo, rng):
    for engine in engine_zoo:
        x = rng.standard_normal((engine.op.n, 1))
        assert engine.op.apply(x).shape == (engine.op.m, 1)
        assert engine.nullspace_projector_apply(x).shape == (engine.op.n, 1)
        assert engine.op.apply(x.T).shape == (engine.op.m,)
