"""The benchmark's tracer wraps qccd functions and reads qccd caches by
name; a rename in src/ must fail here rather than in a traced bench run."""
import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    tracing = load_tracing()
    for name, targets in tracing.TARGETS.items():
        for modname, owner, attr in targets:
            assert modname in tracing.MODULES, name
            module = importlib.import_module(f"qccd.{modname}")
            where = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(where.get(attr)), (name, modname, owner, attr)


def test_qc_caches_report():
    tracing = load_tracing()
    from qccd import qc

    for name in tracing.QC_CACHES:
        assert hasattr(getattr(qc, name), "cache_info"), name
    assert set(tracing.cache_counts()) == {"polyring.factor"} | {
        f"qc.{name}" for name in tracing.QC_CACHES
    }


def test_enum_counter_reads_the_signature():
    # the codeword counter reads weight_distribution's arguments by position
    import inspect

    from qccd import lincode
    from qccd.field import make_field

    tracing = load_tracing()
    params = inspect.signature(lincode.weight_distribution).parameters
    assert list(params) == ["field", "rows", "n"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (p, k), rows in [((3, 1), [[1, 2, 0], [0, 1, 1]]), ((2, 2), [[1, 3, 2, 0]] * 3)]:
            field = make_field(p, k)
            before = tracer.counters["lincode.enum.codewords"]
            lincode.weight_distribution(field, rows, len(rows[0]))
            assert tracer.counters["lincode.enum.codewords"] - before == field.order ** len(rows)
    finally:
        tracer.uninstall()
