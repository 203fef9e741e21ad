"""The package's one public name list, built from its modules' ``__all__``."""

import bootperc

# every public name, by hand: adding or removing one means editing this list on purpose
LISTED_BY_HAND = [
    "Edge", "VertexLabel", "Hypergraph", "EdgeError", "DuplicateVertexError", "ArityError",
    "VertexRangeError", "VertexTypeError", "LabelRangeError", "make_edge", "label_to_id",
    "id_to_label", "layer_width",
    "InfectionTrace", "RunResult", "TupleBudgetExceeded", "DEFAULT_MAX_TUPLES", "step",
    "run_naive", "run_fast",
    "SequentialCertificate", "CertificateError", "Bounds", "base_running_time",
    "full_running_time", "build_base", "glue", "lift", "build_full",
    "theorem_bounds", "k_for_n", "witness_for_n",
    "VerificationReport", "BruteForceResult", "EngineDisagreement", "SearchCapExceeded",
    "NAIVE_CROSS_CHECK_LIMIT", "DEFAULT_EDGE_CAP", "verify_sequential", "check_density",
    "clique_census", "brute_force_max_time",
    "__version__",
]


def test_no_name_is_listed_twice():
    assert len(bootperc.__all__) == len(set(bootperc.__all__))


def test_every_name_resolves():
    for name in bootperc.__all__:
        assert getattr(bootperc, name) is not None, name


def test_keeps_every_name_listed_by_hand():
    assert len(LISTED_BY_HAND) == len(set(LISTED_BY_HAND)) == 43
    assert sorted(LISTED_BY_HAND) == sorted(bootperc.__all__)


def test_each_module_name_is_the_module_object():
    for module in (bootperc.core, bootperc.engine, bootperc.constructions, bootperc.verify):
        for name in module.__all__:
            assert getattr(bootperc, name) is getattr(module, name), name
