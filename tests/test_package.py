import dyckgen

# The package surface: the union of its modules' __all__ lists. A module
# that changes its __all__ fails here until this list changes with it.
SURFACE = [
    "BITS",
    "Decomposition",
    "DyckWord",
    "ENUMERATION_WARN_N",
    "LatticePath",
    "MAX_HALF_LENGTH",
    "MAX_RENDER_N",
    "PARENS",
    "PrefixCounts",
    "RIGHT",
    "SymbolPair",
    "UP",
    "brute_force_all",
    "brute_force_next",
    "catalan",
    "check_half_length",
    "decompose",
    "enumerate_words",
    "first_violation",
    "from_path",
    "is_dyck",
    "is_dyck_text",
    "max_value",
    "max_word",
    "min_value",
    "min_word",
    "next_in_place",
    "next_string",
    "next_unchecked",
    "next_word",
    "paper_next",
    "prefix_counts",
    "render_grid",
    "successor_from_decomposition",
    "to_path",
    "walk_values",
]


def test_public_surface_is_pinned():
    assert sorted(dyckgen.__all__) == SURFACE
    assert len(set(dyckgen.__all__)) == len(dyckgen.__all__)


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from dyckgen import *", namespace)
    for name in dyckgen.__all__:
        assert namespace[name] is getattr(dyckgen, name)
