"""Hypothesis strategies for schema-valid scene files, built from the shapes
in scene.schema.json: one monoid, snc, nc or chart scene, with the optional
assignment and options.  Integers are drawn from ints and positive integers
(ranks, levels, branch indices, codimensions) from pos; labelled lists hold
at most three entries."""

from hypothesis import strategies as st


def scenes(ints: st.SearchStrategy, pos: st.SearchStrategy) -> st.SearchStrategy:
    label = st.one_of(st.text("ABCD", max_size=2), ints)
    intvec = st.lists(ints, min_size=1, max_size=3)
    assignment = st.fixed_dictionaries(
        {
            "value_system": st.sampled_from(["int", "int_vector", "poly"]),
            "values": st.dictionaries(
                st.text("XD_{}12", max_size=4), st.one_of(ints, st.lists(ints, max_size=2)), max_size=3,
            ),
        },
        optional={"invariant": st.text("KG", max_size=1)},
    )
    options = st.fixed_dictionaries({}, optional={
        "level": st.one_of(pos, st.lists(pos, min_size=1, max_size=3)),
        "order": st.sampled_from(["standard", "factorial"]),
        "prime_to": st.integers(2, 7),
    })
    extras = {"assignment": assignment, "options": options}
    crossing = st.fixed_dictionaries(
        {"branches": st.lists(st.tuples(label, pos).map(list), min_size=1, max_size=3)},
        optional={"name": st.text("NM", max_size=2), "codim": pos},
    )
    chart = st.fixed_dictionaries({"rank": pos, "generators": st.lists(intvec, min_size=1, max_size=3)})
    return st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("monoid"), "rank": pos, "generators": st.lists(intvec, min_size=1, max_size=3)},
            optional={"options": options},
        ),
        st.fixed_dictionaries(
            {"kind": st.just("snc"), "components": st.lists(label, min_size=1, max_size=3),
             "nonempty": st.lists(st.lists(label, max_size=3), max_size=4)},
            optional={"empty": st.lists(st.lists(label, max_size=3), max_size=2), **extras},
        ),
        st.fixed_dictionaries(
            {"kind": st.just("nc"), "components": st.lists(label, min_size=1, max_size=3),
             "crossings": st.lists(crossing, max_size=3)},
            optional={"closure_pairs": st.lists(st.lists(st.text("NE", max_size=2), min_size=2, max_size=2),
                                                max_size=2),
                      "ambient_dim": pos, **extras},
        ),
        st.fixed_dictionaries(
            {"kind": st.just("chart"), "charts": st.lists(chart, min_size=1, max_size=2)},
            optional=extras,
        ),
    )
