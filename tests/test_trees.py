import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from trisym import (
    SymbolTable,
    TreeError,
    Triplet,
    canonical_form,
    collapse_to_discriminating,
    displayed_triplets,
    induced_subtree,
    is_discriminating,
    labelled_isomorphic,
    parse_newick,
    parse_tree,
    tree_to_text,
)
from trisym.trees import (LabelledTree, ROOTED, TreeBuilder, UNROOTED, median_of,
                          table_triples)


# -- independent oracles -------------------------------------------------------

def bfs_path(tree, x, y):
    """Full BFS path between two leaves, as an independent route to lca/median."""
    u, v = tree.vertex_of(x), tree.vertex_of(y)
    prev = {u: None}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            for z in tree.adj[w]:
                if z not in prev:
                    prev[z] = w
                    nxt.append(z)
        frontier = nxt
    path = [v]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return list(reversed(path))


def median_oracle(tree, x, y, z):
    common = set(bfs_path(tree, x, y)) & set(bfs_path(tree, x, z)) & set(bfs_path(tree, y, z))
    assert len(common) == 1
    return common.pop()


def lca_oracle(tree, x, y):
    # walk root-to-leaf paths explicitly and take the last shared vertex
    def root_path(name):
        v = tree.vertex_of(name)
        path = [v]
        while tree.parent[v] is not None:
            v = tree.parent[v]
            path.append(v)
        return list(reversed(path))

    a, b = root_path(x), root_path(y)
    last = a[0]
    for p, q in zip(a, b):
        if p != q:
            break
        last = p
    return last


# -- random tree generation ----------------------------------------------------

def random_labelled_tree(seed, n_leaves, flavor, symbol_names=("A", "B"),
                         discriminating=False):
    """Grow a random shape by leaf insertion, then label interior vertices."""
    rng = random.Random(seed)
    names = [str(i + 1) for i in range(n_leaves)]
    shape = (names[0], names[1])
    for leaf in names[2:]:
        positions = [("root", None)]
        stack = [(shape, ())]
        while stack:
            node, path = stack.pop()
            if isinstance(node, tuple):
                positions.append(("child", path))
                for i, c in enumerate(node):
                    positions.append(("edge", path + (i,)))
                    stack.append((c, path + (i,)))
        kind, path = rng.choice(positions)

        def rebuild(node, path, make):
            if not path:
                return make(node)
            i = path[0]
            return node[:i] + (rebuild(node[i], path[1:], make),) + node[i + 1:]

        if kind == "root":
            shape = (shape, leaf)
        elif kind == "child":
            shape = rebuild(shape, path, lambda nd: nd + (leaf,))
        else:
            shape = rebuild(shape, path[:-1],
                            lambda nd, i=path[-1]: nd[:i] + ((nd[i], leaf),) + nd[i + 1:])

    table = SymbolTable(symbol_names)
    syms = list(table)
    builder = TreeBuilder()
    labels = {}

    def walk(node):
        if isinstance(node, str):
            return builder.add_vertex(node)
        v = builder.add_vertex()
        for c in node:
            builder.add_edge(v, walk(c))
        return v

    if flavor == UNROOTED:
        top = walk(shape)
        extra = builder.add_vertex(str(n_leaves + 1))
        builder.add_edge(top, extra)
        tree = builder.tree(UNROOTED)
    else:
        tree = builder.tree(ROOTED, root=walk(shape))

    for v in sorted(tree.interior_vertices()):
        if discriminating:
            taken = {labels[w] for w in tree.adj[v] if w in labels}
            choices = [s for s in syms if s not in taken]
            labels[v] = rng.choice(choices)
        else:
            labels[v] = rng.choice(syms)
    return LabelledTree(tree, labels, table)


seeds = st.integers(min_value=0, max_value=2**31 - 1)


# -- parsing and validation ------------------------------------------------------

def test_parse_rejects_missing_interior_label():
    with pytest.raises(TreeError):
        parse_newick("rooted", "((1,2),3)A;")


def test_parse_rejects_degree_two():
    with pytest.raises(TreeError):
        parse_newick("rooted", "((1)B,2)A;")
    with pytest.raises(TreeError):
        parse_newick("unrooted", "((1,2)B,3)A;")  # top vertex would have degree 2


def test_parse_rejects_duplicate_leaves():
    with pytest.raises(TreeError):
        parse_newick("rooted", "(1,1,2)A;")


def test_parse_tree_needs_header():
    with pytest.raises(TreeError):
        parse_tree("((1,2)B,3)A;")


def test_text_roundtrip_examples(five_leaf_rooted, five_leaf_unrooted):
    for lt in (five_leaf_rooted, five_leaf_unrooted):
        again = parse_tree(tree_to_text(lt))
        assert labelled_isomorphic(lt, again)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6),
       st.sampled_from([ROOTED, UNROOTED]))
def test_text_roundtrip_random(seed, n, flavor):
    lt = random_labelled_tree(seed, n, flavor)
    assert labelled_isomorphic(lt, parse_tree(tree_to_text(lt)))


# -- lca and median ----------------------------------------------------------------

def test_lca_examples(five_leaf_rooted):
    tree = five_leaf_rooted.tree
    v = tree.lca("1", "2")
    assert five_leaf_rooted.labels[v].name == "B"
    assert tree.lca("1", "2") == tree.parent[tree.vertex_of("1")]
    star = parse_newick("rooted", "(1,2,3,4)A;")
    assert star.tree.lca("2", "4") == star.tree.root


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6))
def test_lca_matches_root_path_oracle(seed, n):
    lt = random_labelled_tree(seed, n, ROOTED)
    for x, y in combinations(lt.tree.leaf_order, 2):
        assert lt.tree.lca(x, y) == lca_oracle(lt.tree, x, y)


def test_median_examples(five_leaf_unrooted):
    lt = five_leaf_unrooted
    assert lt.median_label("1", "3", "5").name == "A"
    star = parse_newick("unrooted", "(1,2,3,4)A;")
    center = star.tree.median("1", "2", "4")
    assert not star.tree.is_leaf(center)
    quartet = parse_newick("unrooted", "(1,2,(3,4)B)A;")
    med = quartet.tree.median("1", "2", "3")
    assert set(quartet.tree.adj[med]) >= {quartet.tree.vertex_of("1"),
                                          quartet.tree.vertex_of("2")}


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6))
def test_median_matches_path_intersection_oracle(seed, n):
    lt = random_labelled_tree(seed, n, UNROOTED)
    for x, y, z in combinations(lt.tree.leaf_order, 3):
        assert lt.tree.median(x, y, z) == median_oracle(lt.tree, x, y, z)


def test_unknown_leaf_raises(five_leaf_rooted, five_leaf_unrooted):
    with pytest.raises(TreeError):
        five_leaf_rooted.tree.lca("1", "9")
    with pytest.raises(TreeError):
        five_leaf_unrooted.tree.median("1", "2", "9")


def test_median_rejects_repeated_leaves_and_rooted_trees(five_leaf_rooted,
                                                         five_leaf_unrooted):
    with pytest.raises(TreeError):
        five_leaf_unrooted.tree.median("1", "2", "1")
    with pytest.raises(TreeError):
        five_leaf_rooted.tree.median("1", "2", "3")


# -- the all-pairs leaf-lca table ----------------------------------------------------

def renumbered(lt, rng):
    """The same labelled tree with its vertices renumbered at random, a leaf
    first: unrooted tables are rooted at vertex 0, so this roots them at a
    leaf."""
    tree = lt.tree
    order = list(range(tree.n_vertices))
    rng.shuffle(order)
    first = next(v for v in order if tree.is_leaf(v))
    order.remove(first)
    order.insert(0, first)
    new = {v: i for i, v in enumerate(order)}
    builder = TreeBuilder()
    for v in order:
        builder.add_vertex(tree.leaf_name.get(v))
    for u, w in tree.edges():
        builder.add_edge(new[u], new[w])
    root = new[tree.root] if tree.flavor == ROOTED else None
    again = builder.tree(tree.flavor, root=root, leaf_order=tree.leaf_order)
    return LabelledTree(again, {new[v]: s for v, s in lt.labels.items()}, lt.symbols)


def start_lca_oracle(tree, start, x, y):
    """The vertex of the x-y path nearest to start, by breadth-first distance:
    the lca of x and y with the tree rooted at start."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for z in tree.adj[w]:
                if z not in dist:
                    dist[z] = dist[w] + 1
                    nxt.append(z)
        frontier = nxt
    return min(bfs_path(tree, x, y), key=dist.__getitem__)


def table_trees():
    """Seeded random trees with 4-14 leaves and polytomies, rooted and
    unrooted, as generated (interior vertex 0) and renumbered (leaf 0)."""
    rng = random.Random(5113)
    for seed in range(24):
        for flavor in (ROOTED, UNROOTED):
            lt = random_labelled_tree(seed, 4 + seed % 11, flavor)
            yield lt
            yield renumbered(lt, rng)


def test_leaf_lca_table_matches_the_oracles():
    leaf_rooted = 0
    for lt in table_trees():
        tree = lt.tree
        lca = tree.leaf_lca_table()
        leaf_rooted += tree.flavor == UNROOTED and tree.is_leaf(0)
        for (i, x), (j, y) in combinations(enumerate(tree.leaf_order), 2):
            if tree.flavor == ROOTED:
                want = lca_oracle(tree, x, y)
            else:
                want = start_lca_oracle(tree, 0, x, y)
            assert lca[i][j] == lca[j][i] == want
        for i, x in enumerate(tree.leaf_order):
            assert lca[i][i] == tree.vertex_of(x)
    assert leaf_rooted > 0


def test_median_from_lcas_matches_the_bfs_oracle():
    for lt in table_trees():
        tree = lt.tree
        if tree.flavor != UNROOTED:
            continue
        from_table = [median_of(*t) for t in table_triples(tree.leaf_lca_table())]
        for (x, y, z), med in zip(combinations(tree.leaf_order, 3), from_table):
            want = median_oracle(tree, x, y, z)
            assert med == want
            assert tree.median(x, y, z) == tree.median(z, x, y) == want


# -- induced subtrees ---------------------------------------------------------------

def test_induced_subtree_examples(five_leaf_rooted, ab_table):
    sub = induced_subtree(five_leaf_rooted, ["1", "2", "3"])
    want = parse_newick("rooted", "((1,2)B,3)A;", ab_table)
    assert labelled_isomorphic(sub, want)

    full = induced_subtree(five_leaf_rooted, five_leaf_rooted.leaf_order)
    assert labelled_isomorphic(full, five_leaf_rooted)

    cherry = induced_subtree(five_leaf_rooted, ["1", "2"])
    assert cherry.tree.n_leaves == 2
    assert [cherry.labels[v].name for v in cherry.tree.interior_vertices()] == ["B"]


def test_induced_subtree_rejects_foreign_names(five_leaf_rooted):
    with pytest.raises(TreeError):
        induced_subtree(five_leaf_rooted, ["1", "9"])


# -- discriminating collapse -----------------------------------------------------------

def test_collapse_noop_on_discriminating(five_leaf_rooted):
    assert is_discriminating(five_leaf_rooted)
    assert labelled_isomorphic(collapse_to_discriminating(five_leaf_rooted),
                               five_leaf_rooted)


def test_collapse_single_edge(ab_table):
    lt = parse_newick("rooted", "((1,2)A,3,4)A;", ab_table)
    assert not is_discriminating(lt)
    out = collapse_to_discriminating(lt)
    assert is_discriminating(out)
    assert labelled_isomorphic(out, parse_newick("rooted", "(1,2,3,4)A;", ab_table))


def test_collapse_chain_merges_all(ab_table):
    lt = parse_newick("rooted", "((((1,2)A,3)A,4)A,5)A;", ab_table)
    out = collapse_to_discriminating(lt)
    assert is_discriminating(out)
    assert labelled_isomorphic(out, parse_newick("rooted", "(1,2,3,4,5)A;", ab_table))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6),
       st.sampled_from([ROOTED, UNROOTED]))
def test_collapse_fixpoint_is_discriminating(seed, n, flavor):
    lt = random_labelled_tree(seed, n, flavor)
    out = collapse_to_discriminating(lt)
    assert is_discriminating(out)
    assert set(out.leaf_order) == set(lt.leaf_order)


# -- displayed triplets ------------------------------------------------------------------

def test_displayed_triplets_star():
    star = parse_newick("rooted", "(1,2,3,4)A;")
    assert len(displayed_triplets(star)) == 0


def test_displayed_triplets_caterpillar():
    cat = parse_newick("rooted", "(((1,2)A,3)B,4)C;")
    got = {repr(t) for t in displayed_triplets(cat)}
    assert got == {"12|3", "12|4", "13|4", "23|4"}


def test_displayed_triplets_example(five_leaf_rooted):
    trips = displayed_triplets(five_leaf_rooted)
    assert Triplet.of("1", "2", "5") in trips
    got = {repr(t) for t in trips}
    assert got == {"12|3", "12|4", "12|5", "34|1", "34|2", "34|5"}


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=4, max_value=6))
def test_at_most_one_triplet_per_triple(seed, n):
    lt = random_labelled_tree(seed, n, ROOTED)
    trips = displayed_triplets(lt)
    by_leaves = {}
    for t in trips:
        by_leaves.setdefault(t.leaves, []).append(t)
    assert all(len(v) == 1 for v in by_leaves.values())


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(min_value=5, max_value=6), seeds)
def test_restriction_only_removes_triplets(seed, n, pick):
    lt = random_labelled_tree(seed, n, ROOTED, discriminating=True)
    rng = random.Random(pick)
    sub = rng.sample(lt.leaf_order, 4)
    trimmed = collapse_to_discriminating(induced_subtree(lt, sub))
    inside = {t for t in displayed_triplets(lt) if t.leaves <= set(sub)}
    assert set(displayed_triplets(trimmed)) <= inside


# -- isomorphism ----------------------------------------------------------------------------

def test_isomorphic_to_permuted_self(five_leaf_rooted, ab_table):
    permuted = parse_newick("rooted", "(5,(3,4)B,(2,1)B)A;", ab_table)
    assert labelled_isomorphic(five_leaf_rooted, permuted)


def test_label_change_breaks_isomorphism(ab_table):
    a = parse_newick("rooted", "((1,2)B,3,4)A;", ab_table)
    b = parse_newick("rooted", "((1,2)A,3,4)B;", ab_table)
    assert not labelled_isomorphic(a, b)


def test_leaf_names_matter(ab_table):
    a = parse_newick("rooted", "((1,2)B,3,4)A;", ab_table)
    b = parse_newick("rooted", "((1,3)B,2,4)A;", ab_table)
    assert not labelled_isomorphic(a, b)


def test_isomorphism_is_equivalence(ab_table):
    a = parse_newick("rooted", "((1,2)B,(3,4)B,5)A;", ab_table)
    b = parse_newick("rooted", "((4,3)B,5,(2,1)B)A;", ab_table)
    c = parse_newick("rooted", "(5,(1,2)B,(3,4)B)A;", ab_table)
    assert labelled_isomorphic(a, a)
    assert labelled_isomorphic(a, b) == labelled_isomorphic(b, a)
    assert labelled_isomorphic(a, b) and labelled_isomorphic(b, c)
    assert labelled_isomorphic(a, c)


def test_unrooted_isomorphism(ab_table):
    a = parse_newick("unrooted", "((1,2)B,3,(4,5)B)A;", ab_table)
    b = parse_newick("unrooted", "((4,5)B,(2,1)B,3)A;", ab_table)
    assert labelled_isomorphic(a, b)
    c = parse_newick("unrooted", "((1,3)B,2,(4,5)B)A;", ab_table)
    assert not labelled_isomorphic(a, c)


def test_canonical_form_ignores_vertex_numbering(five_leaf_rooted, ab_table):
    other = parse_newick("rooted", "((3,4)B,(1,2)B,5)A;", ab_table)
    assert canonical_form(five_leaf_rooted) == canonical_form(other)


# -- triplet file format -------------------------------------------------------

def test_triplet_text_roundtrip(five_leaf_rooted):
    from trisym import parse_triplets

    ts = displayed_triplets(five_leaf_rooted)
    text = ts.text()
    assert "1 2 | 3" in text.splitlines()
    again = parse_triplets(text, ts.ground)
    assert set(again) == set(ts)


def test_triplet_parse_rejects_bad_lines():
    from trisym import parse_triplets

    with pytest.raises(TreeError):
        parse_triplets("1 2 3 | 4", ("1", "2", "3", "4"))
    with pytest.raises(TreeError):
        parse_triplets("1 2 | 9", ("1", "2", "3"))
