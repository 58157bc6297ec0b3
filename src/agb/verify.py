"""Brute-force cross-validation of every bound on a concrete evaluation table."""

from . import bounds, evalcode, oracle
from .errors import AgbError, UnsupportedParameter
from .hstar import HStar


def run_verification(table: evalcode.EvaluationTable, max_dim: int | None = None,
                     ghw_r: int | None = None,
                     budget: oracle.SearchBudget | None = None) -> list[dict]:
    """Check every bound against the true value found by exhaustive search.

    The bounds are d*, the generic bound and the Goppa bound along the code
    chain, the GHW bounds up to ``ghw_r``, and the designed distance of each
    improved code.  Returns one record per inequality checked.

    Every code checked is a set of chain rows, keyed by their indices (the
    first k for the chain code of dimension k, the indices of
    ``bounds.improved_profile`` for an improved code), and its duals come
    from the chain's one inverse B^-1, so no search eliminates.  One
    ``oracle.CodeSearch`` over the chain rows answers C_1..C_n, so each of
    their subspaces is listed once; its Wei route lists the columns of B^-1
    in reverse order, whose first n - k span the dual of C_k.  An improved
    code that is no chain code gets a search of its own, asked only at its
    whole basis, its dual the columns of B^-1 outside its rows.  True
    weights are kept under (indices, r): records that check the same code
    at the same r share one query.  ``None`` means no cap and no GHW
    checks; a given ``max_dim`` or ``ghw_r`` below 1 raises
    UnsupportedParameter.
    """
    for name, value in (("max_dim", max_dim), ("ghw_r", ghw_r)):
        if value is not None and value < 1:
            raise UnsupportedParameter(f"{name} must be at least 1, got {value}")
    budget = budget or oracle.SearchBudget.from_env()
    checks = []
    searches = {}
    weights = {}

    def record(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    hs = evalcode.empirical_hstar(table)
    ref = HStar.from_equiv_divisor(table.semigroup, table.n)
    record("hstar-matches-construction", hs == ref,
           f"measured jumps {list(hs.members)}")

    chain = evalcode.code_chain(table)
    nested = oracle.CodeSearch(table.field, chain.basis,
                               lambda: chain.dual_rows(())[::-1])

    def true_weight(idx, r=1):
        if (idx, r) not in weights:
            if idx != tuple(range(len(idx))) and idx not in searches:
                searches[idx] = oracle.CodeSearch(
                    table.field, chain.basis[list(idx)],
                    lambda: chain.dual_rows(idx))
            search = searches.get(idx, nested)
            weights[idx, r] = search.weight(r, len(idx), budget)
        return weights[idx, r]

    profile = bounds.lambda_profile(hs)
    q = table.field.q
    cap_dim = max_dim if max_dim is not None else table.n

    def searchable(dim, r=1):
        return 0 < dim <= cap_dim and budget.fits(dim, r, q)

    checked = [(m, dim) for m, dim in
               enumerate(evalcode.measured_dimensions(table)) if searchable(dim)]
    # largest first: the chain keeps the rows 1..D it measures for the
    # largest checked dimension D, and every smaller one reads them
    generic = {dim: chain.generic_bound(dim) for _, dim in reversed(checked)}
    for m, dim in checked:
        d_true = true_weight(tuple(range(dim)))
        ds = profile.d_star(dim)
        gb = generic[dim]
        record(f"dstar-m{m}", d_true >= ds,
               f"dim {dim}: true {d_true} >= bound {ds}")
        record(f"generic-m{m}", d_true >= gb,
               f"dim {dim}: true {d_true} >= bound {gb}")
        if m < table.n:
            record(f"goppa-m{m}", d_true >= table.n - m,
                   f"true {d_true} >= {table.n - m}")

    if ghw_r is not None:
        queries = [(m, dim, r) for dim, m in enumerate(hs.members, start=1)
                   for r in range(1, min(ghw_r, dim) + 1)
                   if searchable(dim, r)]
        ghw = bounds.ghw_table(hs, [(r, dim) for _, dim, r in queries])
        for (m, dim, r), entry in zip(queries, ghw.entries):
            dr = true_weight(tuple(range(dim)), r)
            record(f"ghw-m{m}-r{r}", dr >= entry.bound,
                   f"dim {dim}: true {dr} >= bound {entry.bound}")

    for delta in range(1, hs.n + 1):
        idx = tuple(i - 1 for i in bounds.improved_profile(hs, delta).indices)
        dim = len(idx)
        if not searchable(dim):
            continue
        d_true = true_weight(idx)
        record(f"improved-delta{delta}", d_true >= delta,
               f"dim {dim}: true {d_true} >= designed {delta}")

    x = oracle.find_isometry_vector(chain)
    if hs.is_isometry_dual():
        ok = x is not None
        detail = f"witness {list(x)}" if ok else "no witness found"
        record("isometry-witness", ok, detail)
        if ok:
            try:
                evalcode.biorthogonal_adjust(table, x)
                record("biorthogonal-adjust", True,
                       "pairing pattern holds for all rows")
            except AgbError as exc:
                record("biorthogonal-adjust", False, str(exc))
    else:
        record("isometry-witness", x is None,
               "correctly absent" if x is None else f"unexpected witness {x}")
    return checks
