package index

// This file exists because bench/ — the repository's benchmark, its own
// module, frozen between the PRs that are allowed to edit it — still
// calls these. Nothing else in the tree does (internal/benchsuite keeps
// them as its all-matches baseline); when bench/ moves to QueryPage they
// go.

// QueryIDs is Query returning plain strings: QueryPage with no limit.
func (ix *Index) QueryIDs(q string) ([]string, error) {
	p, err := ix.QueryPage(nil, q, -1)
	return p.IDs, err
}

// QueryIDs is Oracle.Query returning plain strings, as Index.QueryIDs
// does.
func (o *Oracle) QueryIDs(q string) ([]string, error) {
	ids, err := o.Query(q)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out, nil
}
