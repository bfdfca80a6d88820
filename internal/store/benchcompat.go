package store

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/mosaic-hpc/mosaic/internal/core"
)

// This file exists because bench/ — the repository's benchmark, its own
// module, frozen between the PRs that are allowed to edit it — still
// calls these. Nothing else in the tree does; when bench/ moves to
// PutOutcomeCtx and stops timing an explanation put, they go.

// PutResultCtx is PutOutcomeCtx without the record it hands back.
func (s *Store) PutResultCtx(ctx context.Context, id TraceID, fp string, res *core.Result) error {
	_, err := s.PutOutcomeCtx(ctx, id, fp, res)
	return err
}

// PutExplanation appends e's JSON as an explanation frame of (trace,
// config fingerprint) and returns its size. The store no longer reads
// such frames: like the ones older stores hold, it is skipped on every
// open and never indexed, so the call costs a write and serves nothing.
func (s *Store) PutExplanation(id TraceID, fp string, e any) (int, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return 0, fmt.Errorf("store: encoding explanation %s: %w", id, err)
	}
	if err := s.putRecords(context.Background(), "explanation",
		record{kind: kindExplain, key: explainKeyOf(id, fp), value: data}); err != nil {
		return 0, err
	}
	return len(data), nil
}

func explainKeyOf(id TraceID, fp string) string { return "e/" + string(id) + "/" + fp }
