package climber

import "context"

// abandonForTest simulates a process kill for crash-recovery tests: the
// ingestion pipeline stops and the WAL closes with its contents intact (no
// final compaction), releasing the single-writer file lock exactly as a
// real process death would. The DB must not be used afterwards.
func (db *DB) abandonForTest() { db.ing.Abandon() }

// foldTailsForTest drains the delta and folds every partition tail into its
// base — what Backup and Reindex do first — so a test can start from, or
// compare, base files that hold every record.
func (db *DB) foldTailsForTest() error {
	return db.ing.Barrier(context.Background(), func() error { return nil })
}

// The helpers below are Query / QueryBatch in the shapes this package's
// tests compare: results (and stats) as separate values, no context.

func searchStats(db *DB, q []float64, k int, opts ...SearchOption) ([]Result, Stats, error) {
	resp, err := db.Query(context.Background(), NewRequest(q, k, opts...))
	return resp.Results, resp.Stats, err
}

func searchPrefix(db *DB, q []float64, k int, opts ...SearchOption) ([]Result, error) {
	req := NewRequest(q, k, opts...)
	req.Prefix = true
	resp, err := db.Query(context.Background(), req)
	return resp.Results, err
}

func searchProgressive(db *DB, q []float64, k int, fn func(SearchUpdate) bool, opts ...SearchOption) ([]Result, Stats, error) {
	req := NewRequest(q, k, opts...)
	req.Progress = fn
	resp, err := db.Query(context.Background(), req)
	return resp.Results, resp.Stats, err
}

func searchBatch(db *DB, queries [][]float64, k int) ([][]Result, error) {
	batch, err := db.QueryBatch(context.Background(), queries, NewRequest(nil, k), 0)
	out := make([][]Result, len(batch))
	for i, resp := range batch {
		out[i] = resp.Results
	}
	return out, err
}
