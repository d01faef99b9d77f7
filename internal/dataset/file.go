package dataset

import (
	"fmt"

	"climber/internal/series"
	"climber/internal/storage"
)

// SaveFile writes a dataset to one partition file, the interchange format of
// the command-line tools: records 0..n-1, all in cluster 0.
func SaveFile(path string, ds *series.Dataset) error {
	recs := make([]storage.Incoming, ds.Len())
	for id := range recs {
		recs[id] = storage.Incoming{ID: id, Values: ds.Get(id)}
	}
	_, _, err := storage.MergePartitions(path, ds.Length(), nil, recs, nil)
	return err
}

// LoadFile reads a dataset saved by SaveFile. Record IDs must be the dense
// sequence 0..n-1 (the file SaveFile produces); any other layout is rejected
// so positional IDs stay meaningful.
func LoadFile(path string) (*series.Dataset, error) {
	p, err := storage.OpenPartition(path)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	ds := series.NewDatasetCap(p.SeriesLen(), p.Count())
	next := 0
	err = p.ScanAll(func(id int, values []float64) error {
		if id != next {
			return fmt.Errorf("dataset: non-sequential record id %d at position %d", id, next)
		}
		ds.Append(values)
		next++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ds, nil
}
