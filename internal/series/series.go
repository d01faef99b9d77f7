// Package series provides the fundamental data-series types and distance
// primitives used throughout CLIMBER (paper Section III-A, Definitions 1-3).
//
// A data series X = [x1, x2, ..., xn] is an ordered sequence of real-valued
// readings; a series of length n is a point in an n-dimensional space. A
// Dataset is a collection of same-length series stored in one flat backing
// slice so that millions of series stay cache- and GC-friendly.
package series

import (
	"fmt"
	"math"
)

// Dataset is a collection of data series, all of the same length
// (paper Definition 2). Series are identified by their position: the i-th
// appended series has ID i. The backing storage is a single flat slice.
type Dataset struct {
	length int
	vals   []float64
}

// NewDataset returns an empty dataset for series of the given length.
// It panics if length is not positive, since a zero-length series is
// meaningless in every CLIMBER code path.
func NewDataset(length int) *Dataset {
	if length <= 0 {
		panic(fmt.Sprintf("series: dataset length must be positive, got %d", length))
	}
	return &Dataset{length: length}
}

// NewDatasetCap returns an empty dataset with capacity pre-allocated for n
// series of the given length.
func NewDatasetCap(length, n int) *Dataset {
	d := NewDataset(length)
	d.vals = make([]float64, 0, length*n)
	return d
}

// Length reports the length n of each series in the dataset.
func (d *Dataset) Length() int { return d.length }

// Len reports the number of series currently stored.
func (d *Dataset) Len() int { return len(d.vals) / d.length }

// Append adds a series and returns its ID. The series must have exactly
// Length() readings.
func (d *Dataset) Append(x []float64) int {
	if len(x) != d.length {
		panic(fmt.Sprintf("series: appending series of length %d to dataset of length %d", len(x), d.length))
	}
	id := d.Len()
	d.vals = append(d.vals, x...)
	return id
}

// Get returns the series with the given ID. The returned slice aliases the
// dataset's backing storage; callers must not modify it.
func (d *Dataset) Get(id int) []float64 {
	off := id * d.length
	return d.vals[off : off+d.length : off+d.length]
}

// Values exposes the flat backing slice (length Len()*Length()). It is used
// by the storage layer to serialise datasets without copying.
func (d *Dataset) Values() []float64 { return d.vals }

// Slice returns a view dataset containing series [lo, hi). The view shares
// backing storage with d.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	return &Dataset{length: d.length, vals: d.vals[lo*d.length : hi*d.length]}
}

// Mean returns the arithmetic mean of x.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	mu := Mean(x)
	var s float64
	for _, v := range x {
		dv := v - mu
		s += dv * dv
	}
	return math.Sqrt(s / float64(len(x)))
}

// ZNormalize normalises x in place to zero mean and unit standard deviation.
// Constant series (zero deviation) are mapped to all zeros, the convention
// used by the iSAX family of indexes.
func ZNormalize(x []float64) {
	mu := Mean(x)
	sd := StdDev(x)
	if sd == 0 {
		for i := range x {
			x[i] = 0
		}
		return
	}
	for i := range x {
		x[i] = (x[i] - mu) / sd
	}
}
