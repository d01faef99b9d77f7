// Package mmapsafetest is the mmapsafe golden fixture: raw scan callbacks
// (func(id int, rec []byte) error) that retain the record slice past the
// callback — field stores, globals, captured variables, aliasing appends,
// composite literals — plus every safe consumption shape the analyzer must
// leave alone (kernels, byte copies, local aliases, the //climber:mmapscan
// blessing, the lint:ignore escape hatch) — and the unsafe reinterpretation
// only internal/series may perform.
package mmapsafetest

import "unsafe"

// partition mimics the storage.Partition raw scan surface: the analyzer
// matches callbacks by shape, so the fixture needs no real import.
type partition struct{}

func (p *partition) ScanClusterRaw(id int, fn func(id int, rec []byte) error) error {
	return fn(0, make([]byte, 16))
}

func (p *partition) ScanClusterRuns(id int, fn func(recs, sums []byte) error) error {
	return fn(make([]byte, 16), make([]byte, 1))
}

// sink is a global a bad callback leaks mapped bytes into.
var sink []byte

// collector holds leaked records for the field-store cases.
type collector struct {
	last []byte
	recs [][]byte
}

// storeGlobal leaks the record slice into a package variable.
func storeGlobal(p *partition) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		sink = rec // want "stored in variable \"sink\" declared outside the callback"
		return nil
	})
}

// storeField leaks the record slice into a struct field.
func storeField(p *partition, c *collector) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		c.last = rec // want "stored outside the callback frame"
		return nil
	})
}

// storeSubslice leaks a sub-slice, which aliases the same mapping.
func storeSubslice(p *partition, c *collector) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		c.last = rec[8:] // want "stored outside the callback frame"
		return nil
	})
}

// storeCaptured leaks through a variable captured from the enclosing
// function — alive long after the scan returns.
func storeCaptured(p *partition) ([]byte, error) {
	var keep []byte
	err := p.ScanClusterRaw(0, func(id int, rec []byte) error {
		keep = rec // want "stored in variable \"keep\" declared outside the callback"
		return nil
	})
	return keep, err
}

// appendAlias retains every record by reference in a [][]byte.
func appendAlias(p *partition, c *collector) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		c.recs = append(c.recs, rec) // want "appended by reference"
		return nil
	})
}

// localAliasEscapes taints a local alias and then leaks it.
func localAliasEscapes(p *partition) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		tail := rec[4:]
		sink = tail // want "stored in variable \"sink\" declared outside the callback"
		return nil
	})
}

// compositeLeak embeds the record slice in a value that outlives the call.
func compositeLeak(p *partition, out chan<- collector) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		out <- collector{last: rec} // want "embedded in a composite literal"
		return nil
	})
}

// namedCallback is a raw callback declared at package level; the shape rule
// still applies.
func namedCallback(id int, rec []byte) error {
	sink = rec // want "stored in variable \"sink\" declared outside the callback"
	return nil
}

// consumeInPlace is the supported idiom: the kernel reads rec during the
// callback and nothing survives it.
func consumeInPlace(p *partition) (float64, error) {
	total := 0.0
	err := p.ScanClusterRaw(0, func(id int, rec []byte) error {
		d := 0.0
		for _, b := range rec {
			d += float64(b)
		}
		total += d
		return nil
	})
	return total, err
}

// copyOut copies the bytes that must outlive the callback — both shapes.
func copyOut(p *partition, c *collector) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		buf := make([]byte, len(rec))
		copy(buf, rec)
		c.last = buf
		c.recs = append(c.recs, append([]byte(nil), rec...))
		return nil
	})
}

// localAliasOnly keeps an alias strictly inside the callback — fine.
func localAliasOnly(p *partition) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		head := rec[:8]
		_ = head[0]
		return nil
	})
}

// blessedHelper carries the //climber:mmapscan marker: scan infrastructure
// that manages record lifetimes itself is exempt, closures included.
//
//climber:mmapscan
func blessedHelper(p *partition) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		sink = rec
		return nil
	})
}

// ignoredSite uses the per-site escape hatch.
func ignoredSite(p *partition) error {
	return p.ScanClusterRaw(0, func(id int, rec []byte) error {
		//lint:ignore mmapsafe fixture demonstrates the escape hatch
		sink = rec
		return nil
	})
}

// notACallback has a different shape; stores of its slice are out of scope.
func notACallback(vals []byte) {
	sink = vals
}

// unsafeView reinterprets the record bytes as float32s: the typed view
// aliases the mapping but no escape rule can see it leave.
func unsafeView(p *partition) (float32, error) {
	var first float32
	err := p.ScanClusterRaw(0, func(id int, rec []byte) error {
		vals := unsafe.Slice((*float32)(unsafe.Pointer(&rec[0])), len(rec)/4) // want "reinterpreted through unsafe.Pointer"
		first = vals[0]
		tail := rec[8:]
		_ = unsafe.SliceData(tail) // want "reinterpreted through unsafe.SliceData"
		return nil
	})
	return first, err
}

// kernel stands in for a series scan kernel: it takes the bytes and
// returns a number.
func kernel(rec []byte) float64 { return float64(len(rec)) }

// kernelCall hands rec to a kernel, the supported way to read its readings;
// unsafe applied to anything else in the callback is not the analyzer's
// business.
func kernelCall(p *partition) (float64, error) {
	total := 0.0
	err := p.ScanClusterRaw(0, func(id int, rec []byte) error {
		total += kernel(rec) + float64(unsafe.Sizeof(id))
		return nil
	})
	return total, err
}

// runLeaksSummaries retains a run's summary bytes, which alias the mapping
// as its records do.
func runLeaksSummaries(p *partition, c *collector) error {
	return p.ScanClusterRuns(0, func(recs, sums []byte) error {
		c.last = sums[2:] // want "stored outside the callback frame"
		return nil
	})
}

// runLeaksRecord retains one record of a run through a local alias.
func runLeaksRecord(p *partition) error {
	return p.ScanClusterRuns(0, func(recs, sums []byte) error {
		rec := recs[8:16]
		sink = rec // want "stored in variable \"sink\" declared outside the callback"
		return nil
	})
}

// runConsumesInPlace is the supported idiom for runs: records and summaries
// handed to kernels, nothing kept.
func runConsumesInPlace(p *partition) (float64, error) {
	total := 0.0
	err := p.ScanClusterRuns(0, func(recs, sums []byte) error {
		for off := 0; off+8 <= len(recs); off += 8 {
			total += kernel(recs[off : off+8])
		}
		total += kernel(sums)
		return nil
	})
	return total, err
}
