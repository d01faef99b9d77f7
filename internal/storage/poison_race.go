//go:build race

package storage

// poisonReleased makes released partition memory unreadable in race builds:
// unmapFile leaves a released mapping in place with no access, and putBuf
// fills a pooled buffer with 0xFF bytes, NaN readings. A scan that kept a
// record slice past its partition's release then faults or ranks NaN, where
// a plain build reads whatever lands at that address next.
const poisonReleased = true
