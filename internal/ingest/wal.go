// Package ingest is CLIMBER's streaming write path: a write-ahead log that
// makes appends durable at ack time, an in-memory delta index that makes
// them searchable immediately, and a background compactor that drains the
// delta into the immutable partition files the static index was built from.
//
// The paper's prototype — like the data-series indexes surveyed by the
// Lernaean Hydra evaluations — builds its index once over a frozen dataset.
// A production service sees series arrive continuously, so this package
// bolts a log-structured front onto the static layout: writes are fsynced
// into the WAL and routed into the delta via the exact Skeleton.RouteRecord
// navigation used at build time, each search step ranks the delta runs of
// the clusters it scans in its partition's files, and once size or age
// thresholds trip the compactor lands the delta in new partition files,
// persists the manifest of the view naming them and publishes it with a
// fresh delta (one core.Index.Drain), and truncates the WAL.
//
// A drain does not rewrite the index. Each partition it touches gets its
// incoming records merged into the partition's tail — a small second file
// beside the base — and only a tail that has reached an eighth of its base
// is folded into it, so a drain's cost follows what was appended, not what
// is stored, and the bases stay mapped. The two rare admin
// paths that need every record in the base files, Barrier (backup) and
// BeginRebuild (reindex), fold every tail first. What a kill inside a drain
// leaves is put right by the next open: core reads the files the last saved
// manifest names and sweeps every other partition file, and replay skips the
// records that manifest counts (ARCHITECTURE.md, "Compact").
// A background drain that fails is retried on the next trigger, counted,
// and logged.
package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

const (
	walMagic   = "CLWL"
	walVersion = 1
	// walHeaderSize is magic + version + seriesLen.
	walHeaderSize = 12
	// maxWALPayload caps a record's payload so a corrupt length prefix
	// cannot trigger a huge allocation during replay.
	maxWALPayload = 1 << 26
)

// Entry is one logged append: the assigned record ID and the series values.
// Values round-trip through float32 — the same precision partition files
// store — so a replayed entry is bit-identical to what compaction would
// have written.
type Entry struct {
	ID     int
	Values []float64
}

// AppendEntry encodes one WAL record onto dst and returns the extended
// slice. The wire format is length-prefixed and checksummed:
//
//	u32 payloadLen | u32 crc32(payload) | payload
//	payload = u64 id | float32 values...
func AppendEntry(dst []byte, e Entry) []byte {
	payloadLen := 8 + 4*len(e.Values)
	var pfx [8]byte
	binary.LittleEndian.PutUint32(pfx[0:4], uint32(payloadLen))
	start := len(dst) + 8
	dst = append(dst, pfx[:]...)
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], uint64(e.ID))
	dst = append(dst, idb[:]...)
	var vb [4]byte
	for _, v := range e.Values {
		binary.LittleEndian.PutUint32(vb[:], math.Float32bits(float32(v)))
		dst = append(dst, vb[:]...)
	}
	binary.LittleEndian.PutUint32(dst[start-4:start], crc32.ChecksumIEEE(dst[start:]))
	return dst
}

// DecodeEntry decodes one WAL record from the front of b, returning the
// entry and the number of bytes consumed. It never panics on arbitrary
// input: a short buffer, an oversized or misaligned length prefix, or a
// checksum mismatch return an error with n == 0.
func DecodeEntry(b []byte) (e Entry, n int, err error) {
	if len(b) < 8 {
		return Entry{}, 0, fmt.Errorf("ingest: truncated WAL record prefix (%d bytes)", len(b))
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:4]))
	if payloadLen < 8 || payloadLen > maxWALPayload || (payloadLen-8)%4 != 0 {
		return Entry{}, 0, fmt.Errorf("ingest: invalid WAL payload length %d", payloadLen)
	}
	if len(b) < 8+payloadLen {
		return Entry{}, 0, fmt.Errorf("ingest: truncated WAL payload (%d of %d bytes)", len(b)-8, payloadLen)
	}
	payload := b[8 : 8+payloadLen]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return Entry{}, 0, fmt.Errorf("ingest: WAL record checksum mismatch: computed %08x, stored %08x", got, want)
	}
	e.ID = int(binary.LittleEndian.Uint64(payload[0:8]))
	e.Values = make([]float64, (payloadLen-8)/4)
	for i := range e.Values {
		e.Values[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[8+4*i : 12+4*i])))
	}
	return e, 8 + payloadLen, nil
}

// WAL is a write-ahead log of appended series. Append fsyncs before
// returning — an acked write survives a process kill — and Reset truncates
// the log after its entries have been compacted into partition files.
// A WAL is not safe for concurrent use; the ingester serialises access.
type WAL struct {
	f    *os.File
	path string
	size int64
}

// OpenWAL opens (creating if absent) the log at path for series of the
// given length and replays its records. Replay tolerates a crash mid-write:
// the first truncated or corrupt record marks the tail, everything after it
// is discarded, and the file is truncated back to the last durable record
// so new appends continue from a clean boundary.
func OpenWAL(path string, seriesLen int) (*WAL, []Entry, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open WAL: %w", err)
	}
	// One writer per database directory: a second live process attaching an
	// ingestion pipeline here would replay, compact, and truncate the WAL
	// out from under the first, losing acked writes. The lock dies with the
	// process, so a kill -9 never wedges the directory. Read-only access
	// (climber.WithReadOnly) opens no WAL and needs no lock.
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: WAL %s is held by another process (one writer per database directory; open read-only for tooling): %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: stat WAL: %w", err)
	}
	w := &WAL{f: f, path: path}

	if info.Size() < walHeaderSize {
		// Fresh (or header-truncated, which only a crash during creation
		// can produce — nothing was acked): write a clean header.
		if err := w.writeHeader(seriesLen); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}

	var hdr [walHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: read WAL header: %w", err)
	}
	if string(hdr[0:4]) != walMagic {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: bad WAL magic %q in %s", hdr[0:4], path)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != walVersion {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: unsupported WAL version %d", v)
	}
	if sl := int(binary.LittleEndian.Uint32(hdr[8:12])); sl != seriesLen {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: WAL series length %d, index stores %d", sl, seriesLen)
	}

	entries, goodSize, err := replay(f, info.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if goodSize < info.Size() {
		// Crash mid-write left a partial record; drop the tail.
		if err := f.Truncate(goodSize); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: truncate WAL tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: sync WAL after tail truncation: %w", err)
		}
	}
	w.size = goodSize
	return w, entries, nil
}

// replay scans records from after the header, stopping at the first invalid
// one, and returns the entries plus the byte offset of the valid prefix.
func replay(f *os.File, size int64) ([]Entry, int64, error) {
	if _, err := f.Seek(walHeaderSize, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("ingest: seek WAL records: %w", err)
	}
	body := make([]byte, size-walHeaderSize)
	if _, err := io.ReadFull(bufio.NewReaderSize(f, 1<<16), body); err != nil {
		return nil, 0, fmt.Errorf("ingest: read WAL records: %w", err)
	}
	var entries []Entry
	off := 0
	for off < len(body) {
		e, n, err := DecodeEntry(body[off:])
		if err != nil {
			break // corrupt or truncated tail: everything after is discarded
		}
		entries = append(entries, e)
		off += n
	}
	return entries, walHeaderSize + int64(off), nil
}

// writeHeader stamps a fresh log with the magic/version/seriesLen header
// and fsyncs it before the WAL is handed out.
//
//climber:ack
func (w *WAL) writeHeader(seriesLen int) error {
	var hdr [walHeaderSize]byte
	copy(hdr[0:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(seriesLen))
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("ingest: truncate WAL: %w", err)
	}
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("ingest: write WAL header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ingest: sync WAL header: %w", err)
	}
	w.size = walHeaderSize
	return nil
}

// Append logs the entries and fsyncs: when Append returns nil, the entries
// survive a process kill and OpenWAL will replay them.
//
// Writes land at the tracked valid size (WriteAt, not the file offset), so
// a failed or short write cannot poison the log: w.size only advances on
// full success, the partial bytes are truncated away best-effort, and even
// if that truncation fails the next Append overwrites them in place —
// an acked record can never end up behind garbage that replay would stop
// at.
//
//climber:ack
func (w *WAL) Append(entries []Entry) error {
	var buf []byte
	for _, e := range entries {
		buf = AppendEntry(buf, e)
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		_ = w.f.Truncate(w.size)
		return fmt.Errorf("ingest: append WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		_ = w.f.Truncate(w.size)
		return fmt.Errorf("ingest: sync WAL: %w", err)
	}
	w.size += int64(len(buf))
	return nil
}

// Reset truncates the log back to its header after a compaction has landed
// every logged entry in partition files. The truncation is fsynced, so a
// crash immediately after Reset replays nothing.
//
//climber:ack
func (w *WAL) Reset() error {
	if err := w.f.Truncate(walHeaderSize); err != nil {
		return fmt.Errorf("ingest: reset WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ingest: sync WAL reset: %w", err)
	}
	w.size = walHeaderSize
	return nil
}

// Size returns the log's current byte size including the header.
func (w *WAL) Size() int64 { return w.size }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close releases the file handle. It does not truncate: unreplayed entries
// stay durable for the next OpenWAL.
func (w *WAL) Close() error { return w.f.Close() }
