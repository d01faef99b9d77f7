package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"
)

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when the client disconnected before its answer was ready. The
// client never sees it; it keeps access logs and metrics honest.
const StatusClientClosedRequest = 499

// WriteJSON encodes v as the JSON body of a response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

// WriteError answers with an ErrorResponse carrying err's message.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

// Write answers with v in sp's spelling: WriteJSON, or for Frame one of the
// three response types AppendFrame spells, built in a recycled buffer.
// Errors are JSON (WriteError) in either spelling.
func (sp Spelling) Write(w http.ResponseWriter, status int, v any) {
	if sp != Frame {
		WriteJSON(w, status, v)
		return
	}
	buf := NewBuffer(0)
	defer buf.Release()
	buf.B = AppendFrame(buf.B, v)
	w.Header().Set("Content-Type", sp.ContentType())
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.B)))
	w.WriteHeader(status)
	_, _ = w.Write(buf.B) // the client is gone if this fails; nothing to do
}

// Buffer is a byte buffer recycled through one process-wide pool: request
// bodies (ReadBody), shard replies (ReadAll) and outgoing frames
// (Spelling.Write) all draw from it, so a steady request stream stops
// allocating for its bytes. Release is optional — an unreleased buffer is
// collected like any other — and must come after the last use of B and of
// anything that aliases it; the decoders of this package never alias their
// input.
type Buffer struct {
	B []byte
}

// maxPooledBytes is the largest buffer kept for reuse, and the most a
// Content-Length header alone can make ReadAll allocate up front; a bigger
// body grows into its size as its bytes actually arrive.
const maxPooledBytes = 1 << 20

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// NewBuffer returns an empty buffer with room for n bytes.
func NewBuffer(n int) *Buffer {
	b := bufferPool.Get().(*Buffer)
	if cap(b.B) < n {
		b.B = make([]byte, 0, n)
	}
	b.B = b.B[:0]
	return b
}

// Release hands the buffer back for reuse; b and b.B are dead afterwards.
func (b *Buffer) Release() {
	if cap(b.B) <= maxPooledBytes {
		bufferPool.Put(b)
	}
}

// ReadAll reads r to EOF into a recycled buffer. contentLength, when not
// negative, is the peer's claim of how much is coming: the buffer is sized
// for it up front (no more than maxPooledBytes on the claim alone) instead of
// doubling its way up from 512 bytes.
func ReadAll(r io.Reader, contentLength int64) (*Buffer, error) {
	size := int64(bytes.MinRead)
	if contentLength >= 0 {
		// One byte over: the Read that reports EOF needs somewhere to land.
		size = min(contentLength, maxPooledBytes) + 1
	}
	buf := NewBuffer(int(size))
	for {
		n, err := r.Read(buf.B[len(buf.B):cap(buf.B)])
		buf.B = buf.B[:len(buf.B)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			buf.Release()
			return nil, err
		}
		if len(buf.B) == cap(buf.B) {
			buf.B = slices.Grow(buf.B, cap(buf.B))
		}
	}
}

// ReadBody slurps one request body under a size cap and read deadline,
// shared by every serving layer, into a recycled buffer sized from the
// Content-Length header. The deadline bounds admission-slot occupancy
// against slow-trickling clients; writers that cannot set one (test
// recorders) are served without it. On failure it returns the HTTP
// status to answer with (400, 408, or 413) alongside the error, and has
// already marked the connection for closure — the connection still holds
// unread body bytes, and net/http's post-handler drain of them must not
// wait past the deadline either.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBytes int64, timeout time.Duration) (body *Buffer, status int, err error) {
	rc := http.NewResponseController(w)
	hasDeadline := rc.SetReadDeadline(time.Now().Add(timeout)) == nil
	body, err = ReadAll(http.MaxBytesReader(w, r.Body, maxBytes), r.ContentLength)
	if err != nil {
		w.Header().Set("Connection", "close")
		status = http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			status = http.StatusRequestEntityTooLarge
		case errors.Is(err, os.ErrDeadlineExceeded):
			status = http.StatusRequestTimeout
		}
		return nil, status, err
	}
	if hasDeadline {
		_ = rc.SetReadDeadline(time.Time{}) // disarm for the next request
	}
	return body, 0, nil
}
