//go:build linux || darwin

package series

import (
	"runtime/debug"
	"syscall"
	"testing"
)

// Prefetch is a hint and must never load: the scan calls it on mapped
// partition bytes, so a Prefetch that touched memory would turn a bad slice
// into a SIGSEGV in a server. Two anonymous pages, the second PROT_NONE:
// every call below that reached a byte of the second page would fault.
func TestPrefetchNeverFaults(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	// The second page really is protected: reading it faults.
	func() {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if recover() == nil {
				t.Fatal("reading the PROT_NONE page did not fault")
			}
		}()
		benchSink += float64(mem[page])
	}()

	Prefetch(nil)
	Prefetch(mem[page:page])
	for _, n := range []int{1, 63, 65, 1032} {
		straddle := page - (n+1)/2
		Prefetch(mem[straddle : straddle+n])
		Prefetch(mem[page : page+n])
		Prefetch(mem[page+3 : page+3+n])
		Prefetch(mem[2*page-n:])
	}
}
