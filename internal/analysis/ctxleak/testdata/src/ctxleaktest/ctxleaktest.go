// Package ctxleaktest is the ctxleak golden fixture: scatter-loop
// goroutines that can and cannot be cancelled.
package ctxleaktest

import (
	"context"
	"sync"
)

func work() {}

// scatterBad launches workers no cancellation can reach.
func scatterBad(ctx context.Context, parts []int) {
	var wg sync.WaitGroup
	for range parts {
		wg.Add(1)
		go func() { // want "goroutine launched with a ctx in scope neither consults the context nor receives from a channel"
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// scatterSelect workers select on ctx.Done() — clean.
func scatterSelect(ctx context.Context, parts []int) {
	done := make(chan struct{})
	defer close(done)
	for range parts {
		go func() {
			select {
			case <-ctx.Done():
			case <-done:
			}
		}()
	}
}

// scatterErrCheck workers consult ctx directly — clean.
func scatterErrCheck(ctx context.Context, parts []int) {
	var wg sync.WaitGroup
	for range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			work()
		}()
	}
	wg.Wait()
}

// scatterClosure delegates to a local closure that checks ctx between
// steps — a scatter over workers, credited one level deep.
func scatterClosure(ctx context.Context, parts []int) {
	scan := func(i int) {
		if ctx.Err() != nil {
			return
		}
		work()
	}
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan(i)
		}()
	}
	wg.Wait()
}

// scatterRecv workers drain a channel the launcher closes on cancel —
// clean (a receive unblocks on close; a send would not).
func scatterRecv(ctx context.Context, jobs chan int) {
	go func() {
		for j := range jobs {
			_ = j
			work()
		}
	}()
}

// noCtx has no context in scope: fire-and-forget is the caller's problem.
func noCtx(parts []int) {
	for range parts {
		go func() {
			work()
		}()
	}
}

// allowlisted is the escape hatch for a deliberate detached goroutine.
func allowlisted(ctx context.Context) {
	//lint:ignore ctxleak fixture: fire-and-forget telemetry with a stated reason
	go func() {
		work()
	}()
}
