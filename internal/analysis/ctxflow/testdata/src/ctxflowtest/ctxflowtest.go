// Package ctxflowtest is the ctxflow golden fixture: a library package
// (rule 3 applies) exercising every rule and every allowance.
package ctxflowtest

import "context"

// Store is a fake engine with a Search/SearchContext method pair.
type Store struct{}

// SearchContext is the context-taking form.
func (s *Store) SearchContext(ctx context.Context, q string) error {
	return ctx.Err()
}

// Search is the documented convenience wrapper: Background feeding a
// context-taking method of the wrapper's own receiver is allowed.
func (s *Store) Search(q string) error {
	return s.SearchContext(context.Background(), q)
}

// Find is the same wrapper under an unrelated name: the receiver, not the
// spelling, makes it one.
func (s *Store) Find(q string) error {
	return s.SearchContext(context.Background(), q)
}

// viaOther roots a Background into another value's method: not a wrapper
// of s's own API (rule 3).
func (s *Store) viaOther(o *Store) error {
	return o.SearchContext(context.Background(), "q") // want "context.Background\\(\\) in library code"
}

// freshInsideCtx severs the caller's cancellation chain (rule 1).
func freshInsideCtx(ctx context.Context, s *Store) error {
	return s.SearchContext(context.Background(), "q") // want "context.Background\\(\\) inside a function that receives a context.Context"
}

// todoInsideCtx: TODO is no better than Background (rule 1).
func todoInsideCtx(ctx context.Context, s *Store) error {
	return s.SearchContext(context.TODO(), "q") // want "context.TODO\\(\\) inside a function that receives a context.Context"
}

// droppedVariant calls the context-less form while holding a ctx (rule 2).
func droppedVariant(ctx context.Context, s *Store) error {
	return s.Search("q") // want "calling Search while holding a ctx: use SearchContext"
}

// threaded passes the ctx on — clean.
func threaded(ctx context.Context, s *Store) error {
	return s.SearchContext(ctx, "q")
}

// litInherits: a closure inside a ctx-holding function holds that ctx too
// (rule 1 through a function literal).
func litInherits(ctx context.Context, s *Store) func() error {
	return func() error {
		return s.SearchContext(context.Background(), "q") // want "context.Background\\(\\) inside a function that receives a context.Context"
	}
}

// libraryRoot mints a fresh root in library code without an allowlist
// (rule 3).
func libraryRoot(s *Store) error {
	return s.SearchContext(context.Background(), "q") // want "context.Background\\(\\) in library code"
}

// allowlistedRoot is the escape hatch: a stated reason suppresses rule 3.
func allowlistedRoot(s *Store) error {
	//lint:ignore ctxflow fixture: deliberate background root with a stated reason
	return s.SearchContext(context.Background(), "q")
}
