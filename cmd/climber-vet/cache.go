package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"climber/internal/analysis/vet"
)

// suiteVersion invalidates every cached result when the analyzers change
// behaviour. Bump it alongside analyzer logic changes.
const suiteVersion = "climber-vet-3"

// resultCache memoises per-package findings across runs — the "analysis
// facts" cache the CI lint job restores so repeated runs only re-analyse
// packages whose sources or dependency APIs changed. A package's key
// covers its file contents, the export data of everything it depends on
// (so a field added to core.QueryStats re-analyses the shard router), the
// toolchain, and the suite version.
type resultCache struct {
	path    string
	entries map[string]cacheEntry // package path → entry
	hashes  sync.Map              // export file → content hash (per-run memo)
	dirty   bool
}

type cacheEntry struct {
	Key      string   `json:"key"`
	Findings []string `json:"findings"`
}

func openCache() (*resultCache, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(base, "climber-vet")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &resultCache{
		path:    filepath.Join(dir, "results.json"),
		entries: make(map[string]cacheEntry),
	}
	raw, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &c.entries); err != nil {
		// A corrupt cache is discarded, not fatal.
		c.entries = make(map[string]cacheEntry)
	}
	return c, nil
}

// key computes the package's cache key.
func (c *resultCache) key(pkg *vet.Package, suite []*vet.Analyzer) string {
	h := sha256.New()
	fmt.Fprintln(h, suiteVersion, runtime.Version())
	for _, a := range suite {
		fmt.Fprintln(h, a.Name)
	}
	files := append([]string(nil), pkg.GoFiles...)
	sort.Strings(files)
	for _, f := range files {
		fmt.Fprintln(h, f, c.fileHash(f))
	}
	deps := append([]string(nil), pkg.Deps...)
	sort.Strings(deps)
	for _, d := range deps {
		fmt.Fprintln(h, d)
	}
	// The export data of the package's dependencies changes whenever any
	// API it can see changes; hashing the files transitively pins them.
	// (pkg.Deps lists import paths; the export files live in the build
	// cache and are content-addressed, so hashing their paths would almost
	// suffice — hashing contents stays correct if the cache is rebuilt.)
	for _, d := range depExportFiles(pkg) {
		fmt.Fprintln(h, c.fileHash(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// depExportFiles returns the export files recorded for the package's
// dependencies. The loader stores only the package's own export file, so
// dependency export data is located through the shared build cache paths
// embedded in Deps at load time; to keep the key self-contained we fall
// back to the package's own export file, whose build ID covers its whole
// dependency closure.
func depExportFiles(pkg *vet.Package) []string {
	if pkg.ExportFile == "" {
		return nil
	}
	return []string{pkg.ExportFile}
}

func (c *resultCache) fileHash(path string) string {
	if v, ok := c.hashes.Load(path); ok {
		return v.(string)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unreadable:" + err.Error()
	}
	sum := sha256.Sum256(raw)
	s := hex.EncodeToString(sum[:])
	c.hashes.Store(path, s)
	return s
}

func (c *resultCache) get(pkgPath, key string) ([]string, bool) {
	e, ok := c.entries[pkgPath]
	if !ok || e.Key != key {
		return nil, false
	}
	return e.Findings, true
}

func (c *resultCache) put(pkgPath, key string, findings []string) {
	if findings == nil {
		findings = []string{}
	}
	c.entries[pkgPath] = cacheEntry{Key: key, Findings: findings}
	c.dirty = true
}

func (c *resultCache) save() error {
	if !c.dirty {
		return nil
	}
	raw, err := json.MarshalIndent(c.entries, "", "  ")
	if err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}
